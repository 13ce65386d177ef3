import importlib

import numpy as np
import pytest

from coporeg import (DEFAULT, CopositiveProgram, DualCertificate,
                     FaceLedgerEntry, LedgerError, LinearProgram, LpError, Record,
                     ReducedRegion, SipError, SipInstance, compress_ledger,
                     disjointness_condition, eval_constraint, face_forms_agree,
                     feasibility_equiv_sample, forced_zero_rows,
                     generate_instance, kernel_dimension, minimal_face,
                     one_step_regularize, quad_form, regularize,
                     sample_copositive, sample_feasible, update_index_sets,
                     solve_lp, verify_ledger)

from coporeg.lp import REL_EQ, REL_GE, REL_LE
from coporeg.model import (SimplexPoint, certificate_matrix, kernel_residual,
                           project_to_zero_rows, row_pairs, row_residuals,
                           zero_row_matrix)
from coporeg.oracle import is_copositive
from coporeg.regularize import face_rows
from coporeg.sip import _build_master, record_rows

from conftest import simplex

REGULARIZE = importlib.import_module("coporeg.regularize")


def _cert(new=(), lam=None, Y=None):
    return DualCertificate(new, lam or {}, Y, 0.0)


# ---------------------------------------------------------------------------
# driver on the hand instances

def test_e1_regular(e1):
    res = regularize(e1)
    assert res.status == "regular"
    assert res.m_star == 0
    assert not res.ledger


def test_e2_regularized(reg_e2):
    assert reg_e2.m_star == 1
    reg = reg_e2.regularized
    assert len(reg.records) == 1
    rec = reg.records[0]
    assert np.max(np.abs(rec.tau.coords - [1.0, 0.0])) <= 1e-6
    assert rec.L == frozenset({0})
    assert reg.eq_rows == ((0, 0),)
    assert reg.ineq_rows == ((0, 1),)
    assert reg.margin > 0


def test_e2_inequality_row_is_x_nonneg(e2, reg_e2):
    # the single inequality row must read  a*x >= b  with a > 0, b/a = 0
    from coporeg.sip import linear_row_data
    rec = reg_e2.regularized.records[0]
    coefs, rhs = linear_row_data(e2, rec.tau, 1)
    assert coefs[0] > 1e-6
    assert rhs / coefs[0] == pytest.approx(0.0, abs=1e-9)


def test_e3_regularized(reg_e3):
    assert reg_e3.m_star == 1
    rec = reg_e3.regularized.records[0]
    assert np.max(np.abs(rec.tau.coords - [0.5, 0.5])) <= 1e-6
    assert rec.L == frozenset({0, 1})
    assert reg_e3.regularized.eq_rows == ((0, 0), (0, 1))


def test_e4_two_iterations_empty_region(e4):
    res = regularize(e4)
    assert res.status == "regularized"
    assert res.m_star == 2
    assert len(res.ledger) == 2
    reg = res.regularized
    assert reg.omega.empty
    taus = sorted(tuple(r.tau.coords) for r in reg.records)
    assert np.allclose(taus, [(0.0, 1.0), (1.0, 0.0)])
    # second entry passed the support-disjointness condition
    assert res.ledger[1].cond_disjoint


def test_unexpected_error_in_the_driver_propagates(e2, monkeypatch):
    def buggy(*args, **kwargs):
        raise RuntimeError("bug")

    monkeypatch.setattr(REGULARIZE, "solve_sip", buggy)
    with pytest.raises(RuntimeError, match="^bug$"):
        regularize(e2)


def test_sip_give_up_fails_the_run_with_its_ledger(e2, monkeypatch):
    # the first solve certifies (1, 0); the second gives up
    solve = REGULARIZE.solve_sip
    calls = []

    def second_gives_up(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise SipError("optimum stuck between tol_zero and tol_neg", -5e-7, 7)
        return solve(*args, **kwargs)

    monkeypatch.setattr(REGULARIZE, "solve_sip", second_gives_up)
    res = regularize(e2)
    assert res.status == "failed"
    assert len(res.ledger) == 1
    assert res.diagnostics["reason"] == "optimum stuck between tol_zero and tol_neg"
    assert res.diagnostics["trace"][-1] == {
        "m": 1, "kind": "unresolved",
        "reason": "optimum stuck between tol_zero and tol_neg",
        "mu_star": -5e-7, "rounds": 7}
    assert set(res.diagnostics) == {"trace", "reason"}


def test_witness_margin_certified(e2, reg_e2):
    from coporeg.oracle import min_quad_over_omega
    reg = reg_e2.regularized
    res = min_quad_over_omega(eval_constraint(e2, reg.witness), reg.omega,
                              DEFAULT.grid_h(e2.p))
    assert res.value_lb >= reg.margin - 1e-9
    assert reg.margin > 0


def test_dimension_beyond_cap_reports_failed():
    prog = CopositiveProgram([1.0], [np.eye(4), np.zeros((4, 4))])
    res = regularize(prog, DEFAULT.replace(p_max=3))
    assert res.status == "failed"
    assert res.diagnostics["exception"] == "CapabilityError"


# ---------------------------------------------------------------------------
# state updates

def test_update_grows_l_from_lambda():
    records = (Record(simplex(1, 0), {0}),)
    cert = _cert(lam={0: np.array([0.0, 0.7])})
    new = update_index_sets(records, cert)
    assert new[0].L == frozenset({0, 1})


def test_update_appends_new_record():
    cert = _cert(new=[(simplex(0.5, 0.5), 1.0)])
    new = update_index_sets((), cert)
    assert len(new) == 1
    assert new[0].L == frozenset({0, 1})


def test_update_without_progress():
    records = (Record(simplex(1, 0), {0}),)
    cert = _cert(lam={0: np.array([0.0, 0.0])})
    new = update_index_sets(records, cert)
    assert new[0].L == records[0].L


def test_disjointness_examples():
    old = (Record(simplex(1, 0), {0}),)
    assert disjointness_condition(old, _cert(new=[(simplex(0, 1), 1.0)]))
    assert not disjointness_condition(old, _cert(new=[(simplex(0.5, 0.5), 1.0)]))
    assert disjointness_condition((), _cert(new=[(simplex(0.5, 0.5), 1.0)]))


# ---------------------------------------------------------------------------
# ledger construction

def test_reducing_matrix_rank_one(e2):
    Y = certificate_matrix(e2.p, [(simplex(1, 0), 1.0)], {}, [])
    assert np.allclose(Y, [[1.0, 0.0], [0.0, 0.0]])
    # kernel check by hand: A_0 . Y = 0 and A_1 . Y = 0
    assert abs(np.sum(e2.A[0] * Y)) <= 1e-12
    assert abs(np.sum(e2.A[1] * Y)) <= 1e-12


def test_reducing_matrix_interior_point(e3):
    Y = certificate_matrix(e3.p, [(simplex(0.5, 0.5), 1.0)], {}, [])
    assert np.allclose(Y, 0.25 * np.ones((2, 2)))
    assert kernel_residual(e3, Y) == 0.0


def test_reducing_matrix_symmetrized_lambda():
    # diagonal constraint matrices keep the symmetrized product in the kernel
    prog = CopositiveProgram([1.0], [np.zeros((2, 2)), np.diag([1.0, -1.0])])
    Y = certificate_matrix(prog.p, [], {0: np.array([0.0, 1.0])},
                           [simplex(1, 0)])
    assert np.allclose(Y, [[0.0, 1.0], [1.0, 0.0]])
    assert kernel_residual(prog, Y) == 0.0


def _in_face(records, D):
    """D lies in the face of ``records``: its rows hold (a stack of one)
    and it is copositive."""
    return bool(face_rows(records, [D])[1][0]) and is_copositive(D).copositive


def test_face_membership_examples(reg_e2):
    records = reg_e2.ledger[0].records
    assert _in_face(records, np.array([[0.0, 0.0], [0.0, 1.0]]))
    assert not _in_face(records, np.eye(2))
    assert _in_face((), np.eye(2))


def _copositivity_first(records, D, cfg=DEFAULT):
    """The membership forms decided copositivity first, rows second."""
    if not is_copositive(D, cfg.tol_cop, cfg.p_max).copositive:
        return False, False
    (eq_res,), (ineq_margin,) = row_residuals([D], records)
    eq = eq_res <= cfg.tol_feas
    return eq, eq and ineq_margin >= -cfg.tol_feas


def test_memberships_match_the_copositivity_first_definition(monkeypatch):
    # face_forms_agree, fed these samples, counts the members and the
    # disagreements of the copositivity-first forms
    rng = np.random.default_rng(11)
    seen = set()
    for p in (2, 3, 4, 5):
        half = np.zeros(p)
        half[:2] = 0.5
        records = (Record(SimplexPoint(np.eye(p)[0]), (0,)),
                   Record(SimplexPoint(half), (0, 1)))
        C = zero_row_matrix(records)
        samples = []
        for _ in range(40):
            D = sample_copositive(p, rng)
            S = rng.normal(size=(p, p))
            samples += [D, project_to_zero_rows(D, C),
                        project_to_zero_rows(S + S.T, C)]
        # copositive but off the rows; on the rows but not copositive
        samples.append(np.eye(p))
        bad = np.zeros((p, p))
        bad[-1, -1] = -1.0
        samples.append(bad)
        refs = [_copositivity_first(records, D) for D in samples]
        for D, ref in zip(samples, refs):
            assert _in_face(records, D) == ref[1]
            seen.add((is_copositive(D).copositive,
                      bool(face_rows(records, [D])[1][0])))
        # in blocks of at most 50, as _face_samples yields them
        blocks = [np.array(samples[i:i + 50]) for i in range(0, len(samples), 50)]
        monkeypatch.setattr(REGULARIZE, "_face_samples",
                            lambda *_a, blocks=blocks: iter(blocks))
        assert face_forms_agree(records, n_samples=len(samples)) == {
            "checked": len(samples), "members": sum(a for a, _b in refs),
            "disagreements": sum(a and not b for a, b in refs)}
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def _count_calls(monkeypatch, module, name):
    calls = []
    orig = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return orig(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_verify_ledger_runs_the_oracle_only_where_the_rows_hold(
        e2, reg_e2, monkeypatch):
    entry, = reg_e2.ledger
    C = zero_row_matrix(entry.records)
    rng = np.random.default_rng(3)
    row_members = []
    for s in range(200):
        D = sample_copositive(2, rng)
        if s % 2 == 1:
            D = project_to_zero_rows(D, C)
        if face_rows(entry.records, [D])[1][0]:
            row_members.append(D)
    calls = _count_calls(monkeypatch, REGULARIZE, "stationary_candidate_stack")
    single = _count_calls(monkeypatch, REGULARIZE, "is_copositive")
    rep = verify_ledger(reg_e2.ledger, e2, n_samples=200, seed=3)
    assert 0 < len(row_members) < 200
    # the stacks hold exactly the row members, in sample order
    stacked = np.concatenate([args[0] for args in calls])
    assert np.array_equal(stacked, np.array(row_members))
    assert single == []
    assert rep["entries"][0]["members_sampled"] <= len(row_members)


def test_equivalence_enumerates_each_sample_once(e2, reg_e2, monkeypatch):
    from coporeg import oracle
    stacks = _count_calls(monkeypatch, REGULARIZE, "stationary_candidate_stack")
    single = [_count_calls(monkeypatch, module, "stationary_candidates")
              for module in (oracle, REGULARIZE)]
    rep = feasibility_equiv_sample(e2, reg_e2.regularized, 50, seed=4)
    assert rep["samples"] == 50
    assert sum(len(args[0]) for args in stacks) == 50
    assert single == [[], []]


def _samples_one_at_a_time(p, records, n_samples, rng):
    """``_face_samples`` making each sample on its own, as a block of one:
    a sample of odd index is projected by its own call."""
    C = zero_row_matrix(records)
    for s in range(n_samples):
        D = sample_copositive(p, rng)
        yield (project_to_zero_rows(D, C) if s % 2 == 1 else D)[None]


def _members_one_at_a_time(records, blocks, cfg, equalities_only=False):
    """``_face_members`` deciding each sample on its own, as a stack of
    one: its rows, then ``is_copositive``."""
    for D in (D for Ds in blocks for D in Ds):
        (eq,), (both,) = face_rows(records, [D], cfg)
        if ((eq if equalities_only else both)
                and is_copositive(D, cfg.tol_cop, cfg.p_max).copositive):
            yield np.array([D]), np.array([both])


def _equiv_one_at_a_time(prog, reg, n_samples, seed, xs, cfg=DEFAULT):
    """Equivalence sampling with one draw, one enumeration and one sorted
    candidate walk per sample; each x is appended to ``xs``."""
    from coporeg.oracle import min_quad_over_omega, stationary_candidates
    rng = np.random.default_rng(seed)
    report = {"samples": n_samples, "agreements": 0, "ties": 0,
              "disagreements": []}
    box = REGULARIZE._EQUIV_BOX
    for _ in range(n_samples):
        x = reg.witness + rng.uniform(-box, box, size=prog.n)
        xs.append(x)
        ax = eval_constraint(prog, x)
        values, coords = stationary_candidates(ax, cfg.p_max)
        margin_a = float(values.min())
        (eq_res,), (ineq_margin,) = row_residuals([ax], reg.records)
        omega_margin = np.inf
        if not reg.omega.empty:
            omega_margin = min_quad_over_omega(ax, reg.omega,
                                               cfg.grid_h(prog.p)).value
            for i in np.argsort(values, kind="stable"):
                if values[i] >= min(-cfg.tol_band, omega_margin):
                    break
                if reg.omega.contains(coords[i]):
                    omega_margin = float(values[i])
                    break
        margin_b = min(-eq_res, ineq_margin, omega_margin)
        dec_b = (eq_res <= cfg.tol_band and ineq_margin >= -cfg.tol_band
                 and omega_margin >= -cfg.tol_band)
        if (margin_a >= -cfg.tol_cop) == dec_b:
            report["agreements"] += 1
        elif min(abs(margin_a), abs(margin_b)) <= cfg.tol_band:
            report["ties"] += 1
        else:
            report["disagreements"].append(
                {"x": x.tolist(), "margin_direct": margin_a,
                 "margin_regularized": margin_b})
    report["n_disagreements"] = len(report["disagreements"])
    return report


def test_blocked_sampling_matches_one_sample_at_a_time(e2, e4, reg_e2,
                                                       monkeypatch):
    two = [simplex(1, 0, 0), simplex(0, 1, 0)]
    planting = generate_instance(seed=50, p=3, n=2, planted=two)
    # no forced-zero rows: the two face forms disagree on some samples
    loose = (Record(simplex(1, 0), ()),)
    runs = {"e2": (e2, reg_e2), "e4": (e4, regularize(e4)),
            "planting50": (planting, regularize(planting))}
    reports = {}
    for name, (prog, res) in runs.items():
        faces = [res.regularized.records] + ([loose] if name == "e2" else [])
        # blocks of 7 samples: 50 samples end in a block of 1
        monkeypatch.setattr(REGULARIZE, "_STACK_ENTRIES",
                            7 * prog.p * ((1 << prog.p) - 1))
        assert REGULARIZE._block_size(prog.p) == 7
        xs, want_xs = [], []

        def recorded(prog, X, xs=xs):
            xs.extend(X)
            return eval_constraint(prog, X)

        monkeypatch.setattr(REGULARIZE, "eval_constraint", recorded)
        blocked = (feasibility_equiv_sample(prog, res.regularized, 50, seed=8),
                   verify_ledger(res.ledger, prog, n_samples=50, seed=9),
                   [face_forms_agree(f, n_samples=50, seed=10) for f in faces])
        monkeypatch.setattr(REGULARIZE, "_face_samples", _samples_one_at_a_time)
        monkeypatch.setattr(REGULARIZE, "_face_members", _members_one_at_a_time)
        want = (_equiv_one_at_a_time(prog, res.regularized, 50, 8, want_xs),
                verify_ledger(res.ledger, prog, n_samples=50, seed=9),
                [face_forms_agree(f, n_samples=50, seed=10) for f in faces])
        monkeypatch.undo()
        # a block's projections round apart from one-sample projections, so
        # an entry's largest orthogonality residual may move by a few ulps
        orth = [[e.pop("max_orthogonality") for e in rep["entries"]]
                for rep in (blocked[1], want[1])]
        assert np.max(np.abs(np.subtract(*orth)), initial=0.0) <= 1e-15, name
        assert blocked == want, name
        # the same x, bit for bit, in the same order
        assert np.array(xs).tobytes() == np.array(want_xs).tobytes(), name
        reports[name] = want
    for name, (equiv, ledger, agree) in reports.items():
        assert equiv["samples"] == 50
        assert all(e["members_sampled"] > 0 for e in ledger["entries"]), name
        assert agree[0]["members"] > 0 and agree[0]["disagreements"] == 0
    assert reports["e2"][2][1]["disagreements"] > 0


def test_rows_are_tested_once_per_block(e2, reg_e2, monkeypatch):
    # blocks of 7: 50 samples make 7 blocks of 7 and one of 1
    monkeypatch.setattr(REGULARIZE, "_STACK_ENTRIES", 7 * 2 * 3)
    records = reg_e2.regularized.records
    projected = _count_calls(monkeypatch, REGULARIZE, "project_to_zero_rows")
    blocks = list(REGULARIZE._face_samples(2, records, 50,
                                           np.random.default_rng(3)))
    assert [len(Ds) for Ds in blocks] == [7] * 7 + [1]
    # one projection per block, of the samples of odd index in the run: a
    # block that starts at an odd index projects its first sample
    assert [len(args[0]) for args in projected] == [3, 4] * 3 + [3, 1]
    Ds = np.concatenate(blocks)
    want = np.concatenate(list(_samples_one_at_a_time(
        2, records, 50, np.random.default_rng(3))))
    assert Ds[::2].tobytes() == want[::2].tobytes()
    assert np.max(np.abs(Ds[1::2] - want[1::2])) <= 1e-15
    calls = _count_calls(monkeypatch, REGULARIZE, "row_residuals")
    members = list(REGULARIZE._face_members(records, blocks, DEFAULT))
    assert [len(args[0]) for args in calls] == [7] * 7 + [1]
    assert sum(len(Ds) for Ds, _both in members) > 0
    calls.clear()
    feasibility_equiv_sample(e2, reg_e2.regularized, 50, seed=4)
    assert [len(args[0]) for args in calls] == [7] * 7 + [1]


def test_block_size_keeps_within_the_entry_cap():
    cap = REGULARIZE._STACK_ENTRIES
    for p, b in ((3, 49_932), (14, 4)):
        per_sample = p * ((1 << p) - 1)
        assert REGULARIZE._block_size(p) == b
        # the largest block within the cap
        assert b * per_sample <= cap < (b + 1) * per_sample
    blocks = REGULARIZE._face_samples(14, (), 10, np.random.default_rng(0))
    assert [Ds.shape for Ds in blocks] == [(4, 14, 14), (4, 14, 14), (2, 14, 14)]
    # a dimension whose one sample exceeds the cap still makes progress
    assert REGULARIZE._block_size(20) == 1


def test_verify_ledger_passes(e2, reg_e2):
    rep = verify_ledger(reg_e2.ledger, e2, n_samples=200, seed=3)
    assert rep["ok"]
    entry = rep["entries"][0]
    assert entry["kernel_residual"] <= 1e-7
    assert entry["members_sampled"] > 0
    assert entry["monotonicity_violations"] == 0
    assert entry["orthogonality_violations"] == 0


def test_verify_ledger_tests_an_entrys_new_points_in_one_call(e4, monkeypatch):
    # e4's second entry tests its new point against the region of the
    # first entry's record: one contains call on the stack of its points
    ledger = regularize(e4).ledger
    calls = []
    contains = ReducedRegion.contains

    def counted(region, T):
        calls.append(np.array(T).tolist())
        return contains(region, T)

    monkeypatch.setattr(ReducedRegion, "contains", counted)
    rep = verify_ledger(ledger, e4, n_samples=100, seed=3)
    assert rep["ok"]
    assert [e["cond_I"]["new_points_in_region"] for e in rep["entries"]] == [True, True]
    assert calls == [[[0.0, 1.0]]]
    # a new point inside the region beside one outside it fails the entry
    first, second = ledger
    inside, _g = second.certificate.new_indices[0]
    bad = FaceLedgerEntry(2, second.prev_records, _cert(
        ((inside, 0.5), (simplex(1, 0), 0.5)), {}, second.certificate.Y))
    rep = verify_ledger([first, bad], e4, n_samples=20, seed=3)
    assert rep["entries"][1]["cond_I"]["new_points_in_region"] is False
    assert calls[1:] == [[[0.0, 1.0], [1.0, 0.0]]]


def test_verify_ledger_detects_corruption(e2, reg_e2):
    good = reg_e2.ledger[0]
    cert = good.certificate
    bad = FaceLedgerEntry(good.index, good.prev_records,
                          _cert(cert.new_indices, cert.lam, np.eye(2)))
    rep = verify_ledger([bad], e2, n_samples=50, seed=3)
    assert not rep["ok"]
    assert rep["entries"][0]["kernel_residual"] == pytest.approx(1.0)


def test_verify_ledger_empty_is_vacuous(e2):
    rep = verify_ledger([], e2)
    assert rep["ok"]
    assert rep["entries"] == []


# ---------------------------------------------------------------------------
# compression

def _entry(index, Y):
    return FaceLedgerEntry(index, (), _cert(Y=np.asarray(Y, dtype=float)))


def test_compress_single_entry(reg_e2, e2):
    comp = compress_ledger(reg_e2.ledger, e2)
    assert comp.s_star == 0
    assert len(comp.core) == 1
    assert comp.mapping == (1,)


def test_compress_squeezes_dependent():
    Y1 = np.array([[1.0, 0.0], [0.0, 0.0]])
    comp = compress_ledger([_entry(1, Y1), _entry(2, 2.0 * Y1)])
    assert comp.mapping == (1,)
    assert comp.s_star == 0


def test_compress_keeps_independent():
    comp = compress_ledger([_entry(1, [[1.0, 0.0], [0.0, 0.0]]),
                            _entry(2, [[0.0, 1.0], [1.0, 0.0]])])
    assert comp.mapping == (1, 2)
    assert comp.s_star == 1


def test_compress_kernel_bound(e2):
    # three independent reducers cannot fit a kernel of dimension one
    entries = [_entry(1, [[1.0, 0.0], [0.0, 0.0]]),
               _entry(2, [[0.0, 1.0], [1.0, 0.0]]),
               _entry(3, [[0.0, 0.0], [0.0, 1.0]])]
    assert kernel_dimension(e2) == 1
    with pytest.raises(LedgerError, match="kernel"):
        compress_ledger(entries, e2)


# ---------------------------------------------------------------------------
# one-step regularization

def test_one_step_e2(e2):
    reg = one_step_regularize(e2, [simplex(1, 0)])
    assert reg.eq_rows == ((0, 0),)
    assert reg.ineq_rows == ((0, 1),)
    assert reg.margin >= 1e-6
    assert reg.omega.sigma == pytest.approx(1.0)


def test_one_step_e3_strict_equalities(e3):
    reg = one_step_regularize(e3, [simplex(0.5, 0.5)])
    assert reg.eq_rows == ((0, 0), (0, 1))
    assert reg.ineq_rows == ()
    assert reg.margin >= 1e-6


def test_one_step_loose_mode(e3):
    reg = one_step_regularize(e3, [simplex(0.5, 0.5)], strict=False)
    assert reg.eq_rows == ()
    assert reg.ineq_rows == ((0, 0), (0, 1))
    assert reg.margin >= 1e-6


def test_one_step_empty_w(e2):
    with pytest.raises(ValueError, match="nonempty"):
        one_step_regularize(e2, [])


def test_one_step_incomplete_vertex_set(e3):
    # supplying a non-immobile vertex pins x = 0, where the true immobile
    # point (1/2, 1/2) blocks the witness search
    with pytest.raises(ValueError, match="not the full vertex set"):
        one_step_regularize(e3, [simplex(1, 0)])


def test_one_step_checks_w_at_the_origin_before_the_solve(e2, monkeypatch):
    # A_0 is copositive, so x = 0 is feasible, and t'A(0)t = 1 at (0, 1)
    def no_solve(*_a, **_kw):
        raise AssertionError("solve_sip called")

    monkeypatch.setattr(REGULARIZE, "solve_sip", no_solve)
    with pytest.raises(ValueError, match=r"supplied point \[0.0, 1.0\] is not "
                       "immobile: quadratic value 1.000e\\+00 at a feasible x"):
        one_step_regularize(e2, [simplex(0, 1)])


def test_one_step_give_up_raises(e2, monkeypatch):
    monkeypatch.setattr(importlib.import_module("coporeg.sip"), "_CUT_ROUNDS", 1)
    with pytest.raises(SipError, match="round cap exceeded") as info:
        one_step_regularize(e2, [simplex(1, 0)])
    assert info.value.rounds == 1


def test_one_step_empty_region(e4):
    # both immobile vertices: their hull covers the simplex
    reg = one_step_regularize(e4, [simplex(1, 0), simplex(0, 1)])
    assert reg.omega.empty
    assert reg.margin > 0


# ---------------------------------------------------------------------------
# minimal face

def test_forced_zero_rows_e2(e2, reg_e2):
    M = forced_zero_rows(e2, simplex(1, 0), reg_e2.regularized)
    assert M == (0,)


def test_forced_zero_rows_row_lp_failure_is_typed(e2, reg_e2, monkeypatch):
    # the same objectives on a program with no feasible point
    empty = LinearProgram(np.zeros(e2.n), [(np.ones(e2.n), REL_GE, 1.0),
                                           (np.ones(e2.n), REL_LE, 0.0)])
    monkeypatch.setattr(REGULARIZE, "solve_lp", lambda lp, **kw: solve_lp(empty, **kw))
    with pytest.raises(LpError, match="row maximization LP reported Infeasible"):
        forced_zero_rows(e2, simplex(1, 0), reg_e2.regularized)


def test_forced_zero_rows_e3(e3, reg_e3):
    M = forced_zero_rows(e3, simplex(0.5, 0.5), reg_e3.regularized)
    assert M == (0, 1)


@pytest.fixture(scope="module")
def face_cases(e2, e4):
    planted = [simplex(0.5, 0.5, 0, 0)]
    two = [simplex(1, 0, 0), simplex(0, 1, 0)]
    cases = {"e2": e2, "e4": e4,
             "gen36": generate_instance(seed=36, p=4, n=3, planted=planted),
             "planting50": generate_instance(seed=50, p=3, n=2, planted=two)}
    out = {}
    for name, prog in cases.items():
        res = regularize(prog)
        assert res.status == "regularized"
        out[name] = (prog, res.regularized)
    return out


@pytest.mark.parametrize("name", ["gen36", "planting50"])
def test_forced_zero_rows_solves_one_lp_per_row(face_cases, name, monkeypatch):
    prog, reg = face_cases[name]

    def no_grid(*args, **kwargs):
        raise AssertionError("forced_zero_rows evaluated the region grid")

    monkeypatch.setattr(REGULARIZE, "min_quad_over_omega", no_grid)
    stacks = []
    solve = REGULARIZE.solve_lp

    def recorded(lp, **kwargs):
        stacks.append(kwargs["objectives"])
        return solve(lp, **kwargs)

    monkeypatch.setattr(REGULARIZE, "solve_lp", recorded)
    for rec in reg.records:
        before = len(stacks)
        forced_zero_rows(prog, rec.tau, reg)
        # one call per record, with one objective per row
        assert len(stacks) - before == 1
        assert stacks[-1].shape == (prog.p, prog.n)


def _pairwise_rows(prog, records):
    """The record rows as the master built them one (i, k) pair at a time."""
    eq, ineq = row_pairs(records, prog.p)
    rows = []
    for rel, pairs in ((REL_EQ, eq), (REL_GE, ineq)):
        for i, k in pairs:
            t = records[i].tau.coords
            coefs = np.array([float(Aj[k] @ t) for Aj in prog.A[1:]])
            rows.append((coefs, rel, -float(prog.A[0][k] @ t)))
    return rows


def _bits(rows):
    return [(np.asarray(a, dtype=float).tobytes(), rel,
             np.float64(b).tobytes()) for a, rel, b in rows]


@pytest.mark.parametrize("name", ["e2", "e4", "gen36", "planting50"])
def test_record_rows_match_the_pairwise_rows_bitwise(face_cases, name):
    prog, reg = face_cases[name]
    # the final records, and each point alone with all-inequality rows
    record_sets = [reg.records] + [(Record(r.tau, ()),) for r in reg.records]
    for records in record_sets:
        ref = _pairwise_rows(prog, records)
        assert len(ref) == len(records) * prog.p
        assert _bits(record_rows(prog, records)) == _bits(ref)
        # the master puts them first, with a zero mu coefficient
        master = _build_master(SipInstance(prog, records), [], DEFAULT.box_r)
        assert _bits(master.rows[:len(ref)]) == _bits(
            (np.append(a, 0.0), rel, b) for a, rel, b in ref)


@pytest.mark.parametrize("name", ["e2", "e4", "gen36", "planting50"])
def test_excluded_rows_are_positive_at_feasible_points(face_cases, name,
                                                       monkeypatch):
    # the LP argmax of an excluded row, pulled toward the witness until A(x)
    # is copositive, is a feasible point where the row is positive
    prog, reg = face_cases[name]
    argmaxes = []
    orig = REGULARIZE.solve_lp

    def recorded(lp, **kwargs):
        sols = orig(lp, **kwargs)
        argmaxes.extend(sols.primal)
        return sols

    monkeypatch.setattr(REGULARIZE, "solve_lp", recorded)
    M = {}
    points = [reg.witness]
    excluded = 0
    for j, rec in enumerate(reg.records):
        del argmaxes[:]
        M[j] = forced_zero_rows(prog, rec.tau, reg)
        for k in set(range(prog.p)) - set(M[j]):
            x = argmaxes[k]
            for _ in range(40):
                if is_copositive(eval_constraint(prog, x)).copositive:
                    break
                x = 0.5 * (x + reg.witness)
            else:
                pytest.fail(f"row {k} at vertex {j}: no copositive point")
            assert (eval_constraint(prog, x) @ rec.tau.coords)[k] > 0.0
            points.append(x)
            excluded += 1
    assert excluded > 0
    for x in points:
        for j, rec in enumerate(reg.records):
            rows = eval_constraint(prog, x) @ rec.tau.coords
            assert np.all(np.abs(rows[list(M[j])]) <= 1e-7)


def test_minimal_face_e2(e2, reg_e2):
    face = minimal_face(e2, [simplex(1, 0)], reg_e2.regularized)
    assert [(r.tau, r.L) for r in face] == [(simplex(1, 0), {0})]
    assert _in_face(face, np.array([[0.0, 0.0], [0.0, 1.0]]))
    assert not _in_face(face, np.array([[1.0, 0.0], [0.0, 0.0]]))
    assert _in_face(face, np.zeros((2, 2)))
    report = face_forms_agree(face, n_samples=200, seed=5)
    assert report["disagreements"] == 0
    assert report["members"] > 0


def test_minimal_face_e3(e3, reg_e3):
    face = minimal_face(e3, [simplex(0.5, 0.5)], reg_e3.regularized)
    assert [(r.tau, r.L) for r in face] == [(simplex(0.5, 0.5), {0, 1})]
    D = np.array([[1.0, -1.0], [-1.0, 1.0]])
    eq, both = face_rows(face, [D])
    assert eq.tolist() == both.tolist() == [True] and _in_face(face, D)
    assert _in_face(face, 3.0 * D)
    assert not _in_face(face, np.eye(2))
    assert face_forms_agree(face, n_samples=200, seed=5)["disagreements"] == 0


def test_face_forms_agree_counts_a_wrong_row_set(e2, reg_e2, monkeypatch):
    # with no forced-zero rows the sign rows cut samples that the equality
    # form (no rows at all) keeps: the disagreements are counted, not raised
    monkeypatch.setattr(REGULARIZE, "forced_zero_rows", lambda *_a: ())
    face = minimal_face(e2, [simplex(1, 0)], reg_e2.regularized)
    assert face[0].L == frozenset()
    report = face_forms_agree(face, n_samples=200, seed=5)
    assert report["checked"] == 200
    assert 0 < report["disagreements"] <= report["members"]


# ---------------------------------------------------------------------------
# sampling checks

def test_sample_feasible_points_are_feasible(e2, reg_e2):
    from coporeg import is_copositive
    pts = sample_feasible(e2, reg_e2.regularized.witness, 20, 0, DEFAULT)
    assert len(pts) == 20
    for x in pts:
        assert is_copositive(eval_constraint(e2, x)).copositive


def test_emitted_points_are_immobile(e2, reg_e2):
    reg = reg_e2.regularized
    for x in sample_feasible(e2, reg.witness, 100, 1, DEFAULT):
        for rec in reg.records:
            assert abs(quad_form(eval_constraint(e2, x), rec.tau)) <= 1e-6


def test_sample_copositive_is_copositive():
    from coporeg import is_copositive
    rng = np.random.default_rng(8)
    for p in (2, 3, 4):
        for _ in range(10):
            D = sample_copositive(p, rng)
            assert is_copositive(D).copositive


def test_feasibility_equivalence_e2(e2, reg_e2):
    rep = feasibility_equiv_sample(e2, reg_e2.regularized, 300, seed=4)
    assert rep["n_disagreements"] == 0


def test_feasibility_equivalence_e3(e3, reg_e3):
    rep = feasibility_equiv_sample(e3, reg_e3.regularized, 300, seed=4)
    assert rep["n_disagreements"] == 0


def test_feasibility_equivalence_identity_description(e1):
    # a trivial regularization of a strictly feasible program: no rows,
    # quadratic over the whole simplex; decisions must coincide exactly
    from coporeg import RegularizedProblem
    # a radius below tol_feas excludes no point: the region is the simplex
    region = ReducedRegion([simplex(1, 0)], sigma=1e-12)
    reg = RegularizedProblem(e1, (), region, np.zeros(1), 1.0)
    rep = feasibility_equiv_sample(e1, reg, 300, seed=4)
    assert rep["n_disagreements"] == 0


def test_monotone_state_growth(e4):
    res = regularize(e4)
    measures = []
    for entry in res.ledger:
        measures.append(len(entry.records) + sum(len(r.L) for r in entry.records))
    assert all(b > a for a, b in zip(measures, measures[1:]))
    for entry in res.ledger:
        for rec in entry.records:
            assert set(rec.tau.support_plus()) <= rec.L

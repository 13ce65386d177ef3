import importlib

import numpy as np
import pytest

from coporeg import (DEFAULT, CertificateError, CopositiveProgram, Record,
                     ReducedRegion, RegularizedProblem, SipError, SipInstance,
                     eval_constraint, extract_certificate, forced_zero_rows,
                     generate_instance, min_quad_over_simplex, regularize,
                     solve_sip)
from coporeg.lp import REL_GE, LinearProgram, solve_lp
from coporeg.sip import _build_master, cut_row

from conftest import simplex

SIP = importlib.import_module("coporeg.sip")
REGULARIZE = importlib.import_module("coporeg.regularize")


def test_sip0_e1_negative(e1):
    out = solve_sip(SipInstance(e1, ()), DEFAULT,
                    a0_copositive=True)
    assert out.kind == "negative"
    x_bar, mu_bar = out.x, out.mu
    assert not out.x.flags.writeable
    assert mu_bar <= -0.25 + 1e-6
    # the witness really is strictly feasible with the claimed slack
    assert min_quad_over_simplex(eval_constraint(e1, x_bar)).value >= -mu_bar


def test_sip0_e2_zero_certificate(e2):
    out = solve_sip(SipInstance(e2, ()), DEFAULT,
                    a0_copositive=True)
    assert out.kind == "zero"
    cert = out.certificate
    assert len(cert.new_indices) == 1
    t, g = cert.new_indices[0]
    assert np.allclose(t.coords, [1.0, 0.0])
    assert g == pytest.approx(1.0)
    assert not cert.lam
    assert cert.residual <= 1e-7
    assert len(cert.new_indices) <= e2.n + 1


def test_sip1_e2_negative(e2):
    # iteration-one subproblem: rows pin the first component, x >= 0 row,
    # quadratic over the region away from (1, 0)
    tau = simplex(1, 0)
    omega = ReducedRegion([tau])
    inst = SipInstance(e2, (Record(tau, {0}),), omega)
    out = solve_sip(inst, DEFAULT, a0_copositive=True)
    assert out.kind == "negative"
    assert out.mu <= -0.25 + 1e-6
    assert out.x[0] >= -1e-9


def test_sip_evaluates_region_only_at_reported_resolution(e2, monkeypatch):
    # a negative optimum is certified by the grid bound at the resolution
    # that found it: no solve evaluates the region on a grid finer than the
    # h it reports
    sip_mod = importlib.import_module("coporeg.sip")
    reg_mod = importlib.import_module("coporeg.regularize")
    grid, solve = sip_mod.min_quad_over_omega, reg_mod.solve_sip
    seen = []
    solves = []   # (h of every region evaluation, reported h) per solve

    def recording_grid(ax, omega, h, **kw):
        seen.append(h)
        return grid(ax, omega, h, **kw)

    def recording_solve(*args, **kw):
        start = len(seen)
        out = solve(*args, **kw)
        solves.append((seen[start:], out.diagnostics.get("h")))
        return out

    monkeypatch.setattr(sip_mod, "min_quad_over_omega", recording_grid)
    monkeypatch.setattr(reg_mod, "solve_sip", recording_solve)

    tau = simplex(1, 0)
    inst = SipInstance(e2, (Record(tau, {0}),), ReducedRegion([tau]))
    out = solve_sip(inst, DEFAULT, a0_copositive=True)
    assert out.kind == "negative" and seen
    assert all(h >= out.diagnostics["h"] for h in seen)

    W = [simplex(1, 0, 0), simplex(0, 1, 0)]
    res = regularize(generate_instance(seed=50, p=3, n=2, planted=W))
    assert res.status == "regularized"
    assert any(hs for hs, _h in solves)
    for hs, h in solves:
        assert all(x >= h for x in hs)


def test_sip0_e3_zero(e3):
    out = solve_sip(SipInstance(e3, ()), DEFAULT,
                    a0_copositive=True)
    assert out.kind == "zero"
    t, g = out.certificate.new_indices[0]
    assert np.allclose(t.coords, [0.5, 0.5])
    assert g == pytest.approx(1.0)


def test_zero_optimum_not_an_artifact_of_origin(e2):
    # re-solving the final master with the origin excluded must keep the
    # optimum at the zero level: the relaxation already proves mu >= 0
    out = solve_sip(SipInstance(e2, ()), DEFAULT)
    inst = SipInstance(e2, ())
    for direction, dist in ((1.0, 0.01), (-1.0, 0.01)):
        master = _build_master(inst, [cut_row(e2, t) for t in out.cuts],
                               DEFAULT.box_r)
        A = np.vstack([master.A, [direction, 0.0]])
        rel, b = np.append(master.rel, REL_GE), np.append(master.b, dist)
        sol = solve_lp(LinearProgram(master.objective, A, rel, b))
        assert sol.status == "Optimal"
        assert sol.primal[-1] >= -DEFAULT.tol_zero


def test_cut_points_active_at_master(e2):
    out = solve_sip(SipInstance(e2, ()), DEFAULT)
    x_star = out.x
    ax = eval_constraint(e2, x_star)
    for t, _g in out.certificate.new_indices:
        assert abs(float(t.coords @ ax @ t.coords)) <= DEFAULT.tol_feas * 10


def _fake_master_solution(prog, cuts, gammas):
    """Assemble an optimal-looking LpSolution for extraction tests."""
    inst = SipInstance(prog, ())
    n = prog.n
    ndual = 2 * (n + 1) + len(cuts)
    dual = np.zeros(ndual)
    for c, g in enumerate(gammas):
        dual[2 * (n + 1) + c] = g

    class _Sol:
        status = "Optimal"
        primal = np.zeros(n + 1)

    sol = _Sol()
    sol.dual = dual
    return sol, inst


def test_extract_normalizes_two_active_cuts():
    # both vertices immobile: stationarity holds for any weights
    prog = CopositiveProgram([1.0], [np.zeros((2, 2)), [[0, 1], [1, 0]]])
    cuts = [simplex(1, 0), simplex(0, 1)]
    sol, inst = _fake_master_solution(prog, cuts, [0.5, 0.5])
    cert = extract_certificate(sol, cuts, inst, DEFAULT)
    assert len(cert.new_indices) == 2
    assert sum(g for _t, g in cert.new_indices) == pytest.approx(1.0)
    # the certificate keeps the reducing matrix it checked
    assert np.array_equal(cert.Y, 0.5 * np.eye(2))


def test_extract_drops_tiny_multiplier():
    prog = CopositiveProgram([1.0], [np.zeros((2, 2)), [[0, 1], [1, 0]]])
    cuts = [simplex(1, 0), simplex(0, 1)]
    sol, inst = _fake_master_solution(prog, cuts, [1.0, 1e-12])
    cert = extract_certificate(sol, cuts, inst, DEFAULT)
    assert len(cert.new_indices) == 1
    assert np.allclose(cert.new_indices[0][0].coords, [1.0, 0.0])
    assert cert.new_indices[0][1] == pytest.approx(1.0)


def test_extract_rejects_a_cut_that_is_not_immobile(e2):
    # (1/2, 1/2) is not immobile for e2: its reducing matrix leaves the
    # constraint kernel, so the stationarity check must fire
    cuts = [simplex(0.5, 0.5)]
    sol, inst = _fake_master_solution(e2, cuts, [1.0])
    with pytest.raises(CertificateError, match="stationarity residual"):
        extract_certificate(sol, cuts, inst, DEFAULT)


def test_empty_region_reduces_to_lp():
    # both vertices recorded: the reduced region is empty and the
    # subproblem degenerates to its linear rows with a nominal slack
    prog = CopositiveProgram([1.0], [np.zeros((2, 2)), np.zeros((2, 2))])
    taus = (simplex(1, 0), simplex(0, 1))
    omega = ReducedRegion(taus)
    inst = SipInstance(prog, (Record(taus[0], {0}), Record(taus[1], {1})),
                       omega)
    out = solve_sip(inst, DEFAULT)
    assert out.kind == "negative"
    assert out.mu == -1.0
    assert out.diagnostics.get("omega_empty")


def test_a0_flag_check_fires():
    # A_0 not copositive: the (0, 0) feasibility check must trip, on the
    # first record row: (A_0 tau)_1 = -1/2, so 0 >= 1/2 fails by 1/2
    prog = CopositiveProgram([1.0], [[[0, -1], [-1, 0]], [[0, 1], [1, 0]]])
    tau = simplex(0.5, 0.5)
    inst = SipInstance(prog, (Record(tau, set()),), ReducedRegion([tau]))
    with pytest.raises(SipError, match="flagged copositive") as info:
        solve_sip(inst, DEFAULT, a0_copositive=True)
    assert "violates the master at record 1 row 1 by 5.000e-01;" in info.value.reason
    # with no records, the first cut, at tau, fails by -tau' A_0 tau = 1/2
    with pytest.raises(SipError, match="flagged copositive") as info:
        solve_sip(SipInstance(prog, ()), DEFAULT, a0_copositive=True)
    assert "violates the master at cut 1 by 5.000e-01;" in info.value.reason


def test_row_data_shapes(e2):
    coefs, rhs = cut_row(e2, simplex(0.5, 0.5))
    # t' A_1 t = 2 t1 t2 = 1/2, mu has coefficient 1 and rhs = -t' A_0 t = -1/4
    assert coefs.tolist() == [0.5, 1.0]
    assert rhs == pytest.approx(-0.25)


def test_round_cap_is_a_give_up(e2, monkeypatch):
    # one round adds the first cut and the cap ends the loop
    monkeypatch.setattr(SIP, "_CUT_ROUNDS", 1)
    with pytest.raises(SipError) as info:
        solve_sip(SipInstance(e2, ()), DEFAULT, a0_copositive=True)
    e = info.value
    assert (e.reason, e.mu_star, e.rounds) == (
        "cutting-plane round cap exceeded", -1000.0, 1)
    assert str(e) == e.reason


def test_grid_exhausted_is_a_give_up(e2, monkeypatch):
    tau = simplex(1, 0)
    inst = SipInstance(e2, (Record(tau, {0}),), ReducedRegion([tau]))
    monkeypatch.setattr(importlib.import_module("coporeg.oracle"),
                        "_MAX_GRID_POINTS", 1)
    with pytest.raises(SipError) as info:
        solve_sip(inst, DEFAULT, a0_copositive=True)
    e = info.value
    assert e.reason.startswith("grid exhausted")
    assert (e.mu_star, e.rounds) == (-1000.0, 1)


def test_refine_cap_is_a_give_up(monkeypatch):
    # gen35 of the acceptance gate certifies its witness only after a grid
    # halving; with none allowed, the first uncertified optimum ends the run
    prog = generate_instance(seed=35, p=4, n=2,
                             planted=[simplex(0.5, 0.25, 0.25, 0.0)])
    monkeypatch.setattr(SIP, "_REFINE_ROUNDS", 0)
    res = regularize(prog)
    assert res.status == "failed"
    assert res.diagnostics["reason"] == ("negative optimum not certifiable "
                                         "at the finest grid")


def test_a_refinement_reuses_the_master_solve(monkeypatch):
    # a grid refinement changes neither the cuts nor the box, so the round
    # after it keeps the last master and its solution: a SIP run solves its
    # master rounds - refinements times.  gen35's second subproblem refines
    # twice in 11 rounds; its outcome is the one that re-solving the same
    # master in each of those rounds gave, to the last bit
    prog = generate_instance(seed=35, p=4, n=2,
                             planted=[simplex(0.5, 0.25, 0.25, 0.0)])
    masters, runs = [], []
    solve, sip_run = SIP.solve_lp, REGULARIZE.solve_sip

    def counted_solve(lp, **kwargs):
        masters.append(lp)
        return solve(lp, **kwargs)

    def counted_run(inst, cfg, *args, **kwargs):
        before = len(masters)
        out = sip_run(inst, cfg, *args, **kwargs)
        h0, h = cfg.grid_h(prog.p), out.diagnostics["h"]
        runs.append((out, round(np.log2(h0 / h)), len(masters) - before))
        return out

    monkeypatch.setattr(SIP, "solve_lp", counted_solve)
    monkeypatch.setattr(REGULARIZE, "solve_sip", counted_run)
    assert regularize(prog).status == "regularized"
    for out, refinements, solved in runs:
        assert solved == out.diagnostics["rounds"] - refinements
    out, refinements, solved = runs[-1]
    assert (out.kind, out.diagnostics["rounds"], refinements, solved) == ("negative", 11, 2, 9)
    assert len(out.cuts) == 8
    assert float(out.diagnostics["mu_star"]).hex() == "-0x1.7c7b3efb0361cp+0"
    assert [float(v).hex() for v in out.x] == ["0x1.f400000000000p+9",
                                               "-0x1.3c56f5d4993a8p+7"]


def test_record_rows_are_built_once_per_instance(e2, monkeypatch):
    # the master of every round and forced_zero_rows read the instance's
    # rows; only constructing an instance builds them.  Both bindings of
    # record_rows are watched: forced_zero_rows builds its objective rows,
    # those of its point alone with no row in L, through regularize's, and
    # any other call there would rebuild an instance's rows
    calls = []
    for name in ("sip", "regularize"):
        mod = importlib.import_module(f"coporeg.{name}")

        def counting(prog, records, name=name, orig=mod.record_rows):
            objective = len(records) == 1 and not records[0].L
            calls.append((name, "objective rows" if objective else len(records)))
            return orig(prog, records)

        monkeypatch.setattr(mod, "record_rows", counting)
    tau = simplex(1, 0)
    inst = SipInstance(e2, (Record(tau, {0}),), ReducedRegion([tau]))
    assert calls == [("sip", 1)]
    out = solve_sip(inst, DEFAULT, a0_copositive=True)
    assert out.kind == "negative" and out.diagnostics["rounds"] > 1
    assert calls == [("sip", 1)]
    reg = RegularizedProblem(e2, inst.records, inst.omega, out.x, -out.mu)
    assert calls == [("sip", 1)] * 2
    assert forced_zero_rows(e2, tau, reg) == (0,)
    assert calls == [("sip", 1)] * 2 + [("regularize", "objective rows")]


def test_positive_optimum_fails_the_driver():
    # A(x) = [[-1, x], [x, -1]] is never copositive: the master's optimum
    # stays positive once the cut at the barycenter is in
    prog = CopositiveProgram([1.0], [-np.eye(2), [[0, 1], [1, 0]]])
    res = regularize(prog)
    assert res.status == "failed"
    assert res.diagnostics["reason"].startswith("positive optimum")
    (entry,) = res.diagnostics["trace"]
    assert entry["mu_star"] == 1.0 and entry["rounds"] == 2


@pytest.mark.parametrize("name", ["e2", "e4", "gen36", "planting50", "edge70"])
def test_master_duals_have_at_most_n_plus_one_nonzeros(name, request,
                                                       monkeypatch):
    # the master's dual comes from a simplex basis: a basic slack or
    # artificial column zeroes its row's dual, and at most one column of
    # each of the n+1 split free variables is basic
    run_cfg = DEFAULT
    if name in ("e2", "e4"):
        prog = request.getfixturevalue(name)
    elif name == "gen36":
        prog = generate_instance(seed=36, p=4, n=3, planted=[simplex(0.5, 0.5, 0, 0)])
    elif name == "planting50":
        prog = generate_instance(seed=50, p=3, n=2,
                                 planted=[simplex(1, 0, 0), simplex(0, 1, 0)])
    else:
        prog = generate_instance(seed=70, p=3, n=1,
                                 planted=[simplex(1, 0, 0), simplex(0, 0.5, 0.5)])
        run_cfg = DEFAULT.replace(iteration_cap=1)
    sip_mod = importlib.import_module("coporeg.sip")
    extract = sip_mod.extract_certificate
    counts = []

    def counting(sol, cuts, inst, cfg):
        counts.append(int(np.count_nonzero(np.abs(sol.dual) > cfg.tol_mult)))
        return extract(sol, cuts, inst, cfg)

    monkeypatch.setattr(sip_mod, "extract_certificate", counting)
    regularize(prog, run_cfg)
    assert counts
    assert max(counts) <= prog.n + 1


def test_box_escalation_reaches_a_witness_outside_the_first_box():
    # A(x) = diag(x - 1000, 1): the first master stops at x = box_r = 1000
    # with mu* = 0 and a box dual; one escalation to 1e4 finds the witness
    prog = CopositiveProgram([1.0], [np.diag([-1000.0, 1.0]), np.diag([1.0, 0.0])])
    assert DEFAULT.box_r == 1000.0
    out = solve_sip(SipInstance(prog, ()), DEFAULT)
    assert out.kind == "negative"
    assert out.x.tolist() == [1e4]
    res = regularize(prog)
    assert res.status == "regular" and res.witness.tolist() == [1e4]


def test_master_infeasible_in_the_box_names_the_box():
    # A(x) = diag(x - 1e6, 1): the cut at e1 needs mu >= 1e6 - x > box_r
    prog = CopositiveProgram([1.0], [np.diag([-1e6, 1.0]), np.diag([1.0, 0.0])])
    res = regularize(prog)
    assert res.status == "failed"
    reason = res.diagnostics["reason"]
    assert reason.startswith("master LP infeasible") and "box" in reason
    assert "record rows" not in reason
    tau = simplex(0.0, 1.0)
    with pytest.raises(SipError, match="meet the cuts and the record rows"):
        solve_sip(SipInstance(prog, (Record(tau, {1}),), ReducedRegion([tau])),
                  DEFAULT)

"""Acceptance gate: every criterion at its stated tolerance, one printed
pass/fail line each (run with -s to see the lines on success)."""

import collections
import importlib
import time
import zlib

import numpy as np
import pytest

from coporeg import (DEFAULT, CopositiveProgram, DualCertificate, FaceLedgerEntry,
                     ReducedRegion, RegularizedProblem, compress_ledger,
                     face_forms_agree, feasibility_equiv_sample,
                     generate_instance, is_copositive,
                     kernel_dimension, minimal_face, one_step_regularize,
                     regularize, solve_lp, LinearProgram, SimplexPoint,
                     eval_constraint, min_quad_over_omega, verify_ledger)
from coporeg.lp import REL_GE, REL_LE
from coporeg.oracle import stationary_candidate_stack, stationary_candidates
from coporeg.regularize import _omega_margins

from conftest import simplex
from equiv_reference import equiv_sample_all_margins
from grid_reference import grid_min_full

REGULARIZE = importlib.import_module("coporeg.regularize")


def _report(criterion, ok, detail):
    line = f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


GENERATED = [
    (30, 3, 1, (1.0, 0.0, 0.0)),
    (31, 3, 2, (0.5, 0.5, 0.0)),
    (32, 3, 2, (1 / 3, 1 / 3, 1 / 3)),
    (33, 3, 3, (0.25, 0.75, 0.0)),
    (34, 4, 2, (1.0, 0.0, 0.0, 0.0)),
    (35, 4, 2, (0.5, 0.25, 0.25, 0.0)),
    (36, 4, 3, (0.5, 0.5, 0.0, 0.0)),
    (37, 5, 2, (0.5, 0.5, 0.0, 0.0, 0.0)),
    (38, 5, 3, (0.5, 0.0, 0.5, 0.0, 0.0)),
    (39, 5, 2, (1.0, 0.0, 0.0, 0.0, 0.0)),
]


@pytest.fixture(scope="module")
def analytic_runs(e1, e2, e3):
    out = {}
    for name, prog in (("e1", e1), ("e2", e2), ("e3", e3)):
        t0 = time.perf_counter()
        res = regularize(prog)
        out[name] = (prog, res, time.perf_counter() - t0)
    return out


@pytest.fixture(scope="module")
def generated_runs():
    out = []
    for seed, p, n, tv in GENERATED:
        planted = SimplexPoint(list(tv))
        prog = generate_instance(seed=seed, p=p, n=n, planted=[planted])
        res = regularize(prog)
        out.append((seed, prog, planted, res))
    return out


@pytest.fixture(scope="module")
def successful_runs(analytic_runs, generated_runs):
    runs = []
    for name in ("e2", "e3"):
        prog, res, _dt = analytic_runs[name]
        runs.append((name, prog, res))
    for seed, prog, _planted, res in generated_runs:
        if res.status == "regularized":
            runs.append((f"gen{seed}", prog, res))
    return runs


def test_criterion_1_analytic_recovery(analytic_runs):
    prog1, res1, dt1 = analytic_runs["e1"]
    ok = res1.status == "regular" and dt1 < 5.0
    detail = [f"e1 {res1.status} in {dt1:.2f}s"]

    prog2, res2, dt2 = analytic_runs["e2"]
    ok2 = res2.status == "regularized" and res2.m_star == 1 and dt2 < 5.0
    if ok2:
        rec = res2.regularized.records[0]
        ok2 = (np.max(np.abs(rec.tau.coords - [1.0, 0.0])) <= 1e-6
               and rec.L == frozenset({0}))
        A, _rel, b = res2.regularized.rows     # row 1: (0, 1), an inequality
        coefs, rhs = A[1], b[1]
        ok2 = ok2 and coefs[0] > 1e-6 and abs(rhs / coefs[0]) <= 1e-9
    detail.append(f"e2 {res2.status} m*={res2.m_star} in {dt2:.2f}s")

    prog3, res3, dt3 = analytic_runs["e3"]
    ok3 = res3.status == "regularized" and res3.m_star == 1 and dt3 < 5.0
    if ok3:
        rec = res3.regularized.records[0]
        ok3 = (np.max(np.abs(rec.tau.coords - [0.5, 0.5])) <= 1e-6
               and rec.L == frozenset({0, 1}))
    detail.append(f"e3 {res3.status} m*={res3.m_star} in {dt3:.2f}s")
    _report(1, ok and ok2 and ok3, "; ".join(detail))


def test_criterion_2_feasible_set_equivalence(successful_runs):
    worst = 0
    details = []
    for name, prog, res in successful_runs:
        rep = feasibility_equiv_sample(prog, res.regularized, 1000,
                                       seed=zlib.crc32(name.encode()) % 2 ** 16)
        worst = max(worst, rep["n_disagreements"])
        details.append(f"{name}:{rep['n_disagreements']}")
    ok = worst == 0 and len(successful_runs) >= 12
    _report(2, ok, f"{len(successful_runs)} runs x 1000 samples, "
                   f"disagreements [{', '.join(details)}]")


def test_criterion_3_ledger_conditions(successful_runs):
    ok = True
    checked = 0
    for name, prog, res in successful_runs:
        rep = verify_ledger(res.ledger, prog, n_samples=200, seed=1)
        ok = ok and rep["ok"]
        for entry in rep["entries"]:
            checked += 1
            ok = ok and entry["kernel_residual"] <= 1e-7
            ok = ok and entry["monotonicity_violations"] == 0
            ok = ok and entry["orthogonality_violations"] == 0
            ok = ok and entry["max_orthogonality"] <= 1e-7
            ok = ok and entry["members_sampled"] > 0
    _report(3, ok, f"{checked} ledger entries verified at 1e-7 with 200 "
                   "copositive samples each")


def test_criterion_4_compressed_core(successful_runs):
    ok = True
    for name, prog, res in successful_runs:
        comp = compress_ledger(res.ledger, prog)
        vecs = [e.reducer[np.triu_indices(prog.p)] for e in comp.core]
        if vecs:
            rank = np.linalg.matrix_rank(np.array(vecs), tol=1e-10)
            ok = ok and rank == len(vecs)
        ok = ok and comp.s_star <= kernel_dimension(prog)
    # injected dependent reducer is squeezed, and exactly that one
    def entry(i, Y):
        cert = DualCertificate((), {}, np.asarray(Y, float), 0.0)
        return FaceLedgerEntry(i, (), cert)
    Y1 = np.array([[1.0, 0.0], [0.0, 0.0]])
    Y2 = np.array([[0.0, 1.0], [1.0, 0.0]])
    comp = compress_ledger([entry(1, Y1), entry(2, 1.5 * Y1), entry(3, Y2)])
    ok = ok and comp.mapping == (1, 3) and comp.s_star == 1
    _report(4, ok, "independent cores within the kernel bound; dependent "
                   "entry squeezed")


def test_criterion_5_copositivity_cross_validation(horn):
    t0 = time.perf_counter()
    rng = np.random.default_rng(1234)
    N = 512                       # h = 2^-9
    undecided = 0
    mismatches = 0
    for _ in range(200):
        m = rng.uniform(-1.0, 1.0, size=(4, 4))
        D = 0.5 * (m + m.T)
        gv, _argmin = grid_min_full(D, N)
        L = 2.0 * float(np.max(np.abs(D)))
        if abs(gv) <= L / N:
            undecided += 1
            continue
        grid_says = gv > 0
        if grid_says != is_copositive(D).copositive:
            mismatches += 1
    res = is_copositive(horn)
    horn_ok = res.copositive and abs(res.margin) <= 1e-9
    dt = time.perf_counter() - t0
    ok = (mismatches == 0 and undecided <= 10 and horn_ok and dt < 60.0)
    _report(5, ok, f"200 matrices: 0 expected mismatches (got {mismatches}), "
                   f"{undecided} undecided (<=10), horn margin "
                   f"{res.margin:.1e}, {dt:.1f}s")


def test_criterion_6_minimal_face_forms(e2, e3, reg_e2, reg_e3):
    ok = True
    details = []
    for name, prog, res, w in (("e2", e2, reg_e2, simplex(1, 0)),
                               ("e3", e3, reg_e3, simplex(0.5, 0.5))):
        face = minimal_face(prog, [w], res.regularized)
        rep = face_forms_agree(face, n_samples=500, seed=21)
        ok = ok and rep["disagreements"] == 0 and rep["checked"] == 500
        details.append(f"{name}: {rep['members']} members")
    _report(6, ok, "500 sampled copositive matrices per instance, forms "
                   f"agree ({'; '.join(details)})")


def test_criterion_7_one_step(e2, e3):
    ok = True
    details = []
    for name, prog, w in (("e2", e2, simplex(1, 0)),
                          ("e3", e3, simplex(0.5, 0.5))):
        reg = one_step_regularize(prog, [w])
        certified = min_quad_over_omega(eval_constraint(prog, reg.witness),
                                        reg.omega, DEFAULT.grid_h(prog.p))
        ok = ok and reg.margin >= 1e-6 and certified.value_lb >= 1e-6
        rep = feasibility_equiv_sample(prog, reg, 1000, seed=77)
        ok = ok and rep["n_disagreements"] == 0
        details.append(f"{name}: margin {reg.margin:.3g}, "
                       f"{rep['n_disagreements']} disagreements")
    _report(7, ok, "; ".join(details))


def test_criterion_8_certificate_exactness(successful_runs):
    ok = True
    count = 0
    worst = 0.0
    for name, prog, res in successful_runs:
        for entry in res.ledger:
            cert = entry.certificate
            count += 1
            worst = max(worst, cert.residual)
            ok = ok and cert.residual <= 1e-7
            ok = ok and 1 <= len(cert.new_indices) <= prog.n + 1
    _report(8, ok and count > 0,
            f"{count} certificates, max stationarity residual {worst:.2e}, "
            "support bounds hold")


def test_witness_margin_holds_at_and_below_the_final_resolution(successful_runs):
    # the driver certifies the witness margin by the grid bound at the
    # resolution that found it; a grid twice as fine, whose value bounds
    # the region minimum from above, agrees
    checked = 0
    for name, prog, res in successful_runs:
        reg = res.regularized
        if reg.omega.empty:   # an empty region has no grid and no h
            continue
        h = res.diagnostics["trace"][-1]["h"]
        ax = eval_constraint(prog, reg.witness)
        assert reg.margin <= min_quad_over_omega(ax, reg.omega, h).value_lb, name
        assert reg.margin <= min_quad_over_omega(ax, reg.omega, h / 2.0).value, name
        checked += 1
    assert checked > 0


def _omega_margin_all_candidates(ax, reg, h, cfg, values, coords):
    """The margin as first defined: every candidate below -tol_band is
    tested for membership, then the least is compared with the grid."""
    if reg.omega.empty:
        return np.inf
    best = min((val for val, t in zip(values.tolist(), coords)
                if val < -cfg.tol_band and reg.omega.contains(t)),
               default=np.inf)
    res = min_quad_over_omega(ax, reg.omega, h)
    return best if res.empty else min(best, res.value)


def test_omega_margin_matches_the_all_candidate_margin(e4, successful_runs):
    two = [simplex(1, 0, 0), simplex(0, 1, 0)]
    runs = list(successful_runs) + [
        (name, prog, regularize(prog)) for name, prog in (
            ("e4", e4),
            ("planting50", generate_instance(seed=50, p=3, n=2, planted=two)))]
    rng = np.random.default_rng(5)
    by_candidate = empty = 0
    for name, prog, res in runs:
        reg = res.regularized
        assert len(reg.omega.V) == len(reg.records), name
        h = DEFAULT.grid_h(prog.p)
        # the run's 20 samples are one block: one membership call for all
        AX = np.array([eval_constraint(prog, reg.witness + rng.uniform(
            -2.0, 2.0, size=prog.n)) for _ in range(20)])
        values, coords = stationary_candidate_stack(AX, DEFAULT.p_max)
        for ax, got in zip(AX, _omega_margins(AX, reg, h, DEFAULT, values, coords)):
            vals, ts = stationary_candidates(ax, DEFAULT.p_max)
            assert got == _omega_margin_all_candidates(ax, reg, h, DEFAULT,
                                                       vals, ts), name
            by_candidate += bool(got < np.inf and (vals == got).any())
            empty += reg.omega.empty
    # both sources of the margin and the empty region are exercised
    assert 0 < by_candidate < 20 * len(runs) and empty == 20


def test_equivalence_reports_match_the_all_margin_reference(successful_runs,
                                                           monkeypatch):
    # the report reads a region margin only where the record rows hold or
    # the direct test says copositive, and not on a sample its direct
    # margin settles; the reference computes every one.  Beside each
    # certified problem: its first record dropped (the region kept), its
    # radius halved, its records and region on a program they do not
    # belong to, whose Slater point makes many disagreements, and the
    # problem itself at tol_cop = 1e-4, above tol_band, where a direct
    # accept alone settles nothing.  The first problem also comes with
    # every A_k scaled by 1e9, where the rounding bound of the direct
    # margin keeps accepts at a zero minimum unsettled
    loose = DEFAULT.replace(tol_cop=1e-4)
    problems = []
    for name, prog, res in successful_runs:
        reg = res.regularized
        other = generate_instance(seed=7, p=prog.p, n=prog.n)
        problems += [
            (name, prog, reg, DEFAULT),
            (name + "/dropped", prog, RegularizedProblem(
                prog, reg.records[1:], reg.omega, reg.witness, reg.margin), DEFAULT),
            (name + "/shrunk", prog, RegularizedProblem(
                prog, reg.records, ReducedRegion(reg.omega.V,
                                                 sigma=0.5 * reg.omega.sigma),
                reg.witness, reg.margin), DEFAULT),
            (name + "/foreign", other, RegularizedProblem(
                other, reg.records, reg.omega, np.zeros(prog.n), 1.0), DEFAULT),
            (name + "/tol_cop", prog, reg, loose)]
    name, prog, res = successful_runs[0]
    scaled = CopositiveProgram(prog.c, [1e9 * a for a in prog.A])
    reg = res.regularized
    problems.append((name + "/scaled", scaled, RegularizedProblem(
        scaled, reg.records, reg.omega, reg.witness, reg.margin), DEFAULT))
    stacks = []
    enumerate_stack = REGULARIZE.stationary_candidate_stack

    def recorded(AX, p_max):
        values, coords = enumerate_stack(AX, p_max)
        stacks.append((AX, values.min(axis=1)))
        return values, coords

    monkeypatch.setattr(REGULARIZE, "stationary_candidate_stack", recorded)
    disagreements = ties = 0
    accepts = collections.Counter()
    for name, prog, reg, cfg in problems:
        stacks.clear()
        rep = feasibility_equiv_sample(prog, reg, 300, seed=11, cfg=cfg)
        assert rep == equiv_sample_all_margins(prog, reg, 300, seed=11, cfg=cfg), name
        disagreements += rep["n_disagreements"]
        ties += rep["ties"]
        for AX, margin_a in stacks:
            eps = (2 * prog.p + 4) * 2.0 ** -53 * np.max(np.abs(AX), axis=(1, 2))
            accepted = margin_a >= -cfg.tol_cop
            accepts["settled"] += np.count_nonzero(
                accepted & (margin_a - 2.0 * eps >= -cfg.tol_band))
            accepts["below the band"] += np.count_nonzero(
                accepted & (margin_a < -cfg.tol_band))
            accepts["within rounding"] += np.count_nonzero(
                accepted & (margin_a >= -cfg.tol_band)
                & (margin_a - 2.0 * eps < -cfg.tol_band))
    # every margin_regularized of a disagreement is compared, and ties too;
    # accepts are seen settled, and unsettled for both reasons
    assert disagreements > 0 and ties > 0
    assert min(accepts.values()) > 0 and len(accepts) == 3, accepts


def test_equivalence_sees_a_regularized_set_that_is_too_large(successful_runs):
    # with every record dropped and the region kept, the regularized side
    # accepts matrices that are not copositive.  Its equality rows hold
    # within tol_band there, which is no margin, so these samples count as
    # disagreements, not ties; the certified problems keep none
    band = DEFAULT.tol_band
    seen = set()
    for name, prog, res in successful_runs:
        if not name.startswith("gen"):
            continue
        reg = res.regularized
        assert feasibility_equiv_sample(prog, reg, 300, seed=0)[
            "n_disagreements"] == 0, name
        rep = feasibility_equiv_sample(prog, RegularizedProblem(
            prog, (), reg.omega, reg.witness, reg.margin), 300, seed=0)
        for d in rep["disagreements"]:
            assert d["margin_direct"] < -band < band < d["margin_regularized"]
        if rep["n_disagreements"]:
            seen.add(name)
    assert {"gen30", "gen34", "gen36", "gen37", "gen38", "gen39"} <= seen


def test_criterion_9_lp_core():
    rng = np.random.default_rng(99)
    ok = True
    for _ in range(50):
        nvar = int(rng.integers(2, 12))
        nrow = int(rng.integers(1, 18))
        A = rng.normal(size=(nrow, nvar))
        x0 = rng.uniform(0.0, 1.0, size=nvar)
        b = A @ x0 + rng.uniform(0.1, 1.0, size=nrow)
        # then 0 <= x_j <= 10 as a >= and a <= row for each j
        A = np.vstack([A, np.repeat(np.eye(nvar), 2, axis=0)])
        rel = [REL_LE] * nrow + [REL_GE, REL_LE] * nvar
        b = np.concatenate([b, np.tile([0.0, 10.0], nvar)])
        lp = LinearProgram(rng.normal(size=nvar), A, rel, b)
        s1 = solve_lp(lp)
        s2 = solve_lp(lp)
        ok = ok and s1.status == "Optimal" and np.array_equal(s1.basis, s2.basis)
        dual_obj = sum(s1.dual[i] * lp.rows[i][2] for i in range(len(lp.rows)))
        ok = ok and abs(s1.objective_value - dual_obj) <= 1e-8 * (1 + abs(s1.objective_value))
        for i, (a, _rel, rhs) in enumerate(lp.rows):
            ok = ok and abs(s1.dual[i] * (float(a @ s1.primal) - rhs)) <= 1e-8
    _report(9, ok, "50 random LPs: strong duality and complementary "
                   "slackness at 1e-8, deterministic bases")

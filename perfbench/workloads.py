"""The three workloads: their inputs, their operations and the check on
every output.

``WORKLOADS[name](seed, workdir)`` makes a workload's inputs from the
seed and returns its operation list.  An operation is a function of no
arguments that runs one call into coporeg and returns the list of
problems found in its output (empty when the output is correct).  Every
seed is plain arithmetic on the workload seed, never ``hash()``, whose
value for a string changes from one process to the next.
"""

import contextlib
import importlib
import io
import json

import numpy as np

import coporeg
from coporeg import (CopositiveProgram, SimplexPoint, generate_instance,
                     serialize_problem)

cli = importlib.import_module("coporeg.cli")
oracle = importlib.import_module("coporeg.oracle")
# the package attribute ``coporeg.regularize`` is the driver function
reg = importlib.import_module("coporeg.regularize")

# the acceptance gate's instances: (instance seed, p, n, planted point)
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

HORN = np.array([[1, -1, 1, 1, -1],
                 [-1, 1, -1, 1, 1],
                 [1, -1, 1, -1, 1],
                 [1, 1, -1, 1, -1],
                 [-1, 1, 1, -1, 1]], dtype=float)

POINT_TOL = 1e-6        # recovered immobile points
EQUIV_SAMPLES = 100     # feasibility_equiv_sample draws per instance
LEDGER_SAMPLES = 200    # verify_ledger draws per instance
MULTI_VERTEX_SEEDS = 6  # instance seeds 50..55 all take the same 20,672 hull LPs


def analytic():
    """e1..e4 of the test suite: (label, program, expected status, m*,
    immobile points, whether the final region is empty)."""
    Z = np.zeros((2, 2))
    swap = [[0.0, 1.0], [1.0, 0.0]]
    return [
        ("e1", CopositiveProgram([1.0], [np.eye(2), swap]),
         "regular", 0, [], False),
        ("e2", CopositiveProgram([1.0], [[[0.0, 0.0], [0.0, 1.0]], swap]),
         "regularized", 1, [(1.0, 0.0)], False),
        ("e3", CopositiveProgram([1.0], [Z, [[1.0, -1.0], [-1.0, 1.0]]]),
         "regularized", 1, [(0.5, 0.5)], False),
        ("e4", CopositiveProgram([1.0], [Z, swap]),
         "regularized", 2, [(1.0, 0.0), (0.0, 1.0)], True),
    ]


def gate(seed):
    """The ten gate instances with their coordinates permuted by the
    workload seed (seed 0 keeps them as the acceptance gate has them).

    A permutation relabels the simplex coordinates, so it changes the
    input but not how hard the instance is.  Drawing new instance seeds
    instead would not keep the workload steady: the ten instances of
    seeds 30..39 + 100k take 2.0 to 5.8 s for k = 0..9, and k = 3 and 9
    each hold an instance that does not regularize.
    """
    out = []
    for slot, (s, p, n, tv) in enumerate(GENERATED):
        prog = generate_instance(seed=s, p=p, n=n, planted=[SimplexPoint(tv)])
        perm = (np.arange(p) if seed == 0
                else np.random.default_rng(1000 * seed + 300 + slot).permutation(p))
        prog = CopositiveProgram(prog.c, [A[np.ix_(perm, perm)] for A in prog.A])
        out.append((f"gen{s}", prog, np.asarray(tv)[perm]))
    return out


def multi_vertex_instance(seed):
    s = 50 + seed % MULTI_VERTEX_SEEDS
    W = [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0)]
    prog = generate_instance(seed=s, p=3, n=2,
                             planted=[SimplexPoint(w) for w in W])
    return f"two_vertex{s}", prog, W


def _has_point(points, t):
    return any(np.max(np.abs(np.asarray(q) - t)) <= POINT_TOL for q in points)


def certificate_residuals(report, prog):
    """Stationarity residual of each iteration's certificate, recomputed
    from the report: max_j |sum gamma t'A_j t + 2 sum lambda_i' A_j tau_i|
    over the records of the previous iteration."""
    out, prev = [], []
    for it in report["iterations"]:
        worst = 0.0
        for Aj in prog.A:
            s = sum(g * float(np.asarray(t) @ Aj @ np.asarray(t))
                    for t, g in zip(it["tau"], it["gamma"]))
            s += sum(2.0 * float(np.asarray(lam) @ Aj @ np.asarray(prev[int(i) - 1]))
                     for i, lam in it["lambda"].items())
            worst = max(worst, abs(s))
        out.append(worst)
        prev = it["records"]
    return out


def check_report(report, prog, status, m_star, points, omega_empty):
    """Problems in a ``regularize`` report against the expected outcome
    (``m_star`` or ``omega_empty`` of None is not checked)."""
    if report["status"] != status:
        return [f"status {report['status']}, expected {status}"]
    if status == "regular":
        return []
    bad = []
    if m_star is not None and report["m_star"] != m_star:
        bad.append(f"m* = {report['m_star']}, expected {m_star}")
    records = report["iterations"][-1]["records"]
    bad += [f"point {list(t)} not recovered" for t in points
            if not _has_point(records, t)]
    empty = bool((report["regularized"]["omega"] or {}).get("empty"))
    if omega_empty is not None and empty != omega_empty:
        bad.append(f"omega empty is not {omega_empty}")
    tol = report["tolerances"]["tol_cert"]
    bad += [f"certificate residual {r:.2e} > {tol:.0e}"
            for r in certificate_residuals(report, prog) if r > tol]
    return bad


def _labelled(label, fn):
    fn.label = label
    return fn


def cli_regularize(workdir, label, prog, expect):
    """One operation: ``coporeg regularize`` in process, then its report
    checked against ``expect`` (the tail of :func:`check_report`'s
    arguments)."""
    problem = workdir / f"{label}.json"
    out = workdir / f"{label}.report.json"
    problem.write_bytes(serialize_problem(prog))
    argv = ["regularize", "--problem", str(problem), "--out", str(out)]

    def op():
        out.unlink(missing_ok=True)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            return [f"exit code {code}"]
        return check_report(json.loads(out.read_text()), prog, *expect)

    return _labelled(label, op)


def driver(seed, workdir):
    ops = [cli_regularize(workdir, label, prog, (status, m, pts, empty))
           for label, prog, status, m, pts, empty in analytic()]
    ops += [cli_regularize(workdir, label, prog,
                           ("regularized", None, [t], None))
            for label, prog, t in gate(seed)]
    return ops


def multi_vertex(seed, workdir):
    label, prog, W = multi_vertex_instance(seed)
    return [cli_regularize(workdir, label, prog, ("regularized", 2, W, None))]


def _non_copositive(p, rng):
    """A copositive sample pushed below zero along a simplex point v:
    v'Dv = -delta, so the exact minimum over the simplex is at most that."""
    C = reg.sample_copositive(p, rng)
    v = rng.uniform(0.0, 1.0, size=p)
    v = v / v.sum()
    delta = 0.1
    D = C - (float(v @ C @ v) + delta) / float(v @ v) ** 2 * np.outer(v, v)
    return D, float(v @ D @ v)


def certify(seed, workdir):
    """Set-up regularizes the gate instances; the operations query the
    results (equivalence sampling, ledger verification) and the exact
    oracle (copositivity of a fixed batch of matrices)."""
    ops = []
    for slot, (label, prog, t) in enumerate(gate(seed)):
        res = coporeg.regularize(prog)
        found = (res.status == "regularized" and
                 _has_point([r.tau.coords for r in res.regularized.records], t))

        def equiv(prog=prog, res=res, found=found, s=1000 * seed + slot):
            if not found:
                return ["set-up regularization did not recover the planted point"]
            rep = reg.feasibility_equiv_sample(prog, res.regularized,
                                               EQUIV_SAMPLES, seed=s)
            return [f"{rep['n_disagreements']} disagreements"
                    ] if rep["n_disagreements"] else []

        def ledger(prog=prog, res=res, found=found, s=1000 * seed + 100 + slot):
            if not found:
                return ["set-up regularization did not recover the planted point"]
            rep = reg.verify_ledger(res.ledger, prog, n_samples=LEDGER_SAMPLES,
                                    seed=s)
            return [] if rep["ok"] else ["ledger not ok"]

        ops += [_labelled(f"equiv:{label}", equiv),
                _labelled(f"ledger:{label}", ledger)]

    def horn():
        res = oracle.is_copositive(HORN)
        return [] if res.copositive and abs(res.margin) <= 1e-9 else [
            f"Horn: {res}"]

    ops.append(_labelled("copositive:horn", horn))
    rng = np.random.default_rng(1000 * seed + 200)
    for p in (8, 8, 9, 9, 10, 10, 11, 11, 12, 12):
        D = reg.sample_copositive(p, rng)

        def cop(D=D):
            res = oracle.is_copositive(D)
            return [] if res.copositive else [f"copositive sample: {res}"]

        ops.append(_labelled(f"copositive:p{p}", cop))
    for p in (10, 10, 10, 12, 12, 12, 12, 12, 12, 12):
        D, known = _non_copositive(p, rng)

        def nonc(D=D, known=known):
            res = oracle.is_copositive(D)
            if res.copositive:
                return [f"non-copositive matrix reported copositive: {res}"]
            w = res.witness.coords
            bad = [] if float(w @ D @ w) < 0.0 else ["witness value not negative"]
            if res.margin > known + 1e-9:
                bad.append(f"margin {res.margin} above the known value {known}")
            return bad

        ops.append(_labelled(f"not_copositive:p{p}", nonc))
    return ops


WORKLOADS = {"driver": driver, "multi_vertex": multi_vertex, "certify": certify}

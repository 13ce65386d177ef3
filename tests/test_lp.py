import collections
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coporeg import (LinearProgram, LpError, SimplexPoint, generate_instance,
                     oracle, regularize, sip, solve_lp)
from coporeg import lp as lp_mod
from coporeg.lp import REL_EQ, REL_GE, REL_LE

from conftest import assert_same_program


def test_simple_lower_bound():
    lp = LinearProgram([1.0], [[1.0]], [REL_GE], [3.0])
    sol = solve_lp(lp)
    assert sol.status == "Optimal"
    assert sol.primal[0] == pytest.approx(3.0)
    assert sol.dual[0] == pytest.approx(1.0)
    assert sol.objective_value == pytest.approx(3.0)


def test_unbounded_ray():
    lp = LinearProgram([-1.0], np.empty((0, 1)), [], [], bounds=[(0.0, np.inf)])
    sol = solve_lp(lp)
    assert sol.status == "Unbounded"


def test_infeasible():
    lp = LinearProgram([0.0], [[1.0], [1.0]], [REL_GE, REL_LE], [1.0, 0.0])
    assert solve_lp(lp).status == "Infeasible"


def test_equality_and_bounds():
    # min x + y st x + y == 2, 0 <= x <= 1.5, y free via rows
    lp = LinearProgram([1.0, 1.0], [[1.0, 1.0], [0.0, 1.0]], [REL_EQ, REL_GE], [2.0, 0.3],
                       bounds=[(0.0, 1.5), (-np.inf, np.inf)])
    sol = solve_lp(lp)
    assert sol.status == "Optimal"
    assert sol.objective_value == pytest.approx(2.0)
    assert sol.residual <= 1e-9


def test_upper_bounded_negated_variable():
    # lo = -inf, hi finite exercises the negated column mode
    lp = LinearProgram([-1.0], [[1.0]], [REL_GE], [-5.0], bounds=[(-np.inf, 2.0)])
    sol = solve_lp(lp)
    assert sol.status == "Optimal"
    assert sol.primal[0] == pytest.approx(2.0)


def _random_feasible_bounded(rng, nvar, nrow):
    A = rng.normal(size=(nrow, nvar))
    x0 = rng.uniform(0.0, 1.0, size=nvar)
    b = A @ x0 + rng.uniform(0.1, 1.0, size=nrow)
    # then 0 <= x_j <= 10 as a >= and a <= row for each j
    A = np.vstack([A, np.repeat(np.eye(nvar), 2, axis=0)])
    rel = [REL_LE] * nrow + [REL_GE, REL_LE] * nvar
    b = np.concatenate([b, np.tile([0.0, 10.0], nvar)])
    c = rng.normal(size=nvar)
    return LinearProgram(c, A, rel, b)


def test_strong_duality_and_complementarity():
    rng = np.random.default_rng(42)
    for _ in range(50):
        nvar = int(rng.integers(2, 12))
        nrow = int(rng.integers(1, 18))
        lp = _random_feasible_bounded(rng, nvar, nrow)
        sol = solve_lp(lp)
        assert sol.status == "Optimal"
        dual_obj = sum(sol.dual[i] * lp.rows[i][2] for i in range(len(lp.rows)))
        assert abs(sol.objective_value - dual_obj) <= 1e-8 * (1 + abs(sol.objective_value))
        for i, (a, rel, rhs) in enumerate(lp.rows):
            slack = float(a @ sol.primal) - rhs
            assert abs(sol.dual[i] * slack) <= 1e-8
            if rel == REL_GE:
                assert sol.dual[i] >= -1e-9
            elif rel == REL_LE:
                assert sol.dual[i] <= 1e-9


def test_deterministic_bases():
    rng = np.random.default_rng(7)
    lp = _random_feasible_bounded(rng, 8, 10)
    a = solve_lp(lp)
    b = solve_lp(lp)
    assert a.basis.dtype.kind == "i" and np.array_equal(a.basis, b.basis)
    assert np.all(a.primal == b.primal)
    assert np.all(a.dual == b.dual)


@pytest.mark.parametrize("prog, status", [
    (LinearProgram([1.0, 2.0], [[1.0, 1.0]], [REL_GE], [1.0], [(0.0, np.inf)] * 2),
     "Optimal"),
    (LinearProgram([-1.0], np.empty((0, 1)), [], [], bounds=[(0.0, np.inf)]), "Unbounded"),
    (LinearProgram([0.0], [[1.0], [1.0]], [REL_GE, REL_LE], [1.0, 0.0]), "Infeasible")])
def test_a_single_solve_is_row_0_of_its_stack(prog, status):
    sol = solve_lp(prog)
    stack = solve_lp(prog, objectives=prog.objective[None])
    assert type(sol) is lp_mod.LpSolution and sol._fields == stack._fields
    assert sol.status == stack.status[0] == status
    for got, row in zip(sol[1:], stack[1:]):
        assert np.asarray(got).dtype == row.dtype
        assert np.asarray(got).tobytes() == row[0].tobytes()


def test_degenerate_instance_terminates():
    # classic degenerate vertex: several rows active at the optimum
    A = [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, -1.0]]
    lp = LinearProgram([-1.0, -1.0], A, [REL_LE] * 4, [1.0, 1.0, 2.0, 0.0],
                       bounds=[(0.0, np.inf)] * 2)
    sol = solve_lp(lp)
    assert sol.status == "Optimal"
    assert sol.objective_value == pytest.approx(-2.0)


def _beale():
    # Beale's LP, on which Dantzig's rule cycles at the degenerate origin
    A = [[0.25, -60.0, -0.04, 9.0], [0.5, -90.0, -0.02, 3.0], [0.0, 0.0, 1.0, 0.0]]
    return LinearProgram([-0.75, 150.0, -0.02, 6.0], A, [REL_LE] * 3, [0.0, 0.0, 1.0],
                         bounds=[(0.0, np.inf)] * 4)


def test_bland_rule_breaks_beales_cycle(monkeypatch):
    sol = solve_lp(_beale())
    assert sol.status == "Optimal"
    assert sol.objective_value == pytest.approx(-0.05, abs=1e-12)
    assert np.allclose(sol.primal, [0.04, 0.0, 1.0, 0.0], atol=1e-12)
    # without the switch to Bland's rule the same pivots cycle forever
    monkeypatch.setattr(lp_mod, "_DEGENERATE_RUN", 10 ** 9)
    monkeypatch.setattr(lp_mod, "_MAX_ITERS", 1000)
    with pytest.raises(LpError, match="iteration cap"):
        solve_lp(_beale())


@pytest.mark.parametrize("objective, A, rel, b, bounds, needle", [
    ([np.nan], np.empty((0, 1)), [], [], None, "variable 0"),
    ([1.0, np.inf], np.empty((0, 2)), [], [], None, "variable 1"),
    ([1.0], [[np.nan]], [REL_GE], [1.0], [(0.0, np.inf)], "row 0"),
    ([1.0], [[1.0], [np.inf]], [REL_LE, REL_GE], [2.0, 1.0], None, "row 1"),
    ([1.0], [[1.0], [np.inf], [np.nan]], [REL_LE, REL_GE, REL_LE], [2.0, 1.0, 1.0],
     None, "row 1 has"),
    ([1.0], [[1.0], [1.0], [1.0]], [REL_LE, REL_GE, REL_LE], [2.0, np.inf, np.nan],
     None, "row 1 rhs"),
    ([1.0], [[1.0]], [REL_GE], [np.nan], None, "row 0"),
    ([1.0], np.empty((0, 1)), [], [], [(np.nan, 1.0)], "variable 0"),
    ([1.0, 1.0], np.empty((0, 2)), [], [], [(0.0, 1.0), (0.0, np.nan)], "variable 1"),
    ([1.0], np.empty((0, 1)), [], [], [(np.inf, np.inf)], "variable 0"),
    ([1.0], np.empty((0, 1)), [], [], [(-np.inf, -np.inf)], "variable 0"),
    ([1.0], np.empty((0, 1)), [], [], [(2.0, 1.0)], "variable 0"),
    ([1.0], [[1.0], [1.0]], [REL_LE, "=<"], [1.0, 1.0], None,
     "row 1 has unknown relation '=<'"),
    ([1.0], [[1.0]], ["<=="], [1.0], None, "row 0 has unknown relation '<=='"),
    ([1.0], [[1.0, 2.0]], [REL_LE], [1.0], None,
     "A, rel and b have shapes (1, 2), (1,) and (1,), expected (m, 1), (m,) and (m,)"),
    ([1.0], [[1.0], [2.0]], [REL_LE], [1.0, 2.0], None,
     "A, rel and b have shapes (2, 1), (1,) and (2,), expected (m, 1)"),
    ([1.0], [[1.0], [2.0]], [REL_LE, REL_GE], [1.0, 2.0, 3.0], None,
     "A, rel and b have shapes (2, 1), (2,) and (3,), expected (m, 1)"),
    ([1.0], [], [], [], None,
     "A, rel and b have shapes (0,), (0,) and (0,), expected (m, 1)"),
], ids=["nan-objective", "inf-objective", "nan-coefficient", "inf-coefficient",
        "two-bad-rows", "two-bad-rhs", "nan-rhs", "nan-lower", "nan-upper",
        "lower-plus-inf", "upper-minus-inf", "empty-interval", "unknown-relation",
        "long-relation", "wrong-columns", "short-rel", "long-b", "empty-1d-A"])
def test_non_finite_data_is_rejected(objective, A, rel, b, bounds, needle):
    with pytest.raises(ValueError, match=re.escape(needle)):
        LinearProgram(objective, A, rel, b, bounds)


# --- differential test against HiGHS -----------------------------------------

_BOUND_MODES = ("free", "lower", "boxed", "upper")
_RELS = (REL_LE, REL_EQ, REL_GE)


def _random_lp(rng, degenerate=False):
    """A feasible, bounded LP over every bound mode and relation: the rows
    hold at a point x0 inside the bounds (with equality when
    ``degenerate``), and the objective combines the row and bound normals
    with multipliers of the dual signs, so the dual is feasible too."""
    nvar = int(rng.integers(2, 8))
    nrow = int(rng.integers(1, 9))
    modes = rng.choice(_BOUND_MODES, size=nvar)
    lo = np.where((modes == "lower") | (modes == "boxed"),
                  rng.uniform(-2.0, 0.0, nvar), -np.inf)
    hi = np.where((modes == "upper") | (modes == "boxed"),
                  rng.uniform(0.0, 2.0, nvar), np.inf)
    x0 = np.clip(rng.uniform(-1.0, 1.0, nvar), lo, hi)
    A = rng.integers(-3, 4, size=(nrow, nvar)).astype(float)
    if degenerate:
        A = np.vstack([A, A[:2]])           # repeated rows
    rels = rng.choice(_RELS, size=A.shape[0])
    gap = 0.0 if degenerate else rng.uniform(0.0, 1.0, A.shape[0])
    b = A @ x0 + np.where(rels == REL_LE, gap, np.where(rels == REL_GE, -gap, 0.0))
    y = rng.uniform(0.0, 1.0, A.shape[0])
    y = np.where(rels == REL_LE, -y, np.where(rels == REL_GE, y, y - 0.5))
    c = A.T @ y + np.where(np.isfinite(lo), rng.uniform(0.0, 1.0, nvar), 0.0) \
        - np.where(np.isfinite(hi), rng.uniform(0.0, 1.0, nvar), 0.0)
    return c, A, rels, b, list(zip(lo, hi))


def _infeasible_lp(rng):
    c, A, rels, b, bounds = _random_lp(rng)
    A = np.vstack([A, A[:1], A[:1]])        # a'x >= r + 1 and a'x <= r
    rels = np.append(rels, [REL_GE, REL_LE])
    b = np.append(b, [b[0] + 1.0, b[0]])
    return c, A, rels, b, bounds


def _unbounded_lp(rng):
    """A feasible LP plus a variable x_new >= 0 with cost -1 whose column
    only loosens its rows: x_new -> inf stays feasible."""
    c, A, rels, b, bounds = _random_lp(rng)
    col = rng.uniform(0.5, 1.5, len(b))
    col = np.where(rels == REL_GE, col, np.where(rels == REL_LE, -col, 0.0))
    return (np.append(c, -1.0), np.column_stack([A, col]), rels, b,
            bounds + [(0.0, np.inf)])


def _solve_both(linprog, c, A, rels, b, bounds):
    ours = solve_lp(LinearProgram(c, A, rels, b, bounds))
    le, ge, eq = rels == REL_LE, rels == REL_GE, rels == REL_EQ
    A_ub = np.vstack([A[le], -A[ge]])
    b_ub = np.concatenate([b[le], -b[ge]])
    ref = linprog(c, A_ub=A_ub if A_ub.size else None, b_ub=b_ub if b_ub.size else None,
                  A_eq=A[eq] if eq.any() else None, b_eq=b[eq] if eq.any() else None,
                  bounds=[(None if np.isinf(lo) else lo, None if np.isinf(hi) else hi)
                          for lo, hi in bounds], method="highs")
    return ours, ref


_HIGHS_STATUS = {0: "Optimal", 2: "Infeasible", 3: "Unbounded"}
_HIGHS_CASES = {  # kind: (generator, count, the one status expected)
    "feasible": (_random_lp, 60, "Optimal"),
    "degenerate": (lambda rng: _random_lp(rng, degenerate=True), 30, "Optimal"),
    "infeasible": (_infeasible_lp, 20, "Infeasible"),
    "unbounded": (_unbounded_lp, 20, "Unbounded"),
}


@pytest.mark.parametrize("kind", list(_HIGHS_CASES))
def test_agrees_with_highs(kind):
    linprog = pytest.importorskip("scipy.optimize").linprog
    make, count, expected = _HIGHS_CASES[kind]
    rng = np.random.default_rng(list(_HIGHS_CASES).index(kind))
    for _ in range(count):
        ours, ref = _solve_both(linprog, *make(rng))
        assert ours.status == _HIGHS_STATUS[ref.status] == expected, (ours, ref.message)
        if expected == "Optimal":
            assert abs(ours.objective_value - ref.fun) <= 1e-7 * (1.0 + abs(ref.fun))


# --- bit identity with the engine that rebuilt its standard form per solve ---
#
# The reference below is the engine as it was before programs kept their
# standard form and the simplex stacked its basis solves: a standard form
# built with vstack/hstack/diag/eye on every solve, and three separate
# np.linalg.solve calls per pivot.  Its arithmetic is kept as it was; it
# only records which branches a solve took, in ``events``.

_REF_PIV_TOL = 1e-10
_REF_DEGENERATE_RUN = 50
_REF_MAX_ITERS = 20000


class _RefStd:
    def __init__(self, lp):
        lo, hi = lp.lo, lp.hi
        free = np.isneginf(lo) & np.isposinf(hi)
        upper_only = np.isneginf(lo) & np.isfinite(hi)
        self.orig = np.repeat(np.arange(lp.nvar), np.where(free, 2, 1))
        self.sign = np.where(upper_only, -1.0, 1.0)[self.orig]
        self.sign[1:][self.orig[1:] == self.orig[:-1]] = -1.0   # split halves
        shift = np.where(upper_only, hi, np.where(free, 0.0, lo))
        self.shift = shift[self.orig]
        self.nstruct = nstruct = self.orig.size
        self.nvar = lp.nvar

        A = lp.A[:, self.orig] * self.sign + 0.0
        b = lp.b.copy()
        for j in np.flatnonzero(shift != 0.0):
            b -= lp.A[:, j] * shift[j]
        ub = np.flatnonzero(np.isfinite(lo[self.orig]) & np.isfinite(hi[self.orig]))
        A = np.vstack([A, np.eye(nstruct)[ub]])
        b = np.concatenate([b, (hi - lo)[self.orig[ub]]])
        sense = np.concatenate([np.where(lp.rel == REL_LE, 1.0,
                                         np.where(lp.rel == REL_GE, -1.0, 0.0)),
                                np.ones(ub.size)])

        flip = b < 0.0
        A[flip] = -A[flip]
        b[flip] = -b[flip]
        sense[flip] = -sense[flip]
        self.row_flip = np.where(flip, -1.0, 1.0)[:lp.b.size]

        m = b.size
        slack = np.flatnonzero(sense != 0.0)
        art = np.flatnonzero(sense <= 0.0)
        self.A = np.hstack([A, np.diag(sense)[:, slack], np.eye(m)[:, art]])
        self.b = b
        self.n_real_cols = nstruct + slack.size
        basis = np.empty(m, dtype=int)
        basis[slack] = nstruct + np.arange(slack.size)
        basis[art] = self.n_real_cols + np.arange(art.size)
        self.basis = basis.tolist()
        self.c = np.zeros(self.A.shape[1])
        self.c[:nstruct] = self.sign * lp.objective[self.orig]

    def to_original(self, v):
        return np.bincount(self.orig, weights=self.sign * v[:self.nstruct] + self.shift,
                           minlength=self.nvar)


def _ref_simplex(A, b, c, basis, n_allow, tol, events):
    m = A.shape[0]
    if m == 0:
        return np.zeros(0), np.zeros(0), bool(np.any(c[:n_allow] < -tol))
    degenerate_run = 0
    use_bland = False
    priced = A[:, :n_allow]
    in_basis = np.zeros(A.shape[1], dtype=bool)
    in_basis[basis] = True
    for _ in range(_REF_MAX_ITERS):
        try:
            B = A[:, basis]
            xb = np.linalg.solve(B, b)
            y = np.linalg.solve(B.T, c[basis])
        except np.linalg.LinAlgError as e:
            raise LpError(f"singular basis {tuple(basis)}: {e}") from e
        reduced = c[:n_allow] - priced.T @ y
        mask = ~in_basis[:n_allow] & (reduced < -tol)
        if not np.any(mask):
            return xb, y, False
        cand = np.flatnonzero(mask)
        if use_bland:
            enter = int(cand[0])
        else:
            enter = int(cand[int(np.argmin(reduced[mask]))])
        try:
            d = np.linalg.solve(B, A[:, enter])
        except np.linalg.LinAlgError as e:
            raise LpError(f"singular basis on pivot: {e}") from e
        pos = np.nonzero(d > _REF_PIV_TOL)[0]
        if pos.size == 0:
            return xb, y, True
        ratios = xb[pos] / d[pos]
        best = float(np.min(ratios))
        ties = pos[ratios <= best + _REF_PIV_TOL * (1.0 + abs(best))]
        leave_row = int(min(ties, key=lambda r: basis[r]))
        if best <= _REF_PIV_TOL:
            degenerate_run += 1
            if degenerate_run >= _REF_DEGENERATE_RUN and not use_bland:
                events["Bland's rule"] += 1
                use_bland = True
        else:
            degenerate_run = 0
        in_basis[basis[leave_row]] = False
        in_basis[enter] = True
        basis[leave_row] = enter
    raise LpError("simplex iteration cap exceeded")


def _ref_solve_lp(lp, tol=1e-9, events=None):
    events = collections.Counter() if events is None else events
    std = _RefStd(lp)
    A, b, c = std.A, std.b, std.c
    m, ncols = A.shape
    n_real = std.n_real_cols
    basis = list(std.basis)

    if m > 0 and n_real < ncols:
        events["phase 1"] += 1
        c1 = np.zeros(ncols)
        c1[n_real:] = 1.0
        xb, _y, unbounded = _ref_simplex(A, b, c1, basis, ncols, tol, events)
        if unbounded:
            raise LpError("phase-1 objective reported unbounded")
        if float(c1[basis] @ xb) > 10.0 * tol * (1.0 + float(np.max(np.abs(b), initial=0.0))):
            return _ref_unsolved(lp, "Infeasible", [-1] * m)
        for row in range(m):
            if basis[row] >= n_real:
                try:
                    binv_row = np.linalg.solve(A[:, basis].T, np.eye(m)[row])
                except np.linalg.LinAlgError as e:
                    raise LpError(f"singular basis after phase 1: {e}") from e
                usable = np.abs(binv_row @ A[:, :n_real]) > _REF_PIV_TOL
                usable[[j for j in basis if j < n_real]] = False
                if np.any(usable):
                    events["artificial pivoted out"] += 1
                    basis[row] = int(np.argmax(usable))
                else:
                    events["artificial stuck"] += 1

    xb, y, unbounded = _ref_simplex(A, b, c, basis, n_real, tol, events)
    if unbounded:
        return _ref_unsolved(lp, "Unbounded", basis)

    x_std = np.zeros(ncols)
    x_std[basis] = xb
    x = std.to_original(x_std)
    dual = std.row_flip * y[:std.row_flip.size]

    residual = _ref_feas_residual(lp, x)
    scale = 1.0 + float(np.max(np.abs(b), initial=0.0))
    if residual > 1e-6 * scale:
        raise LpError(f"optimal basis fails feasibility, residual {residual:.3e}")
    return _RefSolution("Optimal", float(lp.objective @ x), x, dual, basis, residual)


# the reference's solution, with LpSolution's fields
_RefSolution = collections.namedtuple("_RefSolution", lp_mod.LpStack._fields)


def _ref_unsolved(lp, status, basis):
    """The reference's solution without an optimum: NaN in every float
    field (an infeasible one passes -1 for its basis)."""
    return _RefSolution(status, np.nan, np.full(lp.nvar, np.nan),
                        np.full(lp.b.size, np.nan), basis, np.nan)


def _ref_feas_residual(lp, x):
    v = lp.A @ x - lp.b
    row = np.where(lp.rel == REL_EQ, np.abs(v), np.where(lp.rel == REL_LE, v, -v))
    return float(np.max(np.concatenate([row, lp.lo - x, x - lp.hi]), initial=0.0))


def _fields(sol):
    """Status, basis and the bytes of every float of a solution, an
    ``LpSolution`` or a row of an ``LpStack``.  A solution that is not
    optimal must read NaN in every float field, and an infeasible one -1
    in its basis; both read None here."""
    floats = (sol.primal, sol.dual, sol.objective_value, sol.residual)
    basis = tuple(np.asarray(sol.basis, dtype=int).tolist())
    if sol.status == "Optimal":
        return (sol.status, basis, *(np.asarray(f, dtype=float).tobytes() for f in floats))
    assert all(np.isnan(f).all() for f in floats)
    if sol.status == "Infeasible":
        assert set(basis) <= {-1}
        basis = None
    return (sol.status, basis, None, None, None, None)


def _outcome(solve, prog, **kwargs):
    """``_fields`` of a solve, or the LpError message it raised."""
    try:
        sol = solve(prog, **kwargs)
    except LpError as e:
        return ("LpError", str(e))
    return _fields(sol)


def _stack_fields(stack):
    """``_fields`` of each row of an ``LpStack``."""
    S = stack.status.size
    assert stack.objective_value.shape == stack.residual.shape == (S,)
    assert stack.primal.shape[0] == stack.dual.shape[0] == stack.basis.shape[0] == S
    return [_fields(lp_mod.LpSolution(*row)) for row in zip(*stack)]


def _assert_stack_bit_identical(prog, objectives, events=None, **kwargs):
    """A solve of the objective stack against the reference solve of each
    row's own program: every row's bits, or, when a row fails, the error
    of the first failing row.  ``events`` gathers the reference's
    branches."""
    want = []
    bounds = list(zip(prog.lo, prog.hi))
    for c in objectives:
        out = _outcome(_ref_solve_lp, LinearProgram(c, prog.A, prog.rel, prog.b, bounds),
                       events=events, **kwargs)
        if out[0] == "LpError":
            want = out
            break
        want.append(out)
    try:
        got = _stack_fields(solve_lp(prog, objectives=objectives, **kwargs))
    except LpError as e:
        got = ("LpError", str(e))
    assert got == want
    return want


def _rebuilt(prog):
    return LinearProgram(prog.objective, prog.A, prog.rel, prog.b,
                         list(zip(prog.lo, prog.hi)))


def _assert_bit_identical(prog, events=None, **kwargs):
    want = _outcome(_ref_solve_lp, prog, events=events, **kwargs)
    assert _outcome(solve_lp, prog, **kwargs) == want
    assert _outcome(solve_lp, _rebuilt(prog), **kwargs) == want
    return want


def _recorded_lps(monkeypatch, owner, run):
    """The (program, keyword arguments) of every solve_lp call that
    ``run()`` makes through ``owner``'s binding."""
    calls = []
    solve = owner.solve_lp

    def recording(prog, **kwargs):
        calls.append((prog, kwargs))
        return solve(prog, **kwargs)

    with monkeypatch.context() as mp:
        mp.setattr(owner, "solve_lp", recording)
        run()
    return calls


def test_hull_lps_of_a_two_vertex_region_are_bit_identical(monkeypatch):
    region = oracle.ReducedRegion([SimplexPoint([1.0, 0.0, 0.0]),
                                   SimplexPoint([0.0, 1.0, 0.0])])
    calls = _recorded_lps(monkeypatch, oracle, lambda: region.grid_mask(
        oracle.simplex_grid(3, 32), 3 / 64))
    # one row for every point the mask leaves undecided
    assert sum(len(kwargs["objectives"]) for _prog, kwargs in calls) == 136
    for prog, kwargs in calls:
        want = _assert_stack_bit_identical(prog, **kwargs)
        assert {out[0] for out in want} == {"Optimal"}


def test_master_lps_of_regularize_are_bit_identical(monkeypatch, e4):
    gen35 = generate_instance(seed=35, p=4, n=2,
                              planted=[SimplexPoint([0.5, 0.25, 0.25, 0.0])])
    # gen35's 13 rounds include two grid refinements, which reuse the
    # master solve of the round before
    for prog, count in ((e4, 5), (gen35, 11)):
        calls = _recorded_lps(monkeypatch, sip, lambda: regularize(prog))
        assert len(calls) == count
        for lp, kwargs in calls:
            assert set(kwargs) == {"tol"}      # cfg.tol_lp, passed to both engines
            _assert_bit_identical(lp, **kwargs)


_MODES = ("free", "lower", "upper", "boxed", "fixed")


@st.composite
def small_lps(draw):
    """Small integer LPs over every bound mode and relation, with negative
    right-hand sides, degenerate and redundant rows: (objective, another
    objective, A, rel, b, bounds, modes)."""
    nvar = draw(st.integers(1, 4))
    small = st.integers(-2, 2).map(float)
    modes = draw(st.lists(st.sampled_from(_MODES), min_size=nvar, max_size=nvar))
    bounds = []
    for mode in modes:
        lo, width = draw(small), float(draw(st.integers(1, 3)))
        bounds.append({"free": (-np.inf, np.inf), "lower": (lo, np.inf),
                       "upper": (-np.inf, lo), "boxed": (lo, lo + width),
                       "fixed": (lo, lo)}[mode])
    vector = st.lists(small, min_size=nvar, max_size=nvar)
    rows = draw(st.lists(st.tuples(vector, st.sampled_from(_RELS),
                                   st.integers(-3, 3).map(float)), max_size=5))
    A = np.array([a for a, _rel, _rhs in rows]).reshape(len(rows), nvar)
    rel, b = [r for _a, r, _rhs in rows], [rhs for _a, _r, rhs in rows]
    return draw(vector), draw(vector), A, rel, b, bounds, modes


_BRANCHES = {"free", "lower", "upper", "boxed", "fixed", REL_LE, REL_EQ, REL_GE,
             "negative rhs", "phase 1", "artificial pivoted out", "artificial stuck",
             "Optimal", "Infeasible", "Unbounded"}


def test_generated_lps_are_bit_identical_on_every_branch():
    seen = collections.Counter()

    @settings(derandomize=True, deadline=None, database=None, max_examples=400)
    @given(small_lps())
    def check(case):
        objective, other, A, rel, b, bounds, modes = case
        prog = LinearProgram(objective, A, rel, b, bounds)
        events = collections.Counter()
        want = _assert_bit_identical(prog, events=events)
        _assert_stack_bit_identical(prog, np.array([objective]))
        _assert_stack_bit_identical(prog, np.array([objective, other]))
        # the standard form itself, signed zeros included
        ref, std = _RefStd(prog), prog._std
        assert std.A.tobytes() == ref.A.tobytes() and std.b.tobytes() == ref.b.tobytes()
        assert std.row_flip.tobytes() == ref.row_flip.tobytes()
        assert std.basis.tolist() == ref.basis
        seen.update(events.keys())
        seen.update(set(modes) | set(rel) | {want[0]})
        if (ref.row_flip < 0.0).any():
            seen["negative rhs"] += 1

    check()
    assert _BRANCHES <= set(seen), _BRANCHES - set(seen)


# 31.3 and 31.7 exceed every |b| that small_lps draws, and (1 + x) - 1 != x
# for both: the scale must keep max |b|, not undo 1 + max |b|
_GROWN_RHS = {"negative": -31.7, "-0.0": -0.0, "zero": 0.0, "positive": 31.3}


@st.composite
def grown_lps(draw):
    """A ``small_lps`` program and 1-4 rows to append to it, over every
    relation, with coefficients including -0.0 and right-hand sides
    negative, zero, -0.0 and positive: (objective, A, rel, b, bounds,
    modes, rows), each row (coefs, relation, name of its rhs)."""
    objective, _other, A, rel, b, bounds, modes = draw(small_lps())
    coefs = st.lists(st.sampled_from([-2.0, -1.0, -0.0, 0.0, 0.5, 1.0]),
                     min_size=len(objective), max_size=len(objective))
    rows = draw(st.lists(st.tuples(coefs, st.sampled_from(_RELS),
                                   st.sampled_from(sorted(_GROWN_RHS))),
                         min_size=1, max_size=4))
    return objective, A, rel, b, bounds, modes, rows


_GROWN_BRANCHES = ({"free", "lower", "upper", "boxed", "flipped row", "artificial row",
                    "upper-bound rows", "Optimal", "Infeasible", "Unbounded"}
                   | set(_RELS) | set(_GROWN_RHS))


def test_a_grown_program_is_the_fresh_program_bitwise():
    # with_row's standard form comes from block copies of its parent's:
    # every field must be a fresh build's, signed zeros and the running
    # max |b| of the scale included, and so must every solve's bits
    seen = collections.Counter()

    @settings(derandomize=True, deadline=None, database=None, max_examples=300)
    @given(grown_lps())
    def check(case):
        objective, A, rel, b, bounds, modes, rows = case
        prog = LinearProgram(objective, A, rel, b, bounds)
        objectives = np.array([objective, -np.asarray(objective)])
        seen.update(modes)
        for k, (coefs, r, rhs) in enumerate(rows, start=1):
            prog = prog.with_row(coefs, r, _GROWN_RHS[rhs])
            fresh = LinearProgram(objective, np.vstack([A] + [c for c, _r, _b in rows[:k]]),
                                  list(rel) + [r for _c, r, _b in rows[:k]],
                                  list(b) + [_GROWN_RHS[name] for _c, _r, name in rows[:k]],
                                  bounds)
            assert_same_program(prog, fresh)
            want = _outcome(solve_lp, fresh)
            assert _outcome(solve_lp, prog) == want
            assert _stack_fields(solve_lp(prog, objectives=objectives)) == \
                _stack_fields(solve_lp(fresh, objectives=objectives))
            seen.update({r, rhs, want[0]})
            std = prog._std
            if std.row_flip[-1] < 0.0:
                seen["flipped row"] += 1
            if std.basis[prog.b.size - 1] >= std.n_real_cols:
                seen["artificial row"] += 1
            if std.A.shape[0] > prog.b.size:
                seen["upper-bound rows"] += 1

    check()
    assert _GROWN_BRANCHES <= set(seen), _GROWN_BRANCHES - set(seen)


@pytest.mark.parametrize("bad, needle", [
    (([1.0, 2.0, 3.0], REL_GE, 0.0), "row 1 has shape (3,), expected (2,)"),
    (([1.0, 2.0], "=>", 0.0), "row 1 has unknown relation '=>'"),
    (([1.0, np.nan], REL_LE, 0.0), "row 1 has a non-finite coefficient"),
    (([1.0, 2.0], REL_EQ, np.inf), "row 1 rhs must be finite"),
], ids=["shape", "relation", "coefficient", "rhs"])
def test_a_grown_row_is_validated(bad, needle):
    prog = LinearProgram([1.0, 1.0], [[1.0, -1.0]], [REL_LE], [2.0])
    with pytest.raises(ValueError, match=re.escape(needle)):
        prog.with_row(*bad)


def _hull_stack(monkeypatch, V, points):
    """The program and objective stack of ``oracle.l1_dist_to_hull``'s one
    ``solve_lp`` call for the points, rows of ``points``."""
    (prog, kwargs), = _recorded_lps(monkeypatch, oracle,
                                    lambda: oracle.l1_dist_to_hull(points, V))
    return prog, kwargs["objectives"]


def _counted_pivot_loops(monkeypatch):
    """The row count of every run of each pivot loop (phase 1 runs the
    scalar ``_simplex`` too)."""
    chunks = {"_simplex": [], "_simplex_stack": []}
    scalar, lockstep = lp_mod._simplex, lp_mod._simplex_stack

    def one_row(A, b, c, *args):
        chunks["_simplex"].append(1)
        return scalar(A, b, c, *args)

    def stacked(A, b, costs, *args):
        chunks["_simplex_stack"].append(len(costs))
        return lockstep(A, b, costs, *args)

    monkeypatch.setattr(lp_mod, "_simplex", one_row)
    monkeypatch.setattr(lp_mod, "_simplex_stack", stacked)
    return chunks


def _checked_row_groups(monkeypatch):
    """Wrap ``row_groups`` so that each lockstep step's grouping must give
    every live row its own basis (the first row of a row's group equals
    it).  A grouping that serves a row another basis can still give that
    row its own bits at a degenerate vertex, so the bits alone do not show
    it.  Returns, per step, whether its bases are short (one integer key
    of at most 63 bits) and how many distinct bases it has."""
    steps = []
    grouped = lp_mod.row_groups

    def checked(live_bases, ncols):
        group, first = grouped(live_bases, ncols)
        assert np.array_equal(live_bases[first][group], live_bases)
        short = live_bases.shape[1] * max(ncols - 1, 1).bit_length() <= 63
        steps.append((short, first.size))
        return group, first

    monkeypatch.setattr(lp_mod, "row_groups", checked)
    return steps


def test_a_stack_across_chunks_is_bit_identical(monkeypatch):
    # 2,145 hull LPs: at least two full chunks and a partial one; the
    # points lie in the simplex, so there is no phase 1
    hull, objectives = _hull_stack(monkeypatch, np.eye(3)[:2], oracle.simplex_grid(3, 64))
    full, tail = divmod(len(objectives), lp_mod._STACK_ROWS)
    assert full >= 2 and tail >= 2
    chunks = _counted_pivot_loops(monkeypatch)
    steps = _checked_row_groups(monkeypatch)
    _assert_stack_bit_identical(hull, objectives)
    assert max(n for short, n in steps if short) > 1
    assert chunks == {"_simplex": [], "_simplex_stack": [lp_mod._STACK_ROWS] * full + [tail]}


def test_a_one_row_tail_takes_the_scalar_simplex(monkeypatch):
    # 257 hull LPs: one full chunk in lockstep, then a one-row chunk
    points = np.random.default_rng(23).dirichlet(np.ones(4), size=lp_mod._STACK_ROWS + 1)
    hull, objectives = _hull_stack(monkeypatch, [[0.5, 0.5, 0.0, 0.0], [0.0, 0.25, 0.25, 0.5]],
                                   points)
    chunks = _counted_pivot_loops(monkeypatch)
    want = _assert_stack_bit_identical(hull, objectives)
    assert {out[0] for out in want} == {"Optimal"}
    assert chunks == {"_simplex": [1], "_simplex_stack": [lp_mod._STACK_ROWS]}


def test_an_empty_stack_solves_nothing(monkeypatch):
    def no_solve(*args):
        raise AssertionError("an empty stack ran the simplex")

    monkeypatch.setattr(lp_mod, "_simplex", no_solve)
    monkeypatch.setattr(lp_mod, "_simplex_stack", no_solve)
    prog = _beale()
    empty = solve_lp(prog, objectives=np.empty((0, 4)))
    assert _stack_fields(empty) == []
    assert empty.primal.shape == (0, 4) and empty.dual.shape == (0, 3)
    assert empty.basis.shape == (0, prog._std.A.shape[0])


def test_a_failing_row_raises_its_own_error(monkeypatch):
    # without the switch to Bland's rule only Beale's own objective cycles;
    # the chunk is solved again one row at a time, and its first failing
    # row raises
    monkeypatch.setattr(lp_mod, "_DEGENERATE_RUN", 10 ** 9)
    monkeypatch.setattr(lp_mod, "_MAX_ITERS", 1000)
    prog = _beale()
    others = np.array([[1.0, 1.0, 1.0, 1.0], [0.0, 0.0, -1.0, 0.0]])
    assert solve_lp(prog, objectives=others).status.tolist() == ["Optimal"] * 2
    with pytest.raises(LpError, match="iteration cap") as single:
        solve_lp(prog)
    with pytest.raises(LpError) as stacked:
        solve_lp(prog, objectives=np.insert(others, 1, prog.objective, axis=0))
    assert str(stacked.value) == str(single.value)


def test_a_singular_stack_is_solved_one_row_at_a_time(monkeypatch):
    # the lockstep loop's grouped solve of B x_B = b, a stack of bases
    # against the one right-hand side b, is made to raise; the three rows
    # all start on one basis
    solve = lp_mod._solve
    stacks = []

    def singular_stacks(a, b, **kwargs):
        if a.ndim == 3 and b.ndim == 2:
            stacks.append(a.shape[0])
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(a, b, **kwargs)

    rng = np.random.default_rng(22)
    c, A, rels, b, bounds = _random_lp(rng)
    prog = LinearProgram(c, A, rels, b, bounds)
    objectives = np.array([c, -c, c + rng.normal(size=c.size)])
    monkeypatch.setattr(lp_mod, "_solve", singular_stacks)
    _assert_stack_bit_identical(prog, objectives)
    assert stacks == [1]


def test_a_stack_over_many_bases_and_entering_columns_is_bit_identical(monkeypatch):
    # mixed <=, == and >= rows with repeated rows (a degenerate vertex), a
    # few hundred random objectives each, and the switch to Bland's rule
    # after a degenerate run of 2, in the engine and in the reference: the
    # lockstep rows spread over several bases and, on one basis, over
    # several entering columns, and every row keeps the bits of its own
    # solve
    monkeypatch.setattr(lp_mod, "_DEGENERATE_RUN", 2)
    monkeypatch.setattr(sys.modules[__name__], "_REF_DEGENERATE_RUN", 2)
    pairs = []
    entering = lp_mod._entering_columns

    def counted_pairs(B, At, group, enter):
        pairs.append((B.shape[0], len(set(zip(group.tolist(), enter.tolist())))))
        return entering(B, At, group, enter)

    steps = _checked_row_groups(monkeypatch)
    monkeypatch.setattr(lp_mod, "_entering_columns", counted_pairs)
    rng = np.random.default_rng(27)
    events, statuses = collections.Counter(), collections.Counter()
    # six programs: the bases of the fourth are long, those of the fifth
    # and sixth short, and each kind spreads over several bases
    for _ in range(6):
        c, A, rels, b, bounds = _random_lp(rng, degenerate=True)
        prog = LinearProgram(c, A, rels, b, bounds)
        want = _assert_stack_bit_identical(prog, rng.normal(size=(300, c.size)),
                                           events=events)
        assert want[0] != "LpError"
        statuses.update(out[0] for out in want)
    assert events["Bland's rule"] > 0 and statuses["Optimal"] > 0
    assert {short for short, n in steps if n > 1} == {True, False}
    assert any(n_pairs > n_bases for n_bases, n_pairs in pairs)


def test_a_lockstep_step_solves_each_distinct_basis_once(monkeypatch):
    # the hull stack of a two-vertex region: its rows share few bases, and
    # each step solves B x_B = b once per distinct basis of its live rows
    hull, objectives = _hull_stack(monkeypatch, np.eye(3)[:2], oracle.simplex_grid(3, 64))
    m = hull._std.A.shape[0]
    calls = []
    grouped, solve = lp_mod.row_groups, lp_mod._solve

    def counted_bases(live_bases, ncols):
        calls.append(("bases", live_bases.shape[0],
                      len({tuple(r) for r in live_bases.tolist()})))
        return grouped(live_bases, ncols)

    def counted_solve(a, b, **kwargs):
        calls.append(("solve", a.shape, b.shape))
        return solve(a, b, **kwargs)

    monkeypatch.setattr(lp_mod, "row_groups", counted_bases)
    monkeypatch.setattr(lp_mod, "_solve", counted_solve)
    solve_lp(hull, objectives=objectives)
    monkeypatch.undo()
    steps = [i for i, call in enumerate(calls) if call[0] == "bases"]
    for i in steps:
        _, _rows, distinct = calls[i]
        assert calls[i + 1] == ("solve", (distinct, m, m), (m, 1))
    row_steps = sum(calls[i][1] for i in steps)
    basis_solves = sum(calls[i][2] for i in steps)
    assert row_steps > 5000 and basis_solves < row_steps / 50


def test_row_groups_are_the_equal_rows():
    # rows read as one integer key (5 entries below 10, 20 bits) and rows
    # compared as rows (12 entries below 100, 84 bits): two rows share a
    # group exactly when they are equal.  Each pool row comes with a copy
    # whose first two entries are swapped and one that differs in one
    # entry, in each column in turn
    rng = np.random.default_rng(27)
    for m, ncols in ((5, 10), (12, 100)):
        pool = np.repeat(rng.integers(0, ncols, size=(20, m)), 3, axis=0)
        pool[1::3, :2] = pool[::3, 1::-1]
        col = np.arange(20) % m
        pool[2::3][np.arange(20), col] = (pool[::3][np.arange(20), col] + 1) % ncols
        rows = pool[rng.integers(0, 60, size=500)]
        group, first = lp_mod.row_groups(rows, ncols)
        assert group.shape == (500,)
        assert group[first].tolist() == list(range(first.size))
        equal = (rows[:, None] == rows[None]).all(axis=2)
        assert (equal == (group[:, None] == group[None])).all()
        assert first.size == len({tuple(r) for r in rows.tolist()})


def test_a_lockstep_stack_of_long_basis_rows_is_bit_identical(monkeypatch):
    # the hull stack of e_1 and the centroid at p = 12: its bases have 14
    # entries below 28, 70 bits, too long for one integer key, so the
    # lockstep steps group them as rows
    points = np.random.default_rng(38).dirichlet(np.ones(12), size=200)
    hull, objectives = _hull_stack(monkeypatch, [np.eye(12)[0], np.full(12, 1 / 12)], points)
    assert hull._std.A.shape == (14, 28)
    row_axes = []
    unique = np.unique

    def counted_unique(ar, *args, **kwargs):
        row_axes.append(kwargs.get("axis"))
        return unique(ar, *args, **kwargs)

    monkeypatch.setattr(np, "unique", counted_unique)
    chunks = _counted_pivot_loops(monkeypatch)
    want = _assert_stack_bit_identical(hull, objectives)
    assert {out[0] for out in want} == {"Optimal"}
    # one lockstep run, with no one-row retry (and, the points lying in the
    # simplex, no phase 1)
    assert chunks == {"_simplex": [], "_simplex_stack": [200]}
    assert 0 in row_axes


def _fp_state():
    return np.geterr(), np.geterrcall()


def test_the_lapack_calls_give_the_bits_of_np_linalg_solve():
    # the pivot loops call the gufuncs that np.linalg.solve wraps, on (2, m,
    # m) stacks with (2, m, 1) right-hand sides and on one matrix with a
    # strided column as its 1-D right-hand side
    rng = np.random.default_rng(37)
    state = _fp_state()
    for m in range(1, 31):
        for _ in range(10):
            stack, rhs = rng.normal(size=(2, m, m)), rng.normal(size=(2, m, 1))
            column = rng.normal(size=(m, 3))[:, 1]
            with lp_mod._lapack_state():
                got = lp_mod._solve(stack, rhs, signature="dd->d")
                got1 = lp_mod._solve1(stack[0], column, signature="dd->d")
            assert got.tobytes() == np.linalg.solve(stack, rhs).tobytes()
            assert got1.tobytes() == np.linalg.solve(stack[0], column).tobytes()
    assert _fp_state() == state


def _split_free_program():
    """One free variable in two rows: its two standard-form columns are a
    and -a, so the basis of both is singular."""
    return LinearProgram([1.0], [[1.0], [1.0]], [REL_GE, REL_LE], [0.0, 2.0])


def test_a_singular_basis_raises_lp_error_and_keeps_the_fp_state():
    prog = _split_free_program()
    std = prog._std
    state = _fp_state()
    solve_lp(prog)
    solve_lp(prog, objectives=np.array([[1.0], [-1.0]]))
    assert _fp_state() == state
    with pytest.raises(LpError, match=re.escape("singular basis (0, 1): Singular matrix")):
        lp_mod._simplex(std.A, std.b, np.zeros(std.A.shape[1]), np.array([0, 1]),
                        std.n_real_cols, 1e-9)
    assert _fp_state() == state


def test_a_singular_stack_retries_each_row_and_raises_its_error(monkeypatch):
    # a real singular basis, not a patched solve: the lockstep loop's
    # LinAlgError sends the stack to one row at a time, and the first row's
    # scalar solve raises the LpError
    prog = _split_free_program()
    loops = []
    stacked, one_row = lp_mod._simplex_stack, lp_mod._simplex

    def counted(name, loop):
        def run(*args):
            loops.append(name)
            return loop(*args)
        return run

    monkeypatch.setattr(lp_mod, "_phase_one", lambda std, tol: np.array([0, 1]))
    monkeypatch.setattr(lp_mod, "_simplex_stack", counted("stack", stacked))
    monkeypatch.setattr(lp_mod, "_simplex", counted("row", one_row))
    state = _fp_state()
    with pytest.raises(LpError, match=re.escape("singular basis (0, 1): Singular matrix")):
        solve_lp(prog, objectives=np.array([[1.0], [-1.0]]))
    assert loops == ["stack", "row"]
    assert _fp_state() == state


# --- the assumptions the bit identity rests on -------------------------------

def test_stacked_basis_solve_matches_two_solves_bitwise():
    # one np.linalg.solve over (B, B') must give the bits of two calls; a
    # numpy or LAPACK change that breaks this would move pivots silently
    rng = np.random.default_rng(18)
    singular = 0
    for k in range(5000):
        m = int(rng.integers(2, 16))
        if k % 2:
            B = rng.normal(size=(m, m))
        else:   # a simplex basis: integer structural columns and unit columns
            pool = np.hstack([rng.integers(-3, 4, size=(m, m)), np.eye(m), -np.eye(m)])
            B = pool[:, rng.choice(3 * m, size=m, replace=False)].astype(float)
        b, cb = rng.normal(size=m), rng.normal(size=m)
        stack, rhs = np.stack((B, B.T)), np.stack((b, cb))[:, :, None]
        try:
            xy = np.linalg.solve(stack, rhs)
        except np.linalg.LinAlgError:
            # the simplex raises the same LpError when either call would
            singular += 1
            with pytest.raises(np.linalg.LinAlgError):
                np.linalg.solve(B, b)
                np.linalg.solve(B.T, cb)
            continue
        assert xy[0, :, 0].tobytes() == np.linalg.solve(B, b).tobytes()
        assert xy[1, :, 0].tobytes() == np.linalg.solve(B.T, cb).tobytes()
    assert singular < 2000           # over 3,000 bases compared

    # the lockstep simplex's stacked solves over the bases of a shared A:
    # B x_B = b against the one b, B' y = c_B and B d = a, one right-hand
    # side per basis, and its stacked reduced costs must give each basis
    # the bits of its own calls
    compared = 0
    for k in range(300):
        m = int(rng.integers(1, 16))
        A = np.hstack([rng.integers(-3, 4, size=(m, 2 * m)), np.eye(m), -np.eye(m)])
        A = A.astype(float) if k % 2 else A + rng.normal(size=A.shape)
        ncols = A.shape[1]
        bases = np.array([rng.choice(ncols, size=m, replace=False) for _ in range(40)])
        ok = [np.linalg.matrix_rank(A[:, B]) == m for B in bases]
        bases = bases[ok]
        S = len(bases)
        Bt = A.T[bases]
        b, cb, cols = rng.normal(size=m), rng.normal(size=(S, m)), rng.normal(size=(S, m))
        try:
            XB = np.linalg.solve(Bt.transpose(0, 2, 1), b[:, None])[..., 0]
            Y = np.linalg.solve(Bt, cb[:, :, None])[..., 0]
            D = np.linalg.solve(Bt.transpose(0, 2, 1), cols[:, :, None])[..., 0]
        except np.linalg.LinAlgError:
            continue        # the engine solves such a stack one row at a time
        n = int(rng.integers(1, ncols + 1))
        C = rng.normal(size=(S, n))
        reduced = lp_mod._stacked_reduced_costs(C, A[:, :n].T, Y)
        for i, B in enumerate(Bt.transpose(0, 2, 1)):
            assert XB[i].tobytes() == np.linalg.solve(B, b).tobytes()
            assert Y[i].tobytes() == np.linalg.solve(B.T, cb[i]).tobytes()
            assert D[i].tobytes() == np.linalg.solve(B, cols[i]).tobytes()
            assert reduced[i].tobytes() == (C[i] - A[:, :n].T @ Y[i]).tobytes()
            compared += 1
    assert compared > 5000


def test_program_arrays_are_read_only_and_shared():
    # every solve of a program, whatever its objectives, reads the one
    # standard form its constructor built
    A = np.array([[1.0, 1.0, 0.0], [1.0, -1.0, 1.0], [0.0, 1.0, 1.0]])
    rel, b = np.array([REL_LE, REL_GE, REL_EQ]), np.array([2.0, -1.0, 1.0])
    prog = LinearProgram([1.0, -1.0, 0.5], A, rel, b,
                         [(0.0, 1.0), (-np.inf, np.inf), (-np.inf, 3.0)])
    std = prog._std
    arrays = [prog.objective, prog.A, prog.rel, prog.b, prog.lo, prog.hi, std.A, std.b,
              std.basis, std.orig, std.sign, std.shift, std.row_flip,
              std.eq_rows, std.row_sign]
    before = [a.tobytes() for a in arrays]
    first = _outcome(solve_lp, prog)
    solve_lp(prog, objectives=[[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0]])
    assert _outcome(solve_lp, prog) == first
    assert prog._std is std and [a.tobytes() for a in arrays] == before
    assert prog.objective.tolist() == [1.0, -1.0, 0.5]
    for a in arrays:
        assert a.size and not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[(0,) * a.ndim] = a[(0,) * a.ndim]


@pytest.mark.parametrize("objective, first", [
    ([np.nan, 1.0, 2.0], 0), ([1.0, np.inf, -np.inf], 1), ([1.0, 2.0, np.nan], 2)])
def test_an_objective_stack_rejects_a_non_finite_objective(objective, first):
    prog = LinearProgram([0.0] * 3, [[1.0, 1.0, 1.0]], [REL_LE], [1.0])
    with pytest.raises(ValueError) as built:
        LinearProgram(objective, prog.A, prog.rel, prog.b)
    assert str(built.value) == f"objective coefficient of variable {first} is not finite"
    with pytest.raises(ValueError, match=f"^objective 0 coefficient of variable {first} "):
        solve_lp(prog, objectives=[objective])
    with pytest.raises(ValueError, match=f"^objective 1 coefficient of variable {first} "):
        solve_lp(prog, objectives=[[0.0] * 3, objective])


def test_an_objective_stack_rejects_a_wrong_shape():
    prog = LinearProgram([0.0] * 3, [[1.0, 1.0, 1.0]], [REL_LE], [1.0])
    with pytest.raises(ValueError, match="objective has 2 coefficients, expected 3"):
        solve_lp(prog, objectives=[[1.0, 2.0]])
    with pytest.raises(ValueError, match=r"objectives must be an \(S, nvar\) array"):
        solve_lp(prog, objectives=[[[1.0, 2.0, 3.0]]])
    with pytest.raises(ValueError, match="objective must be a vector"):
        LinearProgram([[1.0, 2.0, 3.0]], prog.A, prog.rel, prog.b)
    with pytest.raises(ValueError, match=r"objectives must be an \(S, nvar\) array"):
        solve_lp(prog, objectives=[1.0, 2.0, 3.0])

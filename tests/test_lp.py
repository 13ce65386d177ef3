import numpy as np
import pytest

from coporeg import LinearProgram, LpError, solve_lp
from coporeg import lp as lp_mod
from coporeg.lp import REL_EQ, REL_GE, REL_LE


def test_simple_lower_bound():
    lp = LinearProgram([1.0], [([1.0], REL_GE, 3.0)])
    sol = solve_lp(lp)
    assert sol.status == "Optimal"
    assert sol.primal[0] == pytest.approx(3.0)
    assert sol.dual[0] == pytest.approx(1.0)
    assert sol.objective_value == pytest.approx(3.0)


def test_unbounded_ray():
    lp = LinearProgram([-1.0], [], bounds=[(0.0, np.inf)])
    sol = solve_lp(lp)
    assert sol.status == "Unbounded"


def test_infeasible():
    lp = LinearProgram([0.0], [([1.0], REL_GE, 1.0), ([1.0], REL_LE, 0.0)])
    assert solve_lp(lp).status == "Infeasible"


def test_equality_and_bounds():
    # min x + y st x + y == 2, 0 <= x <= 1.5, y free via rows
    lp = LinearProgram([1.0, 1.0],
                       [([1.0, 1.0], REL_EQ, 2.0), ([0.0, 1.0], REL_GE, 0.3)],
                       bounds=[(0.0, 1.5), (-np.inf, np.inf)])
    sol = solve_lp(lp)
    assert sol.status == "Optimal"
    assert sol.objective_value == pytest.approx(2.0)
    assert sol.residual <= 1e-9


def test_upper_bounded_negated_variable():
    # lo = -inf, hi finite exercises the negated column mode
    lp = LinearProgram([-1.0], [([1.0], REL_GE, -5.0)],
                       bounds=[(-np.inf, 2.0)])
    sol = solve_lp(lp)
    assert sol.status == "Optimal"
    assert sol.primal[0] == pytest.approx(2.0)


def _random_feasible_bounded(rng, nvar, nrow):
    A = rng.normal(size=(nrow, nvar))
    x0 = rng.uniform(0.0, 1.0, size=nvar)
    b = A @ x0 + rng.uniform(0.1, 1.0, size=nrow)
    rows = [(A[i], REL_LE, float(b[i])) for i in range(nrow)]
    for j in range(nvar):
        e = np.zeros(nvar)
        e[j] = 1.0
        rows.append((e, REL_GE, 0.0))
        rows.append((e.copy(), REL_LE, 10.0))
    c = rng.normal(size=nvar)
    return LinearProgram(c, rows)


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
    assert a.basis == b.basis
    assert np.all(a.primal == b.primal)
    assert np.all(a.dual == b.dual)


def test_degenerate_instance_terminates():
    # classic degenerate vertex: several rows active at the optimum
    rows = [([1.0, 0.0], REL_LE, 1.0), ([0.0, 1.0], REL_LE, 1.0),
            ([1.0, 1.0], REL_LE, 2.0), ([1.0, -1.0], REL_LE, 0.0)]
    lp = LinearProgram([-1.0, -1.0], rows, bounds=[(0.0, np.inf)] * 2)
    sol = solve_lp(lp)
    assert sol.status == "Optimal"
    assert sol.objective_value == pytest.approx(-2.0)


def _beale():
    # Beale's LP, on which Dantzig's rule cycles at the degenerate origin
    rows = [([0.25, -60.0, -0.04, 9.0], REL_LE, 0.0),
            ([0.5, -90.0, -0.02, 3.0], REL_LE, 0.0),
            ([0.0, 0.0, 1.0, 0.0], REL_LE, 1.0)]
    return LinearProgram([-0.75, 150.0, -0.02, 6.0], rows,
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


@pytest.mark.parametrize("objective, rows, bounds, needle", [
    ([np.nan], [], None, "variable 0"),
    ([1.0, np.inf], [], None, "variable 1"),
    ([1.0], [([np.nan], REL_GE, 1.0)], [(0.0, np.inf)], "row 0"),
    ([1.0], [([1.0], REL_LE, 2.0), ([np.inf], REL_GE, 1.0)], None, "row 1"),
    ([1.0], [([1.0], REL_GE, np.nan)], None, "row 0"),
    ([1.0], [], [(np.nan, 1.0)], "variable 0"),
    ([1.0, 1.0], [], [(0.0, 1.0), (0.0, np.nan)], "variable 1"),
    ([1.0], [], [(np.inf, np.inf)], "variable 0"),
    ([1.0], [], [(-np.inf, -np.inf)], "variable 0"),
    ([1.0], [], [(2.0, 1.0)], "variable 0"),
], ids=["nan-objective", "inf-objective", "nan-coefficient", "inf-coefficient",
        "nan-rhs", "nan-lower", "nan-upper", "lower-plus-inf", "upper-minus-inf",
        "empty-interval"])
def test_non_finite_data_is_rejected(objective, rows, bounds, needle):
    with pytest.raises(ValueError, match=needle):
        LinearProgram(objective, rows, bounds)


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
    ours = solve_lp(LinearProgram(c, list(zip(A, rels, b)), bounds))
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

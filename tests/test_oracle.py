import collections
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coporeg import (CapabilityError, ReducedRegion, SimplexPoint,
                     exclusion_radius, is_copositive, l1_dist_to_hull,
                     min_quad_over_omega, min_quad_over_simplex, quad_form,
                     simplex_grid)
from coporeg import lp, oracle
from coporeg.lp import REL_EQ, REL_GE, LinearProgram, solve_lp

from conftest import simplex
from grid_reference import grid_min_full


def brute_grid_min(D, p, N):
    """Independent oracle: plain enumeration of every composition."""
    best = None
    for comp in itertools.product(range(N + 1), repeat=p - 1):
        if sum(comp) > N:
            continue
        t = np.array(list(comp) + [N - sum(comp)], dtype=float) / N
        v = float(t @ D @ t)
        if best is None or v < best:
            best = v
    return best


def random_sym(rng, p, scale=1.0):
    m = rng.normal(scale=scale, size=(p, p))
    return 0.5 * (m + m.T)


# ---------------------------------------------------------------------------
# exact minimizer

def test_min_identity():
    # analytic: sum t_k^2 over the simplex is minimized at the barycenter
    res = min_quad_over_simplex(np.eye(2))
    assert res.value == pytest.approx(0.5)
    assert np.allclose(res.argmin.coords, [0.5, 0.5])
    assert res.value_lb == res.value


def test_min_rank_one_difference():
    res = min_quad_over_simplex(np.array([[1.0, -1.0], [-1.0, 1.0]]))
    assert res.value == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(res.argmin.coords, [0.5, 0.5])


def test_min_horn_matrix(horn):
    res = min_quad_over_simplex(horn)
    assert abs(res.value) <= 1e-9
    # cross-check against the fine grid
    gv, _gt = grid_min_full(horn, 64)
    assert gv >= -1e-9
    assert abs(gv - res.value) <= 1e-9


def test_min_flat_form():
    # q = (sum t)^2 is constant on the simplex; every stationarity system
    # is singular and the least-squares branch must still find the value
    res = min_quad_over_simplex(np.ones((3, 3)))
    assert res.value == pytest.approx(1.0)


def test_capability_error():
    with pytest.raises(CapabilityError, match=r"raise p_max \(--p-max\) to 15"):
        min_quad_over_simplex(np.eye(15))


def test_enumeration_itself_is_capped():
    with pytest.raises(CapabilityError, match="p_max=14"):
        oracle.stationary_candidates(np.eye(15))
    with pytest.raises(CapabilityError, match="p_max=3"):
        oracle.stationary_candidates(np.eye(4), p_max=3)


# ---------------------------------------------------------------------------
# the stacked enumeration against the scalar loop it replaced

def _reference_candidates(D):
    """The scalar enumeration: one bordered system per support, in mask
    order, with the same singular-face and face-membership rules."""
    D = np.asarray(D, dtype=float)
    p = D.shape[0]
    scale = max(1.0, float(np.max(np.abs(D))))
    out = []
    for mask in range(1, 1 << p):
        support = [k for k in range(p) if mask >> k & 1]
        s = len(support)
        if s == 1:
            k = support[0]
            t = np.zeros(p)
            t[k] = 1.0
            out.append((float(D[k, k]), t))
            continue
        Dss = D[np.ix_(support, support)]
        K = np.zeros((s + 1, s + 1))
        K[:s, :s] = 2.0 * Dss
        K[:s, s] = -1.0
        K[s, :s] = 1.0
        rhs = np.zeros(s + 1)
        rhs[s] = 1.0
        try:
            z = np.linalg.solve(K, rhs)
            ok = np.all(np.isfinite(z))
        except np.linalg.LinAlgError:
            ok = False
        if not ok:
            z, *_ = np.linalg.lstsq(K, rhs, rcond=None)
            if float(np.max(np.abs(K @ z - rhs))) > 1e-9 * (1.0 + scale):
                continue
        u = z[:s]
        if float(np.min(u)) < -1e-10:
            continue
        u = np.clip(u, 0.0, None)
        total = float(np.sum(u))
        if total <= 0.0:
            continue
        u = u / total
        t = np.zeros(p)
        t[support] = u
        out.append((float(t @ D @ t), t))
    return out


def assert_same_list(got, want):
    """Equal candidate lists, bit for bit (values and coordinates)."""
    assert len(got) == len(want)
    for (gv, gt), (wv, wt) in zip(got, want):
        assert np.float64(gv).tobytes() == np.float64(wv).tobytes()
        assert gt.tobytes() == wt.tobytes()


def assert_same_candidates(D):
    """One matrix's candidates are row 0 of its stack of one, bit for bit,
    and, without the supports that have none, the reference list."""
    values, coords = oracle.stationary_candidates(D)
    stack_values, stack_coords = oracle.stationary_candidate_stack(
        np.asarray(D, dtype=float)[None])
    assert values.tobytes() == stack_values[0].tobytes()
    assert coords.tobytes() == stack_coords[0].tobytes()
    found = values != np.inf
    assert not coords[~found].any()
    assert_same_list(list(zip(values[found], coords[found])), _reference_candidates(D))


def assert_same_stack(Ds):
    """Each matrix's row of the stack is its reference list, with +inf and
    zero coordinates at the supports that have no candidate."""
    values, coords = oracle.stationary_candidate_stack(Ds)
    S, p = Ds.shape[:2]
    assert values.shape == (S, (1 << p) - 1)
    assert coords.shape == (S, (1 << p) - 1, p)
    for D, vals, ts in zip(Ds, values, coords):
        found = vals != np.inf
        assert not ts[~found].any()
        assert_same_list(list(zip(vals[found], ts[found])),
                         _reference_candidates(D))


def test_candidates_match_the_scalar_reference(horn, e1, e2, e3, e4):
    rng = np.random.default_rng(29)
    mats = [horn, np.ones((4, 4)), np.zeros((3, 3))]
    # the edge's stationary weight on coordinate 0 is about -eps: outside
    # the face at eps = 1e-8, clipped onto the vertex at eps = 1e-12
    for eps in (1e-8, 1e-12):
        mats.append(np.array([[2.0, 1.0], [1.0, 1.0 - eps]]))
    for prog in (e1, e2, e3, e4):
        mats.extend(prog.A)
    for p, r in ((3, 1), (4, 2), (6, 2), (8, 3)):
        G = rng.normal(size=(r, p))
        mats.append(G.T @ G)                     # rank r < p
    for D in mats:
        assert_same_candidates(D)


def test_mixed_singular_stack_is_retried_per_face():
    # a duplicated coordinate makes face {0, 1} singular while the other
    # size-2 faces are not, so the size-2 stack fails as a whole
    rng = np.random.default_rng(31)
    idx = [0, 0, 1, 2]
    D = random_sym(rng, 3)[np.ix_(idx, idx)]
    s, _positions, cols = oracle._support_groups(4)[1]
    K = np.zeros((len(cols), s + 1, s + 1))
    K[:, :s, :s] = 2.0 * D[cols[:, :, None], cols[:, None, :]]
    K[:, :s, s] = -1.0
    K[:, s, :s] = 1.0
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(K, np.ones((len(cols), s + 1, 1)))
    assert_same_candidates(D)
    assert_same_candidates(np.ones((3, 3)))
    assert min_quad_over_simplex(np.ones((3, 3))).value == pytest.approx(1.0)


def test_the_minimizer_is_the_first_in_mask_order():
    # every candidate ties: the first support, mask 1, is the vertex e_1
    for D in (np.ones((2, 2)), np.zeros((3, 3))):
        values, _coords = oracle.stationary_candidates(D)
        assert (values == values[0]).all()
        assert min_quad_over_simplex(D).argmin.coords.tolist() == [1.0] + [0.0] * (len(D) - 1)
    # at p = 4 the four size-3 faces of the all-ones matrix round to the
    # same value below 1; the first, mask 7 = {0, 1, 2}, wins
    values, _coords = oracle.stationary_candidates(np.ones((4, 4)))
    assert np.flatnonzero(values == values.min()).tolist() == [6, 10, 12, 13]
    assert min_quad_over_simplex(np.ones((4, 4))).argmin.support_plus() == (0, 1, 2)


_entries = st.one_of(st.integers(-4, 4).map(lambda k: k / 2.0),
                     st.floats(-4.0, 4.0, allow_nan=False, allow_subnormal=False))


@st.composite
def structured_sym(draw, p=None):
    """Symmetric matrices at p = 2..8 (or the given p): general, low-rank
    Gram, or with repeated coordinates (singular faces)."""
    p = draw(st.integers(2, 8)) if p is None else p
    M = np.array(draw(st.lists(_entries, min_size=p * p, max_size=p * p)))
    M = M.reshape(p, p)
    kind = draw(st.sampled_from(["sym", "gram", "repeat"]))
    if kind == "gram":
        r = draw(st.integers(1, p - 1))
        return M[:r].T @ M[:r]
    S = 0.5 * (M + M.T)
    if kind == "repeat":
        idx = draw(st.lists(st.integers(0, p - 2), min_size=p, max_size=p))
        return S[np.ix_(idx, idx)]
    return S


@settings(derandomize=True, deadline=None, database=None)
@given(structured_sym())
def test_candidates_match_the_scalar_reference_property(D):
    assert_same_candidates(D)


def test_grid_min_full_matches_brute_force():
    rng = np.random.default_rng(3)
    for p, N in ((2, 9), (3, 7), (4, 5)):
        for _ in range(5):
            D = random_sym(rng, p)
            expected = brute_grid_min(D, p, N)
            got, argmin = grid_min_full(D, N)
            assert got == pytest.approx(expected, abs=1e-12)
            assert float(argmin @ D @ argmin) == pytest.approx(got, abs=1e-12)


def test_exact_grid_consistency():
    # spec property: exact minimum and the h = 2^-8 grid value differ by
    # at most L*h, across 200 random matrices with p in {3, 4, 5}
    rng = np.random.default_rng(11)
    counts = {3: 90, 4: 90, 5: 20}
    N = 256
    for p, reps in counts.items():
        for _ in range(reps):
            D = random_sym(rng, p)
            exact = min_quad_over_simplex(D).value
            gv, _ = grid_min_full(D, N)
            L = 2.0 * float(np.max(np.abs(D)))
            assert exact <= gv + 1e-12
            assert gv - exact <= L / N


def test_scaling_property():
    rng = np.random.default_rng(5)
    for _ in range(10):
        D = random_sym(rng, 4)
        a = float(rng.uniform(0.5, 3.0))
        r1 = min_quad_over_simplex(D)
        r2 = min_quad_over_simplex(a * D)
        assert r2.value == pytest.approx(a * r1.value, rel=1e-10, abs=1e-12)
        assert np.allclose(r1.argmin.coords, r2.argmin.coords)


# ---------------------------------------------------------------------------
# copositivity

def test_is_copositive_identity5():
    res = is_copositive(np.eye(5))
    assert res.copositive
    assert res.margin == pytest.approx(0.2)


def test_is_copositive_witness():
    res = is_copositive(np.array([[0.0, -1.0], [-1.0, 0.0]]))
    assert not res.copositive
    assert res.margin == pytest.approx(-0.5)
    assert np.allclose(res.witness.coords, [0.5, 0.5])
    assert quad_form(np.array([[0.0, -1.0], [-1.0, 0.0]]), res.witness) < 0


def test_is_copositive_boundary():
    res = is_copositive(np.array([[1.0, -1.0], [-1.0, 1.0]]))
    assert res.copositive
    assert res.margin == pytest.approx(0.0, abs=1e-12)


def test_witness_validity_random():
    rng = np.random.default_rng(9)
    found = 0
    for _ in range(50):
        D = random_sym(rng, 4)
        res = is_copositive(D)
        if not res.copositive:
            found += 1
            t = res.witness
            assert np.min(t.coords) >= -1e-12
            assert abs(np.sum(t.coords) - 1) <= 1e-9
            assert quad_form(D, t) < 0
    assert found > 0


# ---------------------------------------------------------------------------
# hull distance and the reduced region

def test_l1_dist_examples():
    assert l1_dist_to_hull(simplex(1, 0), [simplex(0, 1)]) == pytest.approx(2.0)
    assert l1_dist_to_hull(simplex(0.5, 0.5), [simplex(0.5, 0.5)]) == pytest.approx(0.0, abs=1e-12)
    # midpoint of the two hull points
    assert l1_dist_to_hull(simplex(0.75, 0.25),
                           [simplex(0.5, 0.5), simplex(1, 0)]) == pytest.approx(0.0, abs=1e-10)


def test_l1_dist_vanishes_on_hull_points():
    rng = np.random.default_rng(13)
    for _ in range(5):
        V = []
        for _ in range(3):
            raw = rng.uniform(0.05, 1.0, size=3)
            V.append(SimplexPoint(raw / raw.sum()))
        for v in V:
            assert l1_dist_to_hull(v, V) <= 1e-10


def test_l1_dist_triangle_inequality():
    rng = np.random.default_rng(17)
    V = [simplex(1, 0, 0), simplex(0, 0.5, 0.5)]
    for _ in range(20):
        a = rng.uniform(0.0, 1.0, size=3)
        b = rng.uniform(0.0, 1.0, size=3)
        t1 = SimplexPoint(a / a.sum())
        t2 = SimplexPoint(b / b.sum())
        d1 = l1_dist_to_hull(t1, V)
        d2 = l1_dist_to_hull(t2, V)
        assert abs(d1 - d2) <= float(np.sum(np.abs(t1.coords - t2.coords))) + 1e-9


# the dual hull LP against the primal one it replaced, and against HiGHS

def _reference_hull_distance(t, V):
    """The primal LP: min sum s over weights w >= 0 (sum w == 1) and
    slacks s >= |t - V w|, as two >= rows per coordinate."""
    tc = np.asarray(t, dtype=float)
    V = np.array([np.asarray(v, dtype=float) for v in V]).T
    p, m = V.shape
    coefs = np.empty((2 * p, m + p))
    coefs[0::2] = np.hstack([V, np.eye(p)])
    coefs[1::2] = np.hstack([-V, np.eye(p)])
    rhs = np.empty(2 * p)
    rhs[0::2] = tc
    rhs[1::2] = -tc
    rows = [(a, REL_GE, r) for a, r in zip(coefs, rhs)]
    objective = np.concatenate([np.zeros(m), np.ones(p)])
    rows.append((1.0 - objective, REL_EQ, 1.0))
    sol = solve_lp(LinearProgram(objective, rows, [(0.0, np.inf)] * (m + p)))
    assert sol.status == "Optimal"
    return max(0.0, float(sol.objective_value))


def _highs_hull_distance(linprog, t, V):
    V = np.array(V, dtype=float).T
    p, m = V.shape
    eye = np.eye(p)
    res = linprog(np.concatenate([np.zeros(m), np.ones(p)]),
                  A_ub=np.vstack([np.hstack([-V, -eye]), np.hstack([V, -eye])]),
                  b_ub=np.concatenate([-t, t]),
                  A_eq=np.concatenate([np.ones(m), np.zeros(p)])[None, :],
                  b_eq=[1.0], bounds=[(0.0, None)] * (m + p), method="highs")
    assert res.status == 0
    return float(res.fun)


@st.composite
def hull_cases(draw):
    """(t, V) at p = 1..6 with 1-4 hull points, each drawn from lattice
    or general weights, plus up to two repeats of hull points; t is a
    fresh point, a hull point, or the midpoint of two hull points."""
    p = draw(st.integers(1, 6))
    weight = draw(st.sampled_from([
        st.integers(0, 8).map(float),
        st.floats(0.0, 1.0, allow_nan=False, allow_subnormal=False)]))

    def point():
        w = np.array(draw(st.lists(weight, min_size=p, max_size=p)))
        if not w.sum() > 0.0:
            w[0] = 1.0
        return w / w.sum()

    V = [point() for _ in range(draw(st.integers(1, 4)))]
    V += [V[i] for i in draw(st.lists(st.integers(0, len(V) - 1), max_size=2))]
    t = draw(st.sampled_from(["fresh", "hull", "midpoint"]))
    if t == "hull":
        return V[-1], V
    if t == "midpoint":
        return 0.5 * (V[0] + V[-1]), V
    return point(), V


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(hull_cases())
def test_hull_distance_matches_the_primal_reference(case):
    t, V = case
    assert abs(l1_dist_to_hull(t, V) - _reference_hull_distance(t, V)) <= 1e-12


def test_hull_distance_matches_highs():
    linprog = pytest.importorskip("scipy.optimize").linprog
    rng = np.random.default_rng(43)
    for _ in range(60):
        p, m = int(rng.integers(1, 7)), int(rng.integers(1, 5))
        V = rng.dirichlet(np.ones(p), size=m)
        t = rng.dirichlet(np.ones(p))
        assert l1_dist_to_hull(t, V) == pytest.approx(
            _highs_hull_distance(linprog, t, V), abs=1e-9)
    # off the simplex: negative coordinate sums make the dual's shifted
    # right-hand sides negative, so the solve goes through phase 1
    for _ in range(20):
        p, m = int(rng.integers(1, 7)), int(rng.integers(1, 5))
        V = rng.normal(size=(m, p)) - 1.0
        t = rng.normal(size=p)
        want = _highs_hull_distance(linprog, t, V)
        assert l1_dist_to_hull(t, V) == pytest.approx(want, abs=1e-9)
        assert _reference_hull_distance(t, V) == pytest.approx(want, abs=1e-9)


def test_hull_distance_needs_no_phase_one_on_the_simplex(monkeypatch):
    # one simplex run per phase
    runs = collections.Counter()
    simplex_run = lp._simplex

    def counting(*args):
        runs["simplex"] += 1
        return simplex_run(*args)

    monkeypatch.setattr(lp, "_simplex", counting)
    V = [simplex(1, 0, 0), simplex(0, 1, 0)]
    assert l1_dist_to_hull(simplex(0.2, 0.2, 0.6), V) == pytest.approx(1.2)
    assert runs["simplex"] == 1
    V = [np.array([-1.0, -1.0, 0.5]), np.array([0.0, -1.0, 0.0])]
    d = l1_dist_to_hull(np.zeros(3), V)
    assert runs["simplex"] == 3
    assert d == pytest.approx(_reference_hull_distance(np.zeros(3), V))


def test_exclusion_radius_examples():
    assert exclusion_radius([simplex(0.5, 0.5)]) == pytest.approx(0.5)
    assert exclusion_radius([simplex(1, 0)]) == pytest.approx(1.0)
    assert exclusion_radius([simplex(1 / 3, 2 / 3, 0), simplex(0, 0, 1)]) == pytest.approx(1 / 3)
    with pytest.raises(ValueError):
        exclusion_radius([])


def test_region_excludes_its_own_points():
    V = [simplex(0.5, 0.5), simplex(1, 0)]
    region = ReducedRegion(V)
    for v in V:
        assert not region.contains(v)


def test_region_duplicate_points_do_not_change_membership():
    V = [simplex(0.5, 0.5)]
    r1 = ReducedRegion(V)
    r2 = ReducedRegion(V + [simplex(0.5, 0.5)])
    assert r1.sigma == r2.sigma
    pts = simplex_grid(2, 32)
    for m1, m2 in zip(r1.grid_mask(pts, 2 / 64), r2.grid_mask(pts, 2 / 64)):
        assert np.array_equal(m1, m2)


def test_grid_mask_matches_exact_lp():
    # the sandwich plus LP fallback must agree with the exact predicate at
    # both cuts, unrelaxed and relaxed by the covering radius p/(2N)
    V = [simplex(0.6, 0.2, 0.2), simplex(0.2, 0.7, 0.1)]
    region = ReducedRegion(V)
    pts = simplex_grid(3, 16)
    cut = region.sigma - region.tol_feas
    dist = [l1_dist_to_hull(t, V) for t in pts]
    # the array form gives each point's distance, as one stacked call
    assert l1_dist_to_hull(pts, V).tolist() == dist
    for relax in (0.0, 3 / 32):
        near, inside = region.grid_mask(pts, relax)
        for i, d in enumerate(dist):
            assert near[i] == (d >= cut - relax)
            assert inside[i] == (d >= cut)
    # the sandwich's dual sign vectors: row i is +1 at the set bits of i
    for p in range(1, 15):
        signs = ReducedRegion([SimplexPoint(np.eye(p)[0])], sigma=1.0)._signs
        want = np.array([[1.0 if i >> k & 1 else -1.0 for k in range(p)]
                         for i in range(1 << p)])
        assert signs.shape == want.shape and signs.tobytes() == want.tobytes()


def test_grid_mask_solves_at_most_one_lp_per_point(monkeypatch):
    # a point undecided at both cuts is decided by a single LP: each row of
    # each stacked call is one point's LP
    V = [simplex(0.6, 0.2, 0.2), simplex(0.2, 0.7, 0.1)]
    region = ReducedRegion(V)
    calls = collections.Counter()

    def counting(T, hull):
        calls.update(map(tuple, np.atleast_2d(T)))
        return l1_dist_to_hull(T, hull)

    monkeypatch.setattr(oracle, "l1_dist_to_hull", counting)
    min_quad_over_omega(np.eye(3), region, 1 / 16)
    assert calls and max(calls.values()) == 1


# ---------------------------------------------------------------------------
# restricted-region minimization

def test_omega_min_band():
    # q = (2 t1 - 1)^2 on |t1 - 1/2| >= 1/4: minimum 1/4 on the band edge
    D = np.array([[1.0, -1.0], [-1.0, 1.0]])
    region = ReducedRegion([simplex(0.5, 0.5)])
    res = min_quad_over_omega(D, region, 2.0 ** -7)
    assert res.value == pytest.approx(0.25)
    assert res.argmin.coords[0] in (pytest.approx(0.25), pytest.approx(0.75))
    assert res.value_lb <= res.value


def test_omega_min_identity():
    region = ReducedRegion([simplex(1, 0)])
    assert region.sigma == pytest.approx(1.0)
    res = min_quad_over_omega(np.eye(2), region, 2.0 ** -7)
    assert res.value == pytest.approx(0.5)
    assert np.allclose(res.argmin.coords, [0.5, 0.5])


def test_omega_min_zero_matrix():
    region = ReducedRegion([simplex(0.5, 0.5)])
    res = min_quad_over_omega(np.zeros((2, 2)), region, 2.0 ** -6)
    assert res.value == 0.0
    assert res.value_lb == 0.0


def test_omega_empty_region(monkeypatch):
    # the hull of the two vertices is the whole simplex, sigma = 1; the
    # vertices decide emptiness, so no grid is classified
    region = ReducedRegion([simplex(1, 0), simplex(0, 1)])
    assert region.empty

    def no_grid(*args):
        raise AssertionError("grid_mask called on an empty region")

    monkeypatch.setattr(ReducedRegion, "grid_mask", no_grid)
    res = min_quad_over_omega(np.eye(2), region, 2.0 ** -5)
    assert res.empty
    assert res.value == np.inf


def test_omega_min_matches_exact_lp_on_random_hulls():
    # differential check against the hull-distance LP on every grid point:
    # value is the minimum over the region's grid points, and the region is
    # empty exactly when no simplex vertex lies in it (sigma is drawn so
    # that both outcomes occur)
    rng = np.random.default_rng(7)
    pts = simplex_grid(3, 8)
    outcomes = set()
    for m in (1, 2, 3):
        for _ in range(8):
            V = [SimplexPoint(c) for c in rng.dirichlet(np.ones(3), size=m)]
            region = ReducedRegion(V, sigma=rng.uniform(0.2, 2.0))
            cut = region.sigma - region.tol_feas
            D = random_sym(rng, 3)
            res = min_quad_over_omega(D, region, 1 / 8)
            inside = [t for t in pts if l1_dist_to_hull(t, V) >= cut]
            vertex_in = any(l1_dist_to_hull(e, V) >= cut for e in np.eye(3))
            assert region.empty == (not vertex_in)
            assert res.empty == (not vertex_in)
            # the closed-form vertex distance 2(1 - max_j v_jk) is the LP's
            vmax = np.max([v.coords for v in V], axis=0)
            for k, e in enumerate(np.eye(3)):
                assert abs(2.0 * (1.0 - vmax[k]) - l1_dist_to_hull(e, V)) <= 1e-12
            outcomes.add(res.empty)
            # a finer grid's value bounds the region minimum from above
            fine = min_quad_over_omega(D, region, 1 / 32)
            assert fine.empty == res.empty
            if inside:
                assert res.value == pytest.approx(
                    min(float(t @ D @ t) for t in inside), rel=1e-12, abs=1e-12)
                assert res.value_lb <= res.value
                assert res.value_lb <= fine.value + 1e-12
    assert outcomes == {True, False}


def test_omega_value_lb_is_sound():
    # certified lower bound never exceeds the true region minimum
    # (estimated by a much finer grid)
    rng = np.random.default_rng(23)
    region = ReducedRegion([simplex(0.3, 0.7)])
    for _ in range(10):
        D = random_sym(rng, 2)
        coarse = min_quad_over_omega(D, region, 2.0 ** -4)
        fine = min_quad_over_omega(D, region, 2.0 ** -10)
        assert coarse.value_lb <= fine.value + 1e-12


# ---------------------------------------------------------------------------
# the column-wise grid kernels against the row-wise ones they replaced

def _reference_mask(region, points, relax):
    """``grid_mask`` with the nearest-point distance summed along each row."""
    lower = np.full(points.shape[0], -np.inf)
    for g, off in zip(region._signs, region._sign_offsets):
        np.maximum(lower, points @ g - off, out=lower)
    upper = np.full(points.shape[0], np.inf)
    for v in region._vmat:
        np.minimum(upper, np.sum(np.abs(points - v), axis=1), out=upper)
    cut = region.sigma - region.tol_feas
    near, inside = lower >= cut - relax, lower >= cut
    undecided = (~near & (upper >= cut - relax)) | (~inside & (upper >= cut))
    for i in np.nonzero(undecided)[0]:
        d = oracle.l1_dist_to_hull(points[i], region.V)
        near[i], inside[i] = d >= cut - relax, d >= cut
    return near, inside


def _reference_omega_min(D, region, h):
    """``min_quad_over_omega`` with the gradient spread reduced along each
    row: ``(value, value_lb, argmin coords or None, near, inside)``."""
    p = D.shape[0]
    N = int(np.ceil(1.0 / h))
    r = p / (2.0 * N)
    pts = simplex_grid(p, N)
    near, inside = _reference_mask(region, pts, r)
    sel, flags = pts[near], inside[near]
    if not flags.any():
        return np.inf, np.inf, None, near, inside
    maxd = float(np.max(np.abs(D)))
    G = sel @ D
    vals = np.einsum("ij,ij->i", sel, G)
    i = int(np.argmin(np.where(flags, vals, np.inf)))
    centered = 0.5 * (np.max(G, axis=1) - np.min(G, axis=1))
    lb_lip = float(np.min(vals)) - 2.0 * maxd * r
    lb_grad = float(np.min(vals - 2.0 * centered * r - maxd * r * r))
    return float(vals[i]), max(lb_lip, lb_grad), sel[i], near, inside


@st.composite
def omega_cases(draw):
    """(D, hull points, sigma, h) at p = 2..6: general or integer-valued D
    (exact ties in the grid values), 1-3 hull points, h in {1/8, 1/16,
    1/32} while the grid stays under 5,000 points (each undecided point
    costs a hull LP per side)."""
    p = draw(st.integers(2, 6))
    ints = draw(st.booleans())
    entry = (st.integers(-3, 3).map(float) if ints else
             st.floats(-4.0, 4.0, allow_nan=False, allow_subnormal=False))
    M = np.array(draw(st.lists(entry, min_size=p * p, max_size=p * p)))
    M = M.reshape(p, p)
    D = M + M.T if ints else 0.5 * (M + M.T)
    m = draw(st.integers(1, 3))
    weights = st.lists(st.integers(0, 8), min_size=p, max_size=p).filter(any)
    V = [SimplexPoint(np.array(w, dtype=float) / sum(w))
         for w in draw(st.lists(weights, min_size=m, max_size=m))]
    sigma = draw(st.floats(0.05, 1.5))
    h = draw(st.sampled_from([1 / N for N in (8, 16, 32)
                              if oracle.grid_point_count(p, N) <= 5_000]))
    return D, V, sigma, h


@settings(derandomize=True, deadline=None, database=None, max_examples=40)
@given(omega_cases())
def test_omega_min_matches_the_row_wise_reference(case):
    D, V, sigma, h = case
    calls = collections.Counter()

    def counting(T, hull):    # one LP per point, whether stacked or not
        calls[side] += len(np.atleast_2d(T))
        return l1_dist_to_hull(T, hull)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "l1_dist_to_hull", counting)
        side = "reference"
        want = _reference_omega_min(D, ReducedRegion(V, sigma=sigma), h)
        side = "kernel"
        region = ReducedRegion(V, sigma=sigma)
        res = min_quad_over_omega(D, region, h)
        res_argmin_first = min_quad_over_omega(D, region, h)
    value, value_lb, argmin, near, inside = want
    # the region keeps grid[near] and inside[near]; inside implies near
    N = int(np.ceil(1.0 / h))
    sel, flags, _r = region.selected_points(N)
    assert np.array_equal(sel, simplex_grid(D.shape[0], N)[near])
    assert np.array_equal(flags, inside[near])
    # an empty region is decided from its vertices and classifies no grid
    assert region.empty == (not inside.any())
    assert calls["kernel"] == (0 if region.empty else calls["reference"])
    # a grid result computes its bound and argmin on first read: both
    # orders of reads give the reference bits
    assert _bits(res.value) == _bits(res_argmin_first.value) == _bits(value)
    lb_first = (_bits(res.value_lb), _coord_bits(res.argmin))
    argmin_bits = _coord_bits(res_argmin_first.argmin)
    argmin_first = (_bits(res_argmin_first.value_lb), argmin_bits)
    want_bits = (_bits(value_lb), None if argmin is None else argmin.tobytes())
    assert lb_first == argmin_first == want_bits


def _bits(x):
    return np.float64(x).tobytes()


def _coord_bits(point):
    return None if point is None else point.coords.tobytes()


def test_grid_result_keeps_its_own_matrix():
    # the bound and argmin are computed after the call returns, from the
    # result's own copy of D: changing the caller's matrix changes nothing
    rng = np.random.default_rng(3)
    M = rng.normal(size=(4, 4))
    D = M + M.T
    region = ReducedRegion([simplex(1, 0, 0, 0), simplex(0, 0.5, 0.5, 0)],
                           sigma=0.4)
    want = min_quad_over_omega(D.copy(), region, 1 / 16)
    want = (_bits(want.value_lb), want.argmin.coords.tobytes())
    res = min_quad_over_omega(D, region, 1 / 16)
    D *= -3.0
    D[0, 0] = 100.0
    assert res.kind == "grid"
    assert (_bits(res.value_lb), res.argmin.coords.tobytes()) == want


@st.composite
def one_point_regions(draw):
    """(hull point, sigma or None, N) at p = 2..6 with lattice hull points,
    while the grid stays under 5,000 points."""
    p = draw(st.integers(2, 6))
    w = draw(st.lists(st.integers(0, 8), min_size=p, max_size=p).filter(any))
    sigma = draw(st.one_of(st.none(), st.floats(0.05, 1.5)))
    N = draw(st.sampled_from([N for N in (8, 16, 32)
                              if oracle.grid_point_count(p, N) <= 5_000]))
    return SimplexPoint(np.array(w, dtype=float) / sum(w)), sigma, N


@settings(derandomize=True, deadline=None, database=None, max_examples=40)
@given(one_point_regions())
def test_one_point_mask_matches_the_reference_without_lps(case):
    v, sigma, N = case
    calls = collections.Counter()

    def counting(t, hull):
        calls[side] += 1
        return l1_dist_to_hull(t, hull)

    region = ReducedRegion([v], sigma=sigma)
    pts = simplex_grid(region.p, N)
    for relax in (0.0, region.p / (2.0 * N)):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle, "l1_dist_to_hull", counting)
            side = "kernel"
            got = region.grid_mask(pts, relax)
            side = "reference"
            want = _reference_mask(region, pts, relax)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
    assert calls["kernel"] == 0


def test_row_spread_is_the_row_range():
    rng = np.random.default_rng(41)
    for p in range(1, 7):
        for G in (rng.normal(size=(50, p)),
                  rng.integers(-2, 3, size=(50, p)).astype(float)):
            G.setflags(write=False)
            assert np.array_equal(oracle._row_spread(G), np.ptp(G, axis=1))


def test_grid_point_budget():
    region = ReducedRegion([simplex(*([0.2] * 5))])
    with pytest.raises(CapabilityError):
        min_quad_over_omega(np.eye(5), region, 2.0 ** -9)


@st.composite
def sym_stacks(draw):
    """Stacks of one to five ``structured_sym`` matrices of one dimension."""
    p = draw(st.integers(2, 8))
    return np.array(draw(st.lists(structured_sym(p), min_size=1, max_size=5)))


@settings(derandomize=True, deadline=None, database=None)
@given(sym_stacks())
def test_candidate_stack_matches_the_scalar_reference_property(Ds):
    assert_same_stack(Ds)


def _bordered(D, cols):
    """The bordered stationarity system of D on the support ``cols``."""
    s = len(cols)
    K = np.zeros((s + 1, s + 1))
    K[:s, :s] = 2.0 * D[np.ix_(cols, cols)]
    K[:s, s] = -1.0
    K[s, :s] = 1.0
    return K


def _singular_faces(D):
    """The bordered systems of D whose own solve raises (an exact zero
    pivot), in the oracle's face order."""
    out = []
    for _s, _pos, group in oracle._support_groups(D.shape[0])[1:]:
        for cols in group:
            K = _bordered(D, cols)
            try:
                np.linalg.solve(K, np.eye(len(K))[-1])
            except np.linalg.LinAlgError:
                out.append(K.tobytes())
    return out


def _record_solves(monkeypatch, Ds):
    """Run the stack with ``np.linalg.solve`` and ``np.linalg.lstsq``
    recorded: the dimension of each matrix ``solve`` is called with, and
    the bytes of each matrix ``lstsq`` is called with."""
    calls = {"solve": [], "lstsq": []}
    solve, lstsq = np.linalg.solve, np.linalg.lstsq

    def recording_solve(K, B):
        calls["solve"].append(K.ndim)
        return solve(K, B)

    def recording_lstsq(K, b, rcond=None):
        calls["lstsq"].append(K.tobytes())
        return lstsq(K, b, rcond=rcond)

    monkeypatch.setattr(np.linalg, "solve", recording_solve)
    monkeypatch.setattr(np.linalg, "lstsq", recording_lstsq)
    oracle.stationary_candidate_stack(Ds)
    monkeypatch.undo()
    return calls


def test_only_singular_faces_reach_lstsq(monkeypatch):
    # matrix 1 repeats coordinate 0, so some of its faces holding
    # coordinates 0 and 1 are singular and every stack of sizes 2-4 raises;
    # matrices 0 and 2 are nonsingular.  No face is solved alone, and only
    # the singular faces take the least-squares step.
    rng = np.random.default_rng(37)
    idx = [0, 0, 1, 2]
    Ds = np.array([random_sym(rng, 4), random_sym(rng, 3)[np.ix_(idx, idx)],
                   random_sym(rng, 4)])
    singular = _singular_faces(Ds[1])
    assert singular and not _singular_faces(Ds[0]) and not _singular_faces(Ds[2])
    calls = _record_solves(monkeypatch, Ds)
    assert 2 not in calls["solve"]   # no face is solved alone
    assert sorted(calls["lstsq"]) == sorted(singular)
    assert_same_stack(Ds)


def test_non_finite_face_takes_lstsq_next_to_a_singular_face(monkeypatch):
    # finite entries whose face {0, 1} solves without raising but overflows
    # to a non-finite solution; the flat form's faces are all singular
    big = np.array([[8e307, 4e307, 1.0], [4e307, 0.0, 2.0], [1.0, 2.0, 3.0]])
    overflow = _bordered(big, [0, 1])
    z = np.linalg.solve(overflow, np.eye(3)[-1])
    assert not np.all(np.isfinite(z))
    assert not _singular_faces(big)
    flat = np.ones((3, 3))
    for Ds in (big[None], np.array([big, flat]), np.array([flat, big])):
        # the stacked solve succeeds on the first stack, raises on the others
        calls = _record_solves(monkeypatch, Ds)
        singular = _singular_faces(flat) if len(Ds) > 1 else []
        assert sorted(calls["lstsq"]) == sorted([overflow.tobytes()] + singular)
        assert 2 not in calls["solve"]
        assert_same_stack(Ds)


@pytest.mark.parametrize("entry", [1e308, -1e308, np.finfo(float).max, np.inf, np.nan])
def test_an_entry_that_overflows_two_d_is_refused_before_lapack(monkeypatch, entry):
    # 2 D enters the bordered stationarity systems; an entry above half the
    # float maximum makes it infinite, and lstsq on such a system never
    # returned.  The stack refuses it before any LAPACK call
    def no_lapack(*args, **kwargs):
        raise AssertionError("LAPACK was called")

    Ds = np.ones((2, 3, 3))
    Ds[1, 0, 2] = Ds[1, 2, 0] = entry
    monkeypatch.setattr(np.linalg, "solve", no_lapack)
    monkeypatch.setattr(np.linalg, "lstsq", no_lapack)
    with pytest.raises(ValueError, match="2 D is finite"):
        oracle.stationary_candidate_stack(Ds)
    # the largest entry that keeps 2 D finite is still solved
    monkeypatch.undo()
    Ds[1, 0, 2] = Ds[1, 2, 0] = 0.5 * np.finfo(float).max
    values, _coords = oracle.stationary_candidate_stack(Ds)
    assert values.shape == (2, 7)

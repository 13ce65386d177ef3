"""Certified minimization of quadratic forms over the simplex and its
reduced regions, copositivity tests with witnesses, and the geometric
constructions (exclusion radius, hull distance, reduced index region).

The exact oracle enumerates all nonempty supports, solving the stationarity
system on each face and comparing against the vertices; it is exact for
dimensions up to ``p_max``.  It takes a stack of matrices: the faces of one
support size, across the whole stack, are solved as one stack of bordered
systems (a stack that raises is solved again without its singular faces,
which take the least-squares step), and the candidates keep the mask order,
as arrays with +inf where a support has none.  A single matrix is the
stack of one, and its candidates are the stack's row 0.  The
reduced-region oracle works on the rational grid of the simplex, one
matrix per call; its certified lower bound is the larger of a Lipschitz
bound and a per-point centered-gradient bound, computed, like the argmin,
on first read.
Per-point quantities over a grid (the gradient's row spread, the
nearest-hull-point distance of the mask) are built one column at a time:
a numpy reduction along a row of a few entries costs more than the row's
arithmetic.
"""

from functools import cached_property, lru_cache

import numpy as np

from .lp import REL_LE, LinearProgram, LpError, solve_lp
from .model import DimensionError, SimplexPoint, _coords


class CapabilityError(RuntimeError):
    """Requested exact computation beyond the configured dimension cap."""


class OracleResult:
    """Certified minimum of t' D t over a region of the simplex.

    ``kind`` is "exact" (support enumeration: value_lb == value), "grid"
    (value_lb certified from the grid values, never above value), or
    "empty" (region empty, value +inf).  A grid result computes
    ``value_lb`` and ``argmin`` on first read and keeps them
    (``_GridResult``).
    """

    def __init__(self, value, argmin, kind, value_lb=None):
        self.value = value
        self.argmin = argmin
        self.kind = kind
        self.value_lb = value if value_lb is None else value_lb

    @property
    def empty(self):
        return self.kind == "empty"

    def __repr__(self):
        return (f"OracleResult({self.kind}, value={self.value}, "
                f"value_lb={self.value_lb})")


class _GridResult(OracleResult):
    """A grid minimum: ``value`` is ``vals[i]``, the least value at a
    region point among the selected points ``sel``; the bound and the
    argmin are computed on first read, then kept.  It holds its own copy
    of D and the (M,) values, and recomputes ``sel @ D`` for the bound, so
    no (M, p) product outlives the call and a caller that changes its
    matrix afterwards changes nothing here.  Most callers read ``value``
    alone."""

    def __init__(self, D, sel, vals, i, r):
        self.value, self.kind = float(vals[i]), "grid"
        self._D, self._sel, self._vals, self._i, self._r = D, sel, vals, i, r

    @cached_property
    def argmin(self):
        return SimplexPoint(self._sel[self._i])

    @cached_property
    def value_lb(self):
        D, vals, r = self._D, self._vals, self._r
        maxd = float(np.max(np.abs(D)))
        L = 2.0 * maxd
        centered = 0.5 * _row_spread(self._sel @ D)
        lb_lip = float(np.min(vals)) - L * r
        lb_grad = float(np.min(vals - 2.0 * centered * r - maxd * r * r))
        return max(lb_lip, lb_grad)


class CopositivityResult:
    """Outcome of a copositivity test: margin, and a witness if negative."""

    def __init__(self, copositive, margin, witness=None):
        self.copositive = copositive
        self.margin = margin
        self.witness = witness

    def __repr__(self):
        tag = "Copositive" if self.copositive else "NotCopositive"
        return f"{tag}(margin={self.margin}, witness={self.witness})"


@lru_cache(maxsize=16)
def _support_groups(p):
    """The nonempty supports of {0..p-1}, grouped by size: one
    ``(s, positions, cols)`` per size s, where ``positions`` are the
    supports' places in mask order (mask 1, 2, ..., 2^p - 1; bit k is
    coordinate k) and row i of the (F, s) array ``cols`` lists the
    coordinates of support ``positions[i]`` in ascending order (read-only,
    cached)."""
    masks = np.arange(1, 1 << p)
    bits = (masks[:, None] >> np.arange(p)) & 1
    sizes = bits.sum(axis=1)
    groups = []
    for s in range(1, p + 1):
        positions = np.flatnonzero(sizes == s)
        cols = np.nonzero(bits[positions])[1].reshape(-1, s)
        positions.setflags(write=False)
        cols.setflags(write=False)
        groups.append((s, positions, cols))
    return tuple(groups)


def _solve_faces(K, scale):
    """Solve the stack of bordered systems K z = e_last, one per face.

    ``K`` is (S, F, m, m) and ``scale`` holds one entry per face (shape
    (S, F)).  Returns ``(z, solved)``: ``solved`` is False where a face has
    no stationary point.  One LAPACK call covers the stack.  Only when it
    raises, one ``slogdet`` (the same LU) marks the faces with an exact
    zero pivot, and the others are solved again as one stack.  A face that
    is singular or has a non-finite solution takes the least-squares
    solution when its residual is within ``1e-9 (1 + scale)``.
    """
    B = np.zeros(K.shape[:-1] + (1,))
    B[..., -1, 0] = 1.0
    try:
        z = np.linalg.solve(K, B)[..., 0]
    except np.linalg.LinAlgError:
        regular = np.linalg.slogdet(K)[0] != 0.0
        z = np.full(K.shape[:-1], np.nan)
        z[regular] = np.linalg.solve(K[regular], B[regular])[..., 0]
    solved = np.ones(K.shape[:-2], dtype=bool)
    for f in zip(*np.nonzero(~np.isfinite(z).all(axis=-1))):
        k, b = K[f], B[f][:, 0]
        z[f], *_ = np.linalg.lstsq(k, b, rcond=None)
        solved[f] = float(np.max(np.abs(k @ z[f] - b))) <= 1e-9 * (1.0 + scale[f])
    return z, solved


_HALF_MAX = 0.5 * np.finfo(float).max   # |D_ij| above it overflows 2 D


def stationary_candidate_stack(Ds, p_max=14):
    """The stationary points of t' D_i t on every face of the simplex, for
    each matrix of the (S, p, p) stack ``Ds``.

    Returns ``(values, coords)`` of shapes (S, 2^p - 1) and
    (S, 2^p - 1, p), one column per support in mask order (mask 1, 2, ...,
    2^p - 1, bit k for coordinate k).  A vertex always has a candidate,
    with value D_kk; a larger support has one where its bordered
    stationarity system is solvable with nonnegative weights, and
    otherwise value +inf and zero coordinates.  The faces of each support
    size s are solved together, as one (S, F, s+1, s+1) stack of bordered
    systems, one ``np.linalg.solve`` call per size; a stack with a
    singular face is split once, and only its singular or non-finite faces
    take the least-squares step, one at a time.  Faces whose stationarity
    system is inconsistent contribute nothing: their minima live on smaller
    faces, which are enumerated separately (p <= p_max; the largest stack
    per matrix, at p = 14, is C(14, 7) = 3,432 systems of 8 x 8).  The
    values are one stacked ``matmul``, (t' D) t per candidate, bit for bit
    the values ``t @ D @ t``.
    """
    Ds = np.asarray(Ds, dtype=float)
    S, p = Ds.shape[0], Ds.shape[-1]
    if p > p_max:
        raise CapabilityError(
            f"exact support enumeration capped at p_max={p_max} (got p={p}); "
            f"raise p_max (--p-max) to {p} or more to enumerate all 2^p - 1 "
            "supports")
    largest = np.max(np.abs(Ds), axis=(1, 2))
    if not (largest <= _HALF_MAX).all():
        raise ValueError(f"matrix entries must be finite and at most {_HALF_MAX:.6g} "
                         "in magnitude, so that the stationarity systems' 2 D is finite")
    scale = np.maximum(1.0, largest)
    (_s, vertices, k), *groups = _support_groups(p)
    coords = np.zeros((S, (1 << p) - 1, p))
    coords[:, vertices, k[:, 0]] = 1.0
    found = np.zeros((S, (1 << p) - 1), dtype=bool)
    for s, positions, cols in groups:
        F = positions.size
        K = np.zeros((S, F, s + 1, s + 1))
        K[:, :, :s, :s] = 2.0 * Ds[:, cols[:, :, None], cols[:, None, :]]
        K[:, :, :s, s] = -1.0
        K[:, :, s, :s] = 1.0
        z, solved = _solve_faces(K, np.broadcast_to(scale[:, None], (S, F)))
        u = z.reshape(S * F, s + 1)[:, :s]
        # a stationary point with a negative weight lies outside the face
        rows = np.flatnonzero(solved.ravel() & (np.min(u, axis=1) >= -1e-10))
        u = np.clip(u[rows], 0.0, None)
        total = np.sum(u, axis=1)
        nonzero = total > 0.0
        rows, u = rows[nonzero], u[nonzero] / total[nonzero, None]
        i, f = np.divmod(rows, F)
        coords[i[:, None], positions[f][:, None], cols[f]] = u
        found[i, positions[f]] = True
    values = ((coords[:, :, None, :] @ Ds[:, None]) @ coords[..., None])[..., 0, 0]
    values[~found] = np.inf
    values[:, vertices] = Ds[:, k[:, 0], k[:, 0]]
    return values, coords


def stationary_candidates(D, p_max=14):
    """The stationary points of t' D t on every face of the simplex: row 0
    of ``stationary_candidate_stack`` for the stack of one matrix, so
    ``(values, coords)`` of shapes (2^p - 1,) and (2^p - 1, p) in mask
    order, +inf where a support has no candidate (views of the stack)."""
    values, coords = stationary_candidate_stack(np.asarray(D, dtype=float)[None], p_max)
    return values[0], coords[0]


def min_quad_over_simplex(D, p_max=14):
    """Exact global minimum of t' D t over the simplex, at the first
    candidate in mask order with the least computed value (so rounding can
    break an exact tie)."""
    values, coords = stationary_candidates(D, p_max)
    i = int(np.argmin(values))
    return OracleResult(float(values[i]), SimplexPoint(coords[i]), "exact")


def is_copositive(D, tol_cop=1e-9, p_max=14):
    """Copositive iff the simplex minimum is >= -tol_cop."""
    res = min_quad_over_simplex(D, p_max=p_max)
    if res.value >= -tol_cop:
        return CopositivityResult(True, res.value)
    return CopositivityResult(False, res.value, witness=res.argmin)


def l1_dist_to_hull(T, V):
    """l1 distance to the convex hull of the points in V (an LP) from the
    point ``T``, a float, or from each row of the (M, p) array ``T``, an
    (M,) array.

    The LP is the dual of min ||t - V w||_1 over simplex weights w:
    maximize g.t - s subject to g.v_j <= s for every hull point and
    -1 <= g_k <= 1, with s free.  It has one row per hull point (plus the
    engine's bound rows) instead of 2p + 1 rows.  The engine shifts g to
    g + 1 >= 0, which makes row j's right-hand side sum_k v_jk, so for
    points of the simplex the all-slack basis at g = -1, s = 0 is feasible
    and the solve has no phase 1; hull points with a negative coordinate sum
    take the two-phase path.  Only the objective depends on t, so a call
    builds the hull's program once and makes one ``solve_lp`` call with the
    objective stack of its points (a point is the stack of one); a stack
    of more than one row is pivoted in lockstep, each row with the bits of
    its own solve (see ``coporeg.lp``).
    """
    tc = _coords(T)
    pts = [_coords(v).ravel() for v in V]
    if not pts:
        raise ValueError("V must be nonempty")
    p = tc.shape[-1]
    if any(v.size != p for v in pts):
        raise DimensionError("hull points must match the dimension of t")
    # variables g (p) then s; minimize s - g.t
    rows = [(np.append(v, -1.0), REL_LE, 0.0) for v in pts]
    bounds = [(-1.0, 1.0)] * p + [(-np.inf, np.inf)]
    C = np.column_stack([-tc.reshape(-1, p), np.ones(tc.size // p)])
    sols = solve_lp(LinearProgram(np.zeros(p + 1), rows, bounds), objectives=C)
    failed = sols.status != "Optimal"
    if failed.any():
        raise LpError(f"hull-distance LP reported {sols.status[failed.argmax()]}; "
                      "this cannot happen for nonempty V")
    dist = np.maximum(0.0, -sols.objective_value)
    return float(dist[0]) if tc.ndim == 1 else dist


def exclusion_radius(V, tol_support=1e-7):
    """Smallest positive coordinate over all points of V (strictly positive)."""
    if not V:
        raise ValueError("V must be nonempty")
    vals = []
    for v in V:
        plus = v.support_plus(tol_support)
        if not plus:
            raise ValueError("a hull point has empty positive support")
        vals.append(float(np.min(v.coords[list(plus)])))
    return float(min(vals))


class ReducedRegion:
    """The simplex minus the open l1 neighborhood of conv V of radius sigma.

    Membership is ``l1_dist_to_hull(t, V) >= sigma``, one small LP in its
    dual form.  A cheap sandwich (dual sign vectors below, nearest-point
    distance above) decides almost every grid point; the points it leaves
    undecided at either cut of ``grid_mask`` get one exact LP each, which
    decides both cuts.  The LPs of one hull differ only in their
    objective, so the undecided points of a mask, like the points of one
    ``contains`` call, are one ``l1_dist_to_hull`` call: one hull program
    and one objective stack.  With one hull point the nearest-point
    distance is the hull distance, so its masks need no sign vectors and
    no LP.

    ``empty`` is exact from the vertices, with no grid and no LP: the hull
    distance is convex, so it peaks at a simplex vertex e_k, where it is
    2(1 - max_j v_jk), since ||e_k - u||_1 = 2(1 - u_k) on the simplex.
    """

    def __init__(self, V, sigma=None, tol_support=1e-7, tol_feas=1e-9):
        self.V = tuple(V)
        if not self.V:
            raise ValueError("V must be nonempty")
        self.p = self.V[0].p
        for v in self.V:
            if v.p != self.p:
                raise DimensionError("all points of V must share a dimension")
        self.sigma = exclusion_radius(self.V, tol_support) if sigma is None else float(sigma)
        if not self.sigma > 0.0:
            raise ValueError("sigma must be strictly positive")
        self.tol_feas = tol_feas
        self._vmat = np.array([v.coords for v in self.V])            # (m, p)
        peak = 2.0 * (1.0 - float(np.min(np.max(self._vmat, axis=0))))
        self.empty = peak < self.sigma - tol_feas
        self._signs = np.where(   # (2^p, p): +1 at the set bits of row i
            (np.arange(1 << self.p)[:, None] >> np.arange(self.p)) & 1, 1.0, -1.0)
        self._sign_offsets = np.max(self._signs @ self._vmat.T, axis=1)  # (2^p,)
        self._selected = {}                                          # N -> selected_points(N)

    def contains(self, T):
        """Exact membership via the hull-distance LP: a bool for a point,
        a boolean (M,) array for the rows of an (M, p) array; either way one
        ``l1_dist_to_hull`` call, which solves one objective stack."""
        return l1_dist_to_hull(T, self.V) >= self.sigma - self.tol_feas

    def grid_mask(self, points, relax):
        """Vectorized membership for an (M, p) array of simplex points.

        Returns ``(near, inside)``: hull distance at least
        ``sigma - tol_feas - relax`` and at least ``sigma - tol_feas``.
        Loops run over the small dimensions (sign vectors, hull points) so
        no (M x 2^p) intermediate is materialized, and the nearest-point
        upper bound adds one column's |t_k - v_k| at a time into an
        M-vector, left to right, never reducing along the short axis.  A
        one-point hull is its own nearest point: the upper bound is exact
        and serves as the lower bound too, so no point is left undecided.
        The undecided points go to one stacked ``l1_dist_to_hull`` call.
        """
        M = points.shape[0]
        upper = np.full(M, np.inf)
        for v in self._vmat:
            dist = np.abs(points[:, 0] - v[0])
            for k in range(1, self.p):
                dist += np.abs(points[:, k] - v[k])
            np.minimum(upper, dist, out=upper)
        if len(self.V) == 1:
            lower = upper
        else:
            lower = np.full(M, -np.inf)
            for g, off in zip(self._signs, self._sign_offsets):
                np.maximum(lower, points @ g - off, out=lower)
        cut = self.sigma - self.tol_feas
        near, inside = lower >= cut - relax, lower >= cut
        undecided = np.flatnonzero((~near & (upper >= cut - relax))
                                   | (~inside & (upper >= cut)))
        if undecided.size:
            d = l1_dist_to_hull(points[undecided], self.V)
            near[undecided], inside[undecided] = d >= cut - relax, d >= cut
        return near, inside

    def selected_points(self, denominator):
        """``(points, inside, r)`` at the given resolution: the grid points
        within the covering radius r = p/(2N) (in the hull distance) of the
        region, and which of them lie in the region itself (cached: the
        masks do not depend on the quadratic being minimized)."""
        N = int(denominator)
        if N not in self._selected:
            r = self.p / (2.0 * N)
            pts = simplex_grid(self.p, N)
            near, inside = self.grid_mask(pts, r)
            sel, flags = pts[near], inside[near]
            sel.setflags(write=False)
            flags.setflags(write=False)
            self._selected[N] = (sel, flags, r)
        return self._selected[N]


@lru_cache(maxsize=64)
def simplex_grid(p, denominator):
    """All rational simplex points with the given denominator, in
    lexicographic order of the integer compositions; shape (M, p),
    read-only (cached)."""
    N = int(denominator)
    pts = _compositions(p, N) / float(N)
    pts.setflags(write=False)
    return pts


def _compositions(parts, total):
    """Integer compositions of ``total`` into ``parts`` nonnegative parts,
    lexicographic, as an (M, parts) int array.  Built one coordinate at a
    time: every partial row fans out over 0..remaining, vectorized."""
    if parts == 1:
        return np.array([[total]], dtype=np.int64)
    rows = np.zeros((1, 0), dtype=np.int64)
    rem = np.array([total], dtype=np.int64)
    for _ in range(parts - 1):
        reps = rem + 1
        parent = np.repeat(np.arange(rem.size), reps)
        offsets = np.repeat(np.cumsum(reps) - reps, reps)
        k = np.arange(int(reps.sum()), dtype=np.int64) - offsets
        rows = np.hstack([rows[parent], k[:, None]])
        rem = rem[parent] - k
    return np.hstack([rows, rem[:, None]])


def grid_point_count(p, denominator):
    from math import comb
    return comb(int(denominator) + p - 1, p - 1)


def _row_spread(G):
    """max - min of each row of the (M, p) array G, one column at a time."""
    hi = G[:, 0].copy()
    lo = G[:, 0].copy()
    for k in range(1, G.shape[1]):
        np.maximum(hi, G[:, k], out=hi)
        np.minimum(lo, G[:, k], out=lo)
    hi -= lo
    return hi


_MAX_GRID_POINTS = 3_000_000   # larger grids raise a CapabilityError


def min_quad_over_omega(D, omega, h):
    """Grid minimum of t' D t over the reduced region, certified below.

    ``D`` is one (p, p) matrix.  t' D t is evaluated once on the grid
    points within the covering radius r = p/(2N) of the region (nearest
    grid neighbors of region points can sit just inside the excluded
    neighborhood); the value and argmin come from the points inside the
    region.  The certificate combines two bounds over all selected points:
    the Lipschitz bound grid_min - L*r with L = 2 max|D_kl|, and the
    per-point expansion
        q(t) >= q(g) - (max_k - min_k)(Dg) * r - max|D| * r^2,
    whose centered gradient (displacements on the simplex sum to zero)
    wins near flat minima.  The per-point spread is built one column of
    Dg at a time (``_row_spread``), never reduced along the short axis;
    max and min are exact, so the order does not change the bound.  The
    call computes the value only: the bound and the argmin are computed
    on their first read (``_GridResult``), bit for bit what an eager
    computation gives.  An empty region (``omega.empty``) is answered
    before any grid is built; a nonempty one holds a simplex vertex, and
    so does every grid.
    """
    D = np.array(D, dtype=float)
    p = D.shape[0]
    if omega.p != p:
        raise DimensionError(f"matrix dimension {p} vs region dimension {omega.p}")
    if h <= 0.0:
        raise ValueError("grid resolution h must be positive")
    if omega.empty:
        return OracleResult(np.inf, None, "empty", value_lb=np.inf)
    N = int(np.ceil(1.0 / h))
    if grid_point_count(p, N) > _MAX_GRID_POINTS:
        raise CapabilityError(
            f"grid of {grid_point_count(p, N)} points exceeds the cap "
            f"{_MAX_GRID_POINTS} (p={p}, 1/h={N})")
    sel, inside, r = omega.selected_points(N)
    vals = np.einsum("ij,ij->i", sel, sel @ D)
    i = int(np.argmin(np.where(inside, vals, np.inf)))
    return _GridResult(D, sel, vals, i, r)

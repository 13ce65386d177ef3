"""Certified minimization of quadratic forms over the simplex and its
reduced regions, copositivity tests with witnesses, and the geometric
constructions (exclusion radius, hull distance, reduced index region).

The exact oracle enumerates all nonempty supports, solving the stationarity
system on each face and comparing against the vertices; it is exact for
dimensions up to ``p_max``.  It takes a stack of matrices: the faces of one
support size, across the whole stack, are solved as one stack of bordered
systems (a stack that raises is retried one matrix at a time, and a matrix
that fails face by face), and the candidates keep the support-mask order.
A single matrix is the stack of one.  The reduced-region oracle works
on the rational grid of the simplex; its certified lower bound is the
larger of a Lipschitz bound and a per-point centered-gradient bound.
Per-point quantities over a grid (the gradient's row spread, the
nearest-hull-point distance of the mask) are built one column at a time:
a numpy reduction along a row of a few entries costs more than the row's
arithmetic.
"""

from functools import lru_cache

import numpy as np

from .lp import REL_LE, LinearProgram, LpError, solve_lp
from .model import DimensionError, SimplexPoint


class CapabilityError(RuntimeError):
    """Requested exact computation beyond the configured dimension cap."""


class OracleResult:
    """Certified minimum of t' D t over a region of the simplex.

    ``kind`` is "exact" (support enumeration: value_lb == value), "grid"
    (value_lb certified from the grid values, never above value), or
    "empty" (region empty, value +inf).
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

    ``K`` is (..., m, m) and ``scale`` holds one entry per face (shape
    ``K.shape[:-2]``).  Returns ``(z, solved)``: ``solved`` is False where a
    face has no stationary point.  One LAPACK call covers the stack.  A
    stack that raises is split along its leading axis and each part is
    solved on its own, so a singular face sends only its own matrix's
    faces, not the whole block, down to one solve per face.  A face whose
    solve fails or is non-finite takes the least-squares solution when its
    residual is within ``1e-9 (1 + scale)``.
    """
    m = K.shape[-1]
    B = np.zeros(K.shape[:-1] + (1,))
    B[..., -1, 0] = 1.0
    try:
        z = np.linalg.solve(K, B)[..., 0]
    except np.linalg.LinAlgError:
        if K.ndim == 2:
            z = np.full(m, np.nan)
        else:
            parts = [_solve_faces(k, s) for k, s in zip(K, scale)]
            return (np.array([z for z, _ok in parts]),
                    np.array([ok for _z, ok in parts]))
    if K.ndim == 2:
        if np.all(np.isfinite(z)):
            return z, True
        z, *_ = np.linalg.lstsq(K, B[:, 0], rcond=None)
        return z, float(np.max(np.abs(K @ z - B[:, 0]))) <= 1e-9 * (1.0 + scale)
    solved = np.ones(K.shape[:-2], dtype=bool)
    for f in zip(*np.nonzero(~np.isfinite(z).all(axis=-1))):
        z[f], solved[f] = _solve_faces(K[f], scale[f])
    return z, solved


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
    singular face is retried one matrix at a time, and only a matrix that
    fails is retried one face at a time.  Faces whose stationarity system
    is inconsistent contribute nothing: their minima live on smaller
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
    scale = np.maximum(1.0, np.max(np.abs(Ds), axis=(1, 2)))
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
    """All stationary points of t' D t on faces of the simplex, plus vertices.

    Returns (value, coords) pairs in mask order (mask 1, 2, ..., 2^p - 1,
    bit k for coordinate k), so the first minimum is deterministic: the
    stack of one matrix (``stationary_candidate_stack``), with the supports
    that have no candidate left out.  Each candidate owns its coordinates.
    """
    values, coords = stationary_candidate_stack(
        np.asarray(D, dtype=float)[None], p_max)
    keep = np.flatnonzero(values[0] != np.inf)
    return [(float(v), t.copy()) for v, t in zip(values[0, keep], coords[0, keep])]


def min_quad_over_simplex(D, p_max=14):
    """Exact global minimum of t' D t over the simplex (the first minimizer
    in the enumeration order)."""
    val, t = min(stationary_candidates(D, p_max), key=lambda c: c[0])
    return OracleResult(val, SimplexPoint(t), "exact")


def is_copositive(D, tol_cop=1e-9, p_max=14):
    """Copositive iff the simplex minimum is >= -tol_cop."""
    res = min_quad_over_simplex(D, p_max=p_max)
    if res.value >= -tol_cop:
        return CopositivityResult(True, res.value)
    return CopositivityResult(False, res.value, witness=res.argmin)


def is_strictly_copositive(D, tol_strict=1e-9, p_max=14):
    return min_quad_over_simplex(D, p_max=p_max).value > tol_strict


@lru_cache(maxsize=64)
def _hull_lp(coords, shape):
    """The hull-distance LP of the hull points whose (m, p) coordinate
    array has the bytes ``coords``, with a zero objective (cached: every t
    shares its rows, its bounds and its standard form)."""
    V = np.frombuffer(coords).reshape(shape)
    p = shape[1]
    # variables g (p) then s; minimize s - g.t
    rows = [(np.append(v, -1.0), REL_LE, 0.0) for v in V]
    bounds = [(-1.0, 1.0)] * p + [(-np.inf, np.inf)]
    return LinearProgram(np.zeros(p + 1), rows, bounds)


def l1_dist_to_hull(t, V):
    """l1 distance from t to the convex hull of the points in V (an LP).

    The LP is the dual of min ||t - V w||_1 over simplex weights w:
    maximize g.t - s subject to g.v_j <= s for every hull point and
    -1 <= g_k <= 1, with s free.  It has one row per hull point (plus the
    engine's bound rows) instead of 2p + 1 rows.  The engine shifts g to
    g + 1 >= 0, which makes row j's right-hand side sum_k v_jk, so for
    points of the simplex the all-slack basis at g = -1, s = 0 is feasible
    and the solve has no phase 1; hull points with a negative coordinate sum
    take the two-phase path.  Only the objective depends on t: the program
    of each hull, rows, bounds and standard form, is built once and cached
    by V's coordinate bytes (the per-hull template cache), and each call
    solves it ``with_objective``, building only its cost vector; each
    pivot then costs two ``np.linalg.solve`` calls (see ``coporeg.lp``).
    """
    tc = t.coords if isinstance(t, SimplexPoint) else np.asarray(t, dtype=float)
    pts = [v.coords if isinstance(v, SimplexPoint) else np.asarray(v, dtype=float)
           for v in V]
    if not pts:
        raise ValueError("V must be nonempty")
    p = tc.size
    for v in pts:
        if v.size != p:
            raise DimensionError("hull points must match the dimension of t")
    vmat = np.array([v.ravel() for v in pts])
    hull = _hull_lp(vmat.tobytes(), vmat.shape)
    sol = solve_lp(hull.with_objective(np.append(-tc, 1.0)))
    if sol.status != "Optimal":
        raise LpError(f"hull-distance LP reported {sol.status}; this cannot "
                      "happen for nonempty V")
    return max(0.0, -float(sol.objective_value))


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
    distance above) decides almost every grid point; a point it leaves
    undecided at either cut of ``grid_mask`` gets one exact LP, which
    decides both cuts.  The LPs of one hull differ only in their
    objective: the hull's program and its standard form come from a
    per-hull template cache, so each LP builds only its cost vector.  With
    one hull point the nearest-point distance is the hull distance, so its
    masks need no sign vectors and no LP.

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
        signs = np.array([[1.0 if i >> k & 1 else -1.0 for k in range(self.p)]
                          for i in range(1 << self.p)])              # (2^p, p)
        self._signs = signs
        self._sign_offsets = np.max(signs @ self._vmat.T, axis=1)    # (2^p,)
        self._selected = {}                                          # N -> selected_points(N)

    def contains(self, t):
        """Exact membership via the hull-distance LP."""
        return l1_dist_to_hull(t, self.V) >= self.sigma - self.tol_feas

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
        undecided = (~near & (upper >= cut - relax)) | (~inside & (upper >= cut))
        for i in np.nonzero(undecided)[0]:
            d = l1_dist_to_hull(points[i], self.V)
            near[i], inside[i] = d >= cut - relax, d >= cut
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

    t' D t is evaluated once on the grid points within the covering radius
    r = p/(2N) of the region (nearest grid neighbors of region points can
    sit just inside the excluded neighborhood); the value and argmin come
    from the points inside the region.  The certificate combines two bounds
    over all selected points: the Lipschitz bound grid_min - L*r with
    L = 2 max|D_kl|, and the per-point expansion
        q(t) >= q(g) - (max_k - min_k)(Dg) * r - max|D| * r^2,
    whose centered gradient (displacements on the simplex sum to zero)
    wins near flat minima.  The per-point spread is built one column of
    Dg at a time (``_row_spread``), never reduced along the short axis;
    max and min are exact, so the order does not change the bound.  An
    empty region (``omega.empty``) is answered before any grid is built;
    a nonempty one holds a simplex vertex, and so does every grid.
    """
    D = np.asarray(D, dtype=float)
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
    maxd = float(np.max(np.abs(D)))
    L = 2.0 * maxd
    G = sel @ D
    vals = np.einsum("ij,ij->i", sel, G)
    i = int(np.argmin(np.where(inside, vals, np.inf)))
    value = float(vals[i])
    centered = 0.5 * _row_spread(G)
    lb_lip = float(np.min(vals)) - L * r
    lb_grad = float(np.min(vals - 2.0 * centered * r - maxd * r * r))
    return OracleResult(value, SimplexPoint(sel[i]), "grid",
                        value_lb=max(lb_lip, lb_grad))


def grid_min_full(D, denominator):
    """Exact minimum of t' D t over the full simplex grid.

    The last two coordinates of each slice form a segment on which the form
    is a one-dimensional quadratic, so the discrete minimum per slice needs
    only the endpoints and the integers bracketing the vertex.  Returns
    (value, argmin coords).
    """
    D = np.asarray(D, dtype=float)
    p = D.shape[0]
    N = int(denominator)
    if p < 2:
        raise DimensionError("needs p >= 2")
    if p == 2:
        outer = np.zeros((1, 0), dtype=np.int64)
    else:
        outer = _compositions_leq(p - 2, N)
    rem = N - outer.sum(axis=1)                      # segment lengths
    M = outer.shape[0]
    U = np.zeros((M, p))
    if p > 2:
        U[:, :p - 2] = outer / float(N)
    U[:, p - 1] = rem / float(N)                     # segment start: all mass on last
    d = np.zeros(p)
    d[p - 2] = 1.0 / N
    d[p - 1] = -1.0 / N
    a = float(d @ D @ d)
    Du = U @ D
    b = 2.0 * (Du[:, p - 2] - Du[:, p - 1]) / N
    c = np.einsum("ij,ij->i", U, Du)

    cand = [np.zeros(M, dtype=np.int64), rem.astype(np.int64)]
    if a > 0.0:
        star = -b / (2.0 * a)
        lo = np.clip(np.floor(star), 0, rem).astype(np.int64)
        hi = np.clip(np.ceil(star), 0, rem).astype(np.int64)
        cand += [lo, hi]
    best_val = None
    best_slice = best_s = None
    for s in cand:
        vals = a * s.astype(float) ** 2 + b * s + c
        i = int(np.argmin(vals))
        v = float(vals[i])
        if best_val is None or v < best_val:
            best_val, best_slice, best_s = v, i, int(s[i])
    t = U[best_slice].copy()
    t[p - 2] += best_s / float(N)
    t[p - 1] -= best_s / float(N)
    return best_val, t


def _compositions_leq(parts, total):
    """Nonnegative integer vectors of the given length with sum <= total
    (the slack coordinate of a composition absorbs the remainder)."""
    if parts == 0:
        return np.zeros((1, 0), dtype=np.int64)
    return _compositions(parts + 1, total)[:, :parts]

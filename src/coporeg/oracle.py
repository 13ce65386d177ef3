"""Certified minimization of quadratic forms over the simplex and its
reduced regions, copositivity tests with witnesses, and the geometric
constructions (exclusion radius, hull distance, reduced index region).

The exact oracle enumerates all nonempty supports, solving the stationarity
system on each face and comparing against the vertices; it is exact for
dimensions up to ``p_max``.  It takes a stack of matrices: the faces of one
support size, across the whole stack, are solved as one stack of bordered
systems (a singular face comes back as NaN and takes the least-squares
step), and the candidates keep the mask order, as arrays with +inf where
a support has none.  The systems of one size are one gather of each
matrix's row (2 D.ravel(), -1, 1, 0) through a cached index table, and
one call of the LAPACK gufunc that ``np.linalg.solve`` wraps, with its
bits; their weights are tested one column at a time and scattered
through the table's flat positions.  A single matrix is the stack of
one, and its candidates are the stack's row 0.  The reduced-region
oracle works on the rational grid of the simplex, one matrix per call;
its certified lower bound is the larger of a Lipschitz bound and a
per-point centered-gradient bound, computed, like the argmin, on first
read.
The grid kernels stream over the cached grid itself, in contiguous row
chunks of ``_CHUNK`` rows: the mask, the values and the bound never
gather the selected points into a copy and never hold a grid-sized
(M, p) product.  Per-point quantities of a chunk (the gradient's row
spread, the nearest-hull-point distance of the mask) are built one column
at a time: a numpy reduction along a row of a few entries costs more than
the row's arithmetic.
"""

from functools import cached_property, lru_cache

import numpy as np

from .lp import REL_LE, LinearProgram, LpError, _solve1, solve_lp
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
    region point of the selection ``(points, near, outside, chunks, r)``
    of ``ReducedRegion.selected_points``; the bound and the argmin are
    computed on first read, then kept.  It holds its own copy of D, the
    selection (a view of the cached grid, its mask and row list) and the
    values of the span's rows, and recomputes each chunk's product with D
    for the bound, so no (M, p) array outlives the call and a caller that
    changes its matrix afterwards changes nothing here.  The bound is
    built in each chunk's spread array, one operation at a time in the
    order of the expression, so beside the cached grid, the selection and
    its one value array it holds only one chunk's temporaries.  Most
    callers read ``value`` alone."""

    def __init__(self, D, selection, vals, i):
        self.value, self.kind = float(vals[i]), "grid"
        self._D, self._selection, self._vals, self._i = D, selection, vals, i

    @cached_property
    def argmin(self):
        return SimplexPoint(self._selection[0][self._i])

    @cached_property
    def value_lb(self):
        D, vals = self._D, self._vals
        points, near, _outside, chunks, r = self._selection
        maxd = float(np.max(np.abs(D)))
        L = 2.0 * maxd
        lb_lip = float(np.min(vals, where=near, initial=np.inf)) - L * r
        lows = []
        for rows in chunks:
            # vals - 2 (0.5 spread) r - maxd r r, one operation at a time in
            # the spread's own array: the bits of the expression, no more
            # chunk-sized temporaries than the product and its spread
            low = _row_spread(points[rows] @ D)
            low *= 0.5
            low *= 2.0
            low *= r
            np.subtract(vals[rows], low, out=low)
            low -= maxd * r * r
            lows.append(np.min(low, where=near[rows], initial=np.inf))
        return max(lb_lip, float(np.min(lows)))


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
    """The nonempty supports of {0..p-1}, grouped by size, with the index
    table of their enumeration: one ``(s, positions, bordered, places)``
    per size s, where ``positions`` are the supports' places in mask order
    (mask 1, 2, ..., 2^p - 1; bit k is coordinate k), ``bordered`` (F,
    s+1, s+1) indexes the bordered stationarity system of each support
    in a matrix's flat row (2 D.ravel(), -1, 1, 0), and ``places`` (F, s)
    holds the flat positions of each support's coordinates, in ascending
    order, in a (2^p - 1) p candidate row.  ``bordered`` takes the
    smallest unsigned type that holds p^2 + 2, uint8 up to p = 15: fancy
    indexing reads it through a buffered cast, with no intp copy, about
    as fast as an intp table eight times its size.  At p = 14 the whole
    table is 1.7 MB.  Read-only, cached."""
    masks = np.arange(1, 1 << p)
    bits = (masks[:, None] >> np.arange(p)) & 1
    sizes = bits.sum(axis=1)
    border = p * p          # the flat row's entries -1, 1 and 0
    groups = []
    for s in range(1, p + 1):
        positions = np.flatnonzero(sizes == s)
        cols = np.nonzero(bits[positions])[1].reshape(-1, s)
        bordered = np.empty((len(cols), s + 1, s + 1), dtype=np.min_scalar_type(border + 2))
        bordered[:, :s, :s] = cols[:, :, None] * p + cols[:, None, :]
        bordered[:, :s, s] = border
        bordered[:, s, :s] = border + 1
        bordered[:, s, s] = border + 2
        places = (positions[:, None] * p + cols).astype(np.uint32)
        for a in (positions, bordered, places):
            a.setflags(write=False)
        groups.append((s, positions, bordered, places))
    return tuple(groups)


def _solve_faces(K, scale):
    """Solve the stack of bordered systems K z = e_last, one per face.

    ``K`` is (S, F, m, m) and ``scale`` holds one entry per matrix (shape
    (S,)).  Returns ``(z, solved)``: ``solved`` is False where a face has
    no stationary point.  One call of the gufunc that ``np.linalg.solve``
    wraps (``solve1``, with one broadcast e_last) covers the stack, with
    the bits of ``np.linalg.solve``: LAPACK factorises each face on its
    own, and under ``np.errstate(all="ignore")`` a face with an exact zero
    pivot comes back as NaN.  A face that is singular or has a non-finite
    solution takes the least-squares solution when its residual is within
    ``1e-9 (1 + scale)``; the finite test runs one column of z at a time.
    """
    m = K.shape[-1]
    e_last = np.zeros(m)
    e_last[-1] = 1.0
    with np.errstate(all="ignore"):
        z = _solve1(K, e_last, signature="dd->d")
    finite = np.isfinite(z[..., 0])
    for j in range(1, m):
        finite &= np.isfinite(z[..., j])
    solved = np.ones(K.shape[:-2], dtype=bool)
    for f in zip(*np.nonzero(~finite)):
        k = K[f]
        z[f], *_ = np.linalg.lstsq(k, e_last, rcond=None)
        solved[f] = float(np.max(np.abs(k @ z[f] - e_last))) <= 1e-9 * (1.0 + scale[f[0]])
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
    otherwise value +inf and zero coordinates.  Each matrix's row
    (2 D.ravel(), -1, 1, 0) is formed once (doubling is exact), and the
    faces of support size s, across the whole stack, are one gather of
    it through the cached index table (``_support_groups``): one
    (S, F, s+1, s+1) stack of bordered systems and one LAPACK call per
    size (``_solve_faces``), where a singular face comes back as NaN;
    only the singular or non-finite faces take the least-squares step,
    one at a time.  The face-membership test u >= -1e-10 runs one
    column at a time, and the weights are scattered into the candidate
    rows through the table's flat positions.  Faces whose stationarity
    system is inconsistent contribute nothing: their minima live on
    smaller faces, which are enumerated separately (p <= p_max; the
    largest stack per matrix, at p = 14, is C(14, 7) = 3,432 systems of
    8 x 8).  The values are one stacked ``matmul``, (t' D) t per
    candidate, bit for bit the values ``t @ D @ t``.
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
    (_s, vertices, _b, corners), *groups = _support_groups(p)
    R = (1 << p) - 1
    coords = np.zeros((S, R, p))
    flat_coords = coords.reshape(S, R * p)
    flat_coords[:, corners[:, 0]] = 1.0
    found = np.zeros((S, R), dtype=bool)
    flat = np.empty((S, p * p + 3))
    np.multiply(Ds.reshape(S, p * p), 2.0, out=flat[:, :-3])
    flat[:, -3:] = (-1.0, 1.0, 0.0)
    for s, positions, bordered, places in groups:
        F = positions.size
        z, solved = _solve_faces(flat[:, bordered], scale)
        u = z.reshape(S * F, s + 1)
        # a stationary point with a negative weight lies outside the face
        inside = solved.ravel()
        for j in range(s):
            inside &= u[:, j] >= -1e-10
        rows = np.flatnonzero(inside)
        u = np.maximum(u[rows, :s], 0.0)
        total = np.sum(u, axis=1)   # numpy's pairwise order, not a column loop's
        nonzero = total > 0.0
        rows, u = rows[nonzero], u[nonzero] / total[nonzero, None]
        i, f = np.divmod(rows, F)
        flat_coords[i[:, None], places[f]] = u
        found[i, positions[f]] = True
    values = ((coords[:, :, None, :] @ Ds[:, None]) @ coords[..., None])[..., 0, 0]
    values[~found] = np.inf
    values[:, vertices] = np.diagonal(Ds, axis1=1, axis2=2)
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
    # variables g (p) then s; minimize s - g.t subject to [V | -1] (g, s) <= 0
    A = np.column_stack([pts, -np.ones(len(pts))])
    bounds = [(-1.0, 1.0)] * p + [(-np.inf, np.inf)]
    C = np.column_stack([-tc.reshape(-1, p), np.ones(tc.size // p)])
    sols = solve_lp(LinearProgram(np.zeros(p + 1), A, [REL_LE] * len(A), np.zeros(len(A)),
                                  bounds), objectives=C)
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
        if len(self.V) > 1:   # a one-point mask never reads the sign vectors
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
        The points are read in row chunks (``_chunks``), and loops run
        over the small dimensions (sign vectors, hull points), so no
        (M x 2^p) intermediate is materialized and no temporary outgrows
        a chunk; the nearest-point upper bound adds one column's
        |t_k - v_k| at a time into a chunk-vector, left to right, never
        reducing along the short axis.  A one-point hull is its own
        nearest point: the upper bound is exact and serves as the lower
        bound too, so no point is left undecided.  The undecided points of
        all chunks go to one stacked ``l1_dist_to_hull`` call.
        """
        M = points.shape[0]
        cut = self.sigma - self.tol_feas
        near, inside = np.empty(M, dtype=bool), np.empty(M, dtype=bool)
        undecided = []
        for rows in _chunks(M):
            t = points[rows]
            upper = np.full(t.shape[0], np.inf)
            for v in self._vmat:
                dist = np.abs(t[:, 0] - v[0])
                for k in range(1, self.p):
                    dist += np.abs(t[:, k] - v[k])
                np.minimum(upper, dist, out=upper)
            if len(self.V) == 1:
                lower = upper
            else:
                lower = np.full(t.shape[0], -np.inf)
                for g, off in zip(self._signs, self._sign_offsets):
                    np.maximum(lower, t @ g - off, out=lower)
            np.greater_equal(lower, cut - relax, out=near[rows])
            np.greater_equal(lower, cut, out=inside[rows])
            if len(self.V) > 1:
                undecided.append(rows.start + np.flatnonzero(
                    (~near[rows] & (upper >= cut - relax))
                    | (~inside[rows] & (upper >= cut))))
        undecided = np.concatenate(undecided) if undecided else np.empty(0, dtype=np.intp)
        if undecided.size:
            d = l1_dist_to_hull(points[undecided], self.V)
            near[undecided], inside[undecided] = d >= cut - relax, d >= cut
        return near, inside

    def selected_points(self, denominator):
        """``(points, near, outside, chunks, r)`` at the given resolution.
        ``points`` is the span of rows of ``simplex_grid(p, N)`` from its
        first to its last point within the covering radius r = p/(2N) (in
        the hull distance) of the region, a view of the cached grid, not a
        copy; ``near`` marks the span's points within r of the region;
        ``outside`` lists the span's rows that are not in the region
        itself; ``chunks`` are the row slices of the span (``_chunks``).
        Cached: none of it depends on the quadratic being minimized.
        ``near`` is a copy of the span's rows, so no grid-sized mask
        outlives the call, and ``outside`` is built in the mask of the
        region itself, with no grid-sized temporary."""
        N = int(denominator)
        if N not in self._selected:
            r = self.p / (2.0 * N)
            pts = simplex_grid(self.p, N)
            near, inside = self.grid_mask(pts, r)
            first = int(np.argmax(near))
            last = pts.shape[0] - int(np.argmax(near[::-1])) if near[first] else first
            # the rows not in the region itself, built in the inside mask
            np.logical_and(inside, near, out=inside)
            np.logical_not(inside, out=inside)
            outside = np.flatnonzero(inside[first:last])
            near = near[first:last].copy()
            near.setflags(write=False)
            outside.setflags(write=False)
            self._selected[N] = (pts[first:last], near, outside,
                                 _chunks(last - first), r)
        return self._selected[N]


@lru_cache(maxsize=64)
def simplex_grid(p, denominator):
    """All rational simplex points with the given denominator, in
    lexicographic order of the integer compositions; shape (M, p),
    read-only (cached).  The compositions are built as float64 integers
    and divided by N in place: the bits of ``int64 / float(N)``, with no
    integer table."""
    N = int(denominator)
    pts = _compositions(p, N)
    pts /= N
    pts.setflags(write=False)
    return pts


def _compositions(parts, total):
    """Integer compositions of ``total`` into ``parts`` nonnegative parts,
    lexicographic, as an (M, parts) float64 array: exact below 2^53,
    and unlike a narrow integer table it runs no numpy loop that the
    rest of the program does not already run.  Built one
    coordinate at a time: every row (prefix, rest) fans out into the rows
    (prefix, k, rest - k) for k = 0..rest, written one column at a time
    into the next table, so beside the smaller table before it no
    temporary is larger than one of its columns."""
    rows = np.full((1, 1), float(total))
    for _ in range(parts - 1):
        rest = rows[:, -1]
        reps = rest.astype(np.intp) + 1
        out = np.empty((int(reps.sum()), rows.shape[1] + 1))
        for j in range(rows.shape[1] - 1):
            out[:, j] = np.repeat(rows[:, j], reps)
        # k steps by 1 and drops back to 0 where a row's block starts
        step = np.ones(out.shape[0])
        step[0] = 0
        step[np.cumsum(reps[:-1])] = -rest[:-1]
        np.cumsum(step, out=out[:, -2])
        del step
        np.subtract(np.repeat(rest, reps), out[:, -2], out=out[:, -1])
        rows = out
    return rows


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
_CHUNK = 1 << 14               # grid rows per chunk of the streamed grid kernels:
                               # a chunk's (C, p) product fits a 2 MB L2 up to p = 14


def _chunks(M):
    """Row slices of 0..M, ``_CHUNK`` rows each, a one-row tail joined to
    the slice before it.  A one-row (1, p) @ (p, p) product takes another
    BLAS path than the rows of a larger one, and its bits can differ,
    while the rows of any larger product keep theirs; so a slice is one
    row only when M is one."""
    bounds = list(range(0, M, _CHUNK)) + [M]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        del bounds[-2]
    return tuple(slice(a, b) for a, b in zip(bounds, bounds[1:]))


def min_quad_over_omega(D, omega, h):
    """Grid minimum of t' D t over the reduced region, certified below.

    ``D`` is one (p, p) matrix.  t' D t is evaluated once on each row of
    the selection's span (``ReducedRegion.selected_points``), which holds
    every grid point within the covering radius r = p/(2N) of the region
    (nearest grid neighbors of region points can sit just inside the
    excluded neighborhood), chunk by chunk on the cached grid itself, as
    ``einsum(c, c @ D)`` for each chunk c; no point is gathered into a
    copy and no (M, p) product is held.  The value and argmin are the
    first least value over the points inside the region, in grid order:
    the argmin with +inf written at the ``outside`` rows, whose values are
    then put back for the bound.
    The certificate combines two bounds over the points within r:
    the Lipschitz bound grid_min - L*r with L = 2 max|D_kl|, and the
    per-point expansion
        q(t) >= q(g) - (max_k - min_k)(Dg) * r - max|D| * r^2,
    whose centered gradient (displacements on the simplex sum to zero)
    wins near flat minima.  The per-point spread is built one column of
    each chunk's c @ D at a time (``_row_spread``), never reduced along
    the short axis, and both minima skip the points beyond r with
    ``where=``; max and min are exact, so neither the order nor the
    chunks change the bound.  The call computes the value only: the bound
    and the argmin are computed on their first read (``_GridResult``),
    bit for bit what an eager computation gives.  The working set is the
    cached grid, the cached selection, the one value array of the span
    (M 8 bytes) that the result keeps, and one chunk's temporaries; a
    caller that drops each result before its next call, as ``solve_sip``
    does, never holds two value arrays.  An empty region
    (``omega.empty``) is answered before any grid is built; a nonempty
    one holds a simplex vertex, and so does every grid.
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
    selection = omega.selected_points(N)
    points, _near, outside, chunks, _r = selection
    vals = np.empty(len(points))
    for rows in chunks:
        np.einsum("ij,ij->i", points[rows], points[rows] @ D, out=vals[rows])
    kept = vals[outside]
    vals[outside] = np.inf
    i = int(np.argmin(vals))
    vals[outside] = kept
    return _GridResult(D, selection, vals, i)

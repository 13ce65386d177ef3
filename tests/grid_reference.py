"""The exact minimum of a quadratic form over the full rational grid of
the simplex: a reference for the oracle and acceptance tests, which no
part of the pipeline calls."""

import numpy as np

from coporeg import DimensionError
from coporeg.oracle import _compositions


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

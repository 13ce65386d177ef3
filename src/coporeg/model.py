"""Problem data model: symmetric matrices, programs, simplex points, zero
rows, file I/O.

All matrices are dense numpy arrays validated symmetric on entry; all model
objects are immutable after construction, so they are safe to share across
threads without synchronization.
"""

import json
from functools import lru_cache

import numpy as np

SYM_TOL = 1e-12


class ProblemFormatError(ValueError):
    """A problem, matrix, point or report document is malformed."""


class DimensionError(ValueError):
    """Operands with incompatible dimensions."""


def _float_array(entries, what):
    """``entries`` as a float array; a non-numeric entry (a string or a
    boolean too, which numpy would read as a number) or a ragged nesting is
    a ProblemFormatError naming ``what``."""
    try:
        a = np.array(entries, dtype=float)
    except (ValueError, TypeError, OverflowError) as e:
        raise ProblemFormatError(f"{what}: expected a rectangular array of "
                                 f"numbers ({e})") from e
    bad = _first_non_number(entries)
    if bad is not None:
        raise ProblemFormatError(f"{what}: expected a rectangular array of "
                                 f"numbers (got {json.dumps(bad)})")
    return a


def _first_non_number(entries):
    """The first string or boolean in a nest of lists, else None (the nest
    is at most numpy's 64 dimensions deep once it has converted)."""
    if isinstance(entries, (str, bool)):
        return entries
    if isinstance(entries, (list, tuple)):
        for e in entries:
            bad = _first_non_number(e)
            if bad is not None:
                return bad
    return None


def as_sym_matrix(entries, tol=SYM_TOL, what="matrix"):
    """Validate and return a dense symmetric matrix (copy, read-only)."""
    a = _float_array(entries, what)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ProblemFormatError(f"{what}: expected a square matrix, got shape {a.shape}")
    if a.shape[0] < 1:
        raise ProblemFormatError(f"{what}: dimension must be >= 1")
    if not np.all(np.isfinite(a)):
        raise ProblemFormatError(f"{what}: entries must be finite")
    with np.errstate(over="ignore"):    # an overflowing a - a.T is inf
        asym = float(np.max(np.abs(a - a.T)))
    if asym > tol:
        raise ProblemFormatError(f"{what}: matrix not symmetric (max asymmetry "
                                 f"{asym:.3e} > {tol:.0e})")
    # average the asymmetric pairs only: kills representation noise, and a
    # symmetric entry near the float maximum does not overflow
    odd = a != a.T
    a[odd] = 0.5 * (a[odd] + a.T[odd])
    a.setflags(write=False)
    return a


def _frozen_vector(v, what="vector"):
    a = _float_array(v, what)
    if a.ndim != 1:
        raise ProblemFormatError(f"{what}: expected a 1-d array, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ProblemFormatError(f"{what}: entries must be finite")
    a.setflags(write=False)
    return a


class SimplexPoint:
    """A point of the standard simplex with support bookkeeping.

    ``support_plus`` is the set of coordinates above ``tol_support``; its
    complement is ``support_zero``.  Coordinates are validated nonnegative
    (within ``tol``) and summing to one (within ``tol``).
    """

    __slots__ = ("coords",)

    def __init__(self, coords, tol=1e-9):
        t = _frozen_vector(coords, "simplex point")
        if t.size < 1:
            raise DimensionError("simplex point needs at least one coordinate")
        if float(np.min(t)) < -tol:
            raise ValueError(f"simplex point has negative coordinate {float(np.min(t)):.3e}")
        if abs(float(np.sum(t)) - 1.0) > tol:
            raise ValueError(f"simplex point coordinates sum to {float(np.sum(t))!r}, not 1")
        object.__setattr__(self, "coords", t)

    @property
    def p(self):
        return self.coords.size

    def support_plus(self, tol=1e-7):
        return tuple(int(k) for k in np.nonzero(self.coords > tol)[0])

    def support_zero(self, tol=1e-7):
        plus = set(self.support_plus(tol))
        return tuple(k for k in range(self.p) if k not in plus)

    def __setattr__(self, name, value):
        raise AttributeError("SimplexPoint is immutable")

    def __eq__(self, other):
        if not isinstance(other, SimplexPoint):
            return NotImplemented
        return self.coords.shape == other.coords.shape and bool(
            np.all(self.coords == other.coords))

    def __hash__(self):
        # + 0.0 turns -0.0 into 0.0, which == already equates
        return hash((self.coords + 0.0).tobytes())

    def __repr__(self):
        return f"SimplexPoint({self.coords.tolist()})"


class CopositiveProgram:
    """Data (n, p, c, A_0..A_n) of a linear copositive program.

    The constraint map is A(x) = A_0 + sum_i x_i A_i; feasibility means
    A(x) lies in the copositive cone.
    """

    __slots__ = ("n", "p", "c", "A")

    def __init__(self, c, A):
        c = _frozen_vector(c, "objective c")
        if c.size < 1:
            raise ProblemFormatError("objective c must have length n >= 1")
        mats = tuple(as_sym_matrix(a, what=f"A_{i}") for i, a in enumerate(A))
        if len(mats) != c.size + 1:
            raise ProblemFormatError(
                f"expected {c.size + 1} matrices A_0..A_{c.size}, got {len(mats)}")
        p = mats[0].shape[0]
        if p < 2:
            raise ProblemFormatError("matrix dimension p must be >= 2")
        for i, m in enumerate(mats):
            if m.shape[0] != p:
                raise ProblemFormatError(f"A_{i}: dimension {m.shape[0]} != p={p}")
        object.__setattr__(self, "n", int(c.size))
        object.__setattr__(self, "p", int(p))
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "A", mats)

    def __setattr__(self, name, value):
        raise AttributeError("CopositiveProgram is immutable")

    def __eq__(self, other):
        if not isinstance(other, CopositiveProgram):
            return NotImplemented
        return (self.n == other.n and self.p == other.p
                and bool(np.all(self.c == other.c))
                and all(bool(np.all(a == b)) for a, b in zip(self.A, other.A)))

    def __repr__(self):
        return f"CopositiveProgram(n={self.n}, p={self.p})"


def _coords(t):
    return t.coords if isinstance(t, SimplexPoint) else np.asarray(t, dtype=float)


def eval_constraint(prog, x):
    """A(x) = A_0 + sum_i x_i A_i, or its (S, p, p) stack for the rows of an
    (S, n) x; the terms add in order of i, as in each row's own call."""
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] != prog.n:
        raise DimensionError(f"x has shape {x.shape}, expected ({prog.n},) or (S, {prog.n})")
    out = np.empty(x.shape[:-1] + prog.A[0].shape)
    out[...] = prog.A[0]
    for k, Ak in enumerate(prog.A[1:]):
        out += x[..., k, None, None] * Ak
    return out


def quad_form(D, t):
    """t' D t in double precision."""
    D = np.asarray(D, dtype=float)
    tc = _coords(t)
    if D.shape != (tc.size, tc.size):
        raise DimensionError(f"matrix {D.shape} vs point of dimension {tc.size}")
    return float(tc @ D @ tc)


@lru_cache(maxsize=None)
def upper_triangle(p):
    """``np.triu_indices(p)`` as read-only arrays, built once per p: the
    upper-triangle coordinates of a symmetric p x p matrix."""
    iu = np.triu_indices(p)
    for a in iu:
        a.setflags(write=False)
    return iu


def sym_functional_row(M):
    """Coefficients of D -> M . D over the upper-triangle coordinates of D."""
    iu = upper_triangle(M.shape[0])
    w = np.where(iu[0] == iu[1], 1.0, 2.0)
    return M[iu] * w


def kernel_residual(prog, Y):
    """max_j |A_j . Y|: how far Y lies from the constraint kernel."""
    return max(abs(float(np.sum(Aj * Y))) for Aj in prog.A)


def certificate_matrix(p, new_indices, lam, taus):
    """Y = sum gamma t t' + sum_i (tau_i lam_i' + lam_i tau_i') of a dual
    certificate; its stationarity residual is ``kernel_residual(prog, Y)``."""
    Y = np.zeros((p, p))
    for t, g in new_indices:
        Y += g * np.outer(_coords(t), _coords(t))
    for i, lv in lam.items():
        tc = _coords(taus[i])
        Y += np.outer(tc, lv) + np.outer(lv, tc)
    return Y


# ---------------------------------------------------------------------------
# Zero rows.  A record pairs a simplex point tau with a set L of row indices;
# it pins the rows (D tau)_k: equalities for k in L, inequalities (>= 0) off
# L.  Records are any objects with attributes ``tau`` and ``L``.

def row_functionals(tau, ks):
    """Coefficients of D -> (D tau)_k over the upper-triangle coordinates of
    D, one row per (0-based) k in ``ks``.

    Row k equals ``sym_functional_row((tau e_k' + e_k tau') / 2)``.
    """
    t = _coords(tau)
    iu, ju = upper_triangle(t.size)
    k = np.asarray(ks, dtype=int).reshape(-1, 1)
    return (np.where(iu == k, t[ju], 0.0)
            + np.where((ju == k) & (iu != ju), t[iu], 0.0))


def zero_row_matrix(records):
    """Stacked row functionals of every equality row of the records, each
    record's rows in increasing k."""
    return np.array([row for rec in records
                     for row in row_functionals(rec.tau, sorted(rec.L))])


def project_to_zero_rows(Ds, C):
    """Orthogonal projection, in upper-triangle coordinates, of a symmetric
    D, or of each D of an (S, p, p) stack in one least-squares solve, onto
    {D : C D_triu = 0}; ``Ds`` itself when C has no rows."""
    if len(C) == 0:
        return Ds
    Ds = np.asarray(Ds, dtype=float)
    iu = upper_triangle(Ds.shape[-1])
    vecs = np.atleast_2d(Ds[..., iu[0], iu[1]])                      # (S, k)
    vecs = vecs - (C.T @ np.linalg.lstsq(C @ C.T, C @ vecs.T, rcond=None)[0]).T
    out = np.zeros(Ds.shape)
    out[..., iu[0], iu[1]] = vecs
    return out + np.swapaxes(out, -1, -2) - out * np.eye(Ds.shape[-1])


def row_pairs(records, p):
    """(equality, inequality) rows as (record index, k) pairs."""
    eq, ineq = [], []
    for i, rec in enumerate(records):
        for k in range(p):
            (eq if k in rec.L else ineq).append((i, k))
    return tuple(eq), tuple(ineq)


def row_residuals(Ds, records):
    """(max |(D tau)_k| over equality rows, min (D tau)_k over inequality
    rows) for each D of the (S, p, p) stack ``Ds``, as two (S,) arrays;
    0.0 and inf where there is no row of that kind."""
    Ds = np.asarray(Ds, dtype=float)
    T = np.array([_coords(rec.tau) for rec in records]).reshape(
        len(records), Ds.shape[-1])
    on_L = np.zeros(T.shape, dtype=bool)
    for i, rec in enumerate(records):
        on_L[i, list(rec.L)] = True
    # vals[s, i] is Ds[s] @ tau_i
    vals = (Ds[:, None] @ T[None, :, :, None])[..., 0]
    return (np.max(np.abs(vals), axis=(1, 2), where=on_L, initial=0.0),
            np.min(vals, axis=(1, 2), where=~on_L, initial=np.inf))


def kernel_dimension(prog, tol_rank=1e-10):
    """dim of {D symmetric : A_j . D = 0 for all j}.

    Computed as p(p+1)/2 minus the rank of the n+1 functionals, counting
    singular values above ``tol_rank`` times the largest entry (at least 1).
    An A_j with an entry above half the float maximum, whose doubled
    off-diagonal entries would overflow, is halved first: its row keeps
    its span.
    """
    half_max = np.finfo(float).max / 2
    rows = np.array([sym_functional_row(Aj / 2 if np.abs(Aj).max() > half_max else Aj)
                     for Aj in prog.A])
    tol = tol_rank * max(1.0, float(np.max(np.abs(rows))))
    rank = int(np.linalg.matrix_rank(rows, tol=tol))
    return prog.p * (prog.p + 1) // 2 - rank


def shift_to_feasible(prog, y):
    """Substitute z = x - y so the shifted A_0 becomes A(y).

    With feasible y the new A_0 is copositive; the objective is unchanged
    (the shift only moves a constant).
    """
    y = np.asarray(y, dtype=float)
    if y.shape != (prog.n,):
        raise DimensionError(f"shift y has shape {y.shape}, expected ({prog.n},)")
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite A(y) is refused
        a0 = eval_constraint(prog, y)
    return CopositiveProgram(prog.c, (a0,) + prog.A[1:])


# ---------------------------------------------------------------------------
# JSON I/O.  Problem file: {"n": int, "p": int, "c": [...], "A": [[[...]]]}.
# Matrix file: {"p": int, "D": [[...]]}.

def _load_json(data, what):
    if isinstance(data, (bytes, bytearray)):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as e:
            raise ProblemFormatError(f"{what}: not UTF-8 text ({e})") from e
    try:
        return json.loads(data)
    except json.JSONDecodeError as e:
        raise ProblemFormatError(f"{what}: invalid JSON at line {e.lineno}, column "
                                 f"{e.colno}: {e.msg}") from e
    except RecursionError as e:
        raise ProblemFormatError(f"{what}: JSON nested too deeply") from e
    except ValueError as e:  # an integer literal past Python's digit limit
        raise ProblemFormatError(f"{what}: invalid JSON: {e}") from e


def _require(doc, key, what):
    if key not in doc:
        raise ProblemFormatError(f"{what}: missing field '{key}'")
    return doc[key]


def _require_int(doc, key, what):
    """An integer field; JSON ``true`` and ``1.0`` are not integers."""
    v = _require(doc, key, what)
    if isinstance(v, bool) or not isinstance(v, int):
        raise ProblemFormatError(f"{what}: field '{key}' must be an integer, "
                                 f"got {_json_repr(v)}")
    return v


def _json_repr(v):
    """A JSON value for an error message; an array or object by its kind
    alone, since it may nest too deeply to print."""
    return {list: "an array", dict: "an object"}.get(type(v)) or json.dumps(v)


def parse_problem(data):
    """Parse a problem document; errors carry the offending field."""
    doc = _load_json(data, "problem file")
    if not isinstance(doc, dict):
        raise ProblemFormatError("problem file: top level must be an object")
    n = _require_int(doc, "n", "problem file")
    p = _require_int(doc, "p", "problem file")
    c = _require(doc, "c", "problem file")
    A = _require(doc, "A", "problem file")
    if not isinstance(A, list):
        raise ProblemFormatError("problem file: field 'A' must be a list of matrices")
    try:
        prog = CopositiveProgram(c, A)
    except (ProblemFormatError, DimensionError) as e:
        raise ProblemFormatError(f"problem file: {e}") from e
    if prog.n != n:
        raise ProblemFormatError(f"problem file: field 'n'={n} but c has length {prog.n}")
    if prog.p != p:
        raise ProblemFormatError(f"problem file: field 'p'={p} but matrices have dimension {prog.p}")
    return prog


def serialize_problem(prog):
    doc = {
        "n": prog.n,
        "p": prog.p,
        "c": prog.c.tolist(),
        "A": [a.tolist() for a in prog.A],
    }
    return (json.dumps(doc, indent=2) + "\n").encode("utf-8")


def parse_matrix(data):
    doc = _load_json(data, "matrix file")
    if not isinstance(doc, dict):
        raise ProblemFormatError("matrix file: top level must be an object")
    p = _require_int(doc, "p", "matrix file")
    D = as_sym_matrix(_require(doc, "D", "matrix file"), what="matrix file: D")
    if D.shape[0] != p:
        raise ProblemFormatError(f"matrix file: field 'p'={p} but D has dimension {D.shape[0]}")
    return D


def serialize_matrix(D):
    D = as_sym_matrix(D)
    return (json.dumps({"p": D.shape[0], "D": D.tolist()}, indent=2) + "\n").encode("utf-8")

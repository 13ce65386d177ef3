"""Self-contained dense LP engine with primal and dual extraction.

Two-phase simplex on a standard form built from arrays: free variables are
split, lower-bounded variables shifted, upper bounds become internal rows.
Pivoting is Dantzig's rule with deterministic lowest-index tie-breaking,
falling back to Bland's rule once a run of degenerate pivots trips the
cycling heuristic.  Dual multipliers follow the convention (min problem):
>= rows nonnegative, <= rows nonpositive, == rows free.
"""

import numpy as np

REL_LE = "<="
REL_EQ = "=="
REL_GE = ">="

_PIV_TOL = 1e-10
_DEGENERATE_RUN = 50
_MAX_ITERS = 20000


class LpError(RuntimeError):
    """Numerical failure inside the simplex engine."""


class LinearProgram:
    """min objective . x subject to rows (coeffs, relation, rhs) and bounds.

    ``bounds[j] = (lo, hi)`` with ``lo < +inf`` and ``hi > -inf``; variables
    default to free.  The objective, the coefficients and the right-hand
    sides must be finite.  The rows are stacked into ``A``, ``rel`` and
    ``b``; ``rows`` gives them back as (coeffs, relation, rhs) tuples.
    """

    def __init__(self, objective, rows, bounds=None):
        self.objective = np.asarray(objective, dtype=float)
        if self.objective.ndim != 1:
            raise ValueError("objective must be a vector")
        nvar = self.objective.size
        bad = np.flatnonzero(~np.isfinite(self.objective))
        if bad.size:
            raise ValueError(f"objective coefficient of variable {bad[0]} is not finite")
        A, rel, b = [], [], []
        for i, (coeffs, r, rhs) in enumerate(rows):
            a = np.asarray(coeffs, dtype=float)
            if a.shape != (nvar,):
                raise ValueError(f"row {i} has {a.size} coefficients, expected {nvar}")
            if r not in (REL_LE, REL_EQ, REL_GE):
                raise ValueError(f"row {i} has unknown relation {r!r}")
            A.append(a)
            rel.append(r)
            b.append(float(rhs))
        self.A = np.array(A, dtype=float).reshape(len(A), nvar)
        self.rel = np.array(rel, dtype="<U2")
        self.b = np.array(b, dtype=float)
        bad = np.flatnonzero(~np.isfinite(self.A).all(axis=1))
        if bad.size:
            raise ValueError(f"row {bad[0]} has a non-finite coefficient")
        bad = np.flatnonzero(~np.isfinite(self.b))
        if bad.size:
            raise ValueError(f"row {bad[0]} rhs must be finite")
        if bounds is None:
            bounds = [(-np.inf, np.inf)] * nvar
        if len(bounds) != nvar:
            raise ValueError("bounds length must match the variable count")
        self.lo, self.hi = np.array(bounds, dtype=float).reshape(nvar, 2).T
        bad = np.flatnonzero(~(self.lo <= self.hi) | np.isposinf(self.lo)
                             | np.isneginf(self.hi))
        if bad.size:
            j = bad[0]
            raise ValueError(f"variable {j} has invalid bounds "
                             f"[{self.lo[j]}, {self.hi[j]}]")
        self.nvar = nvar

    @property
    def rows(self):
        return list(zip(self.A, self.rel.tolist(), self.b.tolist()))


class LpSolution:
    """Status plus primal/dual data; ``dual`` has one multiplier per row."""

    def __init__(self, status, primal=None, dual=None, objective_value=None,
                 basis=None, residual=None):
        self.status = status            # "Optimal" | "Infeasible" | "Unbounded"
        self.primal = primal
        self.dual = dual
        self.objective_value = objective_value
        self.basis = basis
        self.residual = residual

    def __repr__(self):
        return f"LpSolution({self.status}, value={self.objective_value})"


class _Std:
    """Standard-form expansion: A x = b, x >= 0 columnwise.

    Structural column ``pos`` stands for variable ``orig[pos]``, recovered
    as ``x_j = sum(sign * x'_pos + shift)`` over its columns: a free
    variable is split (signs +1, -1, shift 0), a lower-bounded one shifted
    by its bound, an upper-only one negated and shifted by its bound.
    Finite upper bounds of lower-bounded variables follow the user rows as
    ``<=`` rows.  Slack columns come next, artificial columns last.
    """

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

        # + 0.0: a zero coefficient stays +0.0 in a negated column
        A = lp.A[:, self.orig] * self.sign + 0.0
        b = lp.b.copy()
        for j in np.flatnonzero(shift != 0.0):   # b_i - a_i1 s_1 - a_i2 s_2 - ..., in turn
            b -= lp.A[:, j] * shift[j]
        ub = np.flatnonzero(np.isfinite(lo[self.orig]) & np.isfinite(hi[self.orig]))
        A = np.vstack([A, np.eye(nstruct)[ub]])
        b = np.concatenate([b, (hi - lo)[self.orig[ub]]])
        sense = np.concatenate([np.where(lp.rel == REL_LE, 1.0,
                                         np.where(lp.rel == REL_GE, -1.0, 0.0)),
                                np.ones(ub.size)])   # slack sign; 0 for ==

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
        basis[art] = self.n_real_cols + np.arange(art.size)   # >= rows too
        self.basis = basis.tolist()
        self.c = np.zeros(self.A.shape[1])
        self.c[:nstruct] = self.sign * lp.objective[self.orig]

    def to_original(self, v):
        """Original-variable point of the standard-form point ``v``."""
        return np.bincount(self.orig, weights=self.sign * v[:self.nstruct] + self.shift,
                           minlength=self.nvar)


def _simplex(A, b, c, basis, n_allow, tol):
    """Iterate to optimality, pricing the columns ``0 .. n_allow - 1``.

    Returns (xb, y, unbounded).
    """
    m = A.shape[0]
    if m == 0:
        return np.zeros(0), np.zeros(0), bool(np.any(c[:n_allow] < -tol))
    degenerate_run = 0
    use_bland = False
    priced = A[:, :n_allow]
    in_basis = np.zeros(A.shape[1], dtype=bool)
    in_basis[basis] = True
    for _ in range(_MAX_ITERS):
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
        pos = np.nonzero(d > _PIV_TOL)[0]
        if pos.size == 0:
            return xb, y, True
        ratios = xb[pos] / d[pos]
        best = float(np.min(ratios))
        ties = pos[ratios <= best + _PIV_TOL * (1.0 + abs(best))]
        leave_row = int(min(ties, key=lambda r: basis[r]))
        if best <= _PIV_TOL:
            degenerate_run += 1
            if degenerate_run >= _DEGENERATE_RUN:
                use_bland = True
        else:
            degenerate_run = 0
        in_basis[basis[leave_row]] = False
        in_basis[enter] = True
        basis[leave_row] = enter
    raise LpError("simplex iteration cap exceeded")


def solve_lp(lp, tol=1e-9):
    """Solve a LinearProgram; see module docstring for conventions."""
    std = _Std(lp)
    A, b, c = std.A, std.b, std.c
    m, ncols = A.shape
    n_real = std.n_real_cols
    basis = list(std.basis)

    if m > 0 and n_real < ncols:
        c1 = np.zeros(ncols)
        c1[n_real:] = 1.0
        xb, _y, unbounded = _simplex(A, b, c1, basis, ncols, tol)
        if unbounded:
            raise LpError("phase-1 objective reported unbounded")
        if float(c1[basis] @ xb) > 10.0 * tol * (1.0 + float(np.max(np.abs(b), initial=0.0))):
            return LpSolution("Infeasible")
        for row in range(m):
            if basis[row] >= n_real:
                # pivot the artificial out on the first usable real column
                try:
                    binv_row = np.linalg.solve(A[:, basis].T, np.eye(m)[row])
                except np.linalg.LinAlgError as e:
                    raise LpError(f"singular basis after phase 1: {e}") from e
                usable = np.abs(binv_row @ A[:, :n_real]) > _PIV_TOL
                usable[[j for j in basis if j < n_real]] = False
                if np.any(usable):
                    basis[row] = int(np.argmax(usable))
                # a stuck artificial marks a redundant row; it stays basic at 0

    xb, y, unbounded = _simplex(A, b, c, basis, n_real, tol)
    if unbounded:
        return LpSolution("Unbounded", basis=tuple(basis))

    x_std = np.zeros(ncols)
    x_std[basis] = xb
    x = std.to_original(x_std)
    dual = std.row_flip * y[:std.row_flip.size]

    residual = _feas_residual(lp, x)
    scale = 1.0 + float(np.max(np.abs(b), initial=0.0))
    if residual > 1e-6 * scale:
        raise LpError(f"optimal basis fails feasibility, residual {residual:.3e}")
    return LpSolution("Optimal", primal=x, dual=dual,
                      objective_value=float(lp.objective @ x),
                      basis=tuple(basis), residual=residual)


def _feas_residual(lp, x):
    v = lp.A @ x - lp.b
    row = np.where(lp.rel == REL_EQ, np.abs(v), np.where(lp.rel == REL_LE, v, -v))
    return float(np.max(np.concatenate([row, lp.lo - x, x - lp.hi]), initial=0.0))

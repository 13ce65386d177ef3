"""Self-contained dense LP engine with primal and dual extraction.

Two-phase simplex on a standard form built from arrays, the rows A x (rel)
b and the bounds of a program: free variables are split, lower-bounded
variables shifted, upper bounds become internal rows.  A program builds
its standard form once and keeps it read-only; a solve builds only its
cost vectors.

``with_row`` grows a program by one row: the new program shares its
parent's standard-form columns and lays out its rows with the routine a
fresh build runs (``_Std.lay_out_rows``), so its standard form is a fresh
build's byte for byte and a solve of it keeps every pivot's bits.

Pivoting is Dantzig's rule with deterministic lowest-index tie-breaking,
falling back to Bland's rule once a run of degenerate pivots trips the
cycling heuristic.  The pivot loops and phase 1's artificial pivot-out
call LAPACK through the gufuncs that ``np.linalg.solve`` wraps
(``numpy.linalg._umath_linalg.solve`` and ``solve1``, signature
"dd->d"), whose output is its bits, and enter ``np.linalg.solve``'s
floating-point state once per loop, not once per solve: a singular basis
raises LinAlgError("Singular matrix").  A scalar
pivot makes two solves: one over the stack (B, B') gives the basic
solution and the duals, and one gives the entering column.  LAPACK still
factorises each matrix of the stack on its own (one ``gesv`` with one
right-hand side each), so the results are the bits of separate solves,
and B is factorised three times per pivot.  Solving all three against
one factorisation would round differently and so move pivots, which are
kept bit-identical.  Dual multipliers follow the convention (min
problem): >= rows nonnegative, <= rows nonpositive, == rows free.

Every solve is a stack of objectives: ``solve_lp(lp, tol, objectives=C)``
solves the program once for each row of an (S, nvar) array and returns an
``LpStack``, whose fields are arrays with a leading (S,) axis;
``solve_lp(lp, tol)`` is the stack of one, ``lp.objective``, and returns
its row 0 as an ``LpSolution``, a named tuple with the same fields.  Phase
1 does not read the objective, so it runs once for the stack.  Phase 2
takes the rows in chunks of at most ``_STACK_ROWS`` (1024), and the chunk
size alone picks the pivot loop: a one-row chunk takes the scalar
``_simplex``, and a larger chunk ``_simplex_stack``, which pivots its rows
in lockstep.  A lockstep step groups its rows by basis, which they mostly
share, with ``np.unique`` over one integer key per row, and makes three
stacked solves: B x_B = b once per distinct basis, B' y = c_B once per
row, and B d = a_enter once per distinct (basis, entering column) pair.
Each row keeps its own pivot choice, ties and degenerate-run switch.
LAPACK solves each matrix of a stack on its own, b is shared by every row,
and the reduced costs are one matrix-vector product per row, so every row
has the bits of its own one-row solve; the lockstep bookkeeping costs more than it saves
on a stack of one.  A chunk that raises is solved again one row at a time,
so a failing row raises the error its own solve raises.  Every solution is
recovered by one routine, ``_stack_solutions``, for a chunk of any size,
as arrays.
"""

import copy
import math
from collections import namedtuple

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

REL_LE = "<="
REL_EQ = "=="
REL_GE = ">="

_PIV_TOL = 1e-10
_DEGENERATE_RUN = 50
_MAX_ITERS = 20000
_STACK_ROWS = 1024       # objectives pivoted in lockstep at a time

# the gufuncs that np.linalg.solve wraps, for a stack of right-hand-side
# matrices and for one right-hand-side vector; called with
# signature="dd->d" they give its bits, and inside _lapack_state() a
# singular matrix raises as it does there
_solve, _solve1 = _umath_linalg.solve, _umath_linalg.solve1


class LpError(RuntimeError):
    """Numerical failure inside the simplex engine."""


def _raise_singular(_err, _flag):
    raise LinAlgError("Singular matrix")


def _lapack_state():
    """np.linalg.solve's floating-point state: LAPACK's invalid flag on a
    singular matrix raises LinAlgError("Singular matrix"), and overflow,
    division by zero and underflow are ignored."""
    return np.errstate(call=_raise_singular, invalid="call", over="ignore",
                       divide="ignore", under="ignore")


def _first(mask):
    """Index of the first True entry of a boolean vector."""
    return int(mask.nonzero()[0][0])


def _read_only(*arrays):
    for a in arrays:
        a.setflags(write=False)


def _checked_objective(objective, nvar=None, ndim=1):
    """The objective (``ndim`` 1), or the stack of objectives, one per row
    (``ndim`` 2), as a read-only float array (a copy), finite and, when
    ``nvar`` is given, with that many coefficients per objective."""
    c = np.array(objective, dtype=float)
    if c.ndim != ndim:
        raise ValueError("objective must be a vector" if ndim == 1 else
                         "objectives must be an (S, nvar) array")
    if nvar is not None and c.shape[-1] != nvar:
        raise ValueError(f"objective has {c.shape[-1]} coefficients, expected {nvar}")
    finite = np.isfinite(c)
    if not finite.all():
        *row, j = np.argwhere(~finite)[0].tolist()
        which = f"objective {row[0]}" if row else "objective"
        raise ValueError(f"{which} coefficient of variable {j} is not finite")
    _read_only(c)
    return c


class LinearProgram:
    """min objective . x subject to the rows A x (rel) b and bounds: ``A``
    (m, nvar), the m relations ``rel`` and the m right-hand sides ``b``.

    ``bounds[j] = (lo, hi)`` with ``lo < +inf`` and ``hi > -inf``; variables
    default to free.  The objective, the coefficients and the right-hand
    sides must be finite.  ``A``, ``rel`` and ``b`` are read-only copies;
    ``rows`` gives them back as (coeffs, relation, rhs) tuples.
    """

    def __init__(self, objective, A, rel, b, bounds=None):
        self.objective = _checked_objective(objective)
        nvar = self.objective.size
        self.A, self.b = np.array(A, dtype=float), np.array(b, dtype=float)
        rel = np.asarray(rel)
        m = self.b.shape[0] if self.b.ndim == 1 else -1
        if self.A.shape != (m, nvar) or rel.shape != (m,):
            raise ValueError(f"A, rel and b have shapes {self.A.shape}, {rel.shape} and "
                             f"{self.b.shape}, expected (m, {nvar}), (m,) and (m,)")
        known = (rel == REL_LE) | (rel == REL_EQ) | (rel == REL_GE)
        if not known.all():
            i = _first(~known)
            raise ValueError(f"row {i} has unknown relation {rel[i].item()!r}")
        self.rel = rel.astype("<U2")
        finite = np.isfinite(self.A).all(axis=1)
        if not finite.all():
            raise ValueError(f"row {_first(~finite)} has a non-finite coefficient")
        finite = np.isfinite(self.b)
        if not finite.all():
            raise ValueError(f"row {_first(~finite)} rhs must be finite")
        if bounds is None:
            bounds = [(-np.inf, np.inf)] * nvar
        if len(bounds) != nvar:
            raise ValueError("bounds length must match the variable count")
        self.lo, self.hi = np.array(bounds, dtype=float).reshape(nvar, 2).T
        bad = ~(self.lo <= self.hi) | np.isposinf(self.lo) | np.isneginf(self.hi)
        if bad.any():
            j = _first(bad)
            raise ValueError(f"variable {j} has invalid bounds "
                             f"[{self.lo[j]}, {self.hi[j]}]")
        _read_only(self.A, self.rel, self.b, self.lo, self.hi)
        self.nvar = nvar
        self._std = _Std(self)

    def with_row(self, coefs, rel, rhs):
        """This program with one more row, ``coefs . x (rel) rhs``, after
        its rows: a new program that shares the objective and the bounds
        and validates only the new row.  Its standard form shares this
        one's column arrays and lays out the grown rows with the fresh
        build's ``_Std.lay_out_rows``, a fresh build's byte for byte."""
        i = self.b.size
        coefs = np.array(coefs, dtype=float)
        if coefs.shape != (self.nvar,):
            raise ValueError(f"row {i} has shape {coefs.shape}, expected ({self.nvar},)")
        if not (rel == REL_LE or rel == REL_EQ or rel == REL_GE):
            raise ValueError(f"row {i} has unknown relation {rel!r}")
        if not np.isfinite(coefs).all():
            raise ValueError(f"row {i} has a non-finite coefficient")
        rhs = float(rhs)
        if not math.isfinite(rhs):
            raise ValueError(f"row {i} rhs must be finite")
        new = object.__new__(LinearProgram)
        new.objective, new.lo, new.hi, new.nvar = self.objective, self.lo, self.hi, self.nvar
        new.A = np.concatenate((self.A, coefs[None]))
        new.rel = np.append(self.rel, rel)
        new.b = np.append(self.b, rhs)
        _read_only(new.A, new.rel, new.b)
        new._std = copy.copy(self._std)        # the parent's column arrays
        new._std.lay_out_rows(new)
        return new

    @property
    def rows(self):
        return list(zip(self.A, self.rel.tolist(), self.b.tolist()))


LpStack = namedtuple("LpStack", "status objective_value primal dual basis residual")
LpStack.__doc__ = """The solutions of an objective stack, as arrays with a leading (S,)
axis, row i the solve with objective i: ``status`` ("Optimal", "Unbounded"
or "Infeasible"), ``objective_value``, ``primal`` (S, nvar), ``dual`` (S,
rows), ``basis`` (S, m), the standard-form column of each basic row, and
``residual``.  A row that is not optimal reads NaN in the float arrays,
and an infeasible row -1 in ``basis``."""

LpSolution = namedtuple("LpSolution", LpStack._fields)
LpSolution.__doc__ = """One solve: row 0 of the ``LpStack`` of its
objective, the row's entries in the stack's fields."""


class _Std:
    """Standard-form expansion: A x = b, x >= 0 columnwise.

    Structural column ``pos`` stands for variable ``orig[pos]``, recovered
    as ``x_j = sum(sign * x'_pos + shift)`` over its columns: a free
    variable is split (signs +1, -1, shift 0), a lower-bounded one shifted
    by its bound, an upper-only one negated and shifted by its bound.
    Finite upper bounds of lower-bounded variables follow the user rows as
    ``<=`` rows.  Slack columns come next, artificial columns last.  A row
    with a negative right-hand side is flipped: its structural entries,
    its right-hand side and its slack sign are negated.  Only the rows and
    bounds enter; the arrays are read-only.

    The bounds give the columns and the upper-bound rows (``ub``, ``ub_b``);
    ``lay_out_rows`` lays out the rest, for a fresh build and for a grown
    program (``LinearProgram.with_row``), which shares its parent's columns.
    """

    def __init__(self, lp):
        lo, hi = lp.lo, lp.hi
        free = np.isneginf(lo) & np.isposinf(hi)
        upper_only = np.isneginf(lo) & np.isfinite(hi)
        self.orig = orig = np.repeat(np.arange(lp.nvar), np.where(free, 2, 1))
        self.sign = sign = np.where(upper_only, -1.0, 1.0)[orig]
        sign[1:][orig[1:] == orig[:-1]] = -1.0              # second halves
        self.shift = np.where(upper_only, hi, np.where(free, 0.0, lo))[orig]
        self.nstruct = orig.size
        self.nvar = lp.nvar
        self.ub = (np.isfinite(lo[orig]) & np.isfinite(hi[orig])).nonzero()[0]
        self.ub_b = (hi - lo)[orig[self.ub]]
        _read_only(self.orig, self.sign, self.shift, self.ub, self.ub_b)
        self.lay_out_rows(lp)

    def lay_out_rows(self, lp):
        """Set the row arrays for the rows of ``lp``, a program over this
        standard form's columns: ``A``, ``b``, ``basis``, ``n_real_cols``,
        ``scale`` and the user rows' ``row_flip``, ``eq_rows`` and
        ``row_sign``."""
        orig, sign, nstruct, ub = self.orig, self.sign, self.nstruct, self.ub
        m_user = lp.b.size
        m = m_user + ub.size
        b = np.empty(m)
        b[:m_user] = lp.b
        # b_i - a_i1 s_1 - a_i2 s_2 - ..., in turn (one shifted column per variable)
        for pos in self.shift.nonzero()[0].tolist():
            b[:m_user] -= lp.A[:, orig[pos]] * self.shift[pos]
        b[m_user:] = self.ub_b
        sense = np.ones(m)                       # slack sign; 0 for ==
        sense[:m_user] = np.where(lp.rel == REL_LE, 1.0,
                                  np.where(lp.rel == REL_GE, -1.0, 0.0))
        flip = b < 0.0
        b[flip] = -b[flip]
        sense[flip] = -sense[flip]
        self.row_flip = np.where(flip, -1.0, 1.0)[:m_user]

        slack = (sense != 0.0).nonzero()[0]
        art = (sense <= 0.0).nonzero()[0]
        self.n_real_cols = n_real = nstruct + slack.size
        A = np.zeros((m, n_real + art.size))
        # + 0.0: a zero coefficient stays +0.0 in a negated column
        A[:m_user, :nstruct] = lp.A[:, orig] * sign + 0.0
        A[m_user + np.arange(ub.size), ub] = 1.0
        A[flip, :nstruct] = -A[flip, :nstruct]
        A[slack, nstruct + np.arange(slack.size)] = sense[slack]
        A[art, n_real + np.arange(art.size)] = 1.0
        self.A, self.b = A, b
        basis = np.empty(m, dtype=int)
        basis[slack] = nstruct + np.arange(slack.size)
        basis[art] = n_real + np.arange(art.size)   # >= rows too
        self.basis = basis
        self.scale = 1.0 + float(b.max(initial=0.0))   # b >= 0 after the flips
        # a user row's violation is |v| on == rows, v on <= rows, -v on >= rows
        self.eq_rows = lp.rel == REL_EQ
        self.row_sign = np.where(lp.rel == REL_LE, 1.0, -1.0)
        _read_only(self.row_flip, A, b, basis, self.eq_rows, self.row_sign)

    def to_original(self, V):
        """Original-variable points of the standard-form points, rows of
        ``V``: x_j adds the terms sign * x'_pos + shift of its columns to
        0.0 in column order, one ``np.bincount`` over all the rows."""
        S = V.shape[0]
        bins = (self.nvar * np.arange(S)[:, None] + self.orig).ravel()
        W = self.sign * V[:, :self.nstruct] + self.shift
        return np.bincount(bins, weights=W.ravel(),
                           minlength=S * self.nvar).reshape(S, self.nvar)


def _stacked_reduced_costs(C_priced, priced_t, Y):
    """``C_priced[i] - priced_t @ Y[i]`` for each row: one matrix-vector
    product per row, as the scalar simplex forms it."""
    return C_priced - (priced_t @ Y[:, :, None])[..., 0]


def _simplex(A, b, c, basis, n_allow, tol):
    """Iterate to optimality, pricing the columns ``0 .. n_allow - 1``;
    ``basis`` (an int array) is updated in place.

    A pivot makes two LAPACK solves, the gufuncs that ``np.linalg.solve``
    wraps: one over the stack (B, B') for the basic solution and the
    duals, and one for the entering column.  The loop runs in one
    ``_lapack_state()``, ``np.linalg.solve``'s floating-point state, so
    the loop's other arithmetic runs under it too.

    Returns (xb, y, unbounded).
    """
    m = A.shape[0]
    if m == 0:
        return np.zeros(0), np.zeros(0), bool(np.any(c[:n_allow] < -tol))
    degenerate_run = 0
    use_bland = False
    priced_t = A[:, :n_allow].T
    c_priced = c[:n_allow]
    in_basis = np.zeros(A.shape[1], dtype=bool)
    in_basis[basis] = True
    basic_priced = in_basis[:n_allow]              # a view: follows in_basis
    stack = np.empty((2, m, m))
    B = stack[0]
    rhs = np.empty((2, m, 1))
    rhs[0, :, 0] = b
    with _lapack_state():
        for _ in range(_MAX_ITERS):
            A.take(basis, axis=1, out=B)
            stack[1] = B.T
            c.take(basis, out=rhs[1, :, 0])
            try:   # LAPACK solves B and B' apart
                xy = _solve(stack, rhs, signature="dd->d")
            except LinAlgError as e:
                raise LpError(f"singular basis {tuple(basis.tolist())}: {e}") from e
            xb, y = xy[0, :, 0], xy[1, :, 0]
            reduced = c_priced - priced_t @ y
            cand = (~basic_priced & (reduced < -tol)).nonzero()[0]
            if cand.size == 0:
                return xb, y, False
            if use_bland:
                enter = int(cand[0])
            else:
                enter = int(cand[reduced[cand].argmin()])
            try:
                d = _solve1(B, A[:, enter], signature="dd->d")
            except LinAlgError as e:
                raise LpError(f"singular basis on pivot: {e}") from e
            pos = (d > _PIV_TOL).nonzero()[0]
            if pos.size == 0:
                return xb, y, True
            ratios = xb[pos] / d[pos]
            best = float(ratios.min())
            ties = pos[ratios <= best + _PIV_TOL * (1.0 + abs(best))]
            leave_row = int(ties[basis[ties].argmin()])
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


def _groups(key):
    """The group of each entry of the 1-D int array ``key``, numbered in
    sorted key order, and the first entry of each group."""
    _, first, group = np.unique(key, return_index=True, return_inverse=True)
    return group, first


def row_groups(rows, bound):
    """``_groups`` of the rows of the int array ``rows``, whose entries lie
    in [0, bound): a row is read as one integer key, an entry per digit,
    when it fits in 63 bits; longer rows are compared as rows."""
    k = rows.shape[1]
    digit = max(bound - 1, 1).bit_length()
    if k * digit <= 63:
        return _groups(rows @ (1 << digit * np.arange(k)))
    _, first, group = np.unique(rows, axis=0, return_index=True, return_inverse=True)
    return group.reshape(-1), first          # numpy 2.0.0 returns it 2-D


def _entering_columns(B, At, group, enter):
    """The solution d of B d = a for each row's basis ``B[group]`` and
    entering column a = ``At[enter]``: one stacked solve, one system per
    distinct (basis, column) pair, in the caller's ``_lapack_state()``."""
    pair, first = _groups(group * At.shape[0] + enter)
    return _solve(B[group[first]], At[enter[first]][:, :, None],
                  signature="dd->d")[pair, :, 0]


def _simplex_stack(A, b, C, basis, n_allow, tol):
    """``_simplex`` for each cost vector, row of the (S, ncols) array
    ``C``, all from ``basis``, pivoting in lockstep; ``basis`` is not
    changed.  A row leaves the stack when it stops.

    A step groups the rows by basis (``row_groups``) and solves
    B x_B = b once per distinct basis, B' y = c_B once per row, and
    B d = a_enter once per distinct (basis, entering column) pair: each
    one stacked call of the gufunc that ``np.linalg.solve`` wraps, in
    which LAPACK solves every matrix on its own.  A row gathers its
    results through its group, so the order of the groups moves no bit,
    and each row gets the bits of its own solve.  As in ``_simplex``, the
    loop runs in one ``_lapack_state()``, and its other arithmetic under
    it too.

    Returns (bases, XB, Y, unbounded), one row per cost vector (XB and Y
    are zero on an unbounded row).  Raises LpError at the iteration cap;
    a singular basis raises numpy's LinAlgError, for the caller to solve
    the rows one at a time.
    """
    S, ncols = C.shape
    m = A.shape[0]
    bases = np.tile(basis, (S, 1))
    XB, Y = np.zeros((S, m)), np.zeros((S, m))
    unbounded = np.zeros(S, dtype=bool)
    if m == 0:
        unbounded[:] = np.any(C[:, :n_allow] < -tol, axis=1)
        return bases, XB, Y, unbounded
    At = A.T                                       # At[j] is column j of A
    priced_t = At[:n_allow]
    b_col = b[:, None]
    in_basis = np.zeros((S, ncols), dtype=bool)
    in_basis[:, basis] = True
    degenerate_run = np.zeros(S, dtype=int)
    use_bland = np.zeros(S, dtype=bool)
    live = np.arange(S)                            # the rows still pivoting
    with _lapack_state():
        for _ in range(_MAX_ITERS):
            live_bases = bases[live]
            group, first = row_groups(live_bases, ncols)
            Bt = At[live_bases[first]]                 # the distinct bases, transposed
            B = Bt.transpose(0, 2, 1)
            xb = _solve(B, b_col, signature="dd->d")[group, :, 0]
            cb = np.take_along_axis(C[live], live_bases, axis=1)
            y = _solve(Bt[group], cb[:, :, None], signature="dd->d")[..., 0]
            reduced = _stacked_reduced_costs(C[live, :n_allow], priced_t, y)
            eligible = ~in_basis[live, :n_allow] & (reduced < -tol)
            go = eligible.any(axis=1)
            XB[live[~go]], Y[live[~go]] = xb[~go], y[~go]
            live, group, xb = live[go], group[go], xb[go]
            if live.size == 0:
                return bases, XB, Y, unbounded
            eligible, reduced = eligible[go], reduced[go]
            enter = np.where(use_bland[live], eligible.argmax(axis=1),
                             np.where(eligible, reduced, np.inf).argmin(axis=1))
            d = _entering_columns(B, At, group, enter)
            pos = d > _PIV_TOL
            ray = ~pos.any(axis=1)
            unbounded[live[ray]] = True
            live, xb, d, pos, enter = live[~ray], xb[~ray], d[~ray], pos[~ray], enter[~ray]
            if live.size == 0:
                return bases, XB, Y, unbounded
            ratios = np.divide(xb, d, out=np.full(d.shape, np.inf), where=pos)
            best = ratios.min(axis=1)
            ties = pos & (ratios <= (best + _PIV_TOL * (1.0 + np.abs(best)))[:, None])
            leave = np.where(ties, bases[live], ncols).argmin(axis=1)
            run = np.where(best <= _PIV_TOL, degenerate_run[live] + 1, 0)
            degenerate_run[live] = run
            use_bland[live] |= run >= _DEGENERATE_RUN
            in_basis[live, bases[live, leave]] = False
            in_basis[live, enter] = True
            bases[live, leave] = enter
    raise LpError("simplex iteration cap exceeded")


def _phase_one(std, tol):
    """A feasible basis of the standard form to start phase 2 from (a new
    array), or None when the program is infeasible; the objective does
    not enter."""
    A, b = std.A, std.b
    m, ncols = A.shape
    n_real = std.n_real_cols
    basis = std.basis.copy()
    if m > 0 and n_real < ncols:
        c1 = np.zeros(ncols)
        c1[n_real:] = 1.0
        xb, _y, unbounded = _simplex(A, b, c1, basis, ncols, tol)
        if unbounded:
            raise LpError("phase-1 objective reported unbounded")
        if float(c1[basis] @ xb) > 10.0 * tol * std.scale:
            return None
        with _lapack_state():
            for row in (basis >= n_real).nonzero()[0].tolist():
                # pivot the artificial out on the first usable real column
                unit = np.zeros(m)
                unit[row] = 1.0
                try:
                    binv_row = _solve1(A[:, basis].T, unit, signature="dd->d")
                except LinAlgError as e:
                    raise LpError(f"singular basis after phase 1: {e}") from e
                usable = np.abs(binv_row @ A[:, :n_real]) > _PIV_TOL
                usable[basis[basis < n_real]] = False
                if usable.any():
                    basis[row] = int(np.argmax(usable))
                # a stuck artificial marks a redundant row; it stays basic at 0
    return basis


def solve_lp(lp, tol=1e-9, objectives=None):
    """Solve a LinearProgram; see module docstring for conventions.

    With ``objectives``, an (S, nvar) array, solve the program once for
    each row in place of ``lp.objective`` and return an ``LpStack``, row
    i the solve of the program with row i as its objective; the error
    raised is the one the first failing row raises.  Without, solve the
    program's own objective, the stack of one, and return its row 0 as an
    ``LpSolution``.
    """
    if objectives is None:
        stack = _solve_stack(lp, tol, lp.objective[None])
        return LpSolution(*(field[0] for field in stack))
    return _solve_stack(lp, tol, _checked_objective(objectives, lp.nvar, ndim=2))


def _solve_stack(lp, tol, C):
    """The ``LpStack`` of the checked objective stack ``C``: one phase 1,
    then phase 2 in chunks of at most ``_STACK_ROWS`` rows."""
    S, std = C.shape[0], lp._std
    basis = _phase_one(std, tol) if S else None
    if basis is None:       # the program is infeasible, or the stack empty
        return LpStack(np.full(S, "Infeasible"), np.full(S, np.nan),
                       np.full((S, lp.nvar), np.nan), np.full((S, lp.b.size), np.nan),
                       np.full((S, std.A.shape[0]), -1), np.full(S, np.nan))
    costs = np.zeros((S, std.A.shape[1]))
    costs[:, :std.nstruct] = std.sign * C[:, std.orig]
    parts = []
    for start in range(0, S, _STACK_ROWS):
        stop = min(start + _STACK_ROWS, S)
        try:
            parts.append(_phase_two(lp, C[start:stop], costs[start:stop], basis, tol))
        except (LinAlgError, LpError):
            if stop - start == 1:
                raise
            # one row at a time: the first failing row raises its own error
            parts += [_phase_two(lp, C[i:i + 1], costs[i:i + 1], basis, tol)
                      for i in range(start, stop)]
    if len(parts) == 1:
        return parts[0]
    return LpStack(*(np.concatenate(field) for field in zip(*parts)))


def _phase_two(lp, C, costs, basis, tol):
    """The ``LpStack`` of the objectives, rows of ``C`` with their
    standard costs ``costs``, from the feasible ``basis`` (not changed):
    the scalar ``_simplex`` for one row, the lockstep ``_simplex_stack``
    for more."""
    std = lp._std
    if C.shape[0] == 1:
        bases = basis.copy()[None]
        xb, y, ray = _simplex(std.A, std.b, costs[0], bases[0], std.n_real_cols, tol)
        return _stack_solutions(lp, C, bases, xb[None], y[None], np.array([ray]))
    return _stack_solutions(lp, C, *_simplex_stack(
        std.A, std.b, costs, basis, std.n_real_cols, tol))


def _stack_solutions(lp, C, bases, XB, Y, unbounded):
    """The ``LpStack`` of the objectives, rows of ``C``, from their final
    bases and basic solutions (one row each); an unbounded row reads NaN
    in the float fields.  Raises LpError when an optimal row fails
    feasibility."""
    std = lp._std
    x_std = np.zeros((C.shape[0], std.A.shape[1]))
    x_std[np.arange(C.shape[0])[:, None], bases] = XB
    X = std.to_original(x_std)
    duals = std.row_flip * Y[:, :std.row_flip.size]
    residuals = _feas_residual(lp, X)
    if residuals.max() > 1e-6 * std.scale:      # an unbounded row does not count
        bad = ~unbounded & (residuals > 1e-6 * std.scale)
        if bad.any():
            raise LpError("optimal basis fails feasibility, residual "
                          f"{residuals[_first(bad)]:.3e}")
    values = (C[:, None, :] @ X[:, :, None])[:, 0, 0]   # one dot per row
    for field in (X, duals, values, residuals):
        field[unbounded] = np.nan
    return LpStack(np.where(unbounded, "Unbounded", "Optimal"),
                   values, X, duals, bases, residuals)


def _feas_residual(lp, X):
    """The largest row or bound violation of each row of the array ``X``:
    one matrix-vector product per point."""
    v = (lp.A @ X[:, :, None])[:, :, 0] - lp.b
    row = np.where(lp._std.eq_rows, np.abs(v), lp._std.row_sign * v)
    return np.concatenate([row, lp.lo - X, X - lp.hi], axis=1).max(axis=1, initial=0.0)

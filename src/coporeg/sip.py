"""Cutting-plane solver for the semi-infinite subproblems.

Each subproblem minimizes the slack mu over the decision box subject to
finitely many linear rows pinned at previously found immobile points and a
quadratic constraint indexed by the full simplex (round zero) or by the
reduced region.  A zero optimum yields a dual certificate assembled from
the master LP multipliers, a certified negative optimum a strictly feasible
point of the indexed region; any other ending raises a SipError.
"""

import numpy as np

from .lp import REL_EQ, REL_GE, LinearProgram, solve_lp
from .model import (DimensionError, SimplexPoint, _frozen_vector,
                    certificate_matrix, eval_constraint, kernel_residual,
                    row_pairs)
from .oracle import CapabilityError, min_quad_over_omega, min_quad_over_simplex


class CertificateError(RuntimeError):
    """Dual certificate failed its stationarity check."""


class SipError(RuntimeError):
    """The cutting-plane loop gave up: ``reason`` says why, after ``rounds``
    rounds ending at the master optimum ``mu_star`` (None before one)."""

    def __init__(self, reason, mu_star, rounds):
        super().__init__(reason)
        self.reason, self.mu_star, self.rounds = reason, mu_star, rounds


class SipInstance:
    """One subproblem: the LP rows of ``records`` (``rows``, one (A, rel, b)
    block built once for every master round and ``forced_zero_rows``) plus
    a quadratic constraint over ``omega`` (None means the full simplex)."""

    def __init__(self, prog, records, omega=None):
        self.prog = prog
        self.records = tuple(records)
        self.taus = tuple(rec.tau for rec in self.records)
        for t in self.taus:
            if not isinstance(t, SimplexPoint) or t.p != prog.p:
                raise DimensionError("every record point must be a SimplexPoint of dimension p")
        self.eq_rows, self.ineq_rows = row_pairs(self.records, prog.p)
        self.rows = record_rows(prog, self.records)
        self.omega = omega


class DualCertificate:
    """New index points with positive weights plus per-record multiplier
    vectors; ``Y`` is their reducing matrix (``certificate_matrix``) and
    ``residual`` its stationarity residual at assembly."""

    def __init__(self, new_indices, lam, Y, residual):
        self.new_indices = tuple(new_indices)   # ((SimplexPoint, gamma), ...)
        self.lam = dict(lam)                    # record index -> p-vector
        self.Y = Y
        self.residual = float(residual)

    def __repr__(self):
        return (f"DualCertificate(new={len(self.new_indices)}, "
                f"lam_records={sorted(self.lam)}, residual={self.residual:.2e})")


class SipOutcome:
    """kind is "negative" (x is strictly feasible with slack mu < 0) or
    "zero" (a zero optimum at x, with a certificate); giving up raises a
    SipError instead.  ``x`` is a read-only copy."""

    def __init__(self, kind, x, mu, certificate=None, diagnostics=None,
                 cuts=()):
        self.kind = kind
        self.x = _frozen_vector(x, "decision point")
        self.mu = float(mu)
        self.certificate = certificate
        self.diagnostics = dict(diagnostics or {})
        self.cuts = tuple(cuts)

    def __repr__(self):
        return (f"SipOutcome({self.kind}, x={self.x.tolist()}, mu={self.mu}, "
                f"diag={self.diagnostics})")


def record_rows(prog, records):
    """LP rows over x of a record set, as arrays (A, rel, b): the rows
    e_k' A(x) tau == or >= 0, the constant A_0 moved to b, equalities (k in
    L) first, then inequalities, each in ``row_pairs`` order."""
    eq, ineq = row_pairs(records, prog.p)
    A, b = np.empty((len(eq) + len(ineq), prog.n)), np.empty(len(eq) + len(ineq))
    for r, (i, k) in enumerate(eq + ineq):
        t = records[i].tau.coords
        A[r] = [float(Aj[k] @ t) for Aj in prog.A[1:]]
        b[r] = -float(prog.A[0][k] @ t)
    return A, np.array([REL_EQ] * len(eq) + [REL_GE] * len(ineq), dtype="<U2"), b


def cut_row(prog, t):
    """The master row of the cut at t,  t' A(x) t + mu >= 0, as (coefs over
    (x, mu), rhs moved from the constant A_0)."""
    tc = t.coords
    coefs = [float(tc @ Aj @ tc) for Aj in prog.A[1:]]
    return np.array(coefs + [1.0]), -float(tc @ prog.A[0] @ tc)


def _build_master(inst, cut_rows, box_r):
    """Master LP over (x, mu), filled from three blocks of rows whose duals
    ``solve_sip`` and ``extract_certificate`` read by position: the record
    rows (zero mu coefficient), 2(n+1) box rows on x and mu, then one >=
    row per (coefs, rhs) pair of ``cut_rows`` (``cut_row``).  ``solve_sip``
    builds the first master of a solve and the master after a box
    escalation with it, and grows it by ``LinearProgram.with_row`` for each
    new cut, which shares the parent's standard-form columns and lays out
    the grown rows with the fresh build's routine, so keeps these bits."""
    rec_A, rec_rel, rec_b = inst.rows
    m, nvar = rec_b.size, inst.prog.n + 1
    A = np.zeros((m + 2 * nvar + len(cut_rows), nvar))
    A[:m, :-1] = rec_A
    A[m:m + 2 * nvar:2] = np.eye(nvar)
    A[m + 1:m + 2 * nvar:2] = -np.eye(nvar)
    A[m + 2 * nvar:] = np.reshape([coefs for coefs, _rhs in cut_rows], (-1, nvar))
    rel = np.concatenate([rec_rel, np.full(2 * nvar + len(cut_rows), REL_GE)])
    b = np.concatenate([rec_b, np.full(2 * nvar, -box_r),
                        [rhs for _coefs, rhs in cut_rows]])
    return LinearProgram(np.eye(nvar)[-1], A, rel, b)     # minimize mu


_CUT_ROUNDS = 300     # cutting-plane rounds per SIP solve
_REFINE_ROUNDS = 4    # grid halvings before giving up


def solve_sip(inst, cfg, a0_copositive=False):
    """Run the cutting-plane loop to a SipOutcome, or raise a SipError.

    A round drops the last round's oracle result before its own oracle
    call, so a grid round holds one value array of the selection's span,
    never the last round's beside the new one."""
    prog = inst.prog
    n = prog.n
    h_cur = cfg.grid_h(prog.p)
    box_r = cfg.box_r
    refinements = 0
    escalations = 0
    cuts, cut_rows = [], []   # each cut's master row is built once
    points = np.empty((0, prog.p))   # the cut points, one row each
    mu_star = None
    master = _build_master(inst, cut_rows, box_r)
    sol = None                # the master's solution, None after it changed

    for rounds in range(1, _CUT_ROUNDS + 1):
        # a new cut grows the master by its row, a box escalation builds it
        # again; a grid refinement keeps the last round's master and its
        # solution
        if sol is None:
            # with A_0 copositive, (x=0, mu=0) satisfies every master row
            if a0_copositive:
                viol = np.where(master.rel == REL_EQ, np.abs(master.b), master.b)
                r = int(np.argmax(viol > cfg.tol_feas))    # no box row is violated
                if viol[r] > cfg.tol_feas:
                    pairs = inst.eq_rows + inst.ineq_rows
                    row = (f"record {pairs[r][0] + 1} row {pairs[r][1] + 1}"
                           if r < len(pairs) else f"cut {r - len(viol) + len(cuts) + 1}")
                    raise SipError(
                        "A_0 was flagged copositive but (x=0, mu=0) violates the "
                        f"master at {row} by {viol[r]:.3e}; the flag or the record "
                        "data is wrong", mu_star, rounds)
            sol = solve_lp(master, tol=cfg.tol_lp)
            if sol.status == "Infeasible":
                # the box rows bound mu too: a cut that needs mu > box_r, or
                # record rows that no x in the box meets, empties the master
                raise SipError(
                    f"master LP infeasible: no x and mu within the box "
                    f"|x_j|, |mu| <= {box_r:g} meet the cuts"
                    + (" and the record rows" if inst.records else ""),
                    mu_star, rounds)
            if sol.status == "Unbounded":
                raise SipError("master LP unbounded despite box rows",
                               mu_star, rounds)
            x_star = sol.primal[:n]
            mu_star = float(sol.primal[n])

        ax = eval_constraint(prog, x_star)
        res = None   # the last round's grid values go before this call's
        if inst.omega is None:
            res = min_quad_over_simplex(ax, p_max=cfg.p_max)
        else:
            try:
                res = min_quad_over_omega(ax, inst.omega, h_cur)
            except CapabilityError as e:
                raise SipError(f"grid exhausted: {e}", mu_star, rounds) from e
            if res.empty:
                return SipOutcome(
                    "negative", x_star, -1.0,
                    diagnostics={"omega_empty": True, "rounds": rounds,
                                 "mu_star": mu_star}, cuts=cuts)

        # a branch that neither returns, continues nor raises names its
        # reason for the shared refine-or-give-up tail
        if res.value + mu_star < -cfg.tol_feas:
            t = res.argmin.coords
            if not (np.max(np.abs(points - t), axis=1) <= 1e-12).any():
                cuts.append(res.argmin)
                points = np.concatenate((points, t[None]))
                coefs, rhs = cut_row(prog, res.argmin)
                cut_rows.append((coefs, rhs))
                master = master.with_row(coefs, REL_GE, rhs)
                sol = None
                continue
            # repeated cut: the grid cannot separate further at this h
            reason = "separation stalled on a duplicate cut"
            if inst.omega is None:   # the exact oracle has no grid to refine
                raise SipError(reason, mu_star, rounds)
        elif mu_star <= -cfg.tol_neg:
            # certified by the grid bound at the resolution that found it:
            # value_lb bounds t'A(x*)t below over the region.  Preferred
            # slack: half the master optimum; fallback: the bound itself,
            # when positive at tolerance scale
            mu_bar = None
            if res.value_lb >= -mu_star / 2.0:
                mu_bar = mu_star / 2.0
            elif res.value_lb >= cfg.tol_neg:
                mu_bar = -res.value_lb
            if mu_bar is not None:
                return SipOutcome(
                    "negative", x_star, mu_bar,
                    diagnostics={"rounds": rounds, "mu_star": mu_star,
                                 "h": h_cur, "margin_lb": res.value_lb},
                    cuts=cuts)
            reason = "negative optimum not certifiable at the finest grid"
        elif abs(mu_star) <= cfg.tol_zero:
            box_end = len(master.b) - len(cuts)
            box_duals = sol.dual[box_end - 2 * (n + 1):box_end]
            if float(np.max(np.abs(box_duals), initial=0.0)) > cfg.tol_mult:
                if escalations < 2:
                    escalations += 1
                    box_r *= 10.0
                    master = _build_master(inst, cut_rows, box_r)
                    sol = None
                    continue
                raise SipError("zero optimum supported on the box after "
                               "escalation", mu_star, rounds)
            cert = extract_certificate(sol, cuts, inst, cfg)
            return SipOutcome("zero", x_star, mu_star, certificate=cert,
                              diagnostics={"rounds": rounds, "mu_star": mu_star,
                                           "h": h_cur}, cuts=cuts)
        elif mu_star > cfg.tol_zero:
            raise SipError("positive optimum: the subproblem admits no zero "
                           "slack (is the program feasible?)", mu_star, rounds)
        else:
            # mu* in the ambiguous gap (-tol_neg, -tol_zero)
            reason = "optimum stuck between tol_zero and tol_neg"

        if refinements >= _REFINE_ROUNDS:
            raise SipError(reason, mu_star, rounds)
        refinements += 1
        h_cur *= 0.5
    raise SipError("cutting-plane round cap exceeded", mu_star, rounds)


def extract_certificate(sol, cuts, inst, cfg):
    """Assemble (tau, gamma, lambda) from the master multipliers.

    Cut duals above ``tol_mult`` become the new index weights (normalized to
    sum to one over the full simplex, ``inst.omega is None``); linear-row
    duals, halved, become the lambda vectors.  The dual of a simplex basis
    has at most n+1 nonzero entries (a basic slack or artificial column
    zeroes its row's dual, and at most one column of each of the n+1 split
    free variables is basic), so at most n+1 cuts are active.  The result
    is validated against the stationarity identity before it is returned.
    """
    if sol.status != "Optimal" or abs(float(sol.primal[-1])) > cfg.tol_zero:
        raise CertificateError("certificate requested away from a zero optimum")
    prog = inst.prog
    n_eq = len(inst.eq_rows)

    lam = {}
    for pos, (i, k) in enumerate(inst.eq_rows):
        v = float(sol.dual[pos])
        if v != 0.0:
            lam.setdefault(i, np.zeros(prog.p))[k] += v / 2.0
    for pos, (i, k) in enumerate(inst.ineq_rows):
        v = float(sol.dual[n_eq + pos])
        if abs(v) <= cfg.tol_mult:
            continue
        v = max(v, 0.0)  # >=-row duals are nonnegative up to LP noise
        lam.setdefault(i, np.zeros(prog.p))[k] += v / 2.0

    cut_duals = sol.dual[len(sol.dual) - len(cuts):]
    new = [(t, float(g)) for t, g in zip(cuts, cut_duals) if g > cfg.tol_mult]
    if not new:
        raise CertificateError("zero optimum but no active cut multiplier "
                               "above tol_mult")
    if inst.omega is None:
        total = sum(g for _t, g in new)
        new = [(t, g / total) for t, g in new]

    Y = certificate_matrix(prog.p, new, lam, inst.taus)
    residual = kernel_residual(prog, Y)
    if residual > cfg.tol_cert:
        raise CertificateError(
            f"certificate stationarity residual {residual:.3e} exceeds "
            f"tol_cert={cfg.tol_cert:.0e}")
    return DualCertificate(new, lam, Y, residual)

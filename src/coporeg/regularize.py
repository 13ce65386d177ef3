"""Iterative regularization driver and the facial-reduction ledger.

The driver alternates semi-infinite solves with index-set updates: a zero
optimum certifies new immobile points (and new forced-zero rows at old
ones), a certified negative optimum ends the run with a strictly feasible
witness for the reduced region.  Every accepted certificate appends one
ledger entry, which holds the certificate and the previous records and
derives from them the reducing matrix (in the constraint kernel) and the
face descriptor it exposes; the ledger can be verified, compressed to a
linearly independent core, and rendered as the final regularized problem.
"""

from itertools import islice

import numpy as np

from .config import DEFAULT
from .lp import LinearProgram, LpError, solve_lp
from .model import (SimplexPoint, eval_constraint, kernel_dimension,
                    kernel_residual, project_to_zero_rows, quad_form,
                    row_residuals, zero_row_matrix)
# ``stationary_candidates`` is not called here; it stays bound so that
# perfbench/spans.py can wrap it where it wraps the other oracle calls
from .oracle import (CapabilityError, ReducedRegion, is_copositive,
                     min_quad_over_omega, stationary_candidate_stack,
                     stationary_candidates)  # noqa: F401
from .sip import (CertificateError, SipError, SipInstance, linear_row_data,
                  solve_sip)


class LedgerError(RuntimeError):
    """A ledger entry violates one of its construction conditions."""


class Record:
    """One immobile point with its set L of forced-zero row indices.

    Driver records hold P_+(tau) <= L by construction (a new record's L is
    its support, and L only grows); the container itself stays permissive
    so loose row sets (the all-inequality one-step mode) can reuse it.
    """

    __slots__ = ("tau", "L")

    def __init__(self, tau, L):
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "L", frozenset(int(k) for k in L))

    def __setattr__(self, name, value):
        raise AttributeError("Record is immutable")

    def __repr__(self):
        return f"Record(tau={self.tau.coords.tolist()}, L={sorted(self.L)})"


class FaceLedgerEntry:
    """Iteration m's certificate over the previous records; the records it
    exposes, the reducer Y_m and the disjointness flag all derive from
    those two."""

    def __init__(self, index, prev_records, certificate, tol_support=1e-7):
        self.index = int(index)
        self.prev_records = tuple(prev_records)
        self.certificate = certificate
        self.reducer = certificate.Y
        self.records = update_index_sets(self.prev_records, certificate,
                                         tol_support)
        self.cond_disjoint = disjointness_condition(self.prev_records,
                                                    certificate, tol_support)

    def __repr__(self):
        return f"FaceLedgerEntry(m={self.index}, records={len(self.records)})"


class CompressedLedger:
    """Core entries whose reducing matrices are linearly independent.

    ``mapping[s]`` is the raw ledger index of core entry s; ``s_star`` is
    one less than the number of core entries (zero when the ledger is
    trivial).
    """

    def __init__(self, core, mapping, s_star):
        self.core = tuple(core)
        self.mapping = tuple(mapping)
        self.s_star = int(s_star)

    def __repr__(self):
        return f"CompressedLedger(core={self.mapping}, s_star={self.s_star})"


class RegularizedProblem(SipInstance):
    """The certified instance: the record rows plus one quadratic
    constraint over the reduced region ``omega`` (``omega.empty`` says it
    holds no point), with a strictly feasible witness and its margin."""

    def __init__(self, prog, records, omega, witness, margin):
        super().__init__(prog, records, omega)
        self.witness = np.asarray(witness, dtype=float)
        self.margin = float(margin)


class RegularizationResult:
    """status "regular" (Slater witness), "regularized", or "failed"."""

    def __init__(self, status, witness=None, regularized=None, ledger=(),
                 m_star=None, compressed=None, diagnostics=None):
        self.status = status
        self.witness = witness
        self.regularized = regularized
        self.ledger = tuple(ledger)
        self.m_star = m_star
        self.compressed = compressed
        self.diagnostics = dict(diagnostics or {})

    def __repr__(self):
        return f"RegularizationResult({self.status}, m_star={self.m_star})"


# ---------------------------------------------------------------------------
# state updates and ledger construction

def update_index_sets(records, cert, tol_support=1e-7):
    """The next record set: L grows at old records by the positive lambda
    components off L, and each new certificate point is appended with
    L = its support."""
    out = []
    for i, rec in enumerate(records):
        lam = cert.lam.get(i)
        if lam is None:
            out.append(rec)
            continue
        delta = {k for k in range(rec.tau.p)
                 if k not in rec.L and lam[k] > 0.0}
        out.append(Record(rec.tau, rec.L | delta))
    for t, _g in cert.new_indices:
        out.append(Record(t, frozenset(t.support_plus(tol_support))))
    return tuple(out)


def disjointness_condition(records_old, cert, tol_support=1e-7):
    """Every new point's zero set must meet every old point's support
    (the finiteness condition; verified, not enforced)."""
    for t, _g in cert.new_indices:
        p0 = set(t.support_zero(tol_support))
        for rec in records_old:
            if not p0 & set(rec.tau.support_plus(tol_support)):
                return False
    return True


def face_rows(records, D, cfg=DEFAULT):
    """(equality rows hold, equality and sign rows hold) for D: zero rows
    on each record's L, nonnegative rows elsewhere."""
    eq_res, ineq_margin = row_residuals(D, records)
    eq = eq_res <= cfg.tol_feas
    return eq, eq and ineq_margin >= -cfg.tol_feas


def face_membership(records, D, cfg=DEFAULT):
    """D lies in the face of ``records``: its rows hold (checked first) and
    it is copositive."""
    return (face_rows(records, D, cfg)[1]
            and is_copositive(D, cfg.tol_cop, cfg.p_max).copositive)


def sample_copositive(p, rng):
    """Nonnegative part plus a Gram part; every such matrix is copositive."""
    U = rng.uniform(0.0, 1.0, size=(p, p))
    N = 0.5 * (U + U.T)
    B = rng.normal(scale=1.0 / np.sqrt(p), size=(p, p))
    return N + B @ B.T


def _face_samples(p, records, n_samples, rng):
    """Copositive samples, each odd one projected onto the records' zero rows."""
    C = zero_row_matrix(records)
    for s in range(n_samples):
        D = sample_copositive(p, rng)
        yield project_to_zero_rows(D, C) if s % 2 == 1 else D


# candidate coordinates, b (2^p - 1) p, of one block's stacked enumeration:
# 8 MB of coordinates, 4 samples at p = 14
_STACK_ENTRIES = 1 << 20


def _block_size(p):
    """Samples per stacked support enumeration at dimension p (at least 1)."""
    return max(1, _STACK_ENTRIES // (p * ((1 << p) - 1)))


def _blocks(samples, p):
    """The samples in consecutive lists of at most ``_block_size(p)``."""
    it = iter(samples)
    while block := list(islice(it, _block_size(p))):
        yield block


def _face_members(records, samples, p, cfg, equalities_only=False):
    """``(D, sign_rows_hold)`` for each sample D in the face of ``records``,
    in sample order.  A sample's rows are tested first (the equality rows
    alone when ``equalities_only``); the row members of each block of
    samples are then tested for copositivity together, by one stacked
    support enumeration."""
    for block in _blocks(samples, p):
        rows = [(D, *face_rows(records, D, cfg)) for D in block]
        members = [(D, both) for D, eq, both in rows
                   if (eq if equalities_only else both)]
        if not members:
            continue
        values, _coords = stationary_candidate_stack(
            np.array([D for D, _both in members]), cfg.p_max)
        for (D, both), margin in zip(members, values.min(axis=1)):
            if margin >= -cfg.tol_cop:
                yield D, both


def verify_ledger(entries, prog, cfg=DEFAULT, n_samples=200, seed=0):
    """Check the construction conditions of every entry.

    Kernel membership is exact; the face chain is sampled:
    copositive samples (raw and projected onto the entry's zero rows) that
    land in entry m must satisfy the rows of entry m-1 (it is copositive
    already) and be orthogonal to Y_m.  Membership tests the rows first;
    the row members of each block of samples share one stacked support
    enumeration (``_face_members``).
    """
    rng = np.random.default_rng(seed)
    report = {"entries": [], "ok": True}
    for idx, entry in enumerate(entries):
        kernel_res = kernel_residual(prog, entry.reducer)
        cond2 = kernel_res <= cfg.tol_cert

        cert = entry.certificate
        gamma_ok = all(g > 0.0 for _t, g in cert.new_indices)
        prev = entry.prev_records
        lam_sign_ok = not any(lam[k] < -cfg.tol_mult
                              for i, lam in cert.lam.items()
                              for k in range(prog.p) if k not in prev[i].L)
        region_ok = True
        if prev:
            omega_prev = ReducedRegion([r.tau for r in prev],
                                       tol_support=cfg.tol_support,
                                       tol_feas=cfg.tol_feas)
            region_ok = all(omega_prev.contains(t) for t, _g in cert.new_indices)
        cond1 = gamma_ok and lam_sign_ok and region_ok

        members = mono_viol = orth_viol = 0
        max_orth = 0.0
        samples = _face_samples(prog.p, entry.records, n_samples, rng)
        for D, _both in _face_members(entry.records, samples, prog.p, cfg):
            members += 1
            orth = abs(float(np.sum(D * entry.reducer)))
            max_orth = max(max_orth, orth)
            if orth > cfg.tol_cert * max(1.0, float(np.max(np.abs(D)))):
                orth_viol += 1
            if idx > 0 and not face_rows(entries[idx - 1].records, D, cfg)[1]:
                mono_viol += 1
        entry_report = {
            "index": entry.index,
            "kernel_residual": kernel_res,
            "cond_I": {"gamma_positive": gamma_ok, "lambda_signs": lam_sign_ok,
                       "new_points_in_region": region_ok},
            "cond_II": cond2,
            "members_sampled": members,
            "monotonicity_violations": mono_viol,
            "orthogonality_violations": orth_viol,
            "max_orthogonality": max_orth,
            "cond_disjoint": entry.cond_disjoint,
        }
        if not (cond1 and cond2) or mono_viol or orth_viol:
            report["ok"] = False
        report["entries"].append(entry_report)
    return report


def compress_ledger(entries, prog=None, tol_rank=1e-10):
    """Keep each entry whose reducer is independent of those already kept."""
    kept_vecs = []
    core, mapping = [], []
    for entry in entries:
        Y = np.asarray(entry.reducer, dtype=float)
        vec = resid = Y[np.triu_indices(Y.shape[0])]
        scale = max(1.0, float(np.linalg.norm(vec)))
        if kept_vecs:
            K = np.array(kept_vecs).T
            resid = vec - K @ np.linalg.lstsq(K, vec, rcond=None)[0]
        if float(np.linalg.norm(resid)) > tol_rank * scale:
            kept_vecs.append(vec)
            core.append(entry)
            mapping.append(entry.index)
    s_star = max(len(core) - 1, 0)
    if prog is not None:
        bound = kernel_dimension(prog, tol_rank)
        if s_star > bound:
            raise LedgerError(
                f"s_star={s_star} exceeds the kernel dimension {bound}; "
                "kernel residuals must have drifted")
    return CompressedLedger(core, mapping, s_star)


# ---------------------------------------------------------------------------
# the driver

def regularize(prog, cfg=DEFAULT):
    """Run the full iterative regularization on a program.

    Returns a RegularizationResult: "regular" with a Slater witness when
    round zero already admits a negative slack, otherwise "regularized"
    with the equivalent reduced problem, the ledger, and its compressed
    core; "failed" carries the diagnostics of a typed failure instead of
    raising it (any other exception propagates).
    """
    trace = []
    try:
        a0_cop = is_copositive(prog.A[0], cfg.tol_cop, cfg.p_max).copositive
        records = ()
        omega = None
        ledger = []
        cap = cfg.cap_for(prog.n)
        m = 0
        while True:
            try:
                out = solve_sip(SipInstance(prog, records, omega), cfg,
                                a0_copositive=a0_cop)
            except SipError as e:
                trace.append({"m": m, "kind": "unresolved", "reason": e.reason,
                              "mu_star": e.mu_star, "rounds": e.rounds})
                return RegularizationResult(
                    "failed", ledger=ledger,
                    diagnostics={"trace": trace, "reason": e.reason})
            trace.append({"m": m, "kind": out.kind, **out.diagnostics})
            if out.kind == "negative":
                if m == 0:
                    return RegularizationResult(
                        "regular", witness=out.x, m_star=0,
                        compressed=CompressedLedger((), (), 0),
                        diagnostics={"trace": trace, "a0_copositive": a0_cop})
                # the slack of a negative outcome is minus its margin
                reg = RegularizedProblem(prog, records, omega, out.x, -out.mu)
                compressed = compress_ledger(ledger, prog, cfg.tol_rank)
                return RegularizationResult(
                    "regularized", regularized=reg, ledger=ledger, m_star=m,
                    compressed=compressed,
                    diagnostics={"trace": trace, "a0_copositive": a0_cop})
            ledger.append(FaceLedgerEntry(m + 1, records, out.certificate,
                                          cfg.tol_support))
            records = ledger[-1].records
            m += 1
            if m > cap:
                return RegularizationResult(
                    "failed", ledger=ledger,
                    diagnostics={"trace": trace,
                                 "reason": f"iteration cap {cap} exceeded"})
            omega = ReducedRegion([r.tau for r in records],
                                  tol_support=cfg.tol_support,
                                  tol_feas=cfg.tol_feas)
    except (LpError, CapabilityError, CertificateError, LedgerError) as e:
        return RegularizationResult(
            "failed", diagnostics={"trace": trace, "reason": str(e),
                                   "exception": type(e).__name__})


# ---------------------------------------------------------------------------
# one-step regularization from a supplied vertex set

def one_step_regularize(prog, W, cfg=DEFAULT, strict=True):
    """Regularize in one step from the vertices of the immobile hull.

    Emits the row A(x) t(j) >= 0 per vertex (componentwise), with the
    support components tightened to equalities in strict mode, plus the
    quadratic constraint over the reduced region; the witness comes from a
    single subproblem solve.  Vertex-set completeness cannot be proven
    here: each supplied point is checked for immobility (at x = 0 before
    the solve when A_0 is copositive, at sampled feasible points after it)
    and a missing vertex surfaces as a blocking index.
    """
    W = tuple(W)
    if not W:
        raise ValueError("W must be nonempty")
    records = []
    for t in W:
        if not isinstance(t, SimplexPoint) or t.p != prog.p:
            raise ValueError("W must contain SimplexPoints of dimension p")
        L = frozenset(t.support_plus(cfg.tol_support)) if strict else frozenset()
        records.append(Record(t, L))
    omega = ReducedRegion(W, tol_support=cfg.tol_support, tol_feas=cfg.tol_feas)
    a0_cop = is_copositive(prog.A[0], cfg.tol_cop, cfg.p_max).copositive
    if a0_cop:   # x = 0 is feasible
        _check_immobile(prog, W, [np.zeros(prog.n)])
    out = solve_sip(SipInstance(prog, records, omega), cfg,
                    a0_copositive=a0_cop)
    if out.kind == "zero":
        blocking = out.certificate.new_indices[0][0]
        raise ValueError(
            "W is not the full vertex set of the immobile hull; blocking "
            f"index {blocking.coords.tolist()}")
    reg = RegularizedProblem(prog, records, omega, out.x, -out.mu)
    _check_immobile(prog, W, sample_feasible(prog, reg.witness, 20, 0, cfg))
    return reg


def _check_immobile(prog, W, points):
    """Raise a ValueError naming the first t of W with t'A(x)t off zero at
    one of the feasible ``points``."""
    for x in points:
        for t in W:
            v = quad_form(eval_constraint(prog, x), t)
            if abs(v) > 1e-6:
                raise ValueError(
                    f"supplied point {t.coords.tolist()} is not immobile: "
                    f"quadratic value {v:.3e} at a feasible x")


def sample_feasible(prog, witness, n, seed, cfg):
    """Feasible points found by shooting rays from a feasible witness and
    keeping the copositive prefixes."""
    rng = np.random.default_rng(seed)
    witness = np.asarray(witness, dtype=float)
    out = [witness]
    tries = 0
    while len(out) < n and tries < 50 * n:
        tries += 1
        d = rng.normal(size=prog.n)
        nrm = float(np.linalg.norm(d))
        if nrm == 0.0:
            continue
        step = rng.uniform(0.0, 2.0)
        x = witness + step * d / nrm
        if is_copositive(eval_constraint(prog, x), cfg.tol_cop,
                         cfg.p_max).copositive:
            out.append(x)
    return out[:n]


# ---------------------------------------------------------------------------
# minimal face via the forced-zero row sets

def forced_zero_rows(prog, t_j, reg, cfg=DEFAULT):
    """Indices k whose row e_k' A(x) t_j vanishes on the whole feasible set.

    The witness holds the quadratic constraint with a certified positive
    margin, so near it the feasible set F is the polyhedron P of the
    record rows and aff F = aff P.  For an immobile t_j the row is >= 0 on
    F, so it vanishes on F exactly when its maximum over P intersected
    with a box around the witness is at the numerical zero level: one LP
    per row, no separation.  The LPs differ only in their objective, so
    they share one program's rows, bounds and standard form.
    """
    # the box must hold a neighbourhood of the witness, where P and F agree;
    # witnesses of `regularize` often sit on the master's box |x_j| <= box_r
    r = max(cfg.box_r, 2.0 * float(np.max(np.abs(reg.witness), initial=0.0)))
    rows_lp = LinearProgram(np.zeros(prog.n), reg.rows, [(-r, r)] * prog.n)
    members = []
    for k in range(prog.p):
        coefs, rhs = linear_row_data(prog, t_j, k)
        sol = solve_lp(rows_lp.with_objective(-coefs), tol=cfg.tol_lp)
        if sol.status != "Optimal":
            raise LpError(f"row maximization LP reported {sol.status}")
        if float(coefs @ sol.primal) - rhs <= cfg.tol_feas:
            members.append(k)
    return tuple(members)


def minimal_face(prog, W, reg, cfg=DEFAULT):
    """The smallest face containing all constraint values, as the records
    (t_j, M_j) of the immobile hull's vertex set W and their forced-zero
    row sets; each t_j is first checked for immobility at feasible points
    sampled from the witness."""
    _check_immobile(prog, W, sample_feasible(prog, reg.witness, 20, 0, cfg))
    return tuple(Record(t, forced_zero_rows(prog, t, reg, cfg)) for t in W)


def face_forms_agree(records, cfg=DEFAULT, n_samples=500, seed=0):
    """Count the copositive samples (raw and projected onto the records'
    zero rows, as ``verify_ledger`` draws them) on which the face's two
    forms disagree: the equality rows alone, and the equality plus sign
    rows.  Each sample is decided by its equality rows first, copositivity
    second."""
    p = records[0].tau.p
    samples = _face_samples(p, records, n_samples, np.random.default_rng(seed))
    members = disagreements = 0
    for _D, both in _face_members(records, samples, p, cfg,
                                  equalities_only=True):
        members += 1
        disagreements += int(not both)
    return {"checked": n_samples, "members": members,
            "disagreements": disagreements}


# ---------------------------------------------------------------------------
# feasible-set equivalence sampling

_EQUIV_BOX = 2.0


def feasibility_equiv_sample(prog, reg, n_samples, seed, cfg=DEFAULT):
    """Compare direct copositivity of A(x) against the regularized rows
    plus the reduced-region grid check on x sampled uniformly from the box
    of half-width ``_EQUIV_BOX`` around the witness.

    Samples where the two decisions differ but either margin falls inside
    ``tol_band`` are excluded as ties.  The samples are taken in blocks of
    ``_block_size(p)``: one uniform draw and one stacked support
    enumeration per block, whose row for a sample gives both its direct
    margin and the candidates of its region margin.
    """
    rng = np.random.default_rng(seed)
    report = {"samples": int(n_samples), "agreements": 0, "ties": 0,
              "disagreements": []}
    h = cfg.grid_h(prog.p)
    for block in _blocks(range(int(n_samples)), prog.p):
        # one draw per block gives the stream of one draw per sample
        X = reg.witness + rng.uniform(-_EQUIV_BOX, _EQUIV_BOX,
                                      size=(len(block), prog.n))
        AX = np.array([eval_constraint(prog, x) for x in X])
        values, coords = stationary_candidate_stack(AX, cfg.p_max)
        for x, ax, vals, ts in zip(X, AX, values, coords):
            margin_a = float(np.min(vals))
            dec_a = margin_a >= -cfg.tol_cop

            eq_res, ineq_margin = row_residuals(ax, reg.records)
            omega_margin = _omega_margin(ax, reg, h, cfg, vals, ts)
            margin_b = min(-eq_res, ineq_margin, omega_margin)
            dec_b = (eq_res <= cfg.tol_band and ineq_margin >= -cfg.tol_band
                     and omega_margin >= -cfg.tol_band)

            if dec_a == dec_b:
                report["agreements"] += 1
            elif min(abs(margin_a), abs(margin_b)) <= cfg.tol_band:
                report["ties"] += 1
            else:
                report["disagreements"].append(
                    {"x": x.tolist(), "margin_direct": margin_a,
                     "margin_regularized": margin_b})
    report["n_disagreements"] = len(report["disagreements"])
    return report


def _omega_margin(ax, reg, h, cfg, values, coords):
    """min t'(ax)t over the region: the grid value, lowered by the least
    stationary candidate inside the region below -tol_band (an exact
    violation).  ``values`` and ``coords`` are the sample's row of
    ``stationary_candidate_stack``."""
    if reg.omega.empty:
        return np.inf
    best = min_quad_over_omega(ax, reg.omega, h).value
    # ascending values, ties in mask order: the first candidate inside is
    # the least one, and only a candidate below the grid value can lower
    # the margin (a support without a candidate is +inf)
    for j in np.argsort(values, kind="stable"):
        if values[j] >= min(-cfg.tol_band, best):
            break
        if reg.omega.contains(coords[j]):
            return float(values[j])
    return best

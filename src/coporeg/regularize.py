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

import numpy as np

from .config import DEFAULT
from .lp import LinearProgram, LpError, solve_lp
from .model import (SimplexPoint, eval_constraint, kernel_dimension,
                    kernel_residual, project_to_zero_rows, quad_form,
                    row_residuals, upper_triangle, zero_row_matrix)
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


def face_rows(records, Ds, cfg=DEFAULT):
    """(equality rows hold, equality and sign rows hold) for each D of the
    (S, p, p) stack ``Ds``, as two (S,) boolean arrays: zero rows on each
    record's L, nonnegative rows elsewhere."""
    eq_res, ineq_margin = row_residuals(Ds, records)
    eq = eq_res <= cfg.tol_feas
    return eq, eq & (ineq_margin >= -cfg.tol_feas)


def sample_copositive(p, rng):
    """Nonnegative part plus a Gram part; every such matrix is copositive."""
    U = rng.uniform(0.0, 1.0, size=(p, p))
    N = 0.5 * (U + U.T)
    B = rng.normal(scale=1.0 / np.sqrt(p), size=(p, p))
    return N + B @ B.T


# candidate coordinates, b (2^p - 1) p, of one block's stacked enumeration:
# 8 MB of coordinates, 4 samples at p = 14
_STACK_ENTRIES = 1 << 20


def _block_size(p):
    """Samples per stacked support enumeration at dimension p (at least 1)."""
    return max(1, _STACK_ENTRIES // (p * ((1 << p) - 1)))


def _face_samples(p, records, n_samples, rng):
    """Copositive samples in (b, p, p) blocks of at most ``_block_size(p)``;
    the samples of odd index in the run are projected onto the records'
    zero rows, those of a block in one call."""
    C, b = zero_row_matrix(records), _block_size(p)
    for start in range(0, n_samples, b):
        Ds = np.array([sample_copositive(p, rng)
                       for _ in range(min(b, n_samples - start))])
        odd = slice(1 - start % 2, None, 2)
        Ds[odd] = project_to_zero_rows(Ds[odd], C)
        yield Ds


def _face_members(records, blocks, cfg, equalities_only=False):
    """``(Ds, sign_rows_hold)`` per (b, p, p) block of samples: the stack of
    the block's samples in the face of ``records``, in sample order, and
    whether each one's sign rows hold.  A block's rows are tested first,
    in one call (the equality rows alone when ``equalities_only``), then
    its row members' copositivity, by one stacked support enumeration."""
    for Ds in blocks:
        eq, both = face_rows(records, Ds, cfg)
        rows = eq if equalities_only else both
        if not rows.any():
            continue
        Ds, both = Ds[rows], both[rows]
        values, _coords = stationary_candidate_stack(Ds, cfg.p_max)
        cop = values.min(axis=1) >= -cfg.tol_cop
        yield Ds[cop], both[cop]


def verify_ledger(entries, prog, cfg=DEFAULT, n_samples=200, seed=0):
    """Check the construction conditions of every entry.

    Kernel membership is exact; the face chain is sampled:
    copositive samples (raw and projected onto the entry's zero rows) that
    land in entry m must satisfy the rows of entry m-1 (it is copositive
    already) and be orthogonal to Y_m.  Each (b, p, p) block of samples
    (``_face_samples``) has its rows tested first; its row members share
    one stacked support enumeration (``_face_members``) and are tested
    for orthogonality in one call.
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
            new = np.array([t.coords for t, _g in cert.new_indices]).reshape(-1, prog.p)
            region_ok = bool(omega_prev.contains(new).all())
        cond1 = gamma_ok and lam_sign_ok and region_ok

        members = mono_viol = orth_viol = 0
        max_orth = 0.0
        blocks = _face_samples(prog.p, entry.records, n_samples, rng)
        for Ds, _both in _face_members(entry.records, blocks, cfg):
            members += len(Ds)
            orth = np.abs(np.sum(Ds * entry.reducer, axis=(1, 2)))
            max_orth = max(max_orth, float(np.max(orth, initial=0.0)))
            scale = np.maximum(1.0, np.max(np.abs(Ds), axis=(1, 2), initial=0.0))
            orth_viol += int(np.count_nonzero(orth > cfg.tol_cert * scale))
            if idx > 0:
                prev_rows = face_rows(entries[idx - 1].records, Ds, cfg)[1]
                mono_viol += int(np.count_nonzero(~prev_rows))
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
        vec = resid = Y[upper_triangle(Y.shape[0])]
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
    raising it (any other exception propagates), with the ledger of the
    iterations certified before it.
    """
    trace, ledger, m = [], [], 0
    try:
        a0_cop = is_copositive(prog.A[0], cfg.tol_cop, cfg.p_max).copositive
        records = ()
        omega = None
        cap = cfg.cap_for(prog.n)
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
        # the iterations certified before the error stay in the ledger
        error = {"reason": str(e), "exception": type(e).__name__}
        trace.append({"m": m, "kind": "error", **error})
        return RegularizationResult("failed", ledger=ledger,
                                    diagnostics={"trace": trace, **error})


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
        Ax = eval_constraint(prog, x)
        for t in W:
            v = quad_form(Ax, t)
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
    the p of them are one ``solve_lp`` call with an objective stack: one
    program's rows, bounds and standard form, and one phase 1.
    """
    # the box must hold a neighbourhood of the witness, where P and F agree;
    # witnesses of `regularize` often sit on the master's box |x_j| <= box_r
    r = max(cfg.box_r, 2.0 * float(np.max(np.abs(reg.witness), initial=0.0)))
    rows_lp = LinearProgram(np.zeros(prog.n), reg.rows, [(-r, r)] * prog.n)
    coefs, rhs = zip(*(linear_row_data(prog, t_j, k) for k in range(prog.p)))
    sols = solve_lp(rows_lp, tol=cfg.tol_lp, objectives=-np.array(coefs))
    failed = sols.status != "Optimal"
    if failed.any():
        raise LpError(f"row maximization LP reported {sols.status[failed.argmax()]}")
    return tuple(k for k in range(prog.p)
                 if float(coefs[k] @ sols.primal[k]) - rhs[k] <= cfg.tol_feas)


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
    blocks = _face_samples(p, records, n_samples, np.random.default_rng(seed))
    members = disagreements = 0
    for _Ds, both in _face_members(records, blocks, cfg, equalities_only=True):
        members += len(both)
        disagreements += int(np.count_nonzero(~both))
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
    ``tol_band`` are excluded as ties; an accepting regularized side's
    margin leaves out its equality rows, which hold within ``tol_band``
    and so are no margin.  The samples are taken in blocks of
    ``_block_size(p)``: one uniform draw, ``eval_constraint`` call, stacked
    support enumeration (a sample's row gives its direct margin) and row
    test per block.
    Only the samples whose record rows hold within ``tol_band``, or whose
    direct test says copositive, get a region margin, from one
    ``_omega_margins`` call per block; on every other sample both
    decisions are False, an agreement whatever the region margin.
    """
    n_samples = int(n_samples)
    rng = np.random.default_rng(seed)
    report = {"samples": n_samples, "agreements": 0, "ties": 0,
              "disagreements": []}
    h, b = cfg.grid_h(prog.p), _block_size(prog.p)
    for start in range(0, n_samples, b):
        # one draw per block gives the stream of one draw per sample
        X = reg.witness + rng.uniform(-_EQUIV_BOX, _EQUIV_BOX,
                                      size=(min(b, n_samples - start), prog.n))
        AX = eval_constraint(prog, X)
        values, coords = stationary_candidate_stack(AX, cfg.p_max)
        margin_a = values.min(axis=1)
        dec_a = margin_a >= -cfg.tol_cop
        eq_res, ineq_margin = row_residuals(AX, reg.records)
        rows_hold = (eq_res <= cfg.tol_band) & (ineq_margin >= -cfg.tol_band)
        read = np.flatnonzero(rows_hold | dec_a)
        report["agreements"] += len(X) - read.size
        omega_margins = _omega_margins(AX[read], reg, h, cfg, values[read],
                                       coords[read])
        for k, omega_margin in zip(read.tolist(), omega_margins.tolist()):
            dec_b = bool(rows_hold[k]) and omega_margin >= -cfg.tol_band
            if dec_a[k] == dec_b:
                report["agreements"] += 1
                continue
            margin_b = (min(float(ineq_margin[k]), omega_margin) if dec_b else
                        min(-float(eq_res[k]), float(ineq_margin[k]), omega_margin))
            if min(abs(float(margin_a[k])), abs(margin_b)) <= cfg.tol_band:
                report["ties"] += 1
            else:
                report["disagreements"].append(
                    {"x": X[k].tolist(), "margin_direct": float(margin_a[k]),
                     "margin_regularized": margin_b})
    report["n_disagreements"] = len(report["disagreements"])
    return report


def _omega_margins(AX, reg, h, cfg, values, coords):
    """min t'(ax)t over the region for each matrix ax of the (S, p, p)
    stack ``AX``: the grid value (one ``min_quad_over_omega`` call per
    matrix, which computes the value alone), lowered by the least
    stationary candidate inside the region below -tol_band (an exact
    violation).  ``values`` and ``coords`` are the stack's
    ``stationary_candidate_stack``.  Only a candidate below min(-tol_band,
    grid value) can lower a margin (a support without a candidate is
    +inf); those of the whole stack are tested in one ``contains`` call,
    and none is made when there are none."""
    if reg.omega.empty:
        return np.full(len(AX), np.inf)
    best = np.array([min_quad_over_omega(ax, reg.omega, h).value for ax in AX])
    i, j = np.nonzero(values < np.minimum(-cfg.tol_band, best)[:, None])
    if i.size:
        inside = reg.omega.contains(coords[i, j])
        lowest = np.full(values.shape, np.inf)
        lowest[i[inside], j[inside]] = values[i[inside], j[inside]]
        best = np.minimum(best, lowest.min(axis=1))
    return best

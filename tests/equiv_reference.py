"""Feasible-set equivalence sampling with a region margin for every
sample: a reference for the acceptance tests, which no part of the
pipeline calls.  ``feasibility_equiv_sample`` computes the margin only on
the samples whose report it can change: not where the record rows fail
and the direct test rejects, and not on a sample that its direct margin
settles, whose region margin is at least -tol_band.  Its reports must
equal these, on every sample."""

import numpy as np

from coporeg.config import DEFAULT
from coporeg.model import eval_constraint, row_residuals
from coporeg.oracle import stationary_candidate_stack
from coporeg.regularize import _EQUIV_BOX, _block_size, _omega_margins


def equiv_sample_all_margins(prog, reg, n_samples, seed, cfg=DEFAULT):
    """``feasibility_equiv_sample``'s report, from the same blocks and
    draws, with ``_omega_margins`` called on every sample of a block."""
    rng = np.random.default_rng(seed)
    report = {"samples": int(n_samples), "agreements": 0, "ties": 0,
              "disagreements": []}
    h, b = cfg.grid_h(prog.p), _block_size(prog.p)
    for start in range(0, int(n_samples), b):
        X = reg.witness + rng.uniform(-_EQUIV_BOX, _EQUIV_BOX,
                                      size=(min(b, int(n_samples) - start), prog.n))
        AX = np.array([eval_constraint(prog, x) for x in X])
        values, coords = stationary_candidate_stack(AX, cfg.p_max)
        eq_all, ineq_all = row_residuals(AX, reg.records)
        omega_all = _omega_margins(AX, reg, h, cfg, values, coords)
        for x, vals, eq_res, ineq_margin, omega_margin in zip(
                X, values, eq_all.tolist(), ineq_all.tolist(), omega_all.tolist()):
            margin_a = float(np.min(vals))
            dec_a = margin_a >= -cfg.tol_cop

            dec_b = (eq_res <= cfg.tol_band and ineq_margin >= -cfg.tol_band
                     and omega_margin >= -cfg.tol_band)
            margin_b = (min(ineq_margin, omega_margin) if dec_b else
                        min(-eq_res, ineq_margin, omega_margin))

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

"""Deterministic test-instance generation with planted immobile points.

Every constraint matrix is projected onto the subspace whose rows vanish on
each planted support, and the constant matrix is a Gram matrix built from
the orthogonal complement of the planted span; by construction every
planted point kills the quadratic form at every x, while the zero vector
stays feasible.
"""

import numpy as np

from .model import (CopositiveProgram, SimplexPoint, project_to_zero_rows,
                    row_functionals)


class GeneratorError(RuntimeError):
    """The planting constraints admit no nonzero constraint matrices."""


def generate_instance(seed, p, n, planted=()):
    """Build an n-variable, dimension-p program whose immobile set contains
    the planted points; with no planting the constant matrix is the
    identity and the zero vector is a Slater point."""
    planted = tuple(planted)
    for t in planted:
        if not isinstance(t, SimplexPoint) or t.p != p:
            raise ValueError("planted points must be SimplexPoints of dimension p")
    rng = np.random.default_rng(seed)
    c = rng.normal(size=n)

    if not planted:
        mats = [np.eye(p)]
        for _ in range(n):
            U = rng.normal(size=(p, p))
            mats.append(0.5 * (U + U.T))
        return CopositiveProgram(c, mats)

    # rows (D t)_k = 0 for every planted t and k in its positive support
    C = np.vstack([row_functionals(t, t.support_plus()) for t in planted])
    span = np.array([t.coords for t in planted])
    # Gram part of A_0 from an orthonormal basis of the planted complement,
    # so the zero set of t' A_0 t meets the simplex only inside the span
    q, _r = np.linalg.qr(span.T, mode="complete")
    rank = int(np.linalg.matrix_rank(span, tol=1e-12))
    comp = q[:, rank:]
    if comp.shape[1] == 0:
        raise GeneratorError("planted points span the whole space; no "
                             "copositive constant matrix separates them")
    A0 = comp @ comp.T

    mats = [A0]
    for _ in range(n):
        U = rng.normal(size=(p, p))
        M = project_to_zero_rows(0.5 * (U + U.T), C)
        if float(np.max(np.abs(M))) <= 1e-12:
            raise GeneratorError("planting constraints force the constraint "
                                 "matrices to zero")
        M = M / float(np.max(np.abs(M)))
        mats.append(M)
    return CopositiveProgram(c, mats)

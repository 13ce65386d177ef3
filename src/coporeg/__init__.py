"""Regularization of linear copositive programs via immobile indices."""

from .config import DEFAULT, RunConfig
from .generate import GeneratorError, generate_instance
from .lp import LinearProgram, LpError, LpSolution, LpStack, solve_lp
from .model import (CopositiveProgram, DimensionError, ProblemFormatError,
                    SimplexPoint, eval_constraint, kernel_dimension,
                    parse_matrix, parse_problem, quad_form, serialize_matrix,
                    serialize_problem, shift_to_feasible)
from .oracle import (CapabilityError, CopositivityResult, OracleResult,
                     ReducedRegion, exclusion_radius, is_copositive,
                     l1_dist_to_hull, min_quad_over_omega,
                     min_quad_over_simplex, simplex_grid)
from .regularize import (CompressedLedger, FaceLedgerEntry, LedgerError,
                         Record, RegularizationResult, RegularizedProblem,
                         compress_ledger, disjointness_condition,
                         face_forms_agree, feasibility_equiv_sample,
                         forced_zero_rows, minimal_face, one_step_regularize,
                         regularize, sample_copositive, sample_feasible,
                         update_index_sets, verify_ledger)
from .sip import (CertificateError, DualCertificate, SipError, SipInstance,
                  SipOutcome, extract_certificate, solve_sip)

__version__ = "0.1.0"

__all__ = [
    "CapabilityError", "CertificateError", "CompressedLedger",
    "CopositiveProgram", "CopositivityResult", "DimensionError",
    "DualCertificate", "FaceLedgerEntry", "GeneratorError", "LedgerError",
    "LinearProgram", "LpError", "LpSolution", "LpStack", "OracleResult",
    "ProblemFormatError", "Record", "ReducedRegion",
    "RegularizationResult", "RegularizedProblem", "RunConfig",
    "SimplexPoint", "SipError", "SipInstance", "SipOutcome", "DEFAULT",
    "compress_ledger", "disjointness_condition", "eval_constraint",
    "exclusion_radius", "extract_certificate", "face_forms_agree",
    "feasibility_equiv_sample", "forced_zero_rows", "generate_instance",
    "is_copositive", "kernel_dimension", "l1_dist_to_hull",
    "min_quad_over_omega", "min_quad_over_simplex", "minimal_face",
    "one_step_regularize", "parse_matrix", "parse_problem", "quad_form",
    "regularize", "sample_copositive", "sample_feasible",
    "serialize_matrix", "serialize_problem", "shift_to_feasible",
    "simplex_grid", "solve_lp", "solve_sip", "update_index_sets",
    "verify_ledger",
]

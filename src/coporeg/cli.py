"""Command-line surface and JSON reporting.

Subcommands: regularize, check-copositive, one-step, minimal-face,
verify-ledger, equiv-check.  Exit codes: 0 success, 1 domain errors,
2 usage errors.  The environment variable COPOREG_CONFIG may point to a
JSON RunConfig; explicit flags win over it.
"""

import argparse
import json
import sys

import jsonschema
import numpy as np
from jsonschema.exceptions import best_match

from .config import RunConfig, load_env_config
from .model import (ProblemFormatError, SimplexPoint, certificate_matrix,
                    kernel_residual, parse_matrix, parse_problem,
                    shift_to_feasible)
from .oracle import ReducedRegion, is_copositive
from .regularize import (FaceLedgerEntry, Record, RegularizedProblem,
                         feasibility_equiv_sample, minimal_face,
                         one_step_regularize, regularize, verify_ledger)
from .sip import DualCertificate

REPORT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["status", "tolerances"],
    "additionalProperties": True,
    "properties": {
        "status": {"enum": ["regular", "regularized", "failed"]},
        "m_star": {"type": ["integer", "null"]},
        "n": {"type": "integer"},
        "p": {"type": "integer"},
        "witness": {"type": ["array", "null"], "items": {"type": "number"}},
        "iterations": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["m", "tau", "gamma", "lambda", "L", "records",
                             "Y", "cond_11star"],
                "properties": {
                    "m": {"type": "integer"},
                    "tau": {"type": "array",
                            "items": {"type": "array", "items": {"type": "number"}}},
                    "gamma": {"type": "array", "items": {"type": "number"}},
                    "lambda": {"type": "object"},
                    "L": {"type": "array",
                          "items": {"type": "array", "items": {"type": "integer"}}},
                    "records": {"type": "array",
                                "items": {"type": "array", "items": {"type": "number"}}},
                    "Y": {"type": "array",
                          "items": {"type": "array", "items": {"type": "number"}}},
                    "cond_11star": {"type": "boolean"},
                },
            },
        },
        "regularized": {
            "type": ["object", "null"],
            "properties": {
                "eq_rows": {"type": "array"},
                "ineq_rows": {"type": "array"},
                "omega": {"type": "object", "required": ["W", "empty"]},
                "witness": {"type": "array", "items": {"type": "number"}},
                "margin": {"type": "number"},
            },
        },
        "compressed": {
            "type": ["object", "null"],
            "properties": {
                "core": {"type": "array", "items": {"type": "integer"}},
                "s_star": {"type": "integer"},
            },
        },
        "tolerances": {"type": "object"},
        "diagnostics": {"type": "object"},
    },
}
_REPORT_VALIDATOR = jsonschema.Draft7Validator(REPORT_SCHEMA)


def build_report(result, prog, cfg):
    """Render a RegularizationResult as the documented JSON structure.

    Row and coordinate indices in the report are 1-based (math convention);
    record indices inside "lambda" keys are 1-based as well.
    """
    iterations = []
    for entry in result.ledger:
        cert = entry.certificate
        iterations.append({
            "m": entry.index,
            "tau": [t.coords.tolist() for t, _g in cert.new_indices],
            "gamma": [float(g) for _t, g in cert.new_indices],
            "lambda": {str(i + 1): lv.tolist() for i, lv in sorted(cert.lam.items())},
            "records": [r.tau.coords.tolist() for r in entry.records],
            "L": [sorted(k + 1 for k in r.L) for r in entry.records],
            "Y": entry.reducer.tolist(),
            "cond_11star": entry.cond_disjoint,
        })
    regularized = None
    if result.regularized is not None:
        regularized = _regularized_doc(result.regularized)
    compressed = None
    if result.compressed is not None:
        compressed = {"core": list(result.compressed.mapping),
                      "s_star": result.compressed.s_star}
    report = {
        "status": result.status,
        "m_star": result.m_star,
        "n": prog.n,
        "p": prog.p,
        "witness": result.witness.x.tolist() if result.witness is not None else None,
        "iterations": iterations,
        "regularized": regularized,
        "compressed": compressed,
        "tolerances": cfg.to_dict(),
        "diagnostics": _jsonable(result.diagnostics),
    }
    error = best_match(_REPORT_VALIDATOR.iter_errors(report))
    if error is not None:
        raise error
    return report


def _regularized_doc(reg):
    """The ``regularized`` block of a report: rows, region, witness."""
    return {
        "eq_rows": [[i + 1, k + 1] for i, k in reg.eq_rows],
        "ineq_rows": [[i + 1, k + 1] for i, k in reg.ineq_rows],
        "omega": {"W": [v.coords.tolist() for v in reg.omega.V],
                  "sigma": None if reg.omega_empty else reg.omega.sigma,
                  "empty": reg.omega_empty},
        "witness": reg.witness.tolist(),
        "margin": reg.margin,
    }


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, float) and not np.isfinite(obj):
        return repr(obj)
    return obj


def ledger_from_report(report, prog):
    """Rebuild ledger entries (with recomputed residuals) from a report; a
    p or n other than the problem's, an L index outside 1..p or a lambda
    key naming no previous record is a ProblemFormatError."""
    for key in ("p", "n"):
        if key in report and report[key] != getattr(prog, key):
            raise ProblemFormatError(f"report has {key}={report[key]}, the "
                                     f"problem has {key}={getattr(prog, key)}")
    entries = []
    prev_records = ()
    for it in report.get("iterations", []):
        if any(not 1 <= k <= prog.p for L in it["L"] for k in L):
            raise ProblemFormatError(
                f"iteration {it['m']}: a row index in L lies outside 1..{prog.p}")
        records = tuple(
            Record(SimplexPoint(t), frozenset(k - 1 for k in L))
            for t, L in zip(it["records"], it["L"]))
        new_indices = tuple(
            (SimplexPoint(t), float(g)) for t, g in zip(it["tau"], it["gamma"]))
        lam = {int(i) - 1: np.asarray(v, dtype=float)
               for i, v in it["lambda"].items()}
        if not set(lam) <= set(range(len(prev_records))):
            raise ProblemFormatError(
                f"iteration {it['m']}: a lambda key in {sorted(it['lambda'])} "
                f"names no record of the previous iteration")
        Y = certificate_matrix(prog.p, new_indices, lam,
                               [r.tau for r in prev_records])
        cert = DualCertificate(new_indices, lam, Y, kernel_residual(prog, Y))
        entries.append(FaceLedgerEntry(
            int(it["m"]), np.asarray(it["Y"], dtype=float), records,
            prev_records, cert, bool(it["cond_11star"])))
        prev_records = records
    return entries


def regularized_from_report(report, prog, cfg):
    doc = report.get("regularized")
    if doc is None:
        return None
    records = []
    last = report["iterations"][-1]
    for t, L in zip(last["records"], last["L"]):
        records.append(Record(SimplexPoint(t), frozenset(k - 1 for k in L)))
    omega = ReducedRegion([SimplexPoint(v) for v in doc["omega"]["W"]],
                          tol_support=cfg.tol_support, tol_feas=cfg.tol_feas)
    return RegularizedProblem(prog, records, omega,
                              np.asarray(doc["witness"], dtype=float),
                              float(doc["margin"]),
                              omega_empty=doc["omega"]["empty"])


def _write_json(doc, path):
    """Write an ``--out`` document; nothing when no path was given."""
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(_jsonable(doc), fh, indent=2)
            fh.write("\n")


# ---------------------------------------------------------------------------
# argument handling

_TOL_FLAGS = ["tol-feas", "tol-support", "tol-rank", "tol-cop", "tol-lp",
              "tol-mult", "tol-cert", "tol-zero", "tol-neg", "tol-band"]


def _add_common(parser):
    for flag in _TOL_FLAGS:
        parser.add_argument(f"--{flag}", type=float, default=None)
    parser.add_argument("--h", type=float, default=None,
                        help="grid resolution (<= 1/4)")
    parser.add_argument("--cap", type=int, default=None,
                        help="iteration cap (default 2n+2)")
    parser.add_argument("--box", type=float, default=None,
                        help="decision box bound R")
    parser.add_argument("--p-max", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--samples", type=int, default=None)
    parser.add_argument("--out", type=str, default=None,
                        help="write the JSON report here")


def _config_from_args(args):
    overrides = {}
    for flag in _TOL_FLAGS:
        name = flag.replace("-", "_")
        v = getattr(args, name)
        if v is not None:
            overrides[name] = v
    mapping = {"h": "h", "cap": "iteration_cap", "box": "box_r",
               "p_max": "p_max", "seed": "seed", "samples": "samples"}
    for arg_name, cfg_name in mapping.items():
        v = getattr(args, arg_name, None)
        if v is not None:
            overrides[cfg_name] = v
    return load_env_config(overrides)


def _read(path, what):
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as e:
        raise ProblemFormatError(f"{what} {path!r}: {e.strerror or e}") from e


def _load_problem(args, cfg):
    prog = parse_problem(_read(args.problem, "problem file"))
    if getattr(args, "shift", None):
        y = np.array([float(s) for s in args.shift.split(",")])
        prog = shift_to_feasible(prog, y)
    return prog


def _load_points(path, p):
    """The points of a point file ``{"p": int, "W": [...]}``: ``p`` must be
    the problem's and ``W`` a nonempty list of simplex points."""
    data = _read(path, "point file")
    try:  # bad JSON, keys and points alike
        doc = json.loads(data.decode("utf-8"))
        if not isinstance(doc, dict) or not {"p", "W"} <= doc.keys():
            raise ValueError("expected keys p, W")
        if doc["p"] != p:
            raise ValueError(f"p={doc['p']!r}, the problem has p={p}")
        if not isinstance(doc["W"], list) or not doc["W"]:
            raise ValueError("W must be a nonempty list of points")
        pts = [SimplexPoint(v) for v in doc["W"]]
        for t in pts:
            if t.p != p:
                raise ValueError(f"point dimension {t.p} != p={p}")
    except (ValueError, TypeError) as e:
        raise ProblemFormatError(f"point file {path!r}: {e}") from e
    return pts


def _driver_result(prog, cfg, regular_note=None):
    """The driver's result for a subcommand that queries it, or the exit
    code when nothing is left to do: 1 after a failed run, and 0 after a
    regular one when ``regular_note`` (printed) says why."""
    result = regularize(prog, cfg)
    if result.status == "failed":
        print(f"regularization failed: {result.diagnostics.get('reason')}",
              file=sys.stderr)
        return 1
    if result.status == "regular" and regular_note:
        print(regular_note)
        return 0
    return result


# ---------------------------------------------------------------------------
# subcommands

def _cmd_regularize(args):
    cfg = _config_from_args(args)
    prog = _load_problem(args, cfg)
    result = regularize(prog, cfg)
    _write_json(build_report(result, prog, cfg), args.out)
    print(f"status: {result.status}")
    if result.status == "regular":
        print(f"witness: {result.witness.x.tolist()}")
    elif result.status == "regularized":
        print(f"m_star: {result.m_star}")
        for entry in result.ledger:
            taus = [t.coords.tolist() for t, _g in entry.certificate.new_indices]
            print(f"  iteration {entry.index}: new indices {taus}")
        print(f"witness: {result.regularized.witness.tolist()} "
              f"(margin {result.regularized.margin:.6g})")
    else:
        print(f"reason: {result.diagnostics.get('reason')}", file=sys.stderr)
        return 1
    return 0


def _cmd_check_copositive(args):
    cfg = _config_from_args(args)
    D = parse_matrix(_read(args.matrix, "matrix file"))
    res = is_copositive(D, cfg.tol_cop, cfg.p_max)
    if res.copositive:
        print(f"copositive, margin {res.margin}")
    else:
        print(f"not copositive, witness {res.witness.coords.tolist()} "
              f"(value {res.margin})")
    _write_json({"copositive": bool(res.copositive), "margin": res.margin,
                 "witness": res.witness.coords.tolist() if res.witness else None},
                args.out)
    return 0


def _cmd_one_step(args):
    cfg = _config_from_args(args)
    prog = _load_problem(args, cfg)
    W = _load_points(args.W, prog.p)
    reg = one_step_regularize(prog, W, cfg, strict=not args.loose)
    sigma = None if reg.omega_empty else reg.omega.sigma
    print(f"witness: {reg.witness.tolist()} (margin {reg.margin:.6g})")
    print(f"rows: {len(reg.eq_rows)} equalities, {len(reg.ineq_rows)} inequalities"
          + ("" if sigma is None else f"; sigma {sigma:.6g}"))
    _write_json(_regularized_doc(reg), args.out)
    return 0


def _cmd_minimal_face(args):
    cfg = _config_from_args(args)
    prog = _load_problem(args, cfg)
    result = _driver_result(prog, cfg, "program satisfies the strict "
                            "feasibility condition; the minimal face is the full cone")
    if isinstance(result, int):
        return result
    if args.W:
        W = _load_points(args.W, prog.p)
    else:
        W = [r.tau for r in result.regularized.records]
        print("note: using the recovered index points as the vertex set")
    face = minimal_face(prog, W, result.regularized, cfg)
    check = face.cross_check(n_samples=cfg.samples, seed=cfg.seed)
    for j, t in enumerate(face.vertices):
        print(f"t({j + 1}) = {t.coords.tolist()}  M = "
              f"{sorted(k + 1 for k in face.M[j])}")
    print(f"form agreement: {check['checked']} samples, "
          f"{check['members']} members, 0 disagreements")
    _write_json({"vertices": [t.coords.tolist() for t in face.vertices],
                 "M": {str(j + 1): sorted(k + 1 for k in face.M[j])
                       for j in face.M},
                 "cross_check": check}, args.out)
    return 0


def _cmd_verify_ledger(args):
    cfg = _config_from_args(args)
    prog = _load_problem(args, cfg)
    if args.report:
        data = _read(args.report, "report file")
        try:  # bad JSON, schema violations and bad values alike
            report = json.loads(data.decode("utf-8"))
            error = best_match(_REPORT_VALIDATOR.iter_errors(report))
            if error is not None:
                raise ValueError(f"{error.json_path}: {error.message}")
            entries = ledger_from_report(report, prog)
        except ValueError as e:
            raise ProblemFormatError(f"report file {args.report!r}: {e}") from e
    else:
        result = _driver_result(prog, cfg)
        if isinstance(result, int):
            return result
        entries = result.ledger
    rep = verify_ledger(entries, prog, cfg, n_samples=cfg.samples, seed=cfg.seed)
    for e in rep["entries"]:
        print(f"entry {e['index']}: kernel residual {e['kernel_residual']:.2e}, "
              f"members {e['members_sampled']}, "
              f"monotonicity violations {e['monotonicity_violations']}, "
              f"orthogonality violations {e['orthogonality_violations']}")
    print("ledger ok" if rep["ok"] else "ledger FAILED")
    _write_json(rep, args.out)
    return 0 if rep["ok"] else 1


def _cmd_equiv_check(args):
    cfg = _config_from_args(args)
    prog = _load_problem(args, cfg)
    result = _driver_result(prog, cfg, "program is strictly feasible; "
                            "equivalence is trivial")
    if isinstance(result, int):
        return result
    rep = feasibility_equiv_sample(prog, result.regularized,
                                   cfg.samples, cfg.seed, cfg)
    print(f"{rep['samples']} samples: {rep['agreements']} agreements, "
          f"{rep['ties']} ties, {rep['n_disagreements']} disagreements")
    _write_json(rep, args.out)
    return 0 if rep["n_disagreements"] == 0 else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="coporeg",
        description="Regularize linear copositive programs that lack a "
                    "strictly feasible point, with a verifiable ledger.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("regularize", help="run the iterative regularization")
    p.add_argument("--problem", required=True)
    p.add_argument("--shift", default=None,
                   help="comma-separated feasible point; shifts A_0 to A(y)")
    _add_common(p)
    p.set_defaults(func=_cmd_regularize)

    p = sub.add_parser("check-copositive", help="test a matrix for copositivity")
    p.add_argument("--matrix", required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_check_copositive)

    p = sub.add_parser("one-step", help="one-step regularization from a "
                                        "supplied vertex set")
    p.add_argument("--problem", required=True)
    p.add_argument("--W", required=True, help="JSON file {p, W: [[...]]}")
    p.add_argument("--loose", action="store_true",
                   help="emit all rows as inequalities")
    p.add_argument("--shift", default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_one_step)

    p = sub.add_parser("minimal-face", help="describe the minimal face")
    p.add_argument("--problem", required=True)
    p.add_argument("--W", default=None)
    p.add_argument("--shift", default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_minimal_face)

    p = sub.add_parser("verify-ledger", help="re-check ledger conditions")
    p.add_argument("--problem", required=True)
    p.add_argument("--report", default=None,
                   help="verify the ledger stored in this report")
    p.add_argument("--shift", default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_verify_ledger)

    p = sub.add_parser("equiv-check", help="sampled feasible-set equivalence")
    p.add_argument("--problem", required=True)
    p.add_argument("--shift", default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_equiv_check)
    return parser


_PARSER = build_parser()


def main(argv=None):
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as e:
        return e.code if e.code is not None else 2
    try:
        return args.func(args)
    except (ValueError, RuntimeError) as e:  # ProblemFormatError is a ValueError
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

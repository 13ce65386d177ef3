"""Command-line surface and JSON reporting.

Subcommands: regularize, check-copositive, one-step, minimal-face,
verify-ledger, equiv-check.  Exit codes: 0 success, 1 domain errors,
2 usage errors.  Each subcommand takes the flags of the RunConfig fields
it reads, and checks that its --out path can be written before any work.
The environment variable COPOREG_CONFIG may point to a JSON RunConfig;
explicit flags win over it.
"""

import argparse
import json
import os
import sys
from dataclasses import fields

import numpy as np

from .config import RunConfig, load_env_config
from .model import (ProblemFormatError, SimplexPoint, _float_array, _json_repr,
                    _load_json, _require, _require_int, certificate_matrix,
                    kernel_residual, parse_matrix, parse_problem,
                    shift_to_feasible)
from .oracle import is_copositive
from .regularize import (FaceLedgerEntry, face_forms_agree,
                         feasibility_equiv_sample, minimal_face,
                         one_step_regularize, regularize, verify_ledger)
from .sip import DualCertificate

def build_report(result, prog, cfg):
    """Render a RegularizationResult as the documented JSON structure.

    Row and coordinate indices in the report are 1-based (math convention);
    record indices inside "lambda" keys are 1-based as well.
    """
    regularized = None
    if result.regularized is not None:
        regularized = _regularized_doc(result.regularized)
    compressed = None
    if result.compressed is not None:
        compressed = {"core": list(result.compressed.mapping),
                      "s_star": result.compressed.s_star}
    return {
        "status": result.status,
        "m_star": result.m_star,
        "n": prog.n,
        "p": prog.p,
        "witness": result.witness.tolist() if result.witness is not None else None,
        "iterations": [_iteration_doc(e) for e in result.ledger],
        "regularized": regularized,
        "compressed": compressed,
        "tolerances": cfg.to_dict(),
        "diagnostics": _jsonable(result.diagnostics),
    }


def _iteration_doc(entry):
    """One ledger entry as a report iteration: its certificate (tau, gamma,
    lambda) and what derives from it (records, L, Y, cond_11star)."""
    cert = entry.certificate
    return {
        "m": entry.index,
        "tau": [t.coords.tolist() for t, _g in cert.new_indices],
        "gamma": [float(g) for _t, g in cert.new_indices],
        "lambda": {str(i + 1): lv.tolist() for i, lv in sorted(cert.lam.items())},
        "records": [r.tau.coords.tolist() for r in entry.records],
        "L": [sorted(k + 1 for k in r.L) for r in entry.records],
        "Y": entry.reducer.tolist(),
        "cond_11star": entry.cond_disjoint,
    }


def _regularized_doc(reg):
    """The ``regularized`` block of a report: rows, region, witness."""
    return {
        "eq_rows": [[i + 1, k + 1] for i, k in reg.eq_rows],
        "ineq_rows": [[i + 1, k + 1] for i, k in reg.ineq_rows],
        "omega": {"W": [v.coords.tolist() for v in reg.omega.V],
                  "sigma": None if reg.omega.empty else reg.omega.sigma,
                  "empty": reg.omega.empty},
        "witness": reg.witness.tolist(),
        "margin": reg.margin,
    }


def _jsonable(obj):
    """``obj`` as strict JSON values: numpy scalars and arrays become Python
    values first, dict keys become strings, and a non-finite float becomes
    the string "inf", "-inf" or "nan"."""
    if isinstance(obj, (np.generic, np.ndarray)):
        obj = obj.tolist()      # a numpy scalar's tolist() is its item()
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, float) and not np.isfinite(obj):
        return repr(obj)
    return obj


_STATUSES = ("regular", "regularized", "failed")
_ITERATION_FIELDS = ("m", "tau", "gamma", "lambda", "records", "L", "Y",
                     "cond_11star")


def ledger_from_report(report, prog, cfg, what="report"):
    """The ledger entries of a decoded report, each built from the stored
    m, tau, gamma and lambda, checked against ``prog``, and then checked
    against the stored copies of what it derives at the report's own
    ``tolerances.tol_support``.  A defect is a ProblemFormatError naming
    ``what``, the iteration and the field."""
    if not isinstance(report, dict):
        raise ProblemFormatError(f"{what}: top level must be an object")
    status = _require(report, "status", what)
    if status not in _STATUSES:
        raise ProblemFormatError(f"{what}: field 'status' must be one of "
                                 f"{', '.join(_STATUSES)}, got {_json_repr(status)}")
    for key in ("p", "n"):
        if key in report and _require_int(report, key, what) != getattr(prog, key):
            raise ProblemFormatError(f"{what}: report has {key}={report[key]}, the "
                                     f"problem has {key}={getattr(prog, key)}")
    tols = report.get("tolerances")
    where = f"{what}: field 'tolerances.tol_support'"
    if not isinstance(tols, dict) or "tol_support" not in tols:
        raise ProblemFormatError(f"{where} is missing")
    tol_support = float(_array(tols["tol_support"], (), where))
    if not tol_support > 0.0:
        raise ProblemFormatError(f"{where} must be positive, got {tol_support}")
    iterations = report.get("iterations", [])
    if not isinstance(iterations, list):
        raise ProblemFormatError(f"{what}: field 'iterations' must be a list")
    entries = []
    for m, it in enumerate(iterations, 1):
        prev = entries[-1].records if entries else ()
        entries.append(_read_iteration(it, m, prev, prog, cfg, tol_support,
                                       f"{what}: iteration {m}"))
    return entries


# what each derived iteration field holds, for the mismatch message
_DERIVED = {"records": "the previous records, then each new tau",
            "L": "per record, the integer rows forced to zero, none outside 1..{p}",
            "cond_11star": "a boolean: each new tau's zero set meets every "
                           "previous record's support"}


def _read_iteration(it, m, prev, prog, cfg, tol_support, where):
    """Iteration ``m`` of a report as the FaceLedgerEntry that its
    certificate gives after ``prev`` at ``tol_support``.  The stored
    records, L and cond_11star must equal the entry's, and the stored Y
    must lie within tol_cert of the certificate's."""
    if not isinstance(it, dict):
        raise ProblemFormatError(f"{where}: expected an object")
    missing = [k for k in _ITERATION_FIELDS if k not in it]
    if missing:
        raise ProblemFormatError(f"{where}: missing required fields "
                                 f"{', '.join(missing)}")
    if _require_int(it, "m", where) != m:
        raise ProblemFormatError(f"{where}: field 'm' is {it['m']}, expected {m}")
    p = prog.p
    taus = _points(it["tau"], p, f"{where}: field 'tau'")
    gamma = _array(it["gamma"], (len(taus),), f"{where}: field 'gamma'")
    if not isinstance(it["lambda"], dict):
        raise ProblemFormatError(f"{where}: field 'lambda' must be an object")
    keys = {str(i + 1): i for i in range(len(prev))}
    lam = {}
    for key, v in it["lambda"].items():
        if key not in keys:
            raise ProblemFormatError(
                f"{where}: field 'lambda': lambda key {key!r} names no record "
                f"of the previous iteration, which has {len(prev)}")
        lam[keys[key]] = _array(v, (p,), f"{where}: field 'lambda': key {key!r}")
    new_indices = tuple(zip(taus, (float(g) for g in gamma)))
    Y = certificate_matrix(p, new_indices, lam, [r.tau for r in prev])
    cert = DualCertificate(new_indices, lam, Y, kernel_residual(prog, Y))
    entry = FaceLedgerEntry(m, prev, cert, tol_support)
    doc = _iteration_doc(entry)
    for key, held in _DERIVED.items():
        if not _same_json(it[key], doc[key]):
            raise ProblemFormatError(
                f"{where}: field '{key}' must equal {json.dumps(doc[key])}, "
                f"which the certificates give ({held.format(p=p)})")
    off = float(np.max(np.abs(_array(it["Y"], (p, p), f"{where}: field 'Y'") - Y)))
    if off > cfg.tol_cert:
        raise ProblemFormatError(f"{where}: field 'Y' is off its certificate by "
                                 f"{off:.3g} > tol_cert={cfg.tol_cert}")
    return entry


def _same_json(got, want):
    """JSON equality that keeps integers and booleans apart from other
    numbers where ``want`` is one (in Python, 1 == 1.0 == True)."""
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(_same_json(g, w) for g, w in zip(got, want)))
    if isinstance(want, float):
        return type(got) in (int, float) and got == want
    return type(got) is type(want) and got == want


def _points(v, p, what):
    """A nonempty list of simplex points of dimension ``p``."""
    if not isinstance(v, list) or not v:
        raise ProblemFormatError(f"{what}: must be a nonempty list of points")
    pts = []
    for j, t in enumerate(v, 1):
        try:
            pts.append(SimplexPoint(t))
        except ValueError as e:  # ProblemFormatError and DimensionError too
            raise ProblemFormatError(f"{what}: point {j}: {e}") from e
        if pts[-1].p != p:
            raise ProblemFormatError(
                f"{what}: point {j}: point dimension {pts[-1].p} != p={p}")
    return pts


def _array(v, shape, what):
    """``v`` as a finite float array of the given shape."""
    a = _float_array(v, what)
    if a.shape != shape:
        raise ProblemFormatError(f"{what}: expected shape {shape}, got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ProblemFormatError(f"{what}: entries must be finite")
    return a


def _out_error(path, e):
    return ProblemFormatError(f"--out {path!r}: {e.strerror or e}")


def _check_out(path):
    """Fail before any work when the ``--out`` path cannot be written:
    open it for appending, which truncates nothing, and remove it again if
    the check created it."""
    if path:
        existed = os.path.lexists(path)
        try:
            with open(path, "a", encoding="utf-8"):
                pass
        except OSError as e:
            raise _out_error(path, e) from e
        if not existed:
            os.remove(path)


def _write_json(doc, path):
    """Write an ``--out`` document; nothing when no path was given."""
    if path:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(_jsonable(doc), indent=2) + "\n")
        except OSError as e:
            raise _out_error(path, e) from e


# ---------------------------------------------------------------------------
# argument handling

# RunConfig field -> (flag, type, help); a flag's dest is its field
_FLAGS = {f.name: (f"--{f.name.replace('_', '-')}",
                   int if f.type in (int, int | None) else float, None)
          for f in fields(RunConfig)} | {
    "h": ("--h", float, "grid resolution (<= 1/4)"),
    "iteration_cap": ("--cap", int, "iteration cap (default 2n+2)"),
    "box_r": ("--box", float, "decision box bound R")}

# what a driver run reads: every field but the sample seed and count
_DRIVER_FIELDS = [name for name in _FLAGS if name not in ("seed", "samples")]


def _add_common(parser, names=_FLAGS):
    """The flags of the RunConfig fields ``names``, those that the
    subcommand reads, and --out."""
    for name in names:
        flag, kind, help_ = _FLAGS[name]
        parser.add_argument(flag, dest=name, type=kind, default=None,
                            help=help_, metavar=flag[2:].replace("-", "_").upper())
    parser.add_argument("--out", type=str, default=None,
                        help="write the JSON report here")


def _config_from_args(args):
    return load_env_config({k: v for k, v in vars(args).items()
                            if k in _FLAGS and v is not None})


def _read(path, what):
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as e:
        raise ProblemFormatError(f"{what} {path!r}: {e.strerror or e}") from e


def _load_problem(args):
    prog = parse_problem(_read(args.problem, "problem file"))
    if getattr(args, "shift", None):
        try:  # bad numbers, a wrong count and a shift off the finite range
            y = np.array([float(s) for s in args.shift.split(",")])
            prog = shift_to_feasible(prog, y)
        except ValueError as e:
            raise ProblemFormatError(f"--shift {args.shift!r}: {e}") from e
    return prog


def _load_points(path, p):
    """The points of a point file ``{"p": int, "W": [...]}``: ``p`` must be
    the problem's and ``W`` a nonempty list of simplex points."""
    what = f"point file {path!r}"
    doc = _load_json(_read(path, "point file"), what)
    if not isinstance(doc, dict) or not {"p", "W"} <= doc.keys():
        raise ProblemFormatError(f"{what}: expected keys p, W")
    if _require_int(doc, "p", what) != p:
        raise ProblemFormatError(f"{what}: p={doc['p']}, the problem has p={p}")
    return _points(doc["W"], p, f"{what}: field 'W'")


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

def _cmd_regularize(args, cfg):
    prog = _load_problem(args)
    result = regularize(prog, cfg)
    _write_json(build_report(result, prog, cfg), args.out)
    print(f"status: {result.status}")
    if result.status == "regular":
        print(f"witness: {result.witness.tolist()}")
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


def _cmd_check_copositive(args, cfg):
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


def _cmd_one_step(args, cfg):
    prog = _load_problem(args)
    W = _load_points(args.W, prog.p)
    reg = one_step_regularize(prog, W, cfg, strict=not args.loose)
    print(f"witness: {reg.witness.tolist()} (margin {reg.margin:.6g})")
    print(f"rows: {len(reg.eq_rows)} equalities, {len(reg.ineq_rows)} inequalities"
          + ("" if reg.omega.empty else f"; sigma {reg.omega.sigma:.6g}"))
    _write_json(_regularized_doc(reg), args.out)
    return 0


def _cmd_minimal_face(args, cfg):
    prog = _load_problem(args)
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
    check = face_forms_agree(face, cfg, n_samples=cfg.samples, seed=cfg.seed)
    M = {str(j): sorted(k + 1 for k in r.L) for j, r in enumerate(face, 1)}
    for j, r in enumerate(face, 1):
        print(f"t({j}) = {r.tau.coords.tolist()}  M = {M[str(j)]}")
    print(f"form agreement: {check['checked']} samples, "
          f"{check['members']} members, {check['disagreements']} disagreements")
    _write_json({"vertices": [r.tau.coords.tolist() for r in face], "M": M,
                 "cross_check": check}, args.out)
    return 0 if check["disagreements"] == 0 else 1


def _cmd_verify_ledger(args, cfg):
    prog = _load_problem(args)
    if args.report:
        what = f"report file {args.report!r}"
        report = _load_json(_read(args.report, "report file"), what)
        entries = ledger_from_report(report, prog, cfg, what)
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


def _cmd_equiv_check(args, cfg):
    prog = _load_problem(args)
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
    _add_common(p, _DRIVER_FIELDS)
    p.set_defaults(func=_cmd_regularize)

    # no prefix matching, so that "--h" is not read as "--help"
    p = sub.add_parser("check-copositive", help="test a matrix for copositivity",
                       allow_abbrev=False)
    p.add_argument("--matrix", required=True)
    _add_common(p, ("tol_cop", "p_max"))
    p.set_defaults(func=_cmd_check_copositive)

    p = sub.add_parser("one-step", help="one-step regularization from a "
                                        "supplied vertex set")
    p.add_argument("--problem", required=True)
    p.add_argument("--W", required=True, help="JSON file {p, W: [[...]]}")
    p.add_argument("--loose", action="store_true",
                   help="emit all rows as inequalities")
    p.add_argument("--shift", default=None)
    _add_common(p, [name for name in _DRIVER_FIELDS if name != "iteration_cap"])
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
        cfg = _config_from_args(args)
        _check_out(args.out)
        return args.func(args, cfg)
    except (ValueError, RuntimeError) as e:  # ProblemFormatError is a ValueError
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

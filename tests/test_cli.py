import argparse
import importlib
import json
import os
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coporeg import (CopositiveProgram, ProblemFormatError, generate_instance,
                     parse_problem, regularize, serialize_matrix,
                     serialize_problem)
from coporeg.cli import build_parser, build_report, ledger_from_report, main
from coporeg.config import DEFAULT, RunConfig
from coporeg.model import _load_json
from coporeg.regularize import verify_ledger

from conftest import fixture_path, json_values, simplex


@pytest.fixture()
def workdir(tmp_path, e2, e3, e4, horn):
    paths = {}
    for name, prog in (("e1", parse_problem(open(fixture_path("e1.json"), "rb").read())),
                       ("e2", e2), ("e3", e3), ("e4", e4)):
        p = tmp_path / f"{name}.json"
        p.write_bytes(serialize_problem(prog))
        paths[name] = str(p)
    hp = tmp_path / "horn.json"
    hp.write_bytes(serialize_matrix(horn))
    paths["horn"] = str(hp)
    w = tmp_path / "w_e3.json"
    w.write_text(json.dumps({"p": 2, "W": [[0.5, 0.5]]}))
    paths["w_e3"] = str(w)
    paths["dir"] = str(tmp_path)
    return paths


def test_regularize_writes_report(workdir, capsys, e2):
    out = os.path.join(workdir["dir"], "rep.json")
    rc = main(["regularize", "--problem", workdir["e2"], "--out", out])
    assert rc == 0
    assert "m_star: 1" in capsys.readouterr().out
    report = json.load(open(out))
    assert len(ledger_from_report(report, e2, DEFAULT)) == 1
    assert report["regularized"]["margin"] > 0
    assert report["status"] == "regularized"
    assert report["m_star"] == 1
    it = report["iterations"][0]
    assert np.allclose(it["tau"], [[1.0, 0.0]])
    assert it["L"] == [[1]]
    assert it["gamma"] == [pytest.approx(1.0)]
    assert np.allclose(it["Y"], [[1.0, 0.0], [0.0, 0.0]])
    assert report["regularized"]["ineq_rows"] == [[1, 2]]
    assert report["tolerances"]["tol_cert"] == DEFAULT.tol_cert


def test_two_vertex_fixture_is_the_planting_of_seed_50():
    # the CI job regularizes this file from a bare install
    with open(fixture_path("two_vertex50.json"), "rb") as fh:
        data = fh.read()
    prog = generate_instance(seed=50, p=3, n=2,
                             planted=[simplex(1, 0, 0), simplex(0, 1, 0)])
    assert data == serialize_problem(prog)


def test_regularize_regular_status(workdir, capsys):
    rc = main(["regularize", "--problem", workdir["e1"]])
    assert rc == 0
    assert "status: regular" in capsys.readouterr().out


def test_check_copositive_horn(workdir, capsys):
    rc = main(["check-copositive", "--matrix", workdir["horn"]])
    assert rc == 0
    assert "copositive, margin 0.0" in capsys.readouterr().out


def test_check_copositive_witness(workdir, tmp_path, capsys):
    D = np.array([[0.0, -1.0], [-1.0, 0.0]])
    bad = tmp_path / "bad.json"
    bad.write_bytes(serialize_matrix(D))
    out = tmp_path / "cop.json"
    rc = main(["check-copositive", "--matrix", str(bad), "--out", str(out)])
    assert rc == 0
    assert "not copositive" in capsys.readouterr().out
    doc = json.load(open(out))
    assert doc["copositive"] is False
    w = np.array(doc["witness"])
    assert doc["margin"] < 0 and float(w @ D @ w) < 0


def test_check_copositive_refuses_a_matrix_that_overflows(tmp_path, capsys):
    # each entry is finite, but 2 D in the stationarity systems is not, or
    # D - D' is not: one error line, exit 1, and no warning from the
    # symmetry test or from symmetrizing the matrix
    for doc, start in (
            ('{"p": 2, "D": [[1e308, 1e308], [1e308, 1e308]]}',
             "error: matrix entries must be finite"),
            ('{"p": 2, "D": [[0, 1e308], [-1e308, 0]]}',
             "error: matrix file: D: matrix not symmetric (max asymmetry inf")):
        big = tmp_path / "big.json"
        big.write_text(doc)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["check-copositive", "--matrix", str(big)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(start) and err.count("\n") == 1


def test_regularize_takes_entries_near_the_float_maximum(tmp_path, capsys):
    # a finite A_1 whose doubled off-diagonal entries would overflow: the
    # kernel dimension is read without a warning
    big = tmp_path / "big.json"
    big.write_text('{"n": 1, "p": 2, "c": [1], '
                   '"A": [[[0, 0], [0, 1]], [[0, 1e308], [1e308, 0]]]}')
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["regularize", "--problem", str(big),
                     "--out", str(tmp_path / "rep.json")]) == 0
    assert "status: regularized" in capsys.readouterr().out


@pytest.mark.parametrize("flag, value", [("--h", "0.1"), ("--samples", "5"),
                                         ("--tol-feas", "1e-9")])
def test_check_copositive_takes_only_the_flags_it_reads(workdir, capsys,
                                                        flag, value):
    assert main(["check-copositive", "--matrix", workdir["horn"], flag,
                 value]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


_TOL_FIELDS = [f.name for f in fields(RunConfig) if f.name.startswith("tol_")]
_FIELDS = {*_TOL_FIELDS, "p_max", "h", "box_r", "iteration_cap", "seed", "samples"}


def test_each_subcommand_takes_the_config_flags_it_reads():
    assert {f.name for f in fields(RunConfig)} == _FIELDS
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    flags = {cmd: {a.dest: (a.option_strings, a.type, a.help)
                   for a in p._actions if a.dest in _FIELDS}
             for cmd, p in sub.choices.items()}
    assert {cmd: set(f) for cmd, f in flags.items()} == {
        "regularize": _FIELDS - {"seed", "samples"},
        "check-copositive": {"tol_cop", "p_max"},
        "one-step": _FIELDS - {"iteration_cap", "seed", "samples"},
        "minimal-face": _FIELDS, "verify-ledger": _FIELDS, "equiv-check": _FIELDS}
    every = {**{t: ([f"--{t.replace('_', '-')}"], float, None) for t in _TOL_FIELDS},
             "h": (["--h"], float, "grid resolution (<= 1/4)"),
             "iteration_cap": (["--cap"], int, "iteration cap (default 2n+2)"),
             "box_r": (["--box"], float, "decision box bound R"),
             "p_max": (["--p-max"], int, None), "seed": (["--seed"], int, None),
             "samples": (["--samples"], int, None)}
    for f in flags.values():
        assert f == {name: every[name] for name in f}


@pytest.mark.parametrize("cmd, flag", [
    ("regularize", "--seed"), ("regularize", "--samples"), ("one-step", "--cap"),
    ("one-step", "--seed"), ("one-step", "--samples")])
def test_driver_subcommands_take_only_the_flags_they_read(workdir, capsys,
                                                          cmd, flag):
    w = ["--W", workdir["w_e3"]] if cmd == "one-step" else []
    assert main([cmd, "--problem", workdir["e3"], *w, flag, "5"]) == 2
    assert f"unrecognized arguments: {flag} 5" in capsys.readouterr().err


def test_check_copositive_reads_its_flags_and_the_env_config(
        workdir, tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"p_max": 4}))
    monkeypatch.setenv("COPOREG_CONFIG", str(cfg))
    # the Horn matrix has p = 5 > p_max = 4 from the environment
    assert main(["check-copositive", "--matrix", workdir["horn"]]) == 1
    assert "p_max" in capsys.readouterr().err
    assert main(["check-copositive", "--matrix", workdir["horn"],
                 "--p-max", "5", "--tol-cop", "1e-9"]) == 0
    assert "copositive, margin 0.0" in capsys.readouterr().out


def test_zero_samples_rejected(workdir, capsys):
    assert main(["equiv-check", "--problem", workdir["e2"], "--samples", "0"]) == 1
    assert "samples" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value, needle", [
    ("--box", "nan", "box_r must be finite, got nan"),
    ("--box", "inf", "box_r must be finite, got inf"),
    ("--box", "1e400", "box_r must be finite, got inf"),
    ("--tol-feas", "inf", "tol_feas must be finite, got inf"),
], ids=["box-nan", "box-inf", "box-overflow", "tol-feas-inf"])
def test_non_finite_flag_names_the_field(workdir, capsys, flag, value, needle):
    assert main(["regularize", "--problem", workdir["e2"], flag, value]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and needle in err


def test_fractional_integer_field_rejected():
    with pytest.raises(ValueError, match="samples"):
        RunConfig(samples=2.5)


@pytest.mark.parametrize("field, value, message", [
    ("iteration_cap", 0, "iteration_cap must be >= 1, got 0"),
    ("p_max", 1, "p_max must be >= 2, got 1"),
    ("samples", 0, "samples must be >= 1, got 0"),
    ("seed", -1, "seed must be >= 0, got -1"),
    ("box_r", 0.0, "box_r must be positive, got 0.0"),
    ("h", 0.5, "h must lie in (0, 1/4], got 0.5"),
], ids=["iteration-cap", "p-max", "samples", "seed", "box", "h"])
def test_each_bound_names_only_its_field(field, value, message):
    with pytest.raises(ValueError) as info:
        RunConfig(**{field: value})
    assert str(info.value) == message


@pytest.mark.parametrize("flag, value, message", [
    ("--seed", "-1", "seed must be >= 0, got -1"),
    ("--p-max", "1", "p_max must be >= 2, got 1"),
], ids=["seed", "p-max"])
def test_out_of_range_flag_fails_before_the_driver(workdir, capsys, monkeypatch,
                                                   flag, value, message):
    def no_run(*_a):
        raise AssertionError("the driver ran")

    monkeypatch.setattr(importlib.import_module("coporeg.cli"), "regularize",
                        no_run)
    assert main(["equiv-check", "--problem", workdir["e2"], flag, value]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_missing_file_is_domain_error(workdir, capsys):
    rc = main(["regularize", "--problem", os.path.join(workdir["dir"], "nope.json")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_unknown_flag_is_usage_error(workdir, capsys):
    rc = main(["regularize", "--problem", workdir["e2"], "--frobnicate"])
    assert rc == 2
    capsys.readouterr()


def test_missing_subcommand_is_usage_error(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_one_step_cli(workdir, capsys):
    out = os.path.join(workdir["dir"], "onestep.json")
    rc = main(["one-step", "--problem", workdir["e3"], "--W", workdir["w_e3"],
               "--out", out])
    assert rc == 0
    doc = json.load(open(out))
    assert doc["eq_rows"] == [[1, 1], [1, 2]]
    assert doc["margin"] >= 1e-6


def test_minimal_face_cli(workdir, capsys):
    rc = main(["minimal-face", "--problem", workdir["e3"], "--samples", "100"])
    assert rc == 0
    assert "M = [1, 2]" in capsys.readouterr().out


@pytest.mark.parametrize("cmd", ["minimal-face", "one-step"])
def test_point_that_is_not_immobile_exits_1(workdir, tmp_path, capsys, cmd):
    # t'A(x)t = 1 at (0, 1) for every x of e2
    w = tmp_path / "w01.json"
    w.write_text(json.dumps({"p": 2, "W": [[0, 1]]}))
    assert main([cmd, "--problem", workdir["e2"], "--W", str(w)]) == 1
    assert capsys.readouterr().err == (
        "error: supplied point [0.0, 1.0] is not immobile: quadratic value "
        "1.000e+00 at a feasible x\n")


def test_minimal_face_form_disagreement_exits_1(workdir, tmp_path, capsys,
                                                monkeypatch):
    # no forced-zero rows: the sign rows cut copositive samples that the
    # equality form keeps
    monkeypatch.setattr(importlib.import_module("coporeg.regularize"),
                        "forced_zero_rows", lambda *_a: ())
    out = tmp_path / "face.json"
    assert main(["minimal-face", "--problem", workdir["e2"], "--samples", "100",
                 "--out", str(out)]) == 1
    check = json.load(open(out))["cross_check"]
    assert check["checked"] == 100 and check["disagreements"] > 0
    assert (f"{check['members']} members, {check['disagreements']} "
            "disagreements") in capsys.readouterr().out


def test_equiv_check_cli(workdir, capsys):
    rc = main(["equiv-check", "--problem", workdir["e2"], "--samples", "150"])
    assert rc == 0
    assert "0 disagreements" in capsys.readouterr().out


def test_verify_ledger_cli_from_report(workdir, capsys):
    out = os.path.join(workdir["dir"], "rep4.json")
    assert main(["regularize", "--problem", workdir["e4"], "--out", out]) == 0
    rc = main(["verify-ledger", "--problem", workdir["e4"], "--report", out,
               "--samples", "100"])
    assert rc == 0
    assert "ledger ok" in capsys.readouterr().out


# deeper than numpy's 64 dimensions, and than the JSON decoder takes
_DEEP = json.loads("[" * 100 + "0.5" + "]" * 100)
_TOO_DEEP = "[" * 100_000 + "]" * 100_000


_ITERATION = {"m": 1, "tau": [[1.0, 0.0]], "gamma": [1.0], "L": [[1]],
              "records": [[1.0, 0.0]], "Y": [[1.0, 0.0], [0.0, 0.0]],
              "cond_11star": True}


_ITERATION_P3 = {"m": 1, "tau": [[1.0, 0.0, 0.0]], "gamma": [1.0],
                 "lambda": {}, "L": [[1]], "records": [[1.0, 0.0, 0.0]],
                 "Y": np.diag([1.0, 0.0, 0.0]).tolist(), "cond_11star": True}


_TOLS = {"tol_support": 1e-7}


@pytest.mark.parametrize("doc, needle", [
    ({"status": "bogus", "tolerances": _TOLS}, "status"),
    ([1, 2], "object"),
    ({"status": "regularized", "tolerances": _TOLS, "iterations": [{"m": 1}]},
     "required"),
    ({"status": "regularized", "tolerances": _TOLS,
      "iterations": [dict(_ITERATION, **{"lambda": {"5": [0.0, 0.0]}})]},
     "lambda key"),
    ({"status": "regularized", "tolerances": _TOLS,
      "iterations": [dict(_ITERATION, **{"lambda": {}, "L": [[7]]})]},
     "outside 1..2"),
    ("not json", "bad_report.json"),
    ({"status": "regularized", "tolerances": _TOLS, "n": 1, "p": 3,
      "iterations": [_ITERATION_P3]}, "p=3, the problem has p=2"),
    ('{"status": "failed", "iterations": ' + _TOO_DEEP + "}", "nested too deeply"),
    ({"status": "failed", "tolerances": {}}, "'tolerances.tol_support'"),
    ({"status": "failed", "tolerances": {"tol_support": -1e-7}},
     "'tolerances.tol_support' must be positive, got -1e-07"),
    ('{"status": "failed", "tolerances": {"tol_support": NaN}}',
     "'tolerances.tol_support'"),
    ({"status": "failed", "tolerances": {"tol_support": True}},
     "'tolerances.tol_support'"),
], ids=["bad-status", "array", "incomplete-iteration", "lambda-key-range",
        "row-index-range", "not-json", "p-mismatch", "too-deep",
        "no-tol-support", "negative-tol-support", "nan-tol-support",
        "bool-tol-support"])
def test_bad_report_is_domain_error(workdir, capsys, doc, needle):
    path = os.path.join(workdir["dir"], "bad_report.json")
    with open(path, "w") as fh:
        fh.write(doc if isinstance(doc, str) else json.dumps(doc))
    rc = main(["verify-ledger", "--problem", workdir["e2"], "--report", path])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:") and "Traceback" not in err
    assert "bad_report.json" in err and needle in err


@pytest.mark.parametrize("doc, needle", [
    ({"p": 2, "W": []}, "nonempty"),
    ("{p: 2", "Expecting property name"),
    ({"p": 3, "W": [[0.5, 0.5]]}, "p=3, the problem has p=2"),
    ({"W": [[0.5, 0.5]]}, "expected keys p, W"),
    ({"p": 2, "W": [[0.7, 0.7]]}, "sum to"),
    ({"p": 2, "W": ["ab"]}, "could not convert"),
    ({"p": 2, "W": [[0.5, 0.25, 0.25]]}, "dimension 3"),
    ({"p": 2, "W": [_DEEP]}, "field 'W': point 1: simplex point: expected"),
    ('{"p": 2, "W": ' + _TOO_DEEP + "}", "nested too deeply"),
], ids=["empty-W", "not-json", "p-mismatch", "no-p", "off-simplex", "not-numbers",
        "point-dimension", "deep-point", "too-deep"])
def test_bad_point_file_is_domain_error(workdir, capsys, doc, needle):
    path = os.path.join(workdir["dir"], "bad_points.json")
    with open(path, "w") as fh:
        fh.write(doc if isinstance(doc, str) else json.dumps(doc))
    rc = main(["minimal-face", "--problem", workdir["e3"], "--W", path,
               "--samples", "10"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:") and "Traceback" not in err
    assert "bad_points.json" in err and needle in err


@pytest.mark.parametrize("cmd, data, needle", [
    ("regularize", {"n": True, "p": 2, "c": [1.0],
                    "A": [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]},
     "problem file: field 'n' must be an integer"),
    ("check-copositive", {"p": True, "D": [[1.0]]},
     "matrix file: field 'p' must be an integer"),
    ("check-copositive", {"p": 1.0, "D": [[1.0]]},
     "matrix file: field 'p' must be an integer"),
    ("check-copositive", {"p": 2, "D": [[1, "a"], ["a", 1]]},
     "matrix file: D: expected a rectangular array of numbers"),
    ("check-copositive", {"p": 2, "D": [[1, 2], [2]]},
     "matrix file: D: expected a rectangular array of numbers"),
    ("check-copositive", b"\xff\xfe{}", "matrix file: not UTF-8"),
    ("check-copositive", {"p": 2, "D": [["1", True], [True, "2"]]},
     'matrix file: D: expected a rectangular array of numbers (got "1")'),
], ids=["bool-n", "bool-p", "float-p", "not-numbers", "ragged", "not-utf8",
        "string-and-bool"])
def test_bad_input_file_is_domain_error(workdir, capsys, cmd, data, needle):
    path = os.path.join(workdir["dir"], "bad_input.json")
    with open(path, "wb") as fh:
        fh.write(data if isinstance(data, bytes) else json.dumps(data).encode())
    flag = "--problem" if cmd == "regularize" else "--matrix"
    rc = main([cmd, flag, path])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:") and "Traceback" not in err
    assert needle in err


def test_report_round_trip_reconstruction(workdir, e4):
    out = os.path.join(workdir["dir"], "rt.json")
    assert main(["regularize", "--problem", workdir["e4"], "--out", out]) == 0
    report = json.load(open(out))
    entries = ledger_from_report(report, e4, DEFAULT)
    assert len(entries) == len(report["iterations"]) == 2
    rep = verify_ledger(entries, e4, n_samples=100, seed=0)
    assert rep["ok"]
    assert report["regularized"]["omega"]["empty"] is True
    assert report["regularized"]["margin"] > 0


def test_env_config_merges_under_flags(workdir, tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"samples": 17, "seed": 9}))
    monkeypatch.setenv("COPOREG_CONFIG", str(cfg))
    rc = main(["equiv-check", "--problem", workdir["e3"], "--samples", "60"])
    assert rc == 0
    assert "60 samples" in capsys.readouterr().out


@pytest.mark.parametrize("content", [None, '{"h": "0.1"}', "null",
                                     '{"seed": 1.5}', '{"p_max": 2.5}',
                                     '{"iteration_cap": 0}', '{"seed": -1}',
                                     '{"box_r": NaN}'],
                         ids=["missing", "string-value", "null",
                              "float-seed", "float-p-max", "zero-iteration-cap",
                              "negative-seed", "nan-box"])
def test_bad_env_config_is_domain_error(workdir, tmp_path, monkeypatch, capsys,
                                        content):
    cfg = tmp_path / "cfg.json"
    if content is not None:
        cfg.write_text(content)
    monkeypatch.setenv("COPOREG_CONFIG", str(cfg))
    rc = main(["equiv-check", "--problem", workdir["e2"], "--samples", "10"])
    err = capsys.readouterr().err
    assert rc == 1
    assert "error:" in err and "Traceback" not in err


@pytest.mark.parametrize("key", ["cut_rounds", "refine_rounds",
                                 "max_grid_points"])
def test_env_config_naming_a_loop_cap_is_an_unknown_key(
        workdir, tmp_path, monkeypatch, capsys, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: 1}))
    monkeypatch.setenv("COPOREG_CONFIG", str(cfg))
    assert main(["regularize", "--problem", workdir["e2"]]) == 1
    assert capsys.readouterr().err == (
        f"error: unknown config keys in {cfg}: ['{key}']\n")


@pytest.mark.parametrize("content, message", [
    (None, "{path!r}: [Errno 2] No such file or directory: {path!r}"),
    ("[1]", "{path!r} must hold a JSON object"),
    ("{", "{path!r}: invalid JSON at line 1, column 2"),
    (b"\xff{}", "{path!r}: not UTF-8 text"),
    ("[" * 100_000 + "]" * 100_000, "{path!r}: JSON nested too deeply"),
], ids=["missing", "not-an-object", "invalid", "not-utf8", "too-deep"])
def test_env_config_defect_names_the_file(workdir, tmp_path, monkeypatch,
                                          capsys, content, message):
    cfg = tmp_path / "cfg.json"
    if isinstance(content, str):
        cfg.write_text(content)
    elif content is not None:
        cfg.write_bytes(content)
    monkeypatch.setenv("COPOREG_CONFIG", str(cfg))
    assert main(["regularize", "--problem", workdir["e2"]]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config file " + message.format(path=str(cfg)))


@pytest.mark.parametrize("cmd, flag, key", [
    ("regularize", "--problem", "e2"), ("check-copositive", "--matrix", "horn")])
def test_unwritable_out_names_the_path(workdir, capsys, cmd, flag, key):
    out = os.path.join(workdir["dir"], "missing-dir", "r.json")
    assert main([cmd, flag, workdir[key], "--out", out]) == 1
    cap = capsys.readouterr()
    assert cap.err == f"error: --out {out!r}: No such file or directory\n"
    assert cap.out == ""    # no verdict before the error


@pytest.mark.parametrize("cmd", ["regularize", "minimal-face", "verify-ledger",
                                 "equiv-check"])
def test_unwritable_out_fails_before_the_driver(workdir, capsys, monkeypatch,
                                                cmd):
    cli = importlib.import_module("coporeg.cli")
    calls = []
    driver = cli.regularize

    def counted(*args, **kwargs):
        calls.append(args)
        return driver(*args, **kwargs)

    monkeypatch.setattr(cli, "regularize", counted)
    monkeypatch.chdir(workdir["dir"])
    out = os.path.join("missing-dir", "r.json")
    assert main([cmd, "--problem", workdir["e2"], "--out", out]) == 1
    assert calls == []
    assert capsys.readouterr().err == (
        f"error: --out {out!r}: No such file or directory\n")


def test_out_check_leaves_no_file_and_truncates_none(workdir, capsys):
    missing = os.path.join(workdir["dir"], "no-such-problem.json")
    new = os.path.join(workdir["dir"], "new.json")
    old = os.path.join(workdir["dir"], "old.json")
    with open(old, "w") as fh:
        fh.write("kept")
    for out in (new, old):
        # the --out check passes, then the problem file is missing
        assert main(["regularize", "--problem", missing, "--out", out]) == 1
        assert "problem file" in capsys.readouterr().err
    assert not os.path.exists(new)
    assert open(old).read() == "kept"


def test_build_report_failed_status(e2):
    from coporeg import RegularizationResult
    res = RegularizationResult("failed", diagnostics={"reason": "test"})
    report = build_report(res, e2, DEFAULT)
    assert ledger_from_report(report, e2, DEFAULT) == []
    assert report["regularized"] is None
    assert report["status"] == "failed"


# ---------------------------------------------------------------------------
# the report reader

@pytest.fixture(scope="module")
def e4_report(e4):
    return json.loads(json.dumps(build_report(regularize(e4), e4, DEFAULT)))


@pytest.mark.parametrize("name, read_tol_support", [
    ("e2", None), ("e4", None), ("edge70", None), ("edge70", 0.3)],
    ids=["e2", "e4", "edge70", "edge70-read-at-tol-support-0.3"])
def test_report_reads_back_the_driver_ledger(name, read_tol_support, request):
    # edge70 stops at the iteration cap with a lambda entry in its ledger.
    # Its report is written at the default tol_support; read under 0.3,
    # which would drop the 1/4 components of (1/2, 1/4, 1/4) from a
    # support, its records and L still derive at the report's own echo
    if name == "edge70":
        prog = generate_instance(seed=70, p=3, n=1,
                                 planted=[simplex(1, 0, 0), simplex(0, 0.5, 0.5)])
        cfg = DEFAULT.replace(iteration_cap=1)
    else:
        prog, cfg = request.getfixturevalue(name), DEFAULT
    res = regularize(prog, cfg)
    report = json.loads(json.dumps(build_report(res, prog, cfg)))
    if read_tol_support is not None:
        cfg = cfg.replace(tol_support=read_tol_support)
    entries = ledger_from_report(report, prog, cfg)
    assert len(entries) == len(res.ledger) >= 1
    for got, want in zip(entries, res.ledger):
        assert got.index == want.index
        assert [(r.tau, r.L) for r in got.records] == \
            [(r.tau, r.L) for r in want.records]
        assert got.certificate.new_indices == want.certificate.new_indices
        assert sorted(got.certificate.lam) == sorted(want.certificate.lam)
        for i, lv in want.certificate.lam.items():
            assert np.array_equal(got.certificate.lam[i], lv)
        assert np.array_equal(got.reducer, want.reducer)
        assert got.cond_disjoint == want.cond_disjoint
    assert verify_ledger(entries, prog, cfg, n_samples=50, seed=0)["ok"]


_P2 = [0.5, 0.25, 0.25]


@pytest.mark.parametrize("edit, field", [
    ({"tau": [[0.0, 1.0], [0.5, 0.5]]}, "field 'gamma'"),
    ({"gamma": [1.0, 1.0]}, "field 'gamma'"),
    ({"L": [[1]]}, "field 'L'"),
    ({"records": [[1.0, 0.0], _P2]}, "field 'records'"),
    ({"tau": [_P2]}, "field 'tau'"),
    ({"lambda": {"1": [0.0, 1.0, 0.0]}}, "field 'lambda'"),
    ({"Y": np.eye(3).tolist()}, "field 'Y'"),
    ({"Y": _DEEP}, "field 'Y'"),
    ({"m": 3}, "field 'm'"),
    ({"cond_11star": 1}, "field 'cond_11star'"),
    ({"records": [[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]], "L": [[1], [2], [1, 2]]},
     "field 'records'"),
    ({"L": [[1, 2], [2]]}, "field 'L'"),
    ({"cond_11star": False}, "field 'cond_11star'"),
    # 3Y stays in the constraint kernel; only the certificate check sees it
    ({"Y": [[0.0, 0.0], [0.0, 3.0]]}, "field 'Y' is off its certificate by 2"),
    ({"L": [[1.0], [2.0]]}, "field 'L'"),
], ids=["tau-without-gamma", "gamma-without-tau", "records-without-L",
        "record-3-vector", "tau-3-vector", "lambda-3-vector", "Y-3x3", "deep-Y",
        "m-out-of-order", "cond-not-boolean", "extra-record", "L-grown",
        "cond-flipped", "Y-tripled", "float-L"])
def test_bad_iteration_names_the_file_iteration_and_field(workdir, capsys,
                                                         e4_report, edit, field):
    doc = json.loads(json.dumps(e4_report))
    doc["iterations"][1].update(edit)
    path = os.path.join(workdir["dir"], "bad_report.json")
    with open(path, "w") as fh:
        json.dump(doc, fh)
    rc = main(["verify-ledger", "--problem", workdir["e4"], "--report", path])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:") and "Traceback" not in err
    assert "bad_report.json" in err and "iteration 2" in err and field in err


def _read_back(data, prog):
    ledger_from_report(_load_json(data, "report"), prog, DEFAULT)


@settings(derandomize=True, deadline=None, database=None)
@given(st.one_of(json_values, st.binary(max_size=20),
                 st.fixed_dictionaries({"status": st.just("regularized"),
                                        "iterations": st.lists(json_values,
                                                               max_size=2),
                                        "regularized": json_values})))
def test_report_reader_raises_only_format_errors(e4, doc):
    try:
        _read_back(doc if isinstance(doc, bytes) else json.dumps(doc), e4)
    except ProblemFormatError:
        pass


def _paths(doc, prefix=()):
    """The path (keys and indices) of every value inside a JSON document."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for k, v in items:
        yield prefix + (k,)
        yield from _paths(v, prefix + (k,))


_DELETE = object()


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(st.data())
def test_report_mutations_raise_only_format_errors(e4, e4_report, data):
    doc = json.loads(json.dumps(e4_report))
    path = data.draw(st.sampled_from(sorted(
        _paths({k: v for k, v in doc.items() if k != "diagnostics"}), key=str)))
    value = data.draw(json_values | st.just(_DELETE))
    parent = doc
    for k in path[:-1]:
        parent = parent[k]
    if value is _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    try:
        _read_back(json.dumps(doc), e4)
    except ProblemFormatError:
        pass


@pytest.mark.parametrize("cmd", ["regularize", "minimal-face"])
def test_failed_run_exits_1_with_its_reason(tmp_path, capsys, cmd):
    # A(x) = diag(x - 1e6, 1): the cut at e1 needs mu > box_r for every
    # x in the box, so the master is infeasible
    prog = CopositiveProgram([1.0], [np.diag([-1e6, 1.0]), np.diag([1.0, 0.0])])
    path = tmp_path / "far.json"
    path.write_bytes(serialize_problem(prog))
    assert main([cmd, "--problem", str(path)]) == 1
    err = capsys.readouterr().err
    assert "master LP infeasible" in err and "box" in err
    assert "Traceback" not in err


def test_a_run_failed_by_an_error_keeps_its_certified_iterations(
        workdir, capsys, monkeypatch):
    # e4's first subproblem certifies (1, 0); the second raises
    from coporeg.sip import CertificateError
    driver = importlib.import_module("coporeg.regularize")
    solve, calls = driver.solve_sip, []

    def second_raises(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise CertificateError("certificate stationarity residual too large")
        return solve(*args, **kwargs)

    monkeypatch.setattr(driver, "solve_sip", second_raises)
    out = os.path.join(workdir["dir"], "failed.json")
    assert main(["regularize", "--problem", workdir["e4"], "--out", out]) == 1
    report = json.load(open(out))
    assert report["status"] == "failed" and len(report["iterations"]) == 1
    assert report["diagnostics"]["trace"][-1] == {
        "m": 1, "kind": "error", "exception": "CertificateError",
        "reason": "certificate stationarity residual too large"}
    assert main(["verify-ledger", "--problem", workdir["e4"], "--report", out,
                 "--samples", "50"]) == 0
    assert "ledger ok" in capsys.readouterr().out


def test_verify_ledger_without_report_runs_the_driver(workdir, capsys):
    assert main(["verify-ledger", "--problem", workdir["e4"], "--samples", "50"]) == 0
    assert "ledger ok" in capsys.readouterr().out


def test_equiv_check_on_a_strictly_feasible_program(workdir, capsys):
    assert main(["equiv-check", "--problem", workdir["e1"]]) == 0
    assert ("program is strictly feasible; equivalence is trivial"
            in capsys.readouterr().out)


def test_shift_moves_a0_to_the_given_point(workdir, capsys):
    assert main(["regularize", "--problem", workdir["e2"], "--shift", "1.0"]) == 0
    out = capsys.readouterr().out
    assert "status: regularized" in out and "m_star: 1" in out
    assert "witness: [0.5]" in out


@pytest.mark.parametrize("problem, shift, needle", [
    ("e2", "1,x", "could not convert string to float: 'x'"),
    ("e2", "1,2", "shift y has shape (2,), expected (1,)"),
    ("e2", "1e309", "A_0: entries must be finite"),
    # A(y) overflows: entry (3, 3) is 1 - 1.5e308 - 0.68 * 1.5e308
    ("two_vertex50", "1.5e308,1.5e308", "A_0: entries must be finite"),
], ids=["not-a-number", "wrong-count", "not-finite", "overflows"])
def test_bad_shift_names_the_flag(capsys, problem, shift, needle):
    # one error line, and no warning from evaluating A(y)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["regularize", "--problem", fixture_path(f"{problem}.json"),
                   "--shift", shift])
    err = capsys.readouterr().err
    assert rc == 1 and err.count("\n") == 1
    assert err.startswith(f"error: --shift '{shift}': ") and needle in err

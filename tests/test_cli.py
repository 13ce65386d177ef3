import json
import os

import jsonschema
import numpy as np
import pytest

from coporeg import parse_problem, serialize_matrix, serialize_problem
from coporeg.cli import (REPORT_SCHEMA, build_report, ledger_from_report,
                         main, regularized_from_report)
from coporeg.config import DEFAULT, RunConfig
from coporeg.regularize import verify_ledger

from conftest import fixture_path


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


def test_regularize_writes_report(workdir, capsys):
    out = os.path.join(workdir["dir"], "rep.json")
    rc = main(["regularize", "--problem", workdir["e2"], "--out", out])
    assert rc == 0
    assert "m_star: 1" in capsys.readouterr().out
    report = json.load(open(out))
    jsonschema.validate(report, REPORT_SCHEMA)
    assert report["status"] == "regularized"
    assert report["m_star"] == 1
    it = report["iterations"][0]
    assert np.allclose(it["tau"], [[1.0, 0.0]])
    assert it["L"] == [[1]]
    assert it["gamma"] == [pytest.approx(1.0)]
    assert np.allclose(it["Y"], [[1.0, 0.0], [0.0, 0.0]])
    assert report["regularized"]["ineq_rows"] == [[1, 2]]
    assert report["tolerances"]["tol_cert"] == DEFAULT.tol_cert


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


def test_zero_samples_rejected(workdir, capsys):
    assert main(["equiv-check", "--problem", workdir["e2"], "--samples", "0"]) == 1
    assert "samples" in capsys.readouterr().err


def test_fractional_integer_field_rejected():
    with pytest.raises(ValueError, match="samples"):
        RunConfig(samples=2.5)


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


_ITERATION = {"m": 1, "tau": [[1.0, 0.0]], "gamma": [1.0], "L": [[1]],
              "records": [[1.0, 0.0]], "Y": [[1.0, 0.0], [0.0, 0.0]],
              "cond_11star": True}


_ITERATION_P3 = {"m": 1, "tau": [[1.0, 0.0, 0.0]], "gamma": [1.0],
                 "lambda": {}, "L": [[1]], "records": [[1.0, 0.0, 0.0]],
                 "Y": np.diag([1.0, 0.0, 0.0]).tolist(), "cond_11star": True}


@pytest.mark.parametrize("doc, needle", [
    ({"status": "bogus", "tolerances": {}}, "status"),
    ([1, 2], "object"),
    ({"status": "regularized", "tolerances": {}, "iterations": [{"m": 1}]},
     "required"),
    ({"status": "regularized", "tolerances": {},
      "iterations": [dict(_ITERATION, **{"lambda": {"5": [0.0, 0.0]}})]},
     "lambda key"),
    ({"status": "regularized", "tolerances": {},
      "iterations": [dict(_ITERATION, **{"lambda": {}, "L": [[7]]})]},
     "outside 1..2"),
    ("not json", "bad_report.json"),
    ({"status": "regularized", "tolerances": {}, "n": 1, "p": 3,
      "iterations": [_ITERATION_P3]}, "p=3, the problem has p=2"),
], ids=["bad-status", "array", "incomplete-iteration", "lambda-key-range",
        "row-index-range", "not-json", "p-mismatch"])
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
], ids=["empty-W", "not-json", "p-mismatch", "no-p", "off-simplex", "not-numbers",
        "point-dimension"])
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


def test_verify_ledger_rejects_a_reducer_off_its_certificate(workdir, capsys):
    # 3Y stays in the constraint kernel; only the certificate check sees it
    out = os.path.join(workdir["dir"], "rep4_tripled.json")
    assert main(["regularize", "--problem", workdir["e4"], "--out", out]) == 0
    with open(out) as fh:
        report = json.load(fh)
    for it in report["iterations"]:
        it["Y"] = (3.0 * np.array(it["Y"])).tolist()
    with open(out, "w") as fh:
        json.dump(report, fh)
    capsys.readouterr()
    rc = main(["verify-ledger", "--problem", workdir["e4"], "--report", out,
               "--samples", "50"])
    assert rc == 1
    assert "ledger FAILED" in capsys.readouterr().out


def test_report_schema_is_a_valid_draft7_schema():
    jsonschema.Draft7Validator.check_schema(REPORT_SCHEMA)


def test_report_round_trip_reconstruction(workdir, e4):
    out = os.path.join(workdir["dir"], "rt.json")
    assert main(["regularize", "--problem", workdir["e4"], "--out", out]) == 0
    report = json.load(open(out))
    entries = ledger_from_report(report, e4)
    assert len(entries) == len(report["iterations"]) == 2
    rep = verify_ledger(entries, e4, n_samples=100, seed=0)
    assert rep["ok"]
    reg = regularized_from_report(report, e4, DEFAULT)
    assert reg.omega_empty
    assert reg.margin == report["regularized"]["margin"]


def test_env_config_merges_under_flags(workdir, tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"samples": 17, "seed": 9}))
    monkeypatch.setenv("COPOREG_CONFIG", str(cfg))
    rc = main(["equiv-check", "--problem", workdir["e3"], "--samples", "60"])
    assert rc == 0
    assert "60 samples" in capsys.readouterr().out


@pytest.mark.parametrize("content", [None, '{"h": "0.1"}', "null",
                                     '{"seed": 1.5}', '{"cut_rounds": 2.5}',
                                     '{"cut_rounds": 0}', '{"refine_rounds": -1}',
                                     '{"max_grid_points": 0}'],
                         ids=["missing", "string-value", "null",
                              "float-seed", "float-cut-rounds", "zero-cut-rounds",
                              "negative-refine-rounds", "zero-grid-points"])
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


def test_build_report_failed_status(e2):
    from coporeg import RegularizationResult
    res = RegularizationResult("failed", diagnostics={"reason": "test"})
    report = build_report(res, e2, DEFAULT)
    jsonschema.validate(report, REPORT_SCHEMA)
    assert report["status"] == "failed"

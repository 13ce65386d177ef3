"""perfbench traces coporeg from outside, by replacing functions where each
consuming module binds them.  These tests fail when a bound name disappears
or a layer stops being reached through its binding."""

import contextlib
import importlib.util
import io
import os

from coporeg import cli, oracle, serialize_problem, sip

REGULARIZE = importlib.import_module("coporeg.regularize")
SPANS_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                          "spans.py")


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def _bindings():
    owners = (oracle, sip, REGULARIZE, cli, oracle.ReducedRegion)
    return {(owner, name): value for owner in owners
            for name, value in vars(owner).items()}


def test_instrumented_regularize_reaches_every_layer(tmp_path, e2):
    spans = _load_spans()
    problem = tmp_path / "e2.json"
    problem.write_bytes(serialize_problem(e2))
    before = _bindings()
    tracer = spans.Tracer()
    try:
        uninstall = spans.instrument(tracer)
        assert cli.main is not before[(cli, "main")]
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["regularize", "--problem", str(problem)]) == 0
        uninstall()
        after = _bindings()
        assert after.keys() == before.keys()
        assert all(after[k] is v for k, v in before.items())
    finally:
        for (owner, name), value in before.items():
            if vars(owner).get(name) is not value:
                setattr(owner, name, value)
    for key in ("cli.calls", "oracle.exact.calls", "sip.calls",
                "lp.master.calls", "oracle.grid.calls"):
        assert tracer.counts[key] > 0, key

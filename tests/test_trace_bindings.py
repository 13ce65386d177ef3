"""perfbench traces coporeg from outside, by replacing functions where each
consuming module binds them.  These tests fail when a bound name disappears
or a layer stops being reached through its binding."""

import contextlib
import importlib.util
import io
import math
import os

from coporeg import DEFAULT, SimplexPoint, cli, oracle, serialize_problem, sip

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


def test_instrumented_hull_layer_counts_mask_and_contains_lps():
    # the hull LP is traced through oracle's binding of solve_lp, and each
    # l1_dist_to_hull call is told apart by the span that made it
    spans = _load_spans()
    region = oracle.ReducedRegion([SimplexPoint([1.0, 0.0, 0.0]),
                                   SimplexPoint([0.0, 1.0, 0.0])])
    points = oracle.simplex_grid(3, 16)
    before = _bindings()
    tracer = spans.Tracer()
    try:
        uninstall = spans.instrument(tracer)
        region.grid_mask(points, 3 / 32)
        region.contains(SimplexPoint([0.25, 0.25, 0.5]))
        uninstall()
    finally:
        for (owner, name), value in before.items():
            if vars(owner).get(name) is not value:
                setattr(owner, name, value)
    for key in ("lp.hull.calls", "oracle.hull.in_mask", "oracle.hull.in_contains"):
        assert tracer.counts[key] > 0, key
    assert tracer.counts["lp.hull.calls"] == tracer.counts["oracle.hull.calls"]


def test_each_grid_call_is_traced_as_one_matrix(e2, reg_e2):
    # the grid hook counts C(N+p-1, p-1) points with p = len(D): a call
    # that took a stack of S matrices would count with p = S instead.
    # Sampled on e2's problem with its records dropped: with them, every
    # sample that equivalence sampling reads is settled by its direct
    # margin, and no grid call is made
    spans = _load_spans()
    reg = reg_e2.regularized
    dropped = REGULARIZE.RegularizedProblem(e2, (), reg.omega, reg.witness,
                                            reg.margin)
    before = _bindings()
    tracer = spans.Tracer()
    try:
        uninstall = spans.instrument(tracer)
        REGULARIZE.feasibility_equiv_sample(e2, dropped, 300, seed=4)
        uninstall()
    finally:
        for (owner, name), value in before.items():
            if vars(owner).get(name) is not value:
                setattr(owner, name, value)
    calls = tracer.counts["oracle.grid.calls"]
    N = math.ceil(1.0 / DEFAULT.grid_h(e2.p))
    assert tracer.counts["regularize.equiv.calls"] == 1
    assert 0 < calls < 300
    assert tracer.counts["oracle.grid.points"] == calls * math.comb(N + e2.p - 1,
                                                                    e2.p - 1)

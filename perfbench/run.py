"""coporeg benchmark: one workload in this process, timed with tracing
off, or (``--trace 1``) timed again with every layer traced.

    python3 perfbench/run.py --workload driver --seed 0 --seconds 12 --trace 0

Run it from the repository root; it imports coporeg from ``src``.  The
last line of standard output is the result: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics of BENCHMARK.json, or
with ``--trace 1`` the per-layer ones).  The line before it is a summary
with the quartiles, the sample counts, the set-up split, the machine
facts and, when tracing, each layer's share of the self time.  Both are
also written under ``perfbench/out/``, the spans of a traced run too.
See perfbench/README.md for what each workload and metric is for.
"""

import time

T0 = time.perf_counter()  # set-up is timed from here

import os  # noqa: E402

# before numpy is imported: numpy's bundled OpenBLAS is built for up to 64
# threads and would otherwise spread the small matrix products over every core
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

SETUP_REPEATS = 3  # input preparation is repeated, each time with a cold grid cache
MIN_PASSES = 2     # multi_vertex's one operation outlasts --seconds on its own

# per-layer counters a workload must drive above zero; a renamed function
# would otherwise read as zero work instead of failing
_REGULARIZE_PATH = [
    "cli.calls", "regularize.iterations", "sip.calls", "sip.rounds",
    "sip.cuts", "lp.master.calls", "lp.master.rows_mean", "oracle.grid.calls",
    "oracle.grid.points", "oracle.mask.calls", "oracle.mask.points",
    "oracle.simplex_grid.calls", "oracle.exact.calls", "oracle.exact.supports",
]
EXPECT_NONZERO = {
    "driver": _REGULARIZE_PATH + ["sip.refinements"],
    "multi_vertex": _REGULARIZE_PATH + [
        "lp.hull.calls", "oracle.hull.calls", "oracle.hull.in_mask",
        "oracle.mask.fallback_ratio"],
    "certify": [
        "regularize.equiv.samples", "regularize.verify.members",
        "oracle.exact.calls", "oracle.exact.supports", "oracle.grid.calls",
        "oracle.grid.points", "lp.hull.calls", "oracle.hull.calls",
        "oracle.hull.in_contains"],
}
# per-layer counters predicted to stay at zero; reported, not enforced,
# because the prediction is a claim about the program, not a rename guard
PREDICT_ZERO = {"driver": ["lp.hull.calls"]}
# the layer each workload is built to stress (largest share of self time)
LEADER = {"driver": ("oracle.mask", "oracle.grid", "oracle.simplex_grid"),
          "multi_vertex": ("lp.hull",), "certify": ("oracle.exact",)}


def run_pass(ops, tracer=None, first_id=0):
    """Run every operation once; returns (seconds, failures)."""
    failures = []
    t = time.perf_counter()
    for k, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = first_id + k
            span = tracer.open("op")
        try:
            bad = op()
        except Exception as e:  # an operation that raises counts as failed
            traceback.print_exc()
            bad = [f"{type(e).__name__}: {e}"]
        finally:
            if tracer is not None:
                tracer.close(span)
        if bad:
            failures.append(f"{op.label}: {'; '.join(bad)}")
    return time.perf_counter() - t, failures


def layer_metrics(name, counts, self_s):
    """One per-layer metric of one traced pass."""
    if name.endswith(".self_s"):
        return max(self_s.get(name[:-len(".self_s")], 0.0), 0.0)
    if name == "lp.master.rows_mean":
        return counts["lp.master.rows"] / max(counts["lp.master.calls"], 1)
    if name == "oracle.mask.fallback_ratio":
        return counts["oracle.hull.in_mask"] / max(counts["oracle.mask.points"], 1)
    return counts.get(name, 0)


def self_time_shares(workload, tracer, per_pass):
    """Each span name's share of the traced self time (median over passes),
    and whether the layer the workload is built to stress has the largest."""
    self_s = {n: statistics.median(s.get(n, 0.0) for _c, s in per_pass)
              for n in set(tracer.name)}
    total = sum(self_s.values())
    lead = sum(self_s.get(n, 0.0) for n in LEADER[workload])
    rest = max((v for n, v in self_s.items() if n not in LEADER[workload]),
               default=0.0)
    return {"self_share": {n: v / total for n, v in
                           sorted(self_s.items(), key=lambda kv: -kv[1])},
            "leader": {"layers": LEADER[workload], "share": lead / total,
                       "leads": lead > rest}}


def machine():
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "git_sha": git_sha(),
            "threads": {v: os.environ[v] for v in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}}


def git_sha():
    """The checked-out commit, read from .git (None outside a clone)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["driver", "multi_vertex", "certify"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    from spans import Tracer, instrument
    from workloads import WORKLOADS, coporeg, oracle
    import_s = time.perf_counter() - T0
    if Path(coporeg.__file__).resolve().parent.parent != ROOT / "src":
        sys.exit(f"coporeg was imported from {coporeg.__file__}, not from "
                 f"{ROOT / 'src'}")

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with tempfile.TemporaryDirectory(dir=out_dir, prefix="work-") as wd:
        prep = []
        for _ in range(SETUP_REPEATS):
            ops = None  # so that one set of inputs at a time counts in peak_rss_mb
            oracle.simplex_grid.cache_clear()
            t = time.perf_counter()
            ops = WORKLOADS[args.workload](args.seed, Path(wd))
            prep.append(time.perf_counter() - t)
        warmup_s, failures = run_pass(ops)   # fills the simplex_grid cache
        attempted = len(ops)
        setup_s = import_s + statistics.median(prep) + warmup_s

        # closed loop: each pass starts when the previous one ends.  A traced
        # run alternates untraced and traced passes, so that both passes of a
        # pair run in the same stretch of time; their ratio is the overhead.
        tracer = Tracer() if args.trace else None
        passes, traced, per_pass = [], [], []
        t_start = time.perf_counter()
        while (len(passes) < MIN_PASSES
               or time.perf_counter() - t_start < args.seconds):
            dt, bad = run_pass(ops)
            passes.append(dt)
            failures += bad
            attempted += len(ops)
            if tracer is not None:
                tracer.reset_counts()
                ids = range(len(traced) * len(ops), (len(traced) + 1) * len(ops))
                uninstall = instrument(tracer)
                dt, bad = run_pass(ops, tracer, ids.start)
                uninstall()
                traced.append(dt)
                per_pass.append((tracer.counts, tracer.self_times(ids)))
                failures += bad
                attempted += len(ops)

        summary = {"workload": args.workload, "seed": args.seed,
                   "trace": args.trace, "operations_per_pass": len(ops),
                   "pass_s": {"median": statistics.median(passes),
                              "quartiles": statistics.quantiles(passes, n=4),
                              "samples": len(passes), "values": passes},
                   "setup": {"setup_s": setup_s, "import_s": import_s,
                             "prepare_s": prep, "warmup_s": warmup_s}}
        problems = []
        if args.trace:
            tracer.dump(out_dir / f"spans-{tag}.json")
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            values = {n: statistics.median(layer_metrics(n, c, s) for c, s in per_pass)
                      for n in units}
            values["trace.overhead"] = statistics.median(
                t / u - 1.0 for t, u in zip(traced, passes))
            problems = [f"{n} is 0" for n in EXPECT_NONZERO[args.workload]
                        if not values[n]]
            summary["traced_pass_s"] = traced
            summary.update(self_time_shares(args.workload, tracer, per_pass))
            summary["self_test"] = problems or "ok"
            summary["predictions"] = {
                f"{n} == 0": "held" if not values[n] else f"refuted: {values[n]}"
                for n in PREDICT_ZERO.get(args.workload, [])}
        else:
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
            values = {"pass_s": statistics.median(passes), "setup_s": setup_s}

    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    summary["fail_ratio"] = len(failures) / attempted
    summary["failures"] = failures[:20]
    summary["machine"] = machine()
    result = {"correct": not failures and not problems, "attempted": attempted,
              "failed": len(failures),
              "metrics": {n: {"value": values[n], "unit": u} for n, u in units.items()}}
    (out_dir / f"result-{tag}.json").write_text(
        json.dumps({"summary": summary, "result": result}, indent=1) + "\n")
    for line in failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    if problems:
        print(f"self-test: {'; '.join(problems)}", file=sys.stderr)
        return 1
    print(json.dumps(summary))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

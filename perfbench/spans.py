"""Outside-in span tracing of coporeg's layers.

Nothing in ``coporeg`` is edited: :func:`instrument` replaces each public
function at the place a consuming module binds it (``coporeg.sip`` calls
``solve_lp`` through its own global, so the hull, master and row LPs are
told apart by the module that binds them).  Spans live in memory as
parallel lists and are written out once, after the run.
"""

import importlib
import json
import math
import time
from collections import Counter, defaultdict


class Tracer:
    """Spans (name, start, end, parent, operation id) plus counters.

    Counters are plain integers keyed by metric name; :meth:`reset_counts`
    starts a new pass so that every pass has its own counts.
    """

    def __init__(self):
        self.name, self.start, self.end, self.parent, self.op = [], [], [], [], []
        self.stack = []
        self.op_id = -1
        self.counts = Counter()

    def open(self, name):
        i = len(self.name)
        self.name.append(name)
        self.start.append(time.perf_counter())
        self.end.append(None)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.stack.append(i)
        return i

    def close(self, i):
        self.end[i] = time.perf_counter()
        self.stack.pop()

    def innermost(self):
        return self.name[self.stack[-1]] if self.stack else None

    def reset_counts(self):
        self.counts = Counter()

    def self_times(self, ops):
        """Self seconds per span name over the spans of the given operation
        ids: each span's duration minus the durations of its children."""
        ops = set(ops)
        out = defaultdict(float)
        for i, name in enumerate(self.name):
            if self.op[i] in ops:
                out[name] += self.end[i] - self.start[i]
                if self.parent[i] >= 0:
                    out[self.name[self.parent[i]]] -= self.end[i] - self.start[i]
        return dict(out)

    def dump(self, path):
        names = sorted(set(self.name))
        index = {n: k for k, n in enumerate(names)}
        doc = {"names": names,
               "columns": ["name", "start", "end", "parent", "op"],
               "spans": [[index[n], s, e, p, o] for n, s, e, p, o in
                         zip(self.name, self.start, self.end, self.parent,
                             self.op)]}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def instrument(tracer):
    """Install the wrappers; returns a function that removes them."""
    oracle = importlib.import_module("coporeg.oracle")
    sip = importlib.import_module("coporeg.sip")
    # the package attribute ``coporeg.regularize`` is the driver function
    reg = importlib.import_module("coporeg.regularize")
    cli = importlib.import_module("coporeg.cli")
    lp_error = importlib.import_module("coporeg.lp").LpError

    def wrap(orig, name, hook):
        """Span around ``orig``.  ``name`` may be a function of the tracer,
        to classify a call by its caller's span; ``hook(result, args,
        kwargs)`` adds counts after the call returns."""

        def wrapper(*args, **kwargs):
            span = name(tracer) if callable(name) else name
            tracer.counts[f"{span}.calls"] += 1
            i = tracer.open(span)
            try:
                out = orig(*args, **kwargs)
            except lp_error:
                tracer.counts["lp.errors"] += 1
                raise
            finally:
                tracer.close(i)
            if hook is not None:
                hook(out, args, kwargs)
            return out

        return wrapper

    def count(key, n=1):
        tracer.counts[key] += n

    # hooks run after the wrapped span has closed, so ``innermost()`` is
    # the caller's span
    def sip_lp_name(t):
        return "lp.master" if t.innermost() == "sip" else "lp.support"

    def master_rows(_out, args, _kw):
        if tracer.innermost() == "sip":
            count("lp.master.rows", len(args[0].rows))

    def hull_site(_out, _args, _kw):
        where = tracer.innermost()
        if where == "oracle.mask":
            count("oracle.hull.in_mask")
        elif where == "oracle.contains":
            count("oracle.hull.in_contains")

    def exact_supports(_out, args, _kw):
        count("oracle.exact.supports", (1 << len(args[0])) - 1)

    def grid_points(_out, args, kwargs):
        h = args[2] if len(args) > 2 else kwargs["h"]
        N, p = math.ceil(1.0 / h), len(args[0])
        count("oracle.grid.points", math.comb(N + p - 1, p - 1))

    def mask_points(_out, args, _kw):
        count("oracle.mask.points", len(args[1]))

    def sip_outcome(out, args, _kw):
        inst, cfg = args[0], args[1]
        count("sip.rounds", int(out.diagnostics.get("rounds", 0)))
        count("sip.cuts", len(out.cuts))
        count("sip.unresolved", int(out.kind == "unresolved"))
        if "h" in out.diagnostics:
            h0 = cfg.grid_h(inst.prog.p)
            count("sip.refinements", round(math.log2(h0 / out.diagnostics["h"])))

    def iterations(result, _args, _kw):
        count("regularize.iterations", len(result.ledger))

    def equiv(rep, _args, _kw):
        count("regularize.equiv.samples", rep["samples"])
        count("regularize.equiv.ties", rep["ties"])

    def verify(rep, _args, _kw):
        count("regularize.verify.members",
              sum(e["members_sampled"] for e in rep["entries"]))

    # (owner, attribute, span name, hook)
    sites = [
        (oracle, "solve_lp", "lp.hull", None),
        (sip, "solve_lp", sip_lp_name, master_rows),
        (reg, "solve_lp", "lp.rowmax", None),
        (oracle, "l1_dist_to_hull", "oracle.hull", hull_site),
        (oracle, "simplex_grid", "oracle.simplex_grid", None),
        (oracle, "stationary_candidates", "oracle.exact", exact_supports),
        (reg, "stationary_candidates", "oracle.exact", exact_supports),
        (oracle.ReducedRegion, "grid_mask", "oracle.mask", mask_points),
        (oracle.ReducedRegion, "contains", "oracle.contains", None),
        (sip, "min_quad_over_omega", "oracle.grid", grid_points),
        (reg, "min_quad_over_omega", "oracle.grid", grid_points),
        (sip, "extract_certificate", "sip.certificate", None),
        (reg, "solve_sip", "sip", sip_outcome),
        (cli, "regularize", "regularize", iterations),
        (reg, "feasibility_equiv_sample", "regularize.equiv", equiv),
        (cli, "feasibility_equiv_sample", "regularize.equiv", equiv),
        (reg, "verify_ledger", "regularize.verify", verify),
        (cli, "verify_ledger", "regularize.verify", verify),
        (cli, "main", "cli", None),
    ]
    saved = []
    for owner, attr, name, hook in sites:
        orig = owner.__dict__[attr]
        saved.append((owner, attr, orig))
        setattr(owner, attr, wrap(orig, name, hook))

    def uninstall():
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)

    return uninstall

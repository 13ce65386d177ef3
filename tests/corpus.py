"""The corpus: 59 ``regularize`` runs, a digest line for each, and the
comparator that checks a run against its stored line.

The runs are e1-e4; the ten acceptance-gate instances, unpermuted and with
their coordinates permuted as workload seed 1 permutes them; the same ten
(p, n, planted point) settings at instance seeds s + 300 and s + 900 (k3-*,
k9-*); the two-vertex plantings 50-55; and the c6* and c7* instances
(several planted points, the immobile edge of c70, off-lattice points).
Every run uses the default configuration.

A digest line holds the status, the failure reason, m*, the final records
(tau, L), the margin and the witness, and each iteration's new points tau
with their weights gamma and its lambda vectors.  ``compare`` checks a
line against the stored one: status, reason, m* and every L must be
equal; tau, gamma, lambda and the witness must match within ``TOL``; the
margin must not fall below the stored one by more than ``TOL``.

Run from the repository root:

    python tests/corpus.py            # compare every run with the digest
    python tests/corpus.py --write    # write the digest afresh
"""

import json
import os
import sys
from collections import namedtuple

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
if __name__ == "__main__":          # run as a script: coporeg from src
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from coporeg import (CopositiveProgram, SimplexPoint,  # noqa: E402
                     generate_instance, regularize)

DIGEST = os.path.join(HERE, "corpus_digest.json")
TOL = 1e-9

# a generated run: instance seed, p, n, planted points, and the seed of the
# coordinate permutation (None keeps the coordinates)
Generated = namedtuple("Generated", "seed p n planted perm_seed")

_SWAP = [[0.0, 1.0], [1.0, 0.0]]
_ZERO = np.zeros((2, 2))

# the acceptance gate's settings: (instance seed, p, n, planted point)
GATE = [
    (30, 3, 1, (1.0, 0.0, 0.0)),
    (31, 3, 2, (0.5, 0.5, 0.0)),
    (32, 3, 2, (1 / 3, 1 / 3, 1 / 3)),
    (33, 3, 3, (0.25, 0.75, 0.0)),
    (34, 4, 2, (1.0, 0.0, 0.0, 0.0)),
    (35, 4, 2, (0.5, 0.25, 0.25, 0.0)),
    (36, 4, 3, (0.5, 0.5, 0.0, 0.0)),
    (37, 5, 2, (0.5, 0.5, 0.0, 0.0, 0.0)),
    (38, 5, 3, (0.5, 0.0, 0.5, 0.0, 0.0)),
    (39, 5, 2, (1.0, 0.0, 0.0, 0.0, 0.0)),
]


def _e(p, k):
    return tuple(float(i == k) for i in range(p))


CORPUS = {
    "e1": CopositiveProgram([1.0], [np.eye(2), _SWAP]),
    "e2": CopositiveProgram([1.0], [[[0.0, 0.0], [0.0, 1.0]], _SWAP]),
    "e3": CopositiveProgram([1.0], [_ZERO, [[1.0, -1.0], [-1.0, 1.0]]]),
    "e4": CopositiveProgram([1.0], [_ZERO, _SWAP]),
    # workload seed w permutes gate slot i by default_rng(1000 w + 300 + i)
    **{f"g0-{s}": Generated(s, p, n, (t,), None) for s, p, n, t in GATE},
    **{f"g1-{s}": Generated(s, p, n, (t,), 1300 + slot)
       for slot, (s, p, n, t) in enumerate(GATE)},
    **{f"k3-{s}": Generated(s + 300, p, n, (t,), None) for s, p, n, t in GATE},
    **{f"k9-{s}": Generated(s + 900, p, n, (t,), None) for s, p, n, t in GATE},
    **{f"mv{s}": Generated(s, 3, 2, (_e(3, 0), _e(3, 1)), None)
       for s in range(50, 56)},
    "c60": Generated(60, 4, 2, (_e(4, 0), _e(4, 1)), None),
    "c61": Generated(61, 4, 2, ((0.5, 0.5, 0.0, 0.0), (0.0, 0.0, 0.5, 0.5)), None),
    "c62": Generated(62, 4, 3, (_e(4, 0), (0.0, 0.5, 0.5, 0.0)), None),
    "c63": Generated(63, 5, 2, (_e(5, 0), _e(5, 1)), None),
    "c64": Generated(64, 5, 3, (_e(5, 0), _e(5, 1), _e(5, 2)), None),
    "c65": Generated(65, 3, 2, ((0.5, 0.5, 0.0), (0.0, 0.5, 0.5)), None),
    "c70": Generated(70, 3, 1, (_e(3, 0), (0.0, 0.5, 0.5)), None),
    "c73": Generated(73, 4, 2, (_e(4, 0), (0.0, 0.3, 0.7, 0.0)), None),
    "c74": Generated(74, 3, 2, (_e(3, 0), (0.0, 0.3, 0.7)), None),
}


def program(name):
    """The corpus run's program."""
    run = CORPUS[name]
    if isinstance(run, CopositiveProgram):
        return run
    prog = generate_instance(seed=run.seed, p=run.p, n=run.n,
                             planted=[SimplexPoint(t) for t in run.planted])
    if run.perm_seed is None:
        return prog
    perm = np.random.default_rng(run.perm_seed).permutation(run.p)
    return CopositiveProgram(prog.c, [A[np.ix_(perm, perm)] for A in prog.A])


def _floats(a):
    return None if a is None else np.asarray(a, dtype=float).tolist()


def digest_line(name):
    """Run ``regularize`` on the corpus run and return its digest line."""
    res = regularize(program(name))
    records = (res.regularized.records if res.regularized is not None
               else res.ledger[-1].records if res.ledger else ())
    witness = res.regularized.witness if res.regularized is not None else res.witness
    return {
        "run": name,
        "status": res.status,
        "reason": res.diagnostics.get("reason"),
        "m_star": res.m_star,
        "records": [[_floats(r.tau.coords), sorted(r.L)] for r in records],
        "margin": None if res.regularized is None else res.regularized.margin,
        "witness": _floats(witness),
        "iterations": [
            {"tau": [_floats(t.coords) for t, _g in e.certificate.new_indices],
             "gamma": [g for _t, g in e.certificate.new_indices],
             "lambda": {str(i): _floats(lam)
                        for i, lam in sorted(e.certificate.lam.items())}}
            for e in res.ledger],
    }


def _far(got, want):
    """Whether two float lists (nested alike) differ in shape or by more
    than ``TOL`` in an entry."""
    if (got is None) != (want is None):
        return True
    if got is None:
        return False
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape != want.shape or bool(np.any(np.abs(got - want) > TOL))


def compare(got, want):
    """The differences of a digest line from the stored one, as messages
    (empty when the run reproduces it)."""
    bad = [f"{key} {got[key]!r}, stored {want[key]!r}"
           for key in ("status", "reason", "m_star") if got[key] != want[key]]
    if [L for _t, L in got["records"]] != [L for _t, L in want["records"]]:
        bad.append("record row sets L differ")
    elif _far([t for t, _L in got["records"]], [t for t, _L in want["records"]]):
        bad.append("record points tau differ")
    if _far(got["witness"], want["witness"]):
        bad.append("witness differs")
    if (got["margin"] is None) != (want["margin"] is None) or (
            got["margin"] is not None and got["margin"] < want["margin"] - TOL):
        bad.append(f"margin {got['margin']!r}, stored {want['margin']!r}")
    if len(got["iterations"]) != len(want["iterations"]):
        bad.append(f"{len(got['iterations'])} iterations, stored "
                   f"{len(want['iterations'])}")
        return bad
    for m, (g, w) in enumerate(zip(got["iterations"], want["iterations"]), 1):
        for key in ("tau", "gamma"):
            if _far(g[key], w[key]):
                bad.append(f"iteration {m}: {key} differs")
        if (sorted(g["lambda"]) != sorted(w["lambda"])
                or any(_far(g["lambda"][i], w["lambda"][i]) for i in w["lambda"])):
            bad.append(f"iteration {m}: lambda differs")
    return bad


def load_digest():
    """The stored digest lines, by run name."""
    with open(DIGEST) as f:
        return {line["run"]: line for line in json.load(f)}


def write_digest(lines):
    """Store the digest lines, one run per line of a JSON list."""
    with open(DIGEST, "w") as f:
        f.write("[\n" + ",\n".join(json.dumps(line, allow_nan=False)
                                   for line in lines) + "\n]\n")


def main(argv):
    lines = [digest_line(name) for name in CORPUS]
    if argv == ["--write"]:
        write_digest(lines)
        print(f"wrote {len(lines)} runs to {DIGEST}")
        return 0
    if argv:
        sys.exit("usage: python tests/corpus.py [--write]")
    stored = load_digest()
    failed = 0
    for line in lines:
        bad = (compare(line, stored[line["run"]]) if line["run"] in stored
               else ["not in the stored digest"])
        failed += bool(bad)
        for msg in bad:
            print(f"{line['run']}: {msg}")
    print(f"{len(lines) - failed} of {len(lines)} runs reproduce the digest")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

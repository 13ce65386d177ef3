"""The LP bit gate: SHA-256 digests over every ``coporeg.lp._solve_stack``
call that the corpus runs make (``corpus.digest_line``).

Two digests cover the calls in order:

- the *bytes* digest hashes, per call, the program's objective, A, rel, b,
  lo and hi; its standard form's A, b, basis, orig, sign, shift,
  row_flip, n_real_cols, scale, eq_rows and row_sign; tol; the objective
  stack; and the six fields of the returned ``LpStack``.  Each array's dtype and shape go in before its bytes.  It
  moves with any bit of any LP, so it is for comparing two trees on one
  machine;
- the *pivot* digest hashes, per call, the shape of the program's A, the
  statuses and the final bases only.  These are integers and statuses,
  so the digest holds wherever the corpus digest's exact fields hold.

``GATE`` names the runs whose pivot digest is stored in
``lp_digest.json``: every corpus run whose hull LPs pivot in lockstep,
and e2 and e4.

Run from the repository root:

    python tests/lp_digest.py             # both digests over every corpus run
    python tests/lp_digest.py e2 c70      # both digests over the named runs
    python tests/lp_digest.py --write     # store the pivot digest of GATE
"""

import hashlib
import json
import os
import sys
from contextlib import contextmanager

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
if __name__ == "__main__":          # run as a script: coporeg from src
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import corpus  # noqa: E402
from coporeg import lp as lp_mod  # noqa: E402

STORED = os.path.join(HERE, "lp_digest.json")
GATE = ["e2", "e4", "mv50", "c60", "c61", "c62", "c63", "c64", "c65", "c70"]


def _hash_array(h, a):
    a = np.ascontiguousarray(a)
    h.update(f"{a.dtype.str} {a.shape}".encode())
    h.update(a.tobytes())


@contextmanager
def _recorded_solves():
    """Record (program, tol, objective stack, result) of every
    ``_solve_stack`` call made inside the block."""
    calls, solve = [], lp_mod._solve_stack

    def recording(lp, tol, C):
        out = solve(lp, tol, C)
        calls.append((lp, tol, C, out))
        return out

    lp_mod._solve_stack = recording
    try:
        yield calls
    finally:
        lp_mod._solve_stack = solve


def digests(runs):
    """(solve count, bytes digest, pivot digest) over the corpus runs."""
    with _recorded_solves() as calls:
        for name in runs:
            corpus.digest_line(name)
    full, pivots = hashlib.sha256(), hashlib.sha256()
    for lp, tol, C, out in calls:
        std = lp._std
        for a in (lp.objective, lp.A, lp.rel, lp.b, lp.lo, lp.hi,
                  std.A, std.b, std.basis, std.orig, std.sign, std.shift,
                  std.row_flip, np.int64(std.n_real_cols), np.float64(std.scale),
                  std.eq_rows, std.row_sign, np.float64(tol), C, *out):
            _hash_array(full, a)
        pivots.update(json.dumps([list(lp.A.shape), out.status.tolist(),
                                  out.basis.tolist()]).encode())
    return len(calls), full.hexdigest(), pivots.hexdigest()


def load_stored():
    """The stored gate: its runs, solve count and pivot digest."""
    with open(STORED) as f:
        return json.load(f)


def main(argv):
    if argv == ["--write"]:
        solves, _full, pivot = digests(GATE)
        with open(STORED, "w") as f:
            json.dump({"runs": GATE, "solves": solves, "pivot": pivot}, f, indent=1)
            f.write("\n")
        print(f"wrote the pivot digest of {len(GATE)} runs ({solves} solves) to {STORED}")
        return 0
    if any(name not in corpus.CORPUS for name in argv):
        sys.exit("usage: python tests/lp_digest.py [--write | RUN ...]")
    runs = argv or list(corpus.CORPUS)
    solves, full, pivot = digests(runs)
    print(f"{len(runs)} runs, {solves} solves")
    print(f"bytes digest {full}")
    print(f"pivot digest {pivot}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

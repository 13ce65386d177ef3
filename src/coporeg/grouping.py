"""Grouping of equal keys and of equal int rows, without sorting.

numpy's sorts touch their own code pages, 0.2-0.5 MB of resident memory,
on their first call; an open-addressed hash table groups the rows of a
lockstep simplex step with array operations the program already uses.
"""

import numpy as np

GOLDEN = np.uint64(0x9E3779B97F4A7C15)   # odd, about 2^64 / golden ratio


def key_groups(key):
    """Group the equal entries of the 1-D int array ``key``: the group of
    each entry (0 .. G - 1) and one entry of each group.

    The L keys go into an open-addressed table of at least 2L slots.  Each
    round, every pending entry writes its index to its slot, one write per
    slot wins, and the entries equal to the winner join its group; the
    others probe the next slot.  Equal keys probe together, so a group
    forms in one round.
    """
    L = key.size
    bits = (2 * L - 1).bit_length()
    mask = (1 << bits) - 1
    slot = (key.astype(np.uint64) * GOLDEN >> np.uint64(64 - bits)).astype(int)
    table = np.empty(mask + 1, dtype=int)
    rep = np.empty(L, dtype=int)
    pending = np.arange(L)
    while pending.size:
        table[slot[pending]] = pending
        owner = table[slot[pending]]
        same = key[owner] == key[pending]
        rep[pending[same]] = owner[same]
        pending = pending[~same]
        slot[pending] = (slot[pending] + 1) & mask
    first = (rep == np.arange(L)).nonzero()[0]
    group = np.empty(L, dtype=int)
    group[first] = np.arange(first.size)
    return group[rep], first


def row_groups(rows, bound):
    """``key_groups`` of the rows of the int array ``rows``, whose entries
    lie in [0, bound).  A row is read as one integer, an entry per digit,
    when it fits in 63 bits; a longer row is hashed, and a row that
    differs from the row kept for its group takes a group of its own."""
    k = rows.shape[1]
    digit = max(bound - 1, 1).bit_length()
    if k * digit <= 63:
        return key_groups(rows @ (1 << digit * np.arange(k)))
    weights = np.cumprod(np.full(k, GOLDEN))            # its powers, mod 2^64
    group, first = key_groups(rows.astype(np.uint64) @ weights)
    clash = (rows != rows[first[group]]).any(axis=1).nonzero()[0]
    group[clash] = first.size + np.arange(clash.size)
    return group, np.concatenate((first, clash))

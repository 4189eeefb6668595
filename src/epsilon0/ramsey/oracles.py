"""Exhaustive-search oracles for maximum homogeneous and transitive sets.

These deliberately share no code with the greedy solvers: they enumerate
candidate subsets directly (depth-first over vertex masks, with a simple
remaining-vertices prune) and exist to check the solvers against ground
truth on small instances.  Intended for n <= 16.
"""

from __future__ import annotations

from typing import FrozenSet, Optional, Sequence, Tuple

from .instances import PairColoring, Tournament

__all__ = [
    "brute_max_homogeneous", "brute_max_transitive",
    "has_homogeneous_of_size", "has_transitive_of_size",
    "is_transitive_mask",
]


def _mask_to_set(mask: int) -> FrozenSet[int]:
    out = set()
    i = 0
    while mask:
        if mask & 1:
            out.add(i)
        mask >>= 1
        i += 1
    return frozenset(out)


def brute_max_homogeneous(f: PairColoring) -> Tuple[int, FrozenSet[int]]:
    """Exact maximum size of a one-colored subset, with a witness.

    For each color this is a maximum-clique search in the graph of pairs
    of that color, extended one vertex at a time in ascending order.
    """
    n = f.n
    if n == 0:
        return 0, frozenset()
    # adj[c][x]: vertices y adjacent to x through a color-c pair
    adj = [[0] * n for _ in range(2)]
    for x in range(n):
        for y in range(x + 1, n):
            c = f.color(x, y)
            adj[c][x] |= 1 << y
            adj[c][y] |= 1 << x

    best_size = 1
    best_mask = 1  # vertex 0 alone; any singleton is homogeneous

    def extend(color: int, mask: int, size: int, candidates: int) -> None:
        nonlocal best_size, best_mask
        if size > best_size:
            best_size, best_mask = size, mask
        while candidates:
            v = (candidates & -candidates).bit_length() - 1
            candidates &= candidates - 1
            if size + 1 + candidates.bit_count() <= best_size:
                break
            extend(color, mask | (1 << v), size + 1, candidates & adj[color][v])

    for color in (0, 1):
        for v in range(n):
            rest = adj[color][v] & ~((1 << (v + 1)) - 1)
            extend(color, 1 << v, 1, rest)
    return best_size, _mask_to_set(best_mask)


def is_transitive_mask(out: Sequence[int], mask: int) -> bool:
    """Transitivity of the sub-tournament on `mask`, by the score test:
    a k-vertex tournament is transitive iff its k within-set out-degrees
    are pairwise distinct."""
    seen = 0
    m = mask
    while m:
        v = (m & -m).bit_length() - 1
        m &= m - 1
        bit = 1 << (out[v] & mask).bit_count()
        if seen & bit:
            return False
        seen |= bit
    return True


def brute_max_transitive(r: Tournament) -> Tuple[int, FrozenSet[int]]:
    """Exact maximum size of a transitive subtournament, with a witness.

    Depth-first over vertex sets in ascending order; a branch dies when
    even taking every remaining vertex could not beat the current best.
    """
    n = r.n
    if n == 0:
        return 0, frozenset()
    out = r.out
    best_size = 1
    best_mask = 1

    def extend(mask: int, size: int, nxt: int) -> None:
        nonlocal best_size, best_mask
        if size > best_size:
            best_size, best_mask = size, mask
        for v in range(nxt, n):
            if size + 1 + (n - v - 1) <= best_size:
                break
            new_mask = mask | (1 << v)
            if is_transitive_mask(out, new_mask):
                extend(new_mask, size + 1, v + 1)

    extend(0, 0, 0)
    return best_size, _mask_to_set(best_mask)


def has_homogeneous_of_size(f: PairColoring, k: int) -> bool:
    """Early-exit exhaustive search for a one-colored subset of size k.

    Equivalent to brute_max_homogeneous(f)[0] >= k since homogeneity is
    preserved by taking subsets.
    """
    if k <= 1:
        return f.n >= k
    n = f.n
    adj = [[0] * n for _ in range(2)]
    for x in range(n):
        for y in range(x + 1, n):
            c = f.color(x, y)
            adj[c][x] |= 1 << y
            adj[c][y] |= 1 << x

    def extend(color: int, size: int, candidates: int, start: int) -> bool:
        if size == k:
            return True
        v = start
        while candidates >> v:
            if (candidates >> v) & 1:
                if size + 1 + (candidates >> (v + 1)).bit_count() >= k:
                    if extend(color, size + 1, candidates & adj[color][v], v + 1):
                        return True
            v += 1
        return False

    full = (1 << n) - 1
    return any(extend(c, 0, full, 0) for c in (0, 1))


def has_transitive_of_size(r: Tournament, k: int) -> bool:
    """Early-exit exhaustive search for a transitive subset of size k."""
    if k <= 1:
        return r.n >= k
    n = r.n
    out = r.out

    def extend(mask: int, size: int, nxt: int) -> bool:
        if size == k:
            return True
        for v in range(nxt, n):
            if size + (n - v) < k:
                break
            new_mask = mask | (1 << v)
            if is_transitive_mask(out, new_mask) and extend(new_mask, size + 1, v + 1):
                return True
        return False

    return extend(0, 0, 0)

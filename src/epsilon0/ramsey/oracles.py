"""Exhaustive-search oracles for maximum homogeneous and transitive sets.

These deliberately share no code with the greedy solvers: they enumerate
candidate subsets directly (depth-first over vertex masks, with a simple
remaining-vertices prune) and exist to check the solvers against ground
truth on small instances.  Intended for n <= 16.  Each property has one
search; the threshold query `has_*_of_size(., k)` is that search run from
the floor k - 1 and stopped at its first find.
"""

from __future__ import annotations

from typing import FrozenSet, Sequence, Tuple

from .instances import PairColoring, Tournament

__all__ = [
    "brute_max_homogeneous", "brute_max_transitive",
    "has_homogeneous_of_size", "has_transitive_of_size",
    "is_transitive_mask",
]


def _mask_to_set(mask: int) -> FrozenSet[int]:
    return frozenset(v for v in range(mask.bit_length()) if mask >> v & 1)


def _max_homogeneous(f: PairColoring, floor: int, first: bool) -> Tuple[int, int]:
    """Largest one-colored set bigger than `floor`, as (size, mask), or
    (floor, 0) if there is none; with `first`, the first such set found.

    For each color this is a maximum-clique search in the graph of pairs
    of that color, extended one vertex at a time in ascending order.
    """
    n = f.n
    # adj[c][x]: vertices y adjacent to x through a color-c pair
    adj = [[0] * n for _ in range(2)]
    for x in range(n):
        for y in range(x + 1, n):
            c = f.color(x, y)
            adj[c][x] |= 1 << y
            adj[c][y] |= 1 << x
    best_size, best_mask = floor, 0

    def extend(color: int, mask: int, size: int, candidates: int) -> bool:
        nonlocal best_size, best_mask
        if size > best_size:
            best_size, best_mask = size, mask
            if first:
                return True
        while candidates:
            v = (candidates & -candidates).bit_length() - 1
            candidates &= candidates - 1
            if size + 1 + candidates.bit_count() <= best_size:
                break
            if extend(color, mask | (1 << v), size + 1, candidates & adj[color][v]):
                return True
        return False

    for color in (0, 1):
        if extend(color, 0, 0, (1 << n) - 1):
            break
    return best_size, best_mask


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


def _max_transitive(r: Tournament, floor: int, first: bool) -> Tuple[int, int]:
    """Largest transitive set bigger than `floor`, as (size, mask), or
    (floor, 0) if there is none; with `first`, the first such set found.

    Depth-first over vertex sets in ascending order; a branch dies when
    even taking every remaining vertex could not beat the current best.
    """
    n = r.n
    out = r.out
    best_size, best_mask = floor, 0

    def extend(mask: int, size: int, nxt: int) -> bool:
        nonlocal best_size, best_mask
        if size > best_size:
            best_size, best_mask = size, mask
            if first:
                return True
        for v in range(nxt, n):
            if size + 1 + (n - v - 1) <= best_size:
                break
            new_mask = mask | (1 << v)
            if is_transitive_mask(out, new_mask) and extend(new_mask, size + 1, v + 1):
                return True
        return False

    extend(0, 0, 0)
    return best_size, best_mask


def brute_max_homogeneous(f: PairColoring) -> Tuple[int, FrozenSet[int]]:
    """Exact maximum size of a one-colored subset, with a witness."""
    size, mask = _max_homogeneous(f, 0, first=False)
    return size, _mask_to_set(mask)


def brute_max_transitive(r: Tournament) -> Tuple[int, FrozenSet[int]]:
    """Exact maximum size of a transitive subtournament, with a witness."""
    size, mask = _max_transitive(r, 0, first=False)
    return size, _mask_to_set(mask)


def has_homogeneous_of_size(f: PairColoring, k: int) -> bool:
    """Whether some one-colored subset has size k: the maximum search
    from floor k - 1, stopped at its first find (homogeneity is preserved
    by taking subsets, so a bigger set has one of size k)."""
    return _max_homogeneous(f, k - 1, first=True)[0] >= k


def has_transitive_of_size(r: Tournament, k: int) -> bool:
    """Whether some transitive subset has size k, by the maximum search
    from floor k - 1, stopped at its first find."""
    return _max_transitive(r, k - 1, first=True)[0] >= k

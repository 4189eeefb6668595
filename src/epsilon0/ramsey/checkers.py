"""Validity checkers and the coloring/tournament/order correspondences.

The dictionary between objects: a coloring f and a tournament R determine
each other through f({x,y}) = 1 iff (R(x,y) <-> x < y); a transitive
coloring f and a linear order L through f({x,y}) = 1 iff (x < y <-> x <_L y).
Under these, f-transitive vertex sets are exactly the transitive
subtournaments, and monotone sequences are exactly the homogeneous sets of
a transitive coloring.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence, Tuple

from .instances import LinearOrderInstance, PairColoring, Tournament

__all__ = [
    "HomogeneityCheck", "TransitivityCheck",
    "is_homogeneous", "is_transitive",
    "tournament_from_coloring", "coloring_from_tournament",
    "coloring_is_transitive", "order_from_transitive_coloring",
]


@dataclass(frozen=True)
class HomogeneityCheck:
    ok: bool
    color: Optional[int] = None
    witness: Optional[Tuple[int, int]] = None


@dataclass(frozen=True)
class TransitivityCheck:
    ok: bool
    witness: Optional[Tuple[int, int, int]] = None


def _subset_mask(n: int, subset: Iterable[int]) -> int:
    """The bit mask of the vertices in `subset`; ValueError for a vertex
    outside [0, n)."""
    mask = 0
    for x in subset:
        if not 0 <= x < n:
            raise ValueError("subset leaves the universe")
        mask |= 1 << x
    return mask


def _low(mask: int) -> int:
    """The least vertex of a nonempty mask."""
    return (mask & -mask).bit_length() - 1


def _vertices(mask: int) -> Iterator[int]:
    """The vertices of a mask, ascending."""
    while mask:
        yield _low(mask)
        mask &= mask - 1


def _off_color_pair(adj: Sequence[int], mask: int, color: int) -> Optional[Tuple[int, int]]:
    """The first pair (x, y), x < y, of `mask` in pair order whose color
    under the adjacency masks `adj` is not `color`; None when there is none."""
    while mask:
        x = (mask & -mask).bit_length() - 1
        mask &= mask - 1            # the vertices above x
        bad = mask & ~adj[x] if color else mask & adj[x]
        if bad:
            return x, _low(bad)
    return None


def _cohesive_offender(masks: Sequence[int], chosen: int, sides: Sequence[int],
                       thresholds: Sequence[int]) -> Optional[Tuple[int, int]]:
    """The first set i, with its least element x of the `chosen` mask at or
    above thresholds[i], where x breaks sides[i] (in the set for a true
    side, outside it for 0); None when every set is honored.  One side and
    one threshold per set, else ValueError."""
    if not len(masks) == len(sides) == len(thresholds):
        raise ValueError("one side and one threshold per set required")
    for i, mask in enumerate(masks):
        thr = thresholds[i]
        above = chosen >> thr << thr if thr > 0 else chosen
        bad = above & ~mask if sides[i] else above & mask
        if bad:
            return i, _low(bad)
    return None


def is_homogeneous(f: PairColoring, subset: Iterable[int]) -> HomogeneityCheck:
    """OK with the common color, or the first pair (in pair order) whose
    color disagrees with the first pair's.  Sets of size <= 1 are
    homogeneous with unconstrained color 0."""
    mask = _subset_mask(f.n, subset)
    rest = mask & (mask - 1)
    if not rest:
        return HomogeneityCheck(True, 0)
    color = (f.adj[_low(mask)] >> _low(rest)) & 1
    witness = _off_color_pair(f.adj, mask, color)
    if witness is None:
        return HomogeneityCheck(True, color)
    return HomogeneityCheck(False, None, witness)


def is_transitive(r: Tournament, subset: Iterable[int]) -> TransitivityCheck:
    """OK, or the first ordered triple (a, b, c) with a -> b -> c but not
    a -> c.  Sets of size <= 2 are vacuously transitive."""
    mask = _subset_mask(r.n, subset)
    for a in _vertices(mask):
        for b in _vertices(mask & r.out[a]):
            bad = mask & r.out[b] & ~r.out[a]     # a -> b, so a is not in out[b]
            if bad:
                return TransitivityCheck(False, (a, b, _low(bad)))
    return TransitivityCheck(True)


def tournament_from_coloring(f: PairColoring) -> Tournament:
    """Edge x -> y (x < y) iff the pair has color 1."""
    return Tournament(f.n, f.out)


def coloring_from_tournament(r: Tournament) -> PairColoring:
    """Inverse of tournament_from_coloring."""
    return PairColoring(r.n, r.to_bits())


def coloring_is_transitive(f: PairColoring,
                           subset: Optional[Iterable[int]] = None) -> TransitivityCheck:
    """Transitivity of f as a coloring: on increasing triples x < y < z,
    equal colors on {x,y} and {y,z} force the same color on {x,z}."""
    adj = f.adj
    mask = _subset_mask(f.n, subset) if subset is not None else (1 << f.n) - 1
    for x in _vertices(mask):
        for y in _vertices(mask & -(2 << x)):
            # z above y breaks the triple when f(y,z) = f(x,y) != f(x,z)
            bad = mask & -(2 << y) & (adj[y] & ~adj[x] if (adj[x] >> y) & 1 else adj[x] & ~adj[y])
            if bad:
                return TransitivityCheck(False, (x, y, _low(bad)))
    return TransitivityCheck(True)


def order_from_transitive_coloring(f: PairColoring) -> LinearOrderInstance:
    """The unique linear order inducing a transitive coloring: x comes
    before y iff x beats y in the tournament of f, so the L-position of a
    vertex is its in-degree there.

    Raises ValueError when the coloring is not transitive.
    """
    check = coloring_is_transitive(f)
    if not check.ok:
        raise ValueError(f"coloring is not transitive (witness {check.witness})")
    return LinearOrderInstance(f.n, tuple(f.n - 1 - out.bit_count() for out in f.out))

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
from functools import cmp_to_key
from typing import Iterable, Optional, Tuple

from .instances import (
    LinearOrderInstance,
    PairColoring,
    Tournament,
    all_pairs,
)

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


def is_homogeneous(f: PairColoring, subset: Iterable[int]) -> HomogeneityCheck:
    """OK with the common color, or the first pair (in pair order) whose
    color disagrees with the first pair's.  Sets of size <= 1 are
    homogeneous with unconstrained color 0."""
    verts = sorted(set(subset))
    if any(x < 0 or x >= f.n for x in verts):
        raise ValueError("subset leaves the universe")
    if len(verts) <= 1:
        return HomogeneityCheck(True, 0)
    color = None
    for i in range(len(verts)):
        for j in range(i + 1, len(verts)):
            c = f.color(verts[i], verts[j])
            if color is None:
                color = c
            elif c != color:
                return HomogeneityCheck(False, None, (verts[i], verts[j]))
    return HomogeneityCheck(True, color)


def is_transitive(r: Tournament, subset: Iterable[int]) -> TransitivityCheck:
    """OK, or the first ordered triple (a, b, c) with a -> b -> c but not
    a -> c.  Sets of size <= 2 are vacuously transitive."""
    verts = sorted(set(subset))
    if any(x < 0 or x >= r.n for x in verts):
        raise ValueError("subset leaves the universe")
    for a in verts:
        for b in verts:
            if b == a or not r.beats(a, b):
                continue
            for c in verts:
                if c == a or c == b:
                    continue
                if r.beats(b, c) and not r.beats(a, c):
                    return TransitivityCheck(False, (a, b, c))
    return TransitivityCheck(True)


def tournament_from_coloring(f: PairColoring) -> Tournament:
    """Edge x -> y (x < y) iff the pair has color 1."""
    out = [0] * f.n
    for x, y in all_pairs(f.n):
        if f.color(x, y):
            out[x] |= 1 << y
        else:
            out[y] |= 1 << x
    return Tournament(f.n, tuple(out))


def coloring_from_tournament(r: Tournament) -> PairColoring:
    """Inverse of tournament_from_coloring."""
    return PairColoring(r.n, r.to_bits())


def coloring_is_transitive(f: PairColoring,
                           subset: Optional[Iterable[int]] = None) -> TransitivityCheck:
    """Transitivity of f as a coloring: on increasing triples x < y < z,
    equal colors on {x,y} and {y,z} force the same color on {x,z}."""
    verts = sorted(set(subset)) if subset is not None else list(range(f.n))
    k = len(verts)
    for i in range(k):
        for j in range(i + 1, k):
            cij = f.color(verts[i], verts[j])
            for l in range(j + 1, k):
                if f.color(verts[j], verts[l]) == cij and f.color(verts[i], verts[l]) != cij:
                    return TransitivityCheck(False, (verts[i], verts[j], verts[l]))
    return TransitivityCheck(True)


def order_from_transitive_coloring(f: PairColoring) -> LinearOrderInstance:
    """The unique linear order inducing a transitive coloring.

    Raises ValueError when the coloring is not transitive.
    """
    check = coloring_is_transitive(f)
    if not check.ok:
        raise ValueError(f"coloring is not transitive (witness {check.witness})")

    def less(x: int, y: int) -> int:
        if x == y:
            return 0
        if x < y:
            return -1 if f.color(x, y) else 1
        return 1 if f.color(y, x) else -1

    ordered = sorted(range(f.n), key=cmp_to_key(less))
    ranking = [0] * f.n
    for position, vertex in enumerate(ordered):
        ranking[vertex] = position
    return LinearOrderInstance(f.n, tuple(ranking))

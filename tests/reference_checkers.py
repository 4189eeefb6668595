"""The per-pair checkers as they read one pair at a time through
`f.color` and `r.beats`, kept verbatim as the reference for the mask
checkers in `epsilon0.ramsey.checkers` and for `verify_trace`."""

from typing import Iterable, Optional

from epsilon0.ramsey import (
    HomogeneityCheck, PairColoring, Tournament, TransitivityCheck,
)


def ref_is_homogeneous(f: PairColoring, subset: Iterable[int]) -> HomogeneityCheck:
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


def ref_is_transitive(r: Tournament, subset: Iterable[int]) -> TransitivityCheck:
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


def ref_coloring_is_transitive(f: PairColoring,
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

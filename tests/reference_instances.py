"""The instance-file bit writer as it tested one bit of the code at a
time (quadratic in C(n,2) on a Python int), the `SetFamily` masks as
they were built one element at a time, the `Tournament` checks with
their per-pair loop, `Tournament.from_order` with its n^2 double loop,
and the per-bit pair-code loops of `PairColoring.adj`,
`PairColoring.from_function` and `Tournament.to_bits` over the cached
table of pair tuples (with `restrict`, which calls that
`from_function`), kept verbatim as the reference for
`epsilon0.ramsey.instances._format_bits`,
`epsilon0.ramsey.instances.SetFamily.__post_init__`,
`epsilon0.ramsey.instances.Tournament.__post_init__`,
`epsilon0.ramsey.instances.Tournament.from_order` and the pair codec of
`epsilon0.ramsey.instances`.  The methods are module functions here,
taking the instance (or the class) as their first argument."""

from functools import lru_cache
from itertools import combinations
from typing import Tuple

from epsilon0.ramsey.instances import PairColoring, Tournament, pair_count


def _format_bits(bits: int, n: int) -> str:
    return "".join("1" if (bits >> i) & 1 else "0" for i in range(pair_count(n)))


def set_masks(n, sets):
    """The masks of `SetFamily(n, sets)`, or its error."""
    masks = []
    for i, s in enumerate(sets):
        if s and (min(s) < 0 or max(s) >= n):
            raise ValueError(f"set {i} leaves the universe [0,{n})")
        mask = 0
        for x in s:
            mask |= 1 << x
        masks.append(mask)
    return tuple(masks)


def tournament_check(n, out):
    """The checks of `Tournament(n, out)` with the per-pair loop, or its error."""
    if len(out) != n:
        raise ValueError("out must have one mask per vertex")
    for a in range(n):
        if out[a] >> n:
            raise ValueError("out mask wider than n")
        if (out[a] >> a) & 1:
            raise ValueError(f"vertex {a} beats itself")
    for a in range(n):
        for b in range(a + 1, n):
            ab = (out[a] >> b) & 1
            ba = (out[b] >> a) & 1
            if ab == ba:
                raise ValueError(f"pair ({a},{b}) must be oriented exactly one way")


def tournament_from_order(ranking):
    """`Tournament.from_order(ranking)` with the double loop, or its error."""
    n = len(ranking)
    out = [0] * n
    for a in range(n):
        for b in range(n):
            if a != b and ranking[a] < ranking[b]:
                out[a] |= 1 << b
    return Tournament(n, tuple(out))


@lru_cache(maxsize=64)
def _pair_table(n: int) -> Tuple[Tuple[int, int], ...]:
    """The pairs (x, y), x < y, in pair order."""
    return tuple(combinations(range(n), 2))


def adj(self) -> Tuple[int, ...]:
    """adj[x] is the bit mask of {y : f(x, y) = 1}, the color-1
    neighbors of x; computed on first use and kept on the instance."""
    adj = [0] * self.n
    table = _pair_table(self.n)
    bits = self.bits
    while bits:
        low = bits & -bits
        x, y = table[low.bit_length() - 1]
        adj[x] |= 1 << y
        adj[y] |= 1 << x
        bits ^= low
    return tuple(adj)


def from_function(cls, n: int, fn) -> "PairColoring":
    return cls(n, sum(1 << i for i, (x, y) in enumerate(_pair_table(n)) if fn(x, y)))


def restrict(self, vertices) -> "PairColoring":
    """Induced coloring on the given vertices after re-indexing them
    to 0..k-1 in the listed (ascending) order."""
    verts = list(vertices)
    return from_function(PairColoring, len(verts), lambda a, b: self.color(verts[a], verts[b]))


def to_bits(self) -> int:
    out = self.out
    return sum(1 << i for i, (x, y) in enumerate(_pair_table(self.n)) if (out[x] >> y) & 1)

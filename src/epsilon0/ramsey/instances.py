"""Finite problem instances: pair colorings, tournaments, orders, families.

Pairs {x, y} with x < y over [0, n) are indexed in the order
(0,1), (0,2), ..., (0,n-1), (1,2), ..., (n-2,n-1); colorings and
tournaments pack one bit per pair in that order.  For a tournament,
bit 1 at pair (x, y) with x < y means the edge points x -> y.

File formats (one instance per file):

* coloring / tournament: line 1 `n=<int>`, line 2 the C(n,2) bits as a
  string of '0'/'1' characters in pair order
* order: line 1 `n=<int>`, line 2 the ranking as a space-separated
  permutation of [0, n), i.e. the L-position of each vertex
* family: line 1 `n=<int> m=<int>`, then one set per line as
  space-separated elements, `-` for the empty set
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations
from typing import FrozenSet, Optional, Sequence, Tuple

__all__ = [
    "pair_index", "pair_count",
    "PairColoring", "Tournament", "LinearOrderInstance", "SetFamily",
    "parse_coloring", "format_coloring",
    "parse_tournament", "format_tournament",
    "parse_order", "format_order",
    "parse_family", "format_family",
]


def pair_count(n: int) -> int:
    return n * (n - 1) // 2


def pair_index(x: int, y: int, n: int) -> int:
    """Index of the unordered pair {x, y} (x < y) in pair order."""
    if x > y:
        x, y = y, x
    if x == y or x < 0 or y >= n:
        raise ValueError(f"bad pair ({x},{y}) for n={n}")
    return x * (2 * n - x - 1) // 2 + (y - x - 1)


@lru_cache(maxsize=64)
def _pair_table(n: int) -> Tuple[Tuple[int, int], ...]:
    """The pairs (x, y), x < y, in pair order."""
    return tuple(combinations(range(n), 2))


@dataclass(frozen=True)
class PairColoring:
    """A total 2-coloring of the pairs over [0, n), packed as a bit field."""

    n: int
    bits: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("n must be non-negative")
        if not 0 <= self.bits < (1 << pair_count(self.n)):
            raise ValueError("bits outside the C(n,2)-bit range")

    def color(self, x: int, y: int) -> int:
        return (self.bits >> pair_index(x, y, self.n)) & 1

    @cached_property
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

    @cached_property
    def out(self) -> Tuple[int, ...]:
        """out[x] is the out-mask of x in the tournament of the coloring,
        where x beats the y above it with f(x, y) = 1 and the y below it
        with f(y, x) = 0; computed on first use and kept on the instance."""
        adj = self.adj
        return tuple(adj[x] ^ ((1 << x) - 1) for x in range(self.n))

    @classmethod
    def from_function(cls, n: int, fn) -> "PairColoring":
        return cls(n, sum(1 << i for i, (x, y) in enumerate(_pair_table(n)) if fn(x, y)))

    def restrict(self, vertices: Sequence[int]) -> "PairColoring":
        """Induced coloring on the given vertices after re-indexing them
        to 0..k-1 in the listed (ascending) order."""
        verts = list(vertices)
        return PairColoring.from_function(len(verts), lambda a, b: self.color(verts[a], verts[b]))


@dataclass(frozen=True)
class Tournament:
    """An orientation of every pair over [0, n): out[a] is the bit mask of
    vertices that a beats.  Irreflexive and antisymmetric by construction."""

    n: int
    out: Tuple[int, ...]

    def __post_init__(self):
        if len(self.out) != self.n:
            raise ValueError("out must have one mask per vertex")
        for a in range(self.n):
            if self.out[a] >> self.n:
                raise ValueError("out mask wider than n")
            if (self.out[a] >> a) & 1:
                raise ValueError(f"vertex {a} beats itself")
        for a in range(self.n):
            for b in range(a + 1, self.n):
                ab = (self.out[a] >> b) & 1
                ba = (self.out[b] >> a) & 1
                if ab == ba:
                    raise ValueError(f"pair ({a},{b}) must be oriented exactly one way")

    def beats(self, a: int, b: int) -> bool:
        return bool((self.out[a] >> b) & 1)

    @classmethod
    def from_bits(cls, n: int, bits: int) -> "Tournament":
        """bit 1 at pair (x, y), x < y, means the edge x -> y: the
        tournament `PairColoring.out` of the coloring of `bits`.  Raises
        ValueError for bits outside the C(n,2)-bit range."""
        return cls(n, PairColoring(n, bits).out)

    def to_bits(self) -> int:
        out = self.out
        return sum(1 << i for i, (x, y) in enumerate(_pair_table(self.n)) if (out[x] >> y) & 1)

    @classmethod
    def from_order(cls, ranking: Sequence[int]) -> "Tournament":
        """Orientation where a beats b iff a comes earlier in the ranking."""
        n = len(ranking)
        out = [0] * n
        for a in range(n):
            for b in range(n):
                if a != b and ranking[a] < ranking[b]:
                    out[a] |= 1 << b
        return cls(n, tuple(out))


@dataclass(frozen=True)
class LinearOrderInstance:
    """A finite linear order given by the L-position of each vertex."""

    n: int
    ranking: Tuple[int, ...]

    def __post_init__(self):
        if len(self.ranking) != self.n or sorted(self.ranking) != list(range(self.n)):
            raise ValueError("ranking must be a permutation of [0, n)")

    def less(self, x: int, y: int) -> bool:
        return self.ranking[x] < self.ranking[y]


@dataclass(frozen=True)
class SetFamily:
    """A finite list of subsets of [0, n)."""

    n: int
    sets: Tuple[FrozenSet[int], ...]

    def __post_init__(self):
        masks = []
        for i, s in enumerate(self.sets):
            if s and (min(s) < 0 or max(s) >= self.n):
                raise ValueError(f"set {i} leaves the universe [0,{self.n})")
            mask = 0
            for x in s:
                mask |= 1 << x
            masks.append(mask)
        object.__setattr__(self, "_masks", tuple(masks))

    def masks(self) -> Tuple[int, ...]:
        """The bit mask of each set, built with the instance."""
        return self._masks


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

_INT_RE = re.compile(r"-?[0-9]+")


def _parse_int(token: str) -> int:
    """An integer in ASCII digits with an optional minus sign, written whole;
    int() alone would also take other digits, '+', '_' and blanks.  The CLI
    reads its integer operands and options with it too."""
    if _INT_RE.fullmatch(token) is None:
        raise ValueError(f"expected an integer, got {token!r}")
    return int(token)


def _parse_header(line: str) -> int:
    key, _, value = line.strip().partition("=")
    if key != "n" or _INT_RE.fullmatch(value) is None:
        raise ValueError(f"expected 'n=<int>' header, got {line!r}")
    n = int(value)
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    return n


def _parse_file(text: str) -> Tuple[int, Optional[str]]:
    """n from the header line and the line after it (None when the file
    ends at the header); blank lines are skipped, and a third line is
    refused."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("missing the 'n=<int>' header line")
    n = _parse_header(lines[0])
    if len(lines) > 2:
        raise ValueError(f"unexpected line after the instance: {lines[2]!r}")
    return n, (lines[1] if len(lines) > 1 else None)


def _parse_bits(line: Optional[str], n: int) -> int:
    if line is None and n > 1:
        raise ValueError(f"missing the line of {pair_count(n)} pair bits after the header")
    line = (line or "").strip()
    if len(line) != pair_count(n) or set(line) - {"0", "1"}:
        raise ValueError(f"expected {pair_count(n)} bits of 0/1")
    # bit i of the code is character i of the line
    return int(line[::-1] or "0", 2)


def _format_bits(bits: int, n: int) -> str:
    return "".join("1" if (bits >> i) & 1 else "0" for i in range(pair_count(n)))


def parse_coloring(text: str) -> PairColoring:
    n, body = _parse_file(text)
    return PairColoring(n, _parse_bits(body, n))


def format_coloring(f: PairColoring) -> str:
    return f"n={f.n}\n{_format_bits(f.bits, f.n)}\n"


def parse_tournament(text: str) -> Tournament:
    n, body = _parse_file(text)
    return Tournament.from_bits(n, _parse_bits(body, n))


def format_tournament(r: Tournament) -> str:
    return f"n={r.n}\n{_format_bits(r.to_bits(), r.n)}\n"


def parse_order(text: str) -> LinearOrderInstance:
    n, body = _parse_file(text)
    if n and body is None:
        raise ValueError(f"missing the ranking line of {n} positions after the header")
    ranking = tuple(_parse_int(tok) for tok in (body or "").split())
    return LinearOrderInstance(n, ranking)


def format_order(order: LinearOrderInstance) -> str:
    return f"n={order.n}\n{' '.join(str(r) for r in order.ranking)}\n"


def parse_family(text: str) -> SetFamily:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("missing the 'n=<int> m=<int>' header line")
    header = {}
    for part in lines[0].split():
        key, _, value = part.partition("=")
        if key not in ("n", "m") or key in header or _INT_RE.fullmatch(value) is None:
            raise ValueError(f"family header {lines[0]!r} is not 'n=<int> m=<int>'")
        header[key] = int(value)
    for key in ("n", "m"):
        if key not in header:
            raise ValueError(f"family header {lines[0]!r} has no '{key}=<int>'")
    n, m = header["n"], header["m"]
    if n < 0 or m < 0:
        raise ValueError(f"n and m must be non-negative, got n={n} m={m}")
    if len(lines) - 1 != m:
        raise ValueError(f"expected {m} set lines, found {len(lines) - 1}")
    sets = [frozenset() if ln == "-" else frozenset(_parse_int(t) for t in ln.split())
            for ln in lines[1:]]
    return SetFamily(n, tuple(sets))


def format_family(family: SetFamily) -> str:
    lines = [f"n={family.n} m={len(family.sets)}"]
    for s in family.sets:
        lines.append(" ".join(str(x) for x in sorted(s)) if s else "-")
    return "\n".join(lines) + "\n"

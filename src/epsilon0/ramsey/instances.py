"""Finite problem instances: pair colorings, tournaments, orders, families.

Pairs {x, y} with x < y over [0, n) are indexed in the order (0,1), (0,2),
..., (n-2,n-1): the row-major upper triangle of the n x n grid.  Colorings
and tournaments pack one bit per pair in that order; bit 1 at a tournament's
pair (x, y), x < y, means the edge x -> y.  One numpy codec turns int masks
into bool grid rows and back, a code being the mask of its one-row grid.

File formats (one instance per file):

* coloring / tournament: line 1 `n=<int>`, line 2 the C(n,2) bits as a
  string of '0'/'1' characters in pair order
* order: line 1 `n=<int>`, line 2 the ranking as a space-separated
  permutation of [0, n), i.e. the L-position of each vertex
* family: line 1 `n=<int> m=<int>`, then one set per line as
  space-separated elements, `-` for the empty set
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations, starmap
from typing import FrozenSet, Optional, Sequence, Tuple

# numpy is imported by each function that builds an array, never at the top:
# `import epsilon0` and the ordinal verbs then load none (see README.md).

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


@lru_cache(maxsize=4)
def _upper(n: int):
    """The n x n bool grid, True at the pairs (row-major: pair order), as a
    read-only view, since the cache shares it."""
    import numpy as np
    return np.broadcast_to(~np.tri(n, dtype=bool), (n, n))


def _row_masks(grid) -> Tuple[int, ...]:
    """Each row of a 2-d array as the int whose bit j is set where cell j is true."""
    import numpy as np
    packed = np.packbits(np.asarray(grid, dtype=bool), axis=1, bitorder="little")
    data, width = packed.tobytes(), packed.shape[1]
    return tuple(int.from_bytes(data[i * width:(i + 1) * width], "little")
                 for i in range(len(packed)))


def _mask_grid(masks: Sequence[int], width: int):
    """The bool grid whose row i is the low `width` bits of masks[i] (none wider)."""
    import numpy as np
    size = (width + 7) // 8
    rows = b"".join(int(mask).to_bytes(size, "little") for mask in masks)
    return np.unpackbits(np.frombuffer(rows, np.uint8).reshape(len(masks), size), axis=1,
                         count=width, bitorder="little").view(bool)


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
        grid = _upper(self.n).copy()        # its True cells, the pairs, take the code's bits
        grid[grid] = _mask_grid([self.bits], pair_count(self.n))[0]
        return _row_masks(grid | grid.T)

    @cached_property
    def out(self) -> Tuple[int, ...]:
        """out[x] is the out-mask of x in the tournament of the coloring,
        where x beats the y above it with f(x, y) = 1 and the y below it
        with f(y, x) = 0; computed on first use and kept on the instance."""
        adj = self.adj
        return tuple(adj[x] ^ ((1 << x) - 1) for x in range(self.n))

    @classmethod
    def from_function(cls, n: int, fn) -> "PairColoring":
        return cls(n, _row_masks([[*map(bool, starmap(fn, combinations(range(n), 2)))]])[0])

    def restrict(self, vertices: Sequence[int]) -> "PairColoring":
        """Induced coloring on the given vertices after re-indexing them
        to 0..k-1 in the listed (ascending) order."""
        verts = list(vertices)
        k = len(verts)
        if not all(type(v) is int and 0 <= v < self.n for v in verts) or len(set(verts)) < k:
            # the pairs one by one, so that the first bad one names the error
            return PairColoring.from_function(k, lambda a, b: self.color(verts[a], verts[b]))
        adj = self.adj
        grid = _mask_grid([adj[v] for v in verts], self.n)[:, verts]
        return PairColoring(k, _row_masks([grid[_upper(k)]])[0])


@dataclass(frozen=True)
class Tournament:
    """An orientation of every pair over [0, n): out[a] is the bit mask of
    vertices that a beats.  Irreflexive and antisymmetric by construction."""

    n: int
    out: Tuple[int, ...]

    def __post_init__(self):
        n = self.n
        if len(self.out) != n:
            raise ValueError("out must have one mask per vertex")
        for a in range(n):
            if self.out[a] >> n:
                raise ValueError("out mask wider than n")
            if (self.out[a] >> a) & 1:
                raise ValueError(f"vertex {a} beats itself")
        beats = _mask_grid(self.out, n)       # every pair at once, against the transpose
        same = (beats == beats.T) & _upper(n)   # the pairs oriented both ways or neither
        if same.any():
            a, b = (int(i[0]) for i in same.nonzero())      # the first, row-major
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
        return _row_masks([_mask_grid(self.out, self.n)[_upper(self.n)]])[0]

    @classmethod
    def from_order(cls, ranking: Sequence[int]) -> "Tournament":
        """Orientation where a beats b iff a comes earlier in the ranking."""
        import numpy as np
        rank = np.array(ranking, dtype=object)          # Python's `<` on every pair
        return cls(len(rank), _row_masks(rank[:, None] < rank))


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
        """Every mask in one numpy pass: the elements of all sets in a row,
        each set's row of an m x n bool grid scattered at them, and the
        grid's `_row_masks`."""
        import numpy as np
        sets, n = self.sets, self.n
        flat = np.array([x for s in sets for x in s])
        if flat.dtype.kind in "biu":
            flat = flat.astype(np.int64, copy=False)    # past 2^63 reads as negative
        elif len(flat):                           # a non-int, or an int past int64
            flat = np.array([operator.index(x) for s in sets for x in s], dtype=object)
        row = np.repeat(np.arange(len(sets)), np.fromiter(map(len, sets), np.intp, len(sets)))
        outside = (flat < 0) | (flat >= n)
        if outside.any():
            raise ValueError(f"set {row[outside.argmax()]} leaves the universe [0,{n})")
        grid = np.zeros((len(sets), int(flat.max(initial=-1)) + 1), dtype=bool)
        grid[row, flat.astype(np.intp, copy=False)] = True
        object.__setattr__(self, "_masks", _row_masks(grid))

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
    # character i is bit i of the code: the low C(n,2) bits, printed reversed
    m = pair_count(n)
    return format(bits & ((1 << m) - 1), f"0{m}b")[::-1] if m else ""


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

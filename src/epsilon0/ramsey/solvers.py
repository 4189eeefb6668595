"""Greedy desk-scale solvers: cohesive sets, transitive subtournaments,
monotone subsequences, and the composed pair-coloring pipeline.

The pipeline mirrors the classical decomposition: build the family
R_x = {y : f(x,y) = 1} and extract a cohesive-style set G0; view the
induced coloring on G0 as a tournament and extract a transitive G1;
read the induced transitive coloring on G1 as a linear order and take a
monotone subsequence H.  Monotone sequences of a transitive coloring are
one-colored, so the final set is homogeneous by construction, and
`verify_trace` re-derives every stage property from the original coloring
alone.  Both run on the coloring's adjacency masks (`PairColoring.adj`)
over the original vertex ids, without building the intermediate
instances; `coh_solve`, `em_solve` and `ads_solve` wrap the same cores for
stand-alone families, tournaments and orders.

"Infinite" notions are finitized deterministically:

* limit classification replaces "for almost all y" by "for all y in the
  top-w window"; vertices agreeing with neither side are undecided;
* the cohesive solver walks the family once, keeping the larger side of
  each split (ties to side 1); when a split would leave fewer secured
  elements than the target, the reservoir's minimum is committed to the
  output first and the side re-chosen on the remainder; per-set
  thresholds record from which element on the containment promise holds;
* the ascending/descending solver classifies by the median predecessor
  count, runs the classification-directed split-pair greedy for the
  record, and returns the longest monotone subsequence in either
  direction (patience piles), whose length is at least ceil(sqrt(k)) on
  k decided elements.

Everything breaks ties the same way: smallest vertex, side 1 first,
ascending before descending.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass, fields
from math import ceil
from typing import FrozenSet, List, Optional, Sequence, Tuple

from .checkers import _cohesive_offender, _off_color_pair, _subset_mask, coloring_is_transitive
from .instances import LinearOrderInstance, PairColoring, SetFamily, Tournament

__all__ = [
    "Classification", "limit_classification",
    "CohResult", "EmptyCellError", "coh_solve",
    "EmResult", "em_solve", "em_solve_masks",
    "AdsResult", "ads_solve",
    "SolverTrace", "TraceCheck", "rt22_solve", "verify_trace",
    "default_window",
]

UNDECIDED = -1


def default_window(n: int) -> int:
    return max(1, ceil(n / 3)) if n else 0


@dataclass(frozen=True)
class Classification:
    """Window-limit partition of the vertices of a tournament."""

    window: int
    a0: FrozenSet[int]
    a1: FrozenSet[int]
    undecided: FrozenSet[int]

    def side(self, x: int) -> int:
        if x in self.a0:
            return 0
        if x in self.a1:
            return 1
        return UNDECIDED


def _window_mask(n: int, verts: Sequence[int], w: int) -> int:
    """Mask of the top w of the ascending vertex ids `verts` in [0, n)."""
    return _subset_mask(n, verts[max(len(verts) - w, 0):])


def _classify_masks(out: Sequence[int], verts: Sequence[int], wmask: int) -> List[int]:
    """Window side of each vertex of `verts`, indexed by vertex id
    (UNDECIDED off `verts`); `wmask` is the window."""
    sides = [UNDECIDED] * len(out)
    for x in verts:
        rest = wmask & ~(1 << x)
        if not rest & out[x]:           # every window vertex beats x
            sides[x] = 1
        elif not rest & ~out[x]:        # x beats every window vertex
            sides[x] = 0
    return sides


def _classification(w: int, sides: Sequence[int]) -> Classification:
    return Classification(
        window=w,
        a0=frozenset(x for x, side in enumerate(sides) if side == 0),
        a1=frozenset(x for x, side in enumerate(sides) if side == 1),
        undecided=frozenset(x for x, side in enumerate(sides) if side == UNDECIDED),
    )


def limit_classification(r: Tournament, w: int) -> Classification:
    """x is in A0 when it beats everything in the window [n-w, n) other
    than itself, in A1 when everything there beats it, else undecided.
    A vacuously empty window assigns side 1."""
    if w > r.n or w < 0:
        raise ValueError(f"window must lie in [0, {r.n}]")
    verts = range(r.n)
    return _classification(w, _classify_masks(r.out, verts, _window_mask(r.n, verts, w)))


# ---------------------------------------------------------------------------
# Cohesive stage
# ---------------------------------------------------------------------------

class EmptyCellError(ValueError):
    """The family ran out of elements before any cell was secured."""

    def __init__(self, prefix: Tuple[int, ...]):
        super().__init__(f"empty cell at side prefix {''.join(map(str, prefix))!r}")
        self.prefix = prefix


@dataclass(frozen=True)
class CohResult:
    chosen: Tuple[int, ...]       # the set C, ascending
    sides: Tuple[int, ...]        # 0 = complement, 1 = the set itself
    thresholds: Tuple[int, ...]   # C above thresholds[i] honors sides[i]


def coh_solve(family: SetFamily, target: int) -> CohResult:
    """Greedy one-pass refinement through the family.

    For each set the side retaining more of the current reservoir wins
    (ties to side 1).  When the winning side would leave fewer than
    `target` elements secured (committed plus surviving), the reservoir's
    minimum is committed to the output first and the side is re-chosen on
    the remainder; committed elements are excused from the current and all
    later sets, which the recorded thresholds express (threshold n means
    the set constrains nothing).  The output is the committed prefix plus
    the smallest surviving reservoir elements, up to `target` in total;
    for a universe of at least two elements and target >= 2 it always has
    at least two elements.
    """
    if not 0 <= target <= family.n:
        raise ValueError("target must lie in [0, n]")
    return _coh_masks(family.n, family.masks(), target)


def _coh_masks(n: int, masks: Sequence[int], target: int) -> CohResult:
    """coh_solve on the sets given as bit masks over [0, n)."""
    reservoir = (1 << n) - 1
    committed: List[int] = []
    sides: List[int] = []
    thresholds: List[int] = []

    def split(pool: int, mask: int) -> Tuple[int, int]:
        inside = pool & mask
        outside = pool & ~mask
        side = 1 if inside.bit_count() >= outside.bit_count() else 0
        return side, (inside if side else outside)

    for mask in masks:
        if not reservoir and not committed:
            raise EmptyCellError(tuple(sides))
        side, cell = split(reservoir, mask)
        if reservoir and len(committed) + cell.bit_count() < target:
            committed.append((reservoir & -reservoir).bit_length() - 1)
            reservoir &= reservoir - 1
            side, cell = split(reservoir, mask)
        reservoir = cell
        sides.append(side)
        thresholds.append((reservoir & -reservoir).bit_length() - 1 if reservoir else n)
    while len(committed) < target and reservoir:
        committed.append((reservoir & -reservoir).bit_length() - 1)
        reservoir &= reservoir - 1
    return CohResult(tuple(committed), tuple(sides), tuple(thresholds))


# ---------------------------------------------------------------------------
# Transitive stage
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EmResult:
    subset: Tuple[int, ...]
    classification: Classification
    # one record per vertex added by the main pass:
    # (vertex, side, reservoir mask before the addition)
    steps: Tuple[Tuple[int, int, int], ...]
    completed: Tuple[int, ...]  # vertices added by the closure pass


def _score_ok(out: Sequence[int], mask: int) -> bool:
    """The sub-tournament on `mask` is transitive: its within-set
    out-degrees are pairwise distinct (the score test)."""
    seen = 0
    m = mask
    while m:
        v = (m & -m).bit_length() - 1
        m &= m - 1
        score = 1 << (out[v] & mask).bit_count()
        if seen & score:
            return False
        seen |= score
    return True


def _em_core(out: Sequence[int], verts: Sequence[int], universe: int,
             wmask: int) -> Tuple[List[int], int, List[Tuple[int, int, int]], List[int]]:
    """The EM passes over the ascending vertex ids `verts` (whose mask is
    `universe`) of the tournament given by out-masks indexed by vertex id,
    classified by the window mask `wmask`.  Returns (sides by vertex id,
    subset mask, steps, completions)."""
    sides = _classify_masks(out, verts, wmask)
    reservoir = universe
    chosen = 0
    steps: List[Tuple[int, int, int]] = []
    for x in verts:
        if not (reservoir >> x) & 1:
            continue
        side = sides[x]
        if side == UNDECIDED:
            continue
        steps.append((x, side, reservoir))
        chosen |= 1 << x
        keep = out[x] if side == 0 else ~out[x]
        reservoir &= keep & -(2 << x)     # the kept side, above x
    completed: List[int] = []
    for x in verts:
        if (chosen >> x) & 1:
            continue
        candidate = chosen | (1 << x)
        if _score_ok(out, candidate):
            chosen = candidate
            completed.append(x)
    return sides, chosen, steps, completed


def em_solve_masks(n: int, out: Sequence[int], w: int) -> Tuple[int, List[Tuple[int, int, int]], List[int]]:
    """Core of em_solve on raw out-masks; returns (subset mask, steps,
    completions) and builds no EmResult.  Sampled tournament sweeps run it
    per instance; exhaustive sweeps run the numpy kernels of `sweep`."""
    verts = range(n)
    _, chosen, steps, completed = _em_core(out, verts, (1 << n) - 1, _window_mask(n, verts, w))
    return chosen, steps, completed


def em_solve(r: Tournament, w: Optional[int] = None) -> EmResult:
    """Grow a transitive subtournament.

    The main pass takes the least unused vertex whose window class is
    decided and inserts it into the minimal interval the reservoir
    occupies; the reservoir then shrinks to the side of the new vertex
    matching its class (class 0 keeps its out-neighbors, class 1 its
    in-neighbors), so the set stays transitive by construction.  A closure
    pass then inserts every remaining vertex that still fits some minimal
    interval.  The result is transitive for every tournament and window.
    """
    if w is None:
        w = default_window(r.n)
    if w > r.n or w < 0:
        raise ValueError(f"window must lie in [0, {r.n}]")
    verts = range(r.n)
    sides, chosen, steps, completed = _em_core(
        r.out, verts, (1 << r.n) - 1, _window_mask(r.n, verts, w))
    return EmResult(
        subset=tuple(x for x in verts if (chosen >> x) & 1),
        classification=_classification(w, sides),
        steps=tuple(steps),
        completed=tuple(completed),
    )


# ---------------------------------------------------------------------------
# Monotone stage
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AdsResult:
    direction: str                      # "ascending" or "descending"
    sequence: Tuple[int, ...]           # vertices, increasing; monotone in L
    ascending: Tuple[int, ...]          # best ascending candidate
    descending: Tuple[int, ...]         # best descending candidate
    u_set: FrozenSet[int]               # median classification: few predecessors
    v_set: FrozenSet[int]
    greedy_ascending: Tuple[int, ...]   # classification-directed greedy pair
    greedy_descending: Tuple[int, ...]


def _patience_lis(keys: Sequence[int]) -> List[int]:
    """Indices of one longest strictly increasing subsequence of distinct
    keys, via patience piles with backpointers."""
    tops: List[int] = []
    top_idx: List[int] = []
    back: List[Optional[int]] = [None] * len(keys)
    for i, key in enumerate(keys):
        pos = bisect_left(tops, key)
        if pos == len(tops):
            tops.append(key)
            top_idx.append(i)
        else:
            tops[pos] = key
            top_idx[pos] = i
        back[i] = top_idx[pos - 1] if pos > 0 else None
    if not top_idx:
        return []
    chain = []
    j: Optional[int] = top_idx[-1]
    while j is not None:
        chain.append(j)
        j = back[j]
    chain.reverse()
    return chain


def _split_pair_greedy(order: LinearOrderInstance,
                       in_u: Sequence[bool]) -> Tuple[List[int], List[int]]:
    """First-fit split-pair greedy: U-vertices may extend the ascending
    run, V-vertices the descending run, subject to the pair invariant
    max_L(ascending) <_L min_L(descending)."""
    rank = order.ranking
    asc: List[int] = []
    desc: List[int] = []
    for x in range(order.n):
        if in_u[x]:
            if (not asc or rank[x] > rank[asc[-1]]) and (not desc or rank[x] < rank[desc[-1]]):
                asc.append(x)
        else:
            if (not desc or rank[x] < rank[desc[-1]]) and (not asc or rank[asc[-1]] < rank[x]):
                desc.append(x)
    return asc, desc


def _longest_monotone(rank: Sequence[int]) -> Tuple[str, List[int], List[int], List[int]]:
    """(direction, sequence, ascending, descending): the longest ascending
    and descending subsequences of the distinct ranks and the longer of
    the two (ties to ascending), as index lists."""
    ascending = _patience_lis(rank)
    descending = _patience_lis([-r for r in rank])
    if len(ascending) >= len(descending):
        return "ascending", ascending, ascending, descending
    return "descending", descending, ascending, descending


def ads_solve(order: LinearOrderInstance) -> AdsResult:
    """Longest ascending-or-descending subsequence, with the split-pair
    greedy recorded alongside.

    Vertices with fewer than n/2 predecessors form U, the rest V; the
    class-directed greedy documents the split-pair construction, while the
    returned sequence is the better of the longest ascending and longest
    descending subsequences (ties to ascending), which guarantees length
    at least ceil(sqrt(k)) for k decided vertices.
    """
    n = order.n
    rank = order.ranking
    in_u = [rank[x] * 2 < n for x in range(n)]
    greedy_asc, greedy_desc = _split_pair_greedy(order, in_u)
    direction, sequence, ascending, descending = _longest_monotone(rank)
    return AdsResult(
        direction=direction,
        sequence=tuple(sequence),
        ascending=tuple(ascending),
        descending=tuple(descending),
        u_set=frozenset(x for x in range(n) if in_u[x]),
        v_set=frozenset(x for x in range(n) if not in_u[x]),
        greedy_ascending=tuple(greedy_asc),
        greedy_descending=tuple(greedy_desc),
    )


# ---------------------------------------------------------------------------
# Composed pipeline
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SolverTrace:
    """Record of one pipeline run; all vertex sets use original ids."""

    n: int
    window: int
    cohesive_set: Tuple[int, ...]
    cohesive_sides: Tuple[int, ...]
    cohesive_thresholds: Tuple[int, ...]
    transitive_set: Tuple[int, ...]
    transitive_steps: Tuple[Tuple[int, int], ...]  # (vertex, class side)
    monotone_direction: str
    monotone_set: Tuple[int, ...]
    final_set: Tuple[int, ...]
    final_color: int

    def to_json(self) -> str:
        return json.dumps(self.__dict__, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "SolverTrace":
        """The trace of a `to_json` document.  ValueError unless `text` is a
        JSON object holding every field with the JSON type `to_json` writes
        there (a bool is no int; other keys are ignored)."""
        try:
            data = json.loads(text)
        except RecursionError:
            raise ValueError("trace nested too deeply") from None
        for f in fields(cls):
            if not (isinstance(data, dict) and _WRITES[f.type](data.get(f.name))):
                raise ValueError(f"a trace is a JSON object with field {f.name!r} of type {f.type}")
        return cls(**{f.name: _tuples(data[f.name]) for f in fields(cls)})


#: Per field annotation: is a JSON value what `to_json` writes there?
_WRITES = {
    "int": lambda v: type(v) is int,
    "str": lambda v: type(v) is str,
    "Tuple[int, ...]": lambda v: type(v) is list and all(type(x) is int for x in v),
    "Tuple[Tuple[int, int], ...]": lambda v: type(v) is list and all(
        type(p) is list and len(p) == 2 and all(type(x) is int for x in p) for p in v),
}


def _tuples(value):
    """JSON lists back to the nested tuples of a SolverTrace field."""
    return tuple(map(_tuples, value)) if isinstance(value, list) else value


def rt22_solve(f: PairColoring, window: Optional[int] = None) -> SolverTrace:
    """Full pipeline on a pair coloring; the result is homogeneous.

    Every stage runs on the coloring's adjacency masks `f.adj`, over the
    original vertex ids.  The cohesive family is R_x = adj[x].  EM runs on
    the tournament x -> y iff (x < y and f(x,y) = 1) or (x > y and
    f(x,y) = 0), whose out-masks are `f.out`, with G0 as the universe and
    the top w0 of G0 as the window; w0 defaults to ceil(|G0|/3), or is
    the given window clipped to |G0|.  The linear order of the transitive
    coloring on G1 ranks each vertex by its in-degree within G1, and the
    monotone stage is the longest ascending or descending run of those
    ranks.  `verify_trace` checks the result.
    """
    n = f.n
    if n < 1:
        raise ValueError("the coloring needs at least one vertex")
    adj = f.adj

    coh = _coh_masks(n, adj, n)
    g0 = list(coh.chosen)

    w0 = min(window, len(g0)) if window is not None else default_window(len(g0))
    if w0 < 0:
        raise ValueError(f"window must lie in [0, {len(g0)}]")
    out = f.out
    _, chosen, steps, _ = _em_core(out, g0, _subset_mask(n, g0), _window_mask(n, g0, w0))
    g1 = [x for x in g0 if (chosen >> x) & 1]

    # L-rank: the number of G1 vertices beating x (x itself is in chosen
    # and not in out[x]); distinct ranks are the score test for transitivity.
    rank = [(chosen & ~out[x]).bit_count() - 1 for x in g1]
    if len(set(rank)) != len(g1):
        check = coloring_is_transitive(f, g1)
        witness = tuple(g1.index(v) for v in check.witness)
        raise ValueError(f"coloring is not transitive (witness {witness})")
    direction, sequence, _, _ = _longest_monotone(rank)
    h = tuple(g1[a] for a in sequence)

    return SolverTrace(
        n=n,
        window=w0,
        cohesive_set=coh.chosen,
        cohesive_sides=coh.sides,
        cohesive_thresholds=coh.thresholds,
        transitive_set=tuple(g1),
        transitive_steps=tuple((x, side) for x, side, _ in steps),
        monotone_direction=direction,
        monotone_set=h,
        final_set=h,
        final_color=(adj[h[0]] >> h[1]) & 1 if len(h) >= 2 else 0,
    )


@dataclass(frozen=True)
class TraceCheck:
    ok: bool
    stage: Optional[str] = None  # first failing stage
    detail: str = ""


def verify_trace(trace: SolverTrace, f: PairColoring) -> TraceCheck:
    """Re-check every stage inclusion and defining property from scratch.

    Stages are checked in pipeline order — cohesive, transitive, monotone,
    final — and the first failure is reported.  Every property is tested
    on the coloring's adjacency masks `f.adj`: the cohesive and monotone
    stages run the checkers' cohesive and off-color-pair searches, the
    transitive stage its own score test, and `coloring_is_transitive`
    names the witness triple once transitivity is known to fail.  The
    monotone stage checks every pair of the final set, so homogeneity is
    checked once, there.
    """
    n = f.n
    if trace.n != n:
        return TraceCheck(False, "cohesive", "vertex count mismatch")
    c = list(trace.cohesive_set)
    if c != sorted(set(c)) or c and (c[0] < 0 or c[-1] >= n):   # c ascends
        return TraceCheck(False, "cohesive", "not an ascending subset of the universe")
    if len(trace.cohesive_sides) != n or len(trace.cohesive_thresholds) != n:
        return TraceCheck(False, "cohesive", "one side and threshold per vertex set required")
    adj = f.adj
    # the sets are R_i = adj[i]; i itself is never in adj[i]
    sides, thresholds = trace.cohesive_sides, trace.cohesive_thresholds
    offender = _cohesive_offender(adj, _subset_mask(n, c), sides, thresholds)
    if offender is not None:
        i, x = offender
        return TraceCheck(False, "cohesive", f"element {x} above threshold {thresholds[i]} "
                          f"breaks side {sides[i]} of set {i}")

    g1 = list(trace.transitive_set)
    if not set(g1) <= set(c) or g1 != sorted(set(g1)):
        return TraceCheck(False, "transitive", "not a subset of the cohesive stage")
    # score test on the tournament x -> y iff f(x,y) == (x < y): the set is
    # transitive iff its out-degrees within the set are distinct
    g1mask = _subset_mask(n, g1)
    seen = 0
    for x in g1:
        score = 1 << (g1mask & (adj[x] ^ ((1 << x) - 1))).bit_count()
        if seen & score:
            check = coloring_is_transitive(f, g1)
            return TraceCheck(False, "transitive", f"not transitive, witness {check.witness}")
        seen |= score

    h = list(trace.monotone_set)
    if not set(h) <= set(g1) or h != sorted(set(h)):
        return TraceCheck(False, "monotone", "not a subset of the transitive stage")
    if trace.monotone_direction not in ("ascending", "descending"):
        return TraceCheck(False, "monotone", "unknown direction")
    want = 1 if trace.monotone_direction == "ascending" else 0
    pair = _off_color_pair(adj, _subset_mask(n, h), want)
    if pair is not None:
        return TraceCheck(False, "monotone", f"pair ({pair[0]},{pair[1]}) breaks "
                          f"{trace.monotone_direction} monotonicity")

    if list(trace.final_set) != h:
        return TraceCheck(False, "final", "final set differs from the monotone stage")
    # every pair of h has color `want`: h is homogeneous in that color
    if (want if len(h) >= 2 else 0) != trace.final_color:
        return TraceCheck(False, "final", "recorded color disagrees with the checker")
    return TraceCheck(True)

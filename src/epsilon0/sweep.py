"""Instance sweeps: run a solver plus its checkers over a family of
instances and aggregate the outcomes into a Report.

Exhaustive sweeps enumerate instance codes in increasing order (colorings
and tournaments: the packed pair bits; orders: permutations in
lexicographic order).  Sampled sweeps draw instance i from the documented
generator with seed (base_seed + i) mod 2^64.  Rows (and coloring traces)
beyond `max_rows` are dropped from the report but still counted, keeping
memory flat on large sweeps.

Every exhaustive sweep runs as numpy passes over chunks of _CHUNK
instances, all instances of a chunk stepping through the vertices
together on uint8 masks (n <= 8 is all that EXHAUSTIVE_PAIR_LIMIT
admits); no scalar solver, checker or trace encoder runs per instance.

* Tournaments: one out-mask per vertex and code, and EM's two passes.
  Besides the EM result the kernel checks the classical
  transitive-subtournament bound floor(log2 n) + 1 on every code, by a
  rule per bound (a subset of a transitive set is transitive, so
  "maximum >= k" and "some k-subset is transitive" agree): bound <= 2
  needs n >= bound; bound 3 (n = 4..7) some vertex that beats two others;
  bound 4 (n = 8) some two vertices that both beat the same two others.
* Colorings: `_coloring_chunk` is rt22_solve per code (coh, the window,
  EM over G0, the L-rank and the patience piles).  The `ok` column comes
  from `_verify_coloring_chunk`, which re-derives verify_trace's first
  failing stage from the pair bits and the kernel's output and shares no
  helper with the kernel.  Trace lines are written from the arrays,
  byte-identical to SolverTrace.to_json, for the rows kept only.
* Orders: the same patience kernel over the permutations in
  itertools.permutations order, with the `monotone` column checked
  against each permutation on its own.

Sampled sweeps run the scalar solvers, checkers and `to_json` per
instance, and those scalar functions are the reference that the kernels
are tested against.
"""

from __future__ import annotations

import itertools
from math import factorial, isqrt
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from .generate import make_coloring, make_family, make_order, make_tournament
from .ramsey.checkers import _cohesive_offender, _subset_mask, is_transitive
from .ramsey.instances import (
    LinearOrderInstance,
    PairColoring,
    SetFamily,
    Tournament,
    pair_count,
)
from .ramsey.oracles import has_transitive_of_size
from .ramsey.solvers import (
    CohResult,
    _window_mask,
    ads_solve,
    coh_solve,
    default_window,
    em_solve_masks,
    rt22_solve,
    verify_trace,
)
from .report import Report

__all__ = ["sweep", "transitive_bound", "ascdesc_bound", "verify_cohesive",
           "exhaustive_triple_ok", "EXHAUSTIVE_PAIR_LIMIT"]

#: Exhaustive sweeps refuse instances with more pair bits than this.
EXHAUSTIVE_PAIR_LIMIT = 28

_MASK64 = (1 << 64) - 1


def transitive_bound(n: int) -> int:
    """floor(log2 n) + 1, the guaranteed transitive subtournament size."""
    return n.bit_length() if n >= 1 else 0


def ascdesc_bound(k: int) -> int:
    """ceil(sqrt(k)), the guaranteed monotone subsequence length."""
    return isqrt(k - 1) + 1 if k >= 1 else 0


def verify_cohesive(family: SetFamily, result: CohResult) -> bool:
    """Every chosen element at or above a set's threshold lies on the
    recorded side of that set.  False when the side or threshold count is
    not the set count; ValueError for a chosen element outside [0, n)."""
    m = len(family.sets)
    if len(result.sides) != m or len(result.thresholds) != m:
        return False
    return _cohesive_offender(family.masks(), _subset_mask(family.n, result.chosen),
                              result.sides, result.thresholds) is None


#: Instance ids per numpy chunk of an exhaustive sweep.
_CHUNK = 1 << 16

#: Set bits of every uint8 value (np.bitwise_count needs numpy >= 2).
_POPCOUNT = np.array([bin(v).count("1") for v in range(256)], dtype=np.uint8)

#: A direction column value, indexed by "ascending".
_DIRECTIONS = ("descending", "ascending")


def _out_mask_array(n: int, codes: np.ndarray) -> np.ndarray:
    """Out-masks of the tournaments with the given pair codes: row x holds
    out[x] for every code, as uint8 (n <= 8)."""
    out = np.zeros((n, len(codes)), dtype=np.uint8)
    for i, (x, y) in enumerate(itertools.combinations(range(n), 2)):
        bit = ((codes >> i) & 1).astype(np.uint8)
        out[x] |= bit << y
        out[y] |= (bit ^ 1) << x
    return out


def _score_ok(out: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """is_transitive_mask per code: the within-`mask` out-degrees of the
    members are pairwise distinct, i.e. as many distinct degrees are seen
    as there are members."""
    seen = np.zeros_like(mask)
    for v, row in enumerate(out):
        member = (mask >> v) & 1
        seen |= (np.uint8(1) << _POPCOUNT.take(row & mask)) * member
    return _POPCOUNT.take(seen) == _POPCOUNT.take(mask)


def _has_transitive(out: np.ndarray, k: int) -> np.ndarray:
    """Per code: does the tournament have a transitive subtournament on k
    vertices?  A transitive triple is a vertex and two it beats; a
    transitive quadruple is two vertices (its top two, oriented either
    way) and two that both beat.  k <= 4."""
    n = len(out)
    if k <= 2:
        return np.full(out.shape[1], n >= k)
    if k == 3:
        return ((out & (out - np.uint8(1))) != 0).any(axis=0)    # two set bits
    if k == 4:
        ok = np.zeros(out.shape[1], dtype=bool)
        for x, y in itertools.combinations(range(n), 2):
            common = out[x] & out[y]
            ok |= (common & (common - np.uint8(1))) != 0
        return ok
    raise ValueError(f"no vectorized rule for transitive subsets of size {k}")


def _low_index(mask: np.ndarray, empty: int) -> np.ndarray:
    """The least vertex of each uint8 mask, `empty` for an empty one."""
    low = mask & (~mask + np.uint8(1))
    return np.where(mask != 0, _POPCOUNT.take(low - np.uint8(1)), empty)


def _em_passes(out: np.ndarray, universe, wmask) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`_em_core` per code: the main pass over the vertices of `universe`
    classified by the window `wmask` (uint8 masks, per code or shared),
    then the closure pass.  Returns (steps, step sides, chosen) as masks:
    the main-pass vertices, those of them with class side 1, and the
    result.  All codes step through the vertices in the same order as the
    scalar passes."""
    universe = np.asarray(universe, dtype=np.uint8)
    reservoir = np.broadcast_to(universe, out.shape[1:])
    chosen = np.zeros(out.shape[1:], dtype=np.uint8)
    step_sides = np.zeros_like(chosen)
    for x, row in enumerate(out):
        rest = wmask & np.uint8(0xFF ^ (1 << x))
        one = (row & rest) == 0                   # every window vertex beats x
        zero = ~one & ((~row & rest) == 0)        # x beats every window vertex
        take = ((reservoir >> x) & 1).astype(bool) & (one | zero)
        keep = np.where(zero, row, ~row) & np.uint8(0xFF & -(2 << x))
        reservoir = np.where(take, reservoir & keep, reservoir)
        chosen |= np.uint8(1 << x) * take
        step_sides |= np.uint8(1 << x) * (take & one)
    steps = chosen
    for x in range(len(out)):
        candidate = chosen | np.uint8(1 << x)
        fits = ((universe >> x) & 1).astype(bool) & _score_ok(out, candidate)
        chosen = np.where(fits, candidate, chosen)
    return steps, step_sides, chosen


def _tournament_chunk(n: int, codes: np.ndarray, w: int
                      ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """em_solve_masks, the transitivity of its result and the bound check,
    over an array of pair codes at once: returns (chosen masks as uint8,
    transitive, bound_ok)."""
    out = _out_mask_array(n, codes)
    _, _, chosen = _em_passes(out, (1 << n) - 1, _window_mask(n, range(n), w))
    return chosen, _score_ok(out, chosen), _has_transitive(out, transitive_bound(n))


def exhaustive_triple_ok(n: int) -> np.ndarray:
    """For every n-vertex tournament code: does a transitive triple exist
    (some vertex beats two others)?"""
    codes = np.arange(1 << pair_count(n), dtype=np.uint32)
    return _has_transitive(_out_mask_array(n, codes), 3)


def _patience(keys: np.ndarray, active: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """`_patience_lis` on every row of a codes x positions int8 key array at
    once, over the positions where `active` holds (their keys distinct):
    returns (length, mask of the positions of the chain) per row.  Pile
    tops are padded with 127, above every key; a pointer of -1 reads the
    padding column."""
    m, n = keys.shape
    rows = np.arange(m)
    tops = np.full((m, n + 1), 127, dtype=np.int8)
    top_at = np.full((m, n + 1), -1, dtype=np.int8)    # position on each pile's top
    back = np.full((m, n + 1), -1, dtype=np.int8)
    length = np.zeros(m, dtype=np.intp)
    for i in range(n):
        key, act = keys[:, i], active[:, i]
        pos = np.count_nonzero(tops < key[:, None], axis=1)    # bisect_left
        back[:, i] = np.where(act, top_at[rows, pos - 1], -1)
        tops[rows, pos] = np.where(act, key, tops[rows, pos])
        top_at[rows, pos] = np.where(act, i, top_at[rows, pos])
        length = np.where(act, np.maximum(length, pos + 1), length)
    bit = np.array([1 << i for i in range(n)] + [0], dtype=np.uint8)
    chain = np.zeros(m, dtype=np.uint8)
    at = top_at[rows, length - 1]
    for _ in range(n):
        chain |= bit[at]
        at = back[rows, at]
    return length, chain


def _longest_monotone(keys: np.ndarray, active: np.ndarray
                      ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The solvers' `_longest_monotone` per row: (ascending, length, chain
    mask) of the longer of the longest ascending and descending runs,
    ties to ascending."""
    up_len, up = _patience(keys, active)
    down_len, down = _patience(-keys, active)
    ascending = up_len >= down_len
    return ascending, np.where(ascending, up_len, down_len), np.where(ascending, up, down)


class _ColoringChunk(NamedTuple):
    """rt22_solve over a chunk of codes: uint8 vertex masks and per-code
    values, one entry per code."""

    g0: np.ndarray            # the cohesive set
    sides: np.ndarray         # bit x: the side kept of the set R_x
    thresholds: np.ndarray    # n x codes: the threshold of each set R_x
    window: np.ndarray        # w0
    steps: np.ndarray         # the vertices of EM's main pass
    step_sides: np.ndarray    # bit x: class side 1 of a main-pass vertex x
    g1: np.ndarray            # the transitive set
    ascending: np.ndarray     # the monotone direction
    h: np.ndarray             # the monotone and final set
    color: np.ndarray         # the final color


def _coloring_chunk(n: int, codes: np.ndarray, window: Optional[int]) -> _ColoringChunk:
    """rt22_solve over an array of pair codes at once (n <= 8), all codes
    stepping through the vertices in the scalar pipeline's order: coh with
    target n, EM over G0 with the top w0 of G0 as the window, the L-rank
    as the in-degree within G1, and the longest monotone run of those
    ranks.  Raises rt22_solve's errors for n = 0 and for a negative window
    (naming |G0| of the chunk's first code)."""
    if n < 1:
        raise ValueError("the coloring needs at least one vertex")
    out = _out_mask_array(n, codes)
    below = np.array([(1 << x) - 1 for x in range(n)], dtype=np.uint8)
    adj = out ^ below[:, None]                    # R_x: the color-1 neighbours of x

    def split(pool, mask):                        # the larger side, ties to side 1
        inside, outside = pool & mask, pool & ~mask
        side = _POPCOUNT.take(inside) >= _POPCOUNT.take(outside)
        return side, np.where(side, inside, outside)

    reservoir = np.full(len(codes), (1 << n) - 1, dtype=np.uint8)
    committed = np.zeros_like(reservoir)
    count = np.zeros_like(reservoir)
    sides = np.zeros_like(reservoir)
    thresholds = np.empty((n, len(codes)), dtype=np.uint8)
    for x, mask in enumerate(adj):
        _, cell = split(reservoir, mask)
        short = (reservoir != 0) & (count + _POPCOUNT.take(cell) < n)
        low = reservoir & (~reservoir + np.uint8(1))
        committed |= low * short
        count += short
        side, reservoir = split(np.where(short, reservoir ^ low, reservoir), mask)
        sides |= np.uint8(1 << x) * side
        thresholds[x] = _low_index(reservoir, n)
    g0 = committed | reservoir                    # target n commits the whole reservoir

    size0 = _POPCOUNT.take(g0)
    if window is None:
        w0 = np.array([default_window(k) for k in range(n + 1)], dtype=np.uint8).take(size0)
    elif window < 0:
        raise ValueError(f"window must lie in [0, {size0[0]}]")
    else:
        w0 = np.minimum(size0, min(window, n))
    wmask = g0
    for i in range(n):                            # drop the lowest |G0| - w0 vertices
        wmask = np.where(size0 - w0 > i, wmask & (wmask - np.uint8(1)), wmask)
    steps, step_sides, g1 = _em_passes(out, g0, wmask)

    members = ((g1[:, None] >> np.arange(n, dtype=np.uint8)) & 1).astype(bool)
    rank = _POPCOUNT.take(g1 & ~out).astype(np.int8) - 1      # G1 vertices beating x
    ascending, _, h = _longest_monotone(np.ascontiguousarray(rank.T), members)
    rest = h & (h - np.uint8(1))
    first = out[_low_index(h, 0), np.arange(len(codes))]
    color = np.where(rest != 0, (first >> _low_index(rest, 0)) & 1, 0).astype(np.uint8)
    return _ColoringChunk(g0, sides, thresholds, w0, steps, step_sides, g1, ascending, h, color)


#: The stages of verify_trace, in its order.
_STAGES = ("cohesive", "transitive", "monotone", "final")


def _verify_coloring_chunk(n: int, codes: np.ndarray, chunk: _ColoringChunk) -> np.ndarray:
    """verify_trace on every code of a chunk: 0 where every stage holds,
    else 1 + the index in _STAGES of the first failing stage.  It reads
    the colors from the pair bits itself and checks each property by its
    definition, sharing no helper with `_coloring_chunk`: cohesion set by
    set and element, transitivity on increasing triples (equal colors on
    {x,y} and {y,z} force that color on {x,z}), monotonicity as one color
    on every pair of H, and the final color against the direction."""
    color = {}
    for i, (x, y) in enumerate(itertools.combinations(range(n), 2)):
        color[x, y] = color[y, x] = ((codes >> i) & 1).astype(bool)
    never = np.zeros(len(codes), dtype=bool)

    def members(mask):
        return [((mask >> x) & 1).astype(bool) for x in range(n)]

    g0, g1, h = members(chunk.g0), members(chunk.g1), members(chunk.h)
    cohesive = never
    for i, thr in enumerate(chunk.thresholds):
        side = ((chunk.sides >> i) & 1).astype(bool)
        for x in range(n):
            in_set = color[i, x] if x != i else never
            cohesive = cohesive | (g0[x] & (thr <= x) & (in_set != side))
    transitive = (chunk.g1 & ~chunk.g0) != 0
    for x, y, z in itertools.combinations(range(n), 3):
        xy, yz, xz = color[x, y], color[y, z], color[x, z]
        transitive |= g1[x] & g1[y] & g1[z] & (xy == yz) & (xz != xy)
    monotone = (chunk.h & ~chunk.g1) != 0
    for x, y in itertools.combinations(range(n), 2):
        monotone |= h[x] & h[y] & (color[x, y] != chunk.ascending)
    pair = (chunk.h & (chunk.h - np.uint8(1))) != 0
    final = chunk.color != (chunk.ascending & pair)
    return np.select([cohesive, transitive, monotone, final], [1, 2, 3, 4], 0).astype(np.int8)


#: "[0,1,4]" for every vertex mask.
_SUBSET_TEXT = tuple("[" + ",".join(str(x) for x in range(8) if (mask >> x) & 1) + "]"
                     for mask in range(256))


def _trace_lines(n: int, chunk: _ColoringChunk, kept: slice) -> List[str]:
    """SolverTrace.to_json of the codes `kept` of a chunk, written
    straight from the arrays: one f-string per code over lookup tables of
    vertex sets and sides, and memoised thresholds and steps."""
    sides_text = ["[" + ",".join(str((mask >> x) & 1) for x in range(n)) + "]"
                  for mask in range(1 << n)]
    thr_keys = sum(chunk.thresholds[x, kept].astype(np.uint32) << np.uint32(4 * x)
                   for x in range(n))
    thr_text = {key: "[" + ",".join(str((key >> 4 * x) & 15) for x in range(n)) + "]"
                for key in set(thr_keys.tolist())}
    step_keys = chunk.steps[kept].astype(np.uint16) | chunk.step_sides[kept].astype(np.uint16) << 8
    step_text = {key: "[" + ",".join(f"[{x},{(key >> (8 + x)) & 1}]"
                                     for x in range(n) if (key >> x) & 1) + "]"
                 for key in set(step_keys.tolist())}
    text = _SUBSET_TEXT
    return [f'{{"cohesive_set":{text[g0]},"cohesive_sides":{sides_text[sides]},'
            f'"cohesive_thresholds":{thr_text[thr]},"final_color":{color},'
            f'"final_set":{text[h]},"monotone_direction":"{_DIRECTIONS[up]}",'
            f'"monotone_set":{text[h]},"n":{n},"transitive_set":{text[g1]},'
            f'"transitive_steps":{step_text[steps]},"window":{w0}}}'
            for g0, sides, thr, color, h, up, g1, steps, w0 in zip(
                *(a[kept].tolist() for a in (chunk.g0, chunk.sides)), thr_keys.tolist(),
                *(a[kept].tolist() for a in (chunk.color, chunk.h, chunk.ascending, chunk.g1)),
                step_keys.tolist(), chunk.window[kept].tolist())]


#: Rows and trace lines are built this many codes at a time, so that the
#: lists they are built from stay small next to the report itself.
_BLOCK = 4096


def _coloring_rows(n: int, lo: int, hi: int, window: Optional[int], keep: int,
                   want_traces: bool) -> Tuple[np.ndarray, List[Tuple], List[str]]:
    """The exhaustive coloring sweep over the codes [lo, hi): (ok per code,
    rows and, when wanted, trace lines of the first `keep` codes)."""
    codes = np.arange(lo, hi, dtype=np.uint32)
    chunk = _coloring_chunk(n, codes, window)
    ok = _verify_coloring_chunk(n, codes, chunk) == 0
    rows: List[Tuple] = []
    traces: List[str] = []
    for start in range(0, min(keep, hi - lo), _BLOCK):
        kept = slice(start, min(start + _BLOCK, keep))
        rows += zip(codes[kept].tolist(),
                    *(_POPCOUNT.take(mask[kept]).tolist() for mask in (chunk.g0, chunk.g1, chunk.h)),
                    chunk.color[kept].tolist(),
                    [_DIRECTIONS[up] for up in chunk.ascending[kept].tolist()],
                    ok[kept].astype(np.uint8).tolist())
        if want_traces:
            traces += _trace_lines(n, chunk, kept)
    return ok, rows, traces


def _tournament_rows(n: int, lo: int, hi: int, window: int, keep: int,
                     want_traces: bool) -> Tuple[np.ndarray, List[Tuple], List[str]]:
    """The exhaustive tournament sweep over the codes [lo, hi)."""
    codes = np.arange(lo, hi, dtype=np.uint32)
    chosen, transitive, b_ok = _tournament_chunk(n, codes, window)
    ok = transitive & b_ok
    kept = slice(keep)
    rows = list(zip(codes[kept].tolist(), _POPCOUNT.take(chosen[kept]).tolist(),
                    *(c[kept].astype(np.uint8).tolist() for c in (transitive, b_ok, ok))))
    return ok, rows, []


def _monotone_runs(ranks: np.ndarray, chain: np.ndarray, ascending: np.ndarray) -> np.ndarray:
    """Per row: the ranks at the positions of `chain`, left to right,
    strictly rise where `ascending` holds and strictly fall elsewhere."""
    ok = np.ones(len(ranks), dtype=bool)
    seen = np.zeros(len(ranks), dtype=bool)
    previous = np.zeros(len(ranks), dtype=np.int8)
    for x in range(ranks.shape[1]):
        on = ((chain >> x) & 1).astype(bool)
        ok &= ~(on & seen) | ((ranks[:, x] > previous) == ascending)
        previous = np.where(on, ranks[:, x], previous)
        seen |= on
    return ok


def _order_rows(n: int, lo: int, hi: int, window: Optional[int], keep: int,
                want_traces: bool) -> Tuple[np.ndarray, List[Tuple], List[str]]:
    """The exhaustive order sweep over the permutations [lo, hi) in
    `itertools.permutations` order: ads_solve's sequence per ranking, its
    monotonicity checked against the ranking and the ceil(sqrt(n)) bound."""
    ranks = np.fromiter(itertools.chain.from_iterable(
        itertools.islice(itertools.permutations(range(n)), lo, hi)),
        dtype=np.int8, count=(hi - lo) * n).reshape(hi - lo, n)
    ascending, size, chain = _longest_monotone(ranks, np.ones(ranks.shape, dtype=bool))
    monotone = _monotone_runs(ranks, chain, ascending)
    b_ok = size >= ascdesc_bound(n)
    ok = monotone & b_ok
    kept = slice(keep)
    rows = list(zip(range(lo, hi), size[kept].tolist(),
                    [_DIRECTIONS[up] for up in ascending[kept].tolist()],
                    *(c[kept].astype(np.uint8).tolist() for c in (monotone, b_ok, ok))))
    return ok, rows, []


def _check_coloring(coloring: PairColoring, window, target):
    trace = rt22_solve(coloring, window)
    ok = verify_trace(trace, coloring).ok  # its final stage checks homogeneity
    return (len(trace.cohesive_set), len(trace.transitive_set), len(trace.final_set),
            trace.final_color, trace.monotone_direction, int(ok)), trace


def _check_tournament(tournament: Tournament, window, target):
    n = tournament.n
    chosen, _, _ = em_solve_masks(n, tournament.out, window)
    subset = [x for x in range(n) if (chosen >> x) & 1]
    transitive = is_transitive(tournament, subset).ok
    b_ok = has_transitive_of_size(tournament, transitive_bound(n))
    return (len(subset), int(transitive), int(b_ok), int(transitive and b_ok)), None


def _check_order(order: LinearOrderInstance, window, target):
    result = ads_solve(order)
    seq = result.sequence
    ascending = result.direction == "ascending"
    monotone = all(seq[i] < seq[i + 1] for i in range(len(seq) - 1)) and all(
        order.less(seq[i], seq[i + 1]) == ascending for i in range(len(seq) - 1))
    b_ok = len(seq) >= ascdesc_bound(order.n)
    return (len(seq), result.direction, int(monotone), int(b_ok), int(monotone and b_ok)), None


def _check_family(family: SetFamily, window, target):
    result = coh_solve(family, target if target is not None else family.n)
    cohesive = verify_cohesive(family, result)
    return (len(result.chosen), int(cohesive), int(cohesive)), None


#: Per kind: the report columns, the seeded generator of sampled sweeps,
#: the check that turns one instance into (row without `instance`, trace
#: or None), and the chunk kernel of exhaustive sweeps (instance ids [lo,
#: hi), window, rows wanted, traces wanted -> ok per instance, rows,
#: traces); every row ends with `ok`.
_KINDS = {
    "coloring": (("instance", "g0", "g1", "size", "color", "direction", "ok"),
                 make_coloring, _check_coloring, _coloring_rows),
    "tournament": (("instance", "size", "transitive", "bound_ok", "ok"),
                   make_tournament, _check_tournament, _tournament_rows),
    "order": (("instance", "size", "direction", "monotone", "bound_ok", "ok"),
              make_order, _check_order, _order_rows),
    "family": (("instance", "size", "cohesive", "ok"), make_family, _check_family, None),
}


def sweep(kind: str, n: int, mode: str, *, count: int = 0,
          seed: Optional[int] = None, window: Optional[int] = None,
          target: Optional[int] = None, max_rows: int = 100_000,
          want_traces: bool = False) -> Report:
    """Run the kind's solver and checkers over the instance family.

    Returns a Report whose `failures` counts instances where any checker
    failed.  mode is "exhaustive" (which takes no count) or "sample" (which
    needs count and seed); n, count and max_rows must be non-negative.  A
    window must be non-negative; one above the set it ranges over acts as
    the whole set.
    """
    if mode not in ("exhaustive", "sample"):
        raise ValueError("mode must be 'exhaustive' or 'sample'")
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if max_rows < 0:
        raise ValueError(f"max_rows must be non-negative, got {max_rows}")
    if mode == "exhaustive" and count:
        raise ValueError(f"exhaustive sweeps take no count, got count={count}")
    if mode == "sample" and (count <= 0 or seed is None):
        raise ValueError("sampled sweeps need count > 0 and a seed")
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if kind not in _KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    if kind == "family" and mode == "exhaustive":
        raise ValueError("family sweeps are sample-only")
    if kind == "tournament":
        if window is not None and window < 0:
            raise ValueError(f"window must lie in [0, {n}]")
        window = window if window is not None else default_window(n)
    if mode == "exhaustive" and pair_count(n) > EXHAUSTIVE_PAIR_LIMIT:
        raise ValueError(
            f"exhaustive sweep needs C(n,2) <= {EXHAUSTIVE_PAIR_LIMIT}, got {pair_count(n)}")

    columns, make, check, chunk_rows = _KINDS[kind]
    rows: List[Tuple] = []
    traces: List[str] = []
    failures = 0
    if mode == "exhaustive":
        total = factorial(n) if kind == "order" else 1 << pair_count(n)
        for lo in range(0, total, _CHUNK):
            hi = min(lo + _CHUNK, total)
            ok, kept, lines = chunk_rows(n, lo, hi, window, max_rows - len(rows), want_traces)
            failures += hi - lo - int(np.count_nonzero(ok))
            rows += kept
            traces += lines
    else:
        total = count
        for ident in range(count):
            row, trace = check(make(n, (seed + ident) & _MASK64), window, target)
            failures += not row[-1]
            if len(rows) < max_rows:
                rows.append((ident, *row))
                if want_traces and trace is not None:
                    traces.append(trace.to_json())
    return Report(kind=kind, n=n, mode=mode, seed=seed, columns=columns, rows=rows,
                  count=total, failures=failures, truncated=total > len(rows),
                  traces=traces)

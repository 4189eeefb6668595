"""Instance sweeps: run a solver plus its checkers over a family of
instances and aggregate the outcomes into a Report.

Exhaustive sweeps enumerate instance codes in increasing order (colorings
and tournaments: the packed pair bits; orders: permutations in
lexicographic order).  Sampled sweeps draw instance i from the documented
generator with seed (base_seed + i) mod 2^64 and run the scalar solvers,
checkers and `to_json`, the reference the kernels are tested against.
Both modes run one loop over chunks of _CHUNK instances, each giving one
int array per report column.  Rows (and coloring traces) beyond
`max_rows` are cut from the report but still counted.

An exhaustive chunk runs as numpy passes stepping through the vertices of
its instances together on uint8 masks (n <= 8 is all that
EXHAUSTIVE_PAIR_LIMIT admits); nothing scalar runs per code.

* Tournaments: one out-mask per vertex and code, and EM's two passes.
  The transitive bound floor(log2 n) + 1 is checked by a rule per bound:
  bound <= 2 needs n >= bound; bound 3 some vertex that beats two others;
  bound 4 (n = 8) some two vertices that both beat the same two others.
* Colorings: `_coloring_chunk` is rt22_solve per code, and the `ok`
  column comes from `_verify_coloring_chunk`, which re-derives
  verify_trace's first failing stage and shares no helper with the
  kernel.  Trace lines are written once per distinct trace of the rows
  kept, byte-identical to SolverTrace.to_json, and shared.
* Orders and the last stage of colorings: the longest monotone run, by
  patience piles run as an automaton on the set of pile tops (keys are
  distinct and below n, so the tops are an n-bit mask) with one chain
  mask per key; the order sweep checks its `monotone` column on its own.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import factorial, isqrt
from typing import List, NamedTuple, Optional, Tuple

# numpy is imported by each function that builds an array, never at the top:
# `import epsilon0` and the ordinal verbs then load none (see README.md).

from .generate import make_coloring, make_family, make_order, make_tournament
from .ramsey.checkers import _cohesive_offender, _subset_mask, is_transitive
from .ramsey.instances import (
    LinearOrderInstance,
    PairColoring,
    SetFamily,
    Tournament,
    _upper,
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
from .report import _WORDS, Report, _interned

__all__ = ["sweep", "transitive_bound", "ascdesc_bound", "verify_cohesive",
           "exhaustive_triple_ok", "EXHAUSTIVE_PAIR_LIMIT"]

#: Exhaustive sweeps refuse instances with more pair bits than this.
EXHAUSTIVE_PAIR_LIMIT = 28


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


#: Instance ids per chunk of a sweep.
_CHUNK = 1 << 16


@lru_cache(maxsize=None)
def _popcount():
    """Set bits of every uint8 value, as a uint8 array (np.bitwise_count
    needs numpy >= 2)."""
    import numpy as np
    return np.array([bin(v).count("1") for v in range(256)], dtype=np.uint8)


def _out_mask_array(n: int, codes: np.ndarray) -> np.ndarray:
    """Out-masks of the tournaments with the given pair codes: row x holds
    out[x] for every code, as uint8 (n <= 8)."""
    import numpy as np
    out = np.zeros((n, len(codes)), dtype=np.uint8)
    for i, (x, y) in enumerate(np.argwhere(_upper(n)).tolist()):
        bit = ((codes >> i) & 1).astype(np.uint8)
        out[x] |= bit << y
        out[y] |= (bit ^ 1) << x
    return out


def _score_ok(out: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """is_transitive_mask per code: the within-`mask` out-degrees of the
    members are pairwise distinct, i.e. as many distinct degrees are seen
    as there are members."""
    import numpy as np
    seen = np.zeros_like(mask)
    for v, row in enumerate(out):
        member = (mask >> v) & 1
        seen |= (np.uint8(1) << _popcount().take(row & mask)) * member
    return _popcount().take(seen) == _popcount().take(mask)


def _has_transitive(out: np.ndarray, k: int) -> np.ndarray:
    """Per code: does the tournament have a transitive subtournament on k
    vertices?  A transitive triple is a vertex and two it beats; a
    transitive quadruple is two vertices (its top two, oriented either
    way) and two that both beat.  k <= 4."""
    import numpy as np
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
    import numpy as np
    low = mask & (~mask + np.uint8(1))
    return np.where(mask != 0, _popcount().take(low - np.uint8(1)), empty)


def _em_passes(out: np.ndarray, universe, wmask) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`_em_core` per code: the main pass over the vertices of `universe`
    classified by the window `wmask` (uint8 masks, per code or shared),
    then the closure pass.  Returns (steps, step sides, chosen) as masks:
    the main-pass vertices, those of them with class side 1, and the
    result.  All codes step through the vertices in the same order as the
    scalar passes."""
    import numpy as np
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
    import numpy as np
    codes = np.arange(1 << pair_count(n), dtype=np.uint32)
    return _has_transitive(_out_mask_array(n, codes), 3)


def _patience(keys: np.ndarray, active: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """`_patience_lis` on every row of a codes x positions key array at
    once, over the positions where `active` holds (their keys distinct and
    in [0, n) for n positions): returns (length, mask of the positions of
    the chain) per row.  The piles run as an automaton on their set of
    tops, an n-bit mask: a state is the mask times n + 1, and state + key
    indexes `step`, the next state (the least top >= key gives way to
    key), and `below`, one more than the highest top under key (0 if
    none); key n, at inactive positions, keeps the state.  A row keeps the
    chain of each top t in slot t + 1 of `chains`, slot 0 staying empty."""
    import numpy as np
    m, n = keys.shape
    tops, key = np.ogrid[:1 << n, :n + 1]
    above = tops & -(1 << key)
    step = np.where(key < n, tops ^ above & -above | 1 << key, tops).ravel() * (n + 1)
    below = np.frexp(tops ^ above)[1].ravel()             # the bit length
    keys = np.ascontiguousarray(np.where(active, keys, n).T, dtype=np.intp)
    base = np.arange(0, m * (n + 2), n + 2)
    chains = np.zeros(m * (n + 2), dtype=np.uint8)
    state = np.zeros(m, dtype=np.intp)
    for i, k in enumerate(keys):
        at = state + k
        chains[base + k + 1] = chains.take(base + below.take(at)) | np.uint8(1 << i)
        state = step.take(at)
    return _popcount().take(state // (n + 1)), chains.take(base + below.take(state + n))


def _longest_monotone(keys: np.ndarray, active: np.ndarray
                      ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The solvers' `_longest_monotone` per row: (ascending, length, chain
    mask) of the longer of the longest ascending and descending runs,
    ties to ascending."""
    import numpy as np
    up_len, up = _patience(keys, active)
    down_len, down = _patience(keys.shape[1] - 1 - keys, active)
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
    import numpy as np
    if n < 1:
        raise ValueError("the coloring needs at least one vertex")
    out = _out_mask_array(n, codes)
    below = np.array([(1 << x) - 1 for x in range(n)], dtype=np.uint8)
    adj = out ^ below[:, None]                    # R_x: the color-1 neighbours of x

    def split(pool, mask):                        # the larger side, ties to side 1
        inside, outside = pool & mask, pool & ~mask
        side = _popcount().take(inside) >= _popcount().take(outside)
        return side, np.where(side, inside, outside)

    reservoir = np.full(len(codes), (1 << n) - 1, dtype=np.uint8)
    committed = np.zeros_like(reservoir)
    count = np.zeros_like(reservoir)
    sides = np.zeros_like(reservoir)
    thresholds = np.empty((n, len(codes)), dtype=np.uint8)
    for x, mask in enumerate(adj):
        _, cell = split(reservoir, mask)
        short = (reservoir != 0) & (count + _popcount().take(cell) < n)
        low = reservoir & (~reservoir + np.uint8(1))
        committed |= low * short
        count += short
        side, reservoir = split(np.where(short, reservoir ^ low, reservoir), mask)
        sides |= np.uint8(1 << x) * side
        thresholds[x] = _low_index(reservoir, n)
    g0 = committed | reservoir                    # target n commits the whole reservoir

    size0 = _popcount().take(g0)
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
    rank = _popcount().take(g1 & ~out).astype(np.int8) - 1      # G1 vertices beating x
    ascending, _, h = _longest_monotone(rank.T, members)
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
    import numpy as np
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
    straight from the arrays: one f-string per distinct trace (637 among
    the 32,768 codes of n = 6), shared by every code that has it."""
    import numpy as np
    def write(*fields):                           # in _ColoringChunk's order
        g0, sides, *thr, w0, steps, step_sides, g1, up, h, color = fields
        sides_text = ",".join(str(sides >> x & 1) for x in range(n))
        steps_text = ",".join(f"[{x},{step_sides >> x & 1}]" for x in range(n) if steps >> x & 1)
        return (f'{{"cohesive_set":{_SUBSET_TEXT[g0]},"cohesive_sides":[{sides_text}],'
                f'"cohesive_thresholds":[{",".join(map(str, thr))}],"final_color":{color},'
                f'"final_set":{_SUBSET_TEXT[h]},"monotone_direction":"{_WORDS["direction"][up]}",'
                f'"monotone_set":{_SUBSET_TEXT[h]},"n":{n},"transitive_set":{_SUBSET_TEXT[g1]},'
                f'"transitive_steps":[{steps_text}],"window":{w0}}}')

    fields = [row for field in chunk for row in np.atleast_2d(field[..., kept])]
    return _interned(len(fields[0]), fields, write)


def _coloring_rows(n: int, lo: int, hi: int, window: Optional[int], keep: int,
                   want_traces: bool) -> Tuple[Tuple[np.ndarray, ...], List[str]]:
    """The exhaustive coloring sweep over the codes [lo, hi): the columns
    after `instance`, and the trace lines of the first `keep` if wanted."""
    import numpy as np
    codes = np.arange(lo, hi, dtype=np.uint32)
    chunk = _coloring_chunk(n, codes, window)
    ok = _verify_coloring_chunk(n, codes, chunk) == 0
    return ((*_popcount().take([chunk.g0, chunk.g1, chunk.h]), chunk.color,
             *np.uint8([chunk.ascending, ok])),
            _trace_lines(n, chunk, slice(keep)) if want_traces else [])


def _tournament_rows(n: int, lo: int, hi: int, window: int, keep: int,
                     want_traces: bool) -> Tuple[Tuple[np.ndarray, ...], List[str]]:
    """The exhaustive tournament sweep over the codes [lo, hi)."""
    import numpy as np
    codes = np.arange(lo, hi, dtype=np.uint32)
    chosen, transitive, b_ok = _tournament_chunk(n, codes, window)
    return (_popcount().take(chosen), *np.uint8([transitive, b_ok, transitive & b_ok])), []


def _monotone_runs(ranks: np.ndarray, chain: np.ndarray, ascending: np.ndarray) -> np.ndarray:
    """Per row: the ranks at the positions of `chain`, left to right,
    strictly rise where `ascending` holds and strictly fall elsewhere."""
    import numpy as np
    ok = np.ones(len(ranks), dtype=bool)
    seen = np.zeros(len(ranks), dtype=bool)
    previous = np.zeros(len(ranks), dtype=np.int8)
    for x in range(ranks.shape[1]):
        on = ((chain >> x) & 1).astype(bool)
        ok &= ~(on & seen) | ((ranks[:, x] > previous) == ascending)
        previous = np.where(on, ranks[:, x], previous)
        seen |= on
    return ok


def _permutations(n: int) -> np.ndarray:
    """The permutations of range(n) in `itertools.permutations` order, as
    int8 rows: for each first value f, f before those of range(n - 1)
    shifted past f."""
    import numpy as np
    block = np.zeros((1, 0), dtype=np.int8)
    for m in range(1, n + 1):
        block = np.vstack([np.insert(block + (block >= f), 0, f, axis=1) for f in range(m)])
    return block


def _order_rows(n: int, lo: int, hi: int, window: Optional[int], keep: int,
                want_traces: bool) -> Tuple[Tuple[np.ndarray, ...], List[str]]:
    """The exhaustive order sweep over the permutations [lo, hi) in
    `itertools.permutations` order: ads_solve's sequence per ranking, its
    monotonicity checked against the ranking and the ceil(sqrt(n)) bound."""
    import numpy as np
    ranks = _permutations(n)[lo:hi]
    ascending, size, chain = _longest_monotone(ranks, np.ones(ranks.shape, dtype=bool))
    monotone = _monotone_runs(ranks, chain, ascending)
    b_ok = size >= ascdesc_bound(n)
    return (size.astype(np.uint8), *np.uint8([ascending, monotone, b_ok, monotone & b_ok])), []


def _check_coloring(coloring: PairColoring, window, target):
    trace = rt22_solve(coloring, window)
    ok = verify_trace(trace, coloring).ok  # its final stage checks homogeneity
    return (len(trace.cohesive_set), len(trace.transitive_set), len(trace.final_set),
            trace.final_color, int(trace.monotone_direction == "ascending"), int(ok)), trace


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
    return (len(seq), int(ascending), int(monotone), int(b_ok), int(monotone and b_ok)), None


def _check_family(family: SetFamily, window, target):
    result = coh_solve(family, target if target is not None else family.n)
    cohesive = verify_cohesive(family, result)
    return (len(result.chosen), int(cohesive), int(cohesive)), None


#: Per kind: the report columns, the seeded generator of sampled sweeps,
#: the check that turns one instance into (row without `instance`, trace
#: or None), and the chunk kernel of exhaustive sweeps (instance ids [lo,
#: hi), window, rows wanted, traces wanted -> the columns after `instance`,
#: the traces of the rows wanted); every row ends with `ok`.
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
    import numpy as np
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
    total = count if mode == "sample" else factorial(n) if kind == "order" else 1 << pair_count(n)
    tails: List[List] = []        # the columns of each chunk, cut to the rows kept
    traces: List[str] = []
    failures = 0
    for lo in range(0, total, _CHUNK):
        hi, room = min(lo + _CHUNK, total), max(max_rows - lo, 0)
        if mode == "exhaustive":
            tail, lines = chunk_rows(n, lo, hi, window, room, want_traces)
        else:
            rows, lines = [], []
            for ident in range(lo, hi):
                row, trace = check(make(n, seed + ident), window, target)
                rows.append(row)
                if want_traces and trace is not None and ident < max_rows:
                    lines.append(trace.to_json())
            tail = [np.array(column) for column in zip(*rows)]
        failures += hi - lo - int(np.count_nonzero(tail[-1]))
        traces += lines
        if room:                          # even an empty view would pin the chunk
            tails.append([column[:room] for column in tail])
    cells = [np.concatenate(column) for column in zip(*tails)]
    return Report(kind=kind, n=n, mode=mode, seed=seed, columns=columns,
                  cells=(range(min(total, max_rows)), *(cells or [()] * (len(columns) - 1))),
                  count=total, failures=failures, truncated=total > max_rows, traces=traces)

"""The exhaustive-sweep kernels as they ran before the pile-tops automaton,
the interned trace lines and the block-built permutations, kept verbatim
as the reference for `epsilon0.sweep._patience`,
`epsilon0.sweep._trace_lines` and `epsilon0.sweep._permutations`:
`_patience` finds each pile by a count over a codes x piles array of
tops and walks back pointers, `_trace_lines` writes one f-string per
code, and `_order_ranks` reads the permutations [lo, hi) one value at a
time from `itertools.permutations`."""

import itertools
from typing import List, Tuple

import numpy as np

from epsilon0.sweep import _SUBSET_TEXT, _ColoringChunk

#: A direction value, indexed by "ascending".
_DIRECTIONS = ("descending", "ascending")


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


def _order_ranks(n: int, lo: int, hi: int) -> np.ndarray:
    """The rankings of `_order_rows` over the permutations [lo, hi)."""
    ranks = np.fromiter(itertools.chain.from_iterable(
        itertools.islice(itertools.permutations(range(n)), lo, hi)),
        dtype=np.int8, count=(hi - lo) * n).reshape(hi - lo, n)
    return ranks

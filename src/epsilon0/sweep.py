"""Instance sweeps: run a solver plus its checkers over a family of
instances and aggregate the outcomes into a Report.

Exhaustive sweeps enumerate instance codes in increasing order (colorings
and tournaments: the packed pair bits; orders: permutations in
lexicographic order).  Sampled sweeps draw instance i from the documented
generator with seed (base_seed + i) mod 2^64.  Rows (and coloring traces)
beyond `max_rows` are dropped from the report but still counted, keeping
memory flat on large sweeps.

The exhaustive tournament sweep runs as numpy passes over chunks of
_TOURNAMENT_CHUNK codes, one uint8 out-mask per vertex and code (n <= 8
is all that EXHAUSTIVE_PAIR_LIMIT admits).  Besides the EM result it
checks the classical transitive-subtournament bound floor(log2 n) + 1 on
every code, by a rule per bound (a subset of a transitive set is
transitive, so "maximum >= k" and "some k-subset is transitive" agree):

* bound <= 2: n >= bound;
* bound 3 (n = 4..7): some vertex beats two others;
* bound 4 (n = 8): some two vertices both beat the same two others.
"""

from __future__ import annotations

import itertools
from math import factorial, isqrt
from typing import List, Optional, Tuple

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


#: Codes per numpy chunk of an exhaustive tournament sweep.
_TOURNAMENT_CHUNK = 1 << 16

#: Set bits of every uint8 value (np.bitwise_count needs numpy >= 2).
_POPCOUNT = np.array([bin(v).count("1") for v in range(256)], dtype=np.uint8)


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


def _tournament_chunk(n: int, codes: np.ndarray, w: int
                      ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """em_solve_masks, the transitivity of its result and the bound check,
    over an array of pair codes at once: returns (chosen masks as uint8,
    transitive, bound_ok).  Both EM passes take the vertices in the same
    order as the scalar `_em_core`, all codes in step."""
    out = _out_mask_array(n, codes)
    wmask = _window_mask(n, range(n), w)
    reservoir = np.full(len(codes), (1 << n) - 1, dtype=np.uint8)
    chosen = np.zeros(len(codes), dtype=np.uint8)
    for x, row in enumerate(out):
        rest = np.uint8(wmask & ~(1 << x))
        one = (row & rest) == 0                   # every window vertex beats x
        zero = ~one & ((~row & rest) == 0)        # x beats every window vertex
        take = ((reservoir >> x) & 1).astype(bool) & (one | zero)
        keep = np.where(zero, row, ~row) & np.uint8(0xFF & -(2 << x))
        reservoir = np.where(take, reservoir & keep, reservoir)
        chosen |= np.uint8(1 << x) * take
    for x in range(n):
        candidate = chosen | np.uint8(1 << x)
        chosen = np.where(_score_ok(out, candidate), candidate, chosen)
    return chosen, _score_ok(out, chosen), _has_transitive(out, transitive_bound(n))


def exhaustive_triple_ok(n: int) -> np.ndarray:
    """For every n-vertex tournament code: does a transitive triple exist
    (some vertex beats two others)?"""
    codes = np.arange(1 << pair_count(n), dtype=np.uint32)
    return _has_transitive(_out_mask_array(n, codes), 3)


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


#: Per kind: the report columns, the seeded generator of sampled sweeps and
#: the check that turns one instance into (row without `instance`, trace or
#: None); every row ends with `ok`.
_KINDS = {
    "coloring": (("instance", "g0", "g1", "size", "color", "direction", "ok"),
                 make_coloring, _check_coloring),
    "tournament": (("instance", "size", "transitive", "bound_ok", "ok"),
                   make_tournament, _check_tournament),
    "order": (("instance", "size", "direction", "monotone", "bound_ok", "ok"),
              make_order, _check_order),
    "family": (("instance", "size", "cohesive", "ok"), make_family, _check_family),
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

    columns, make, check = _KINDS[kind]
    rows: List[Tuple] = []
    traces: List[str] = []
    failures = 0
    if mode == "exhaustive" and kind == "tournament":
        total = 1 << pair_count(n)
        for lo in range(0, total, _TOURNAMENT_CHUNK):
            codes = np.arange(lo, min(lo + _TOURNAMENT_CHUNK, total), dtype=np.uint32)
            chosen, transitive, b_ok = _tournament_chunk(n, codes, window)
            ok = transitive & b_ok
            failures += len(codes) - int(np.count_nonzero(ok))
            kept = slice(max_rows - len(rows))
            rows.extend(zip(codes[kept].tolist(), _POPCOUNT.take(chosen[kept]).tolist(),
                            *(c[kept].astype(np.uint8).tolist() for c in (transitive, b_ok, ok))))
    else:
        if mode == "sample":
            total = count
            instances = (make(n, (seed + i) & _MASK64) for i in range(count))
        elif kind == "coloring":
            total = 1 << pair_count(n)
            instances = (PairColoring(n, code) for code in range(total))
        else:
            total = factorial(n)
            instances = (LinearOrderInstance(n, p) for p in itertools.permutations(range(n)))
        for ident, instance in enumerate(instances):
            row, trace = check(instance, window, target)
            failures += not row[-1]
            if len(rows) < max_rows:
                rows.append((ident, *row))
                if want_traces and trace is not None:
                    traces.append(trace.to_json())
    return Report(kind=kind, n=n, mode=mode, seed=seed, columns=columns, rows=rows,
                  count=total, failures=failures, truncated=total > len(rows),
                  traces=traces)

"""Instance sweeps: run a solver plus its checkers over a family of
instances and aggregate the outcomes into a Report.

Exhaustive sweeps enumerate instance codes in increasing order (colorings
and tournaments: the packed pair bits; orders: permutations in
lexicographic order).  Sampled sweeps draw instance i from the documented
generator with seed (base_seed + i) mod 2^64.  Rows (and coloring traces)
beyond `max_rows` are dropped from the report but still counted, keeping
memory flat on large sweeps.

The exhaustive tournament sweep checks the classical transitive-
subtournament bound floor(log2 n) + 1 for every instance; for n <= 7 the
bound is 3 or less and is evaluated as a vectorized search for a
transitive triple (a subset of a transitive set is transitive, so
"maximum >= k" and "some k-subset is transitive" agree).
"""

from __future__ import annotations

import itertools
from math import factorial, isqrt
from typing import Iterator, List, Optional, Tuple

import numpy as np

from .generate import make_coloring, make_family, make_order, make_tournament
from .ramsey.checkers import is_transitive
from .ramsey.instances import (
    LinearOrderInstance,
    PairColoring,
    SetFamily,
    Tournament,
    pair_count,
    pair_index,
)
from .ramsey.oracles import has_transitive_of_size, is_transitive_mask
from .ramsey.solvers import (
    CohResult,
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
    recorded side of that set."""
    for i, s in enumerate(family.sets):
        side, thr = result.sides[i], result.thresholds[i]
        for x in result.chosen:
            if x >= thr and ((x in s) != bool(side)):
                return False
    return True


def exhaustive_triple_ok(n: int) -> np.ndarray:
    """For every n-vertex tournament code: does a transitive triple exist?

    Vectorized over all 2^C(n,2) codes; requires n >= 3.
    """
    total = 1 << pair_count(n)
    codes = np.arange(total, dtype=np.uint32)
    ok = np.zeros(total, dtype=bool)
    for a, b, c in itertools.combinations(range(n), 3):
        rab = ((codes >> pair_index(a, b, n)) & 1).astype(np.uint8)
        rbc = ((codes >> pair_index(b, c, n)) & 1).astype(np.uint8)
        rac = ((codes >> pair_index(a, c, n)) & 1).astype(np.uint8)
        cyclic = (rab & rbc & (1 - rac)) | ((1 - rab) & (1 - rbc) & rac)
        ok |= cyclic == 0
    return ok


class _TournamentCodec:
    """Chunked lookup tables turning a packed pair code into out-masks."""

    def __init__(self, n: int):
        self.n = n
        bits = pair_count(n)
        self.chunks = [(lo, min(lo + 7, bits)) for lo in range(0, bits, 7)]
        pairs = list(itertools.combinations(range(n), 2))
        self.tables = []
        for lo, hi in self.chunks:
            table = []
            for value in range(1 << (hi - lo)):
                out = [0] * n
                for offset in range(hi - lo):
                    x, y = pairs[lo + offset]
                    if (value >> offset) & 1:
                        out[x] |= 1 << y
                    else:
                        out[y] |= 1 << x
                table.append(tuple(out))
            self.tables.append(table)

    def out_masks(self, code: int) -> List[int]:
        n = self.n
        out = [0] * n
        for (lo, _), table in zip(self.chunks, self.tables):
            part = table[(code >> lo) & 127]
            for x in range(n):
                out[x] |= part[x]
        return out


def _check_exhaustive(n: int) -> None:
    if pair_count(n) > EXHAUSTIVE_PAIR_LIMIT:
        raise ValueError(
            f"exhaustive sweep needs C(n,2) <= {EXHAUSTIVE_PAIR_LIMIT}, got {pair_count(n)}")


def _sample_seeds(seed: int, count: int) -> Iterator[Tuple[int, int]]:
    for i in range(count):
        yield i, (seed + i) & _MASK64


def sweep(kind: str, n: int, mode: str, *, count: int = 0,
          seed: Optional[int] = None, window: Optional[int] = None,
          target: Optional[int] = None, max_rows: int = 100_000,
          want_traces: bool = False) -> Report:
    """Run the kind's solver and checkers over the instance family.

    Returns a Report whose `failures` counts instances where any checker
    failed.  mode is "exhaustive" or "sample" (the latter needs count and
    seed); count and max_rows must be non-negative.
    """
    if mode not in ("exhaustive", "sample"):
        raise ValueError("mode must be 'exhaustive' or 'sample'")
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if max_rows < 0:
        raise ValueError(f"max_rows must be non-negative, got {max_rows}")
    if mode == "sample" and (count <= 0 or seed is None):
        raise ValueError("sampled sweeps need count > 0 and a seed")
    if kind == "coloring":
        return _sweep_coloring(n, mode, count, seed, window, max_rows, want_traces)
    if kind == "tournament":
        return _sweep_tournament(n, mode, count, seed, window, max_rows)
    if kind == "order":
        return _sweep_order(n, mode, count, seed, max_rows)
    if kind == "family":
        return _sweep_family(n, mode, count, seed, target, max_rows)
    raise ValueError(f"unknown kind {kind!r}")


def _sweep_coloring(n, mode, count, seed, window, max_rows, want_traces) -> Report:
    columns = ("instance", "g0", "g1", "size", "color", "direction", "ok")
    rows: List[Tuple] = []
    traces: List[str] = []
    failures = 0
    if mode == "exhaustive":
        _check_exhaustive(n)
        instances = ((code, PairColoring(n, code)) for code in range(1 << pair_count(n)))
        total = 1 << pair_count(n)
    else:
        instances = ((i, make_coloring(n, s)) for i, s in _sample_seeds(seed, count))
        total = count
    for ident, coloring in instances:
        trace = rt22_solve(coloring, window)
        ok = verify_trace(trace, coloring).ok  # its final stage checks homogeneity
        if not ok:
            failures += 1
        if len(rows) < max_rows:
            rows.append((ident, len(trace.cohesive_set), len(trace.transitive_set),
                         len(trace.final_set), trace.final_color,
                         trace.monotone_direction, int(ok)))
            if want_traces:
                traces.append(trace.to_json())
    return Report(kind="coloring", n=n, mode=mode, seed=seed, columns=columns,
                  rows=rows, count=total, failures=failures,
                  truncated=total > len(rows), traces=traces)


def _sweep_tournament(n, mode, count, seed, window, max_rows) -> Report:
    columns = ("instance", "size", "transitive", "bound_ok", "ok")
    rows: List[Tuple] = []
    failures = 0
    w = window if window is not None else default_window(n)
    bound = transitive_bound(n)
    if mode == "exhaustive":
        _check_exhaustive(n)
        total = 1 << pair_count(n)
        codec = _TournamentCodec(n)
        triple_ok = exhaustive_triple_ok(n) if 3 <= n and bound == 3 else None
        for code in range(total):
            out = codec.out_masks(code)
            chosen, _, _ = em_solve_masks(n, out, w)
            transitive = is_transitive_mask(out, chosen)
            if triple_ok is not None:
                b_ok = bool(triple_ok[code])
            elif bound <= 2:
                b_ok = n >= bound
            else:
                b_ok = has_transitive_of_size(Tournament(n, tuple(out)), bound)
            ok = transitive and b_ok
            if not ok:
                failures += 1
            if len(rows) < max_rows:
                rows.append((code, chosen.bit_count(), int(transitive), int(b_ok), int(ok)))
        return Report(kind="tournament", n=n, mode=mode, seed=seed, columns=columns,
                      rows=rows, count=total, failures=failures,
                      truncated=total > len(rows))
    total = count
    for ident, s in _sample_seeds(seed, count):
        tournament = make_tournament(n, s)
        chosen, _, _ = em_solve_masks(n, tournament.out, w)
        subset = [x for x in range(n) if (chosen >> x) & 1]
        transitive = is_transitive(tournament, subset).ok
        b_ok = has_transitive_of_size(tournament, bound)
        ok = transitive and b_ok
        if not ok:
            failures += 1
        if len(rows) < max_rows:
            rows.append((ident, len(subset), int(transitive), int(b_ok), int(ok)))
    return Report(kind="tournament", n=n, mode=mode, seed=seed, columns=columns,
                  rows=rows, count=total, failures=failures,
                  truncated=total > len(rows))


def _sweep_order(n, mode, count, seed, max_rows) -> Report:
    columns = ("instance", "size", "direction", "monotone", "bound_ok", "ok")
    rows: List[Tuple] = []
    failures = 0
    if mode == "exhaustive":
        _check_exhaustive(n)
        instances = ((i, LinearOrderInstance(n, perm))
                     for i, perm in enumerate(itertools.permutations(range(n))))
        total = factorial(n)
    else:
        instances = ((i, make_order(n, s)) for i, s in _sample_seeds(seed, count))
        total = count
    bound = ascdesc_bound(n)
    for ident, order in instances:
        result = ads_solve(order)
        seq = result.sequence
        ascending = result.direction == "ascending"
        monotone = all(seq[i] < seq[i + 1] for i in range(len(seq) - 1)) and all(
            order.less(seq[i], seq[i + 1]) == ascending for i in range(len(seq) - 1))
        b_ok = len(seq) >= bound
        ok = monotone and b_ok
        if not ok:
            failures += 1
        if len(rows) < max_rows:
            rows.append((ident, len(seq), result.direction, int(monotone), int(b_ok), int(ok)))
    return Report(kind="order", n=n, mode=mode, seed=seed, columns=columns,
                  rows=rows, count=total, failures=failures,
                  truncated=total > len(rows))


def _sweep_family(n, mode, count, seed, target, max_rows) -> Report:
    if mode == "exhaustive":
        raise ValueError("family sweeps are sample-only")
    columns = ("instance", "size", "cohesive", "ok")
    rows: List[Tuple] = []
    failures = 0
    goal = target if target is not None else n
    for ident, s in _sample_seeds(seed, count):
        family = make_family(n, s)
        result = coh_solve(family, goal)
        cohesive = verify_cohesive(family, result)
        ok = cohesive
        if not ok:
            failures += 1
        if len(rows) < max_rows:
            rows.append((ident, len(result.chosen), int(cohesive), int(ok)))
    return Report(kind="family", n=n, mode=mode, seed=seed, columns=columns,
                  rows=rows, count=count, failures=failures,
                  truncated=count > len(rows))

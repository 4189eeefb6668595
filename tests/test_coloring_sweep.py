"""The vectorized exhaustive coloring and order sweeps against the scalar
reference.

`_coloring_chunk` runs rt22_solve over an array of pair codes at once,
`_verify_coloring_chunk` re-checks its output, and `_trace_lines` writes
the trace lines straight from the arrays.  The pile-tops automaton
`_patience` and the interned `_trace_lines` are compared with the kernels
they replaced, kept verbatim in tests/reference_sweep.py.  Rows and lines
are compared per
code with `_check_coloring` (scalar `rt22_solve`, `verify_trace` and
`SolverTrace.to_json`), and the order kernel with `_check_order` (scalar
`ads_solve`).  The verifier is mutation-checked: each stage of the kernel
output is corrupted, and the verifier must name the same first failing
stage as `verify_trace` on the trace that the corrupted arrays describe.
"""

import hashlib
import importlib
import itertools
import time

import numpy as np
import pytest

import reference_sweep as ref

from epsilon0.ramsey import LinearOrderInstance, PairColoring
from epsilon0.ramsey.instances import pair_count
from epsilon0.ramsey.solvers import SolverTrace, rt22_solve, verify_trace
from epsilon0.report import _WORDS, emit
from epsilon0.sweep import (
    _STAGES, _check_coloring, _check_order, _coloring_chunk, _coloring_rows,
    _longest_monotone, _monotone_runs, _order_rows, _patience, _trace_lines,
    _verify_coloring_chunk, sweep,
)
from support import run_cli, seeded_codes

# the package exports the function `sweep` under the module's name
SWEEP_MODULE = importlib.import_module("epsilon0.sweep")


def _stage_of(check):
    return 0 if check.ok else 1 + _STAGES.index(check.stage)


@pytest.mark.parametrize("n", range(1, 7))
def test_coloring_kernel_matches_the_reference_on_every_code(n):
    total = 1 << pair_count(n)
    for window in (None, 0, 1, 2, n + 3):
        columns, traces = _coloring_rows(n, 0, total, window, total, True)
        rows = list(zip(range(total), *(column.tolist() for column in columns)))
        assert columns[-1].all()
        for code in range(total):
            row, trace = _check_coloring(PairColoring(n, code), window, None)
            assert rows[code] == (code, *row), (n, window, code)
            assert traces[code] == trace.to_json(), (n, window, code)


@pytest.mark.parametrize("n, count, seed", [(7, 3000, 7), (8, 1500, 8)])
def test_coloring_kernel_matches_the_reference_on_seeded_codes(n, count, seed):
    codes = seeded_codes(n, count, seed)
    for window in (None, 2):
        chunk = _coloring_chunk(n, codes, window)
        assert (_verify_coloring_chunk(n, codes, chunk) == 0).all()
        lines = _trace_lines(n, chunk, slice(None))
        for code, line in zip(codes.tolist(), lines):
            assert line == rt22_solve(PairColoring(n, code), window).to_json(), (n, code)


def _assert_piles_match_the_reference(keys, active):
    n = keys.shape[1]
    for mine, theirs in ((keys, keys), (n - 1 - keys, -keys)):
        length, chain = _patience(mine, active)
        want_length, want_chain = ref._patience(theirs, active)
        assert length.tolist() == want_length.tolist()
        assert chain.tolist() == want_chain.tolist()
    up_len, up = ref._patience(keys, active)
    down_len, down = ref._patience(-keys, active)
    ascending, length, chain = _longest_monotone(keys, active)
    assert ascending.tolist() == (up_len >= down_len).tolist()
    assert length.tolist() == np.maximum(up_len, down_len).tolist()
    assert chain.tolist() == np.where(up_len >= down_len, up, down).tolist()


@pytest.mark.parametrize("n", range(0, 9))
def test_the_pile_automaton_matches_the_reference_on_every_permutation(n):
    perms = list(itertools.permutations(range(n)))
    perms = np.array(perms, dtype=np.int8).reshape(len(perms), n)
    _assert_piles_match_the_reference(perms, np.ones(perms.shape, dtype=bool))


@pytest.mark.parametrize("n", range(0, 9))
def test_the_pile_automaton_matches_the_reference_on_seeded_active_masks(n):
    rng = np.random.default_rng(100 + n)
    keys = np.argsort(rng.random((3000, n)), axis=1).astype(np.int8)
    active = rng.random(keys.shape) < 0.6
    _assert_piles_match_the_reference(keys, active)
    # inactive positions may hold any rank, even one outside [0, n)
    noisy = np.where(active, keys, rng.integers(-1, n + 1, keys.shape)).astype(np.int8)
    assert [a.tolist() for a in _patience(noisy, active)] == [
        a.tolist() for a in _patience(keys, active)]


def test_the_pile_automaton_on_no_rows_no_positions_and_one_position():
    for m, n in ((0, 0), (0, 5), (4, 0)):
        length, chain = _patience(np.zeros((m, n), dtype=np.int8), np.ones((m, n), dtype=bool))
        assert length.tolist() == [0] * m and chain.tolist() == [0] * m
    keys = np.zeros((2, 1), dtype=np.int8)
    length, chain = _patience(keys, np.array([[True], [False]]))
    assert length.tolist() == [1, 0] and chain.tolist() == [1, 0]
    _assert_piles_match_the_reference(keys, np.array([[True], [False]]))


@pytest.mark.parametrize("n", range(1, 7))
def test_interned_trace_lines_match_the_per_row_reference(n):
    codes = np.arange(1 << pair_count(n), dtype=np.uint32)
    for window in (None, 0, 2):
        chunk = _coloring_chunk(n, codes, window)
        for kept in (slice(0), slice(1), slice(100), slice(None)):
            assert _trace_lines(n, chunk, kept) == ref._trace_lines(n, chunk, kept), (
                window, kept)


@pytest.mark.parametrize("n", range(0, 9))
def test_order_kernel_matches_the_reference_on_every_permutation(n):
    perms = list(itertools.permutations(range(n)))
    columns, traces = _order_rows(n, 0, len(perms), None, len(perms), True)
    rows = list(zip(range(len(perms)), *(column.tolist() for column in columns)))
    assert columns[-1].all() and traces == []
    for i, ranking in enumerate(perms):
        row, _ = _check_order(LinearOrderInstance(n, ranking), None, None)
        assert rows[i] == (i, *row), (n, ranking)


def _scalar_monotone(ranking, chain, ascending):
    """_check_order's monotone column for a chain given as a vertex mask."""
    order = LinearOrderInstance(len(ranking), ranking)
    seq = [x for x in range(order.n) if (chain >> x) & 1]
    return all(order.less(a, b) == ascending for a, b in zip(seq, seq[1:]))


@pytest.mark.parametrize("n", range(0, 7))
def test_the_order_monotone_check_matches_the_reference_on_corrupted_chains(n):
    perms = list(itertools.permutations(range(n)))
    ranks = np.array(perms, dtype=np.int8).reshape(len(perms), n)
    ascending, _, chain = _longest_monotone(ranks, np.ones(ranks.shape, dtype=bool))
    corruptions = [(chain, ~ascending), (chain, ascending)]
    corruptions += [(chain ^ np.uint8(1 << x), ascending) for x in range(n)]
    flagged = 0
    for bad_chain, bad_up in corruptions:
        got = _monotone_runs(ranks, bad_chain, bad_up).tolist()
        for ranking, mask, up, ok in zip(perms, bad_chain.tolist(), bad_up.tolist(), got):
            assert ok == _scalar_monotone(ranking, mask, up), (ranking, mask, up)
            flagged += not ok
    assert flagged > 0 or n < 2


@pytest.mark.parametrize("kind, n, mode, kw, formats", [
    ("coloring", 5, "exhaustive", {"want_traces": True}, ("summary", "tsv", "trace")),
    ("coloring", 6, "exhaustive", {"window": 2}, ("summary", "tsv", "trace")),
    ("order", 7, "exhaustive", {}, ("summary", "tsv", "trace")),
    ("tournament", 6, "exhaustive", {}, ("summary", "tsv")),
    # sampled: 2,600 instances over three chunks, the seeds of some across 2^64
    ("coloring", 6, "sample", {"count": 2600, "seed": 2**64 - 1700, "want_traces": True},
     ("summary", "tsv", "trace")),
    ("coloring", 9, "sample", {"count": 2600, "seed": -3, "window": 1, "want_traces": True},
     ("summary", "tsv", "trace")),
    ("tournament", 9, "sample", {"count": 2600, "seed": 5, "want_traces": True},
     ("summary", "tsv", "trace")),
    ("order", 10, "sample", {"count": 2600, "seed": 2**64 - 1}, ("summary", "tsv", "trace")),
    ("family", 7, "sample", {"count": 2600, "seed": -1000}, ("summary", "tsv", "trace")),
])
def test_chunk_boundaries_do_not_change_the_report(monkeypatch, kind, n, mode, kw, formats):
    rows = (0, 5, 1500, 100_000)          # 1500 cuts the second chunk of 1000
    whole = {r: sweep(kind, n, mode, max_rows=r, **kw) for r in rows}
    monkeypatch.setattr(SWEEP_MODULE, "_CHUNK", 1000)
    for r, report in whole.items():
        chunked = sweep(kind, n, mode, max_rows=r, **kw)
        for fmt in formats:
            assert emit(chunked, fmt) == emit(report, fmt), (r, fmt)
        assert len(chunked.traces) == (min(r, chunked.count) if kw.get("want_traces")
                                       and kind == "coloring" else 0)


def test_failures_count_every_failed_check_across_chunks(monkeypatch):
    # No coloring with n <= 8 fails a check, so inject failures.
    verifier = _verify_coloring_chunk

    def failing(n, codes, chunk):
        return np.where(codes % 7 == 0, 3, verifier(n, codes, chunk))

    monkeypatch.setattr(SWEEP_MODULE, "_CHUNK", 100)
    monkeypatch.setattr(SWEEP_MODULE, "_verify_coloring_chunk", failing)
    report = sweep("coloring", 5, "exhaustive", max_rows=8)
    assert report.failures == sum(1 for c in range(1024) if c % 7 == 0)
    assert [row[-1] for row in report.rows] == [0, 1, 1, 1, 1, 1, 1, 0]

    def failing_check(seed, window, target):     # the generator below hands it the seed
        return (0, 1, int(seed % 7 != 0)), None

    columns, _, _, kernel = SWEEP_MODULE._KINDS["family"]
    monkeypatch.setitem(SWEEP_MODULE._KINDS, "family",
                        (columns, lambda n, seed: seed, failing_check, kernel))
    report = sweep("family", 5, "sample", count=1024, seed=0, max_rows=8)
    assert report.failures == sum(1 for c in range(1024) if c % 7 == 0)
    assert [row[-1] for row in report.rows] == [0, 1, 1, 1, 1, 1, 1, 0]


def _corruptions(n, chunk):
    """(name, corrupted chunk) for every stage: a flipped side of each
    set, each vertex dropped from G0, each G0 vertex added to G1 and G1
    widened to G0, each vertex added to H, the direction reversed and the
    color flipped."""
    for x in range(n):
        bit = np.uint8(1 << x)
        yield "side", chunk._replace(sides=chunk.sides ^ bit)
        yield "g0", chunk._replace(g0=chunk.g0 & ~bit)
        yield "g1", chunk._replace(g1=chunk.g1 | (chunk.g0 & bit))
        yield "h", chunk._replace(h=chunk.h | (chunk.g1 & bit))
        yield "h>g1", chunk._replace(h=chunk.h | (~chunk.g1 & bit))
    yield "g1=g0", chunk._replace(g1=chunk.g0)
    yield "direction", chunk._replace(ascending=~chunk.ascending)
    yield "color", chunk._replace(color=chunk.color ^ np.uint8(1))


@pytest.mark.parametrize("n, codes", [
    (n, np.arange(1 << pair_count(n), dtype=np.uint32)) for n in range(1, 6)
] + [(6, seeded_codes(6, 1500, 6)), (7, seeded_codes(7, 400, 7)), (8, seeded_codes(8, 200, 8))],
    ids=lambda value: str(value) if isinstance(value, int) else None)
def test_the_verifier_flags_the_same_first_stage_as_verify_trace(n, codes):
    chunk = _coloring_chunk(n, codes, None)
    flagged = {}
    for name, corrupted in _corruptions(n, chunk):
        got = _verify_coloring_chunk(n, codes, corrupted)
        lines = _trace_lines(n, corrupted, slice(None))
        assert lines == ref._trace_lines(n, corrupted, slice(None)), name
        for code, stage, line in zip(codes.tolist(), got.tolist(), lines):
            want = _stage_of(verify_trace(SolverTrace.from_json(line), PairColoring(n, code)))
            assert stage == want, (name, n, code, line)
            flagged.setdefault(name, set()).add(stage)
    # every stage is reached, each by the corruption aimed at it (below
    # n = 5, the G0 of every code is transitive)
    if n >= 5:
        assert 2 in flagged["g1=g0"]
    if n >= 3:
        assert 1 in flagged["side"] and 3 in flagged["h>g1"]
    if n >= 2:
        assert 2 in flagged["g0"] and 3 in flagged["direction"] and 4 in flagged["color"]


def test_exhaustive_coloring_n7_matches_the_scalar_pin():
    # Digests of the per-code rt22_solve loop, which took about 150 s CPU.
    start = time.process_time()
    report = sweep("coloring", 7, "exhaustive")
    assert time.process_time() - start < 15
    assert report.failures == 0 and report.count == 1 << 21
    assert hashlib.sha256(emit(report, "summary").encode()).hexdigest() == (
        "6749a0e014dafebe4a727fcab73a8c157c6a4b133773ac017515bc44ac73e7a3")
    assert hashlib.sha256(emit(report, "tsv").encode()).hexdigest() == (
        "fe5278300a3bb0fa96402a85321b4dd3cfc6824a776e55b54857c91ee1fe568c")


@pytest.mark.parametrize("kind, n", [("coloring", 4), ("order", 5)])
def test_cli_exhaustive_sweeps_print_the_scalar_reports(kind, n):
    if kind == "coloring":
        instances = [PairColoring(n, code) for code in range(1 << pair_count(n))]
        check = _check_coloring
    else:
        instances = [LinearOrderInstance(n, p) for p in itertools.permutations(range(n))]
        check = _check_order
    results = [check(instance, None, None) for instance in instances]
    at = SWEEP_MODULE._KINDS[kind][0].index("direction") - 1     # in a row after `instance`
    tsv = "".join("\t".join(map(str, (i, *row[:at], _WORDS["direction"][row[at]], *row[at + 1:])))
                  + "\n" for i, (row, _) in enumerate(results))
    traces = "".join(trace.to_json() + "\n" for _, trace in results if trace is not None)
    code, out, err = run_cli("sweep", "--kind", kind, "--n", str(n), "--exhaustive",
                             "--format", "tsv")
    assert code == 0 and out.endswith(tsv) and err.startswith("wall_clock=")
    code, out, err = run_cli("sweep", "--kind", kind, "--n", str(n), "--exhaustive",
                             "--format", "trace")
    assert code == 0 and out == traces and err.startswith("wall_clock=")

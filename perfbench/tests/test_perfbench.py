"""Tests of the benchmark's own code.

    python3 -m pytest perfbench/tests
"""

import json
import statistics
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def fake_workload(outputs):
    """A workload whose items emit the given bytes (or raise an exception)."""
    def item(out):
        def run_item():
            if isinstance(out, Exception):
                raise out
            return out, 0
        return workloads.Item("fake", 1, run_item)
    return workloads.Workload("fake", [item(o) for o in outputs])


def first_digest(outputs):
    gate = run.Gate(None)
    run.run_pass(fake_workload(outputs), gate, run.Tally())
    return gate.digest()


def test_digest_gate_fires_on_mutated_output():
    good = [b"alpha", b"beta", b"gamma"]
    pinned = first_digest(good)
    gate = run.Gate(pinned)
    run.run_pass(fake_workload(good), gate, run.Tally())
    assert gate.pinned_ok()
    gate = run.Gate(pinned)
    run.run_pass(fake_workload([b"alpha", b"betA", b"gamma"]), gate, run.Tally())
    assert not gate.pinned_ok()


def test_a_later_pass_that_differs_fails_its_items():
    gate, tally = run.Gate(None), run.Tally()
    run.run_pass(fake_workload([b"a", b"b", b"c"]), gate, tally)
    run.run_pass(fake_workload([b"a", b"B", b"c"]), gate, tally)
    assert (tally.attempted, tally.failed) == (6, 1)


def test_an_item_that_raises_counts_as_failed():
    gate, tally = run.Gate(None), run.Tally()
    run.run_pass(fake_workload([b"a", ValueError("boom"), b"c"]), gate, tally)
    assert (tally.attempted, tally.failed) == (3, 1)
    assert len(tally.latency_ms()) == 3


def test_items_per_s_and_latency_use_each_calls_trimmed_mean():
    tally = run.Tally()
    for seconds in (0.5, 0.2, 0.3):
        tally.add(0, 1, 0, seconds)
        tally.add(1, 4, 0, 2 * seconds)
    assert tally.items_per_s() == pytest.approx(5.0)
    assert tally.latency_ms() == pytest.approx([1000.0 / 3, 500.0 / 3])
    # Of ten timings the slowest is dropped.
    assert run.call_time([1.0] * 9 + [50.0]) == pytest.approx(1.0)
    assert run.call_time([2.0, 4.0]) == pytest.approx(3.0)


def test_a_pass_stops_at_its_deadline():
    gate, tally = run.Gate(None), run.Tally()
    run.run_pass(fake_workload([b"a", b"b"]), gate, tally)
    run.run_pass(fake_workload([b"a", b"b"]), gate, tally, deadline=0.0)
    assert tally.attempted == 2


def test_checker_failures_are_counted_up_to_the_item_count():
    def run_item():
        return b"x", 7
    w = workloads.Workload("fake", [workloads.Item("sweep", 5, run_item)])
    tally = run.Tally()
    run.run_pass(w, run.Gate(None), tally)
    assert (tally.attempted, tally.failed) == (5, 5)


@pytest.mark.parametrize("n", [21, 22, 50, 1000, 4183])
def test_tail_keeps_ten_samples_beyond(n):
    values = [float((i * 7919) % n) for i in range(n)]
    value, pct, beyond = stats.tail(values)
    assert beyond == stats.TAIL_BEYOND
    assert sum(1 for v in values if v > value) >= stats.TAIL_BEYOND
    assert value == sorted(values)[n - 1 - stats.TAIL_BEYOND]
    assert pct == pytest.approx(100.0 * (n - stats.TAIL_BEYOND) / n)


@pytest.mark.parametrize("n", [1, 2, 5, 10, 20])
def test_tail_of_few_samples_is_not_below_the_median(n):
    values = list(range(n))
    value, _, beyond = stats.tail(values)
    assert value >= statistics.median(values)
    assert beyond < stats.TAIL_BEYOND


def test_compare_rule_on_synthetic_samples():
    parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]
    # Higher is better: a clear gain in every pair is a win.
    assert stats.verdict(parent, [v * 1.2 for v in parent], "higher", 0.1, 0, 0)[0] == stats.WIN
    # The same numbers again are the same.
    assert stats.verdict(parent, list(parent), "higher", 0.1, 0, 0)[0] == stats.SAME
    # A drop beyond the bound is a regression; within it, the same.
    assert stats.verdict(parent, [v * 0.8 for v in parent], "higher", 0.1, 0, 0)[0] == stats.REGRESSION
    assert stats.verdict(parent, [v * 0.95 for v in parent], "higher", 0.1, 0, 0)[0] == stats.SAME
    # Lower is better: the direction flips.
    assert stats.verdict(parent, [v * 0.8 for v in parent], "lower", 0.1, 0, 0)[0] == stats.WIN
    assert stats.verdict(parent, [v * 1.2 for v in parent], "lower", 0.1, 0, 0)[0] == stats.REGRESSION


def test_compare_rule_needs_nine_tenths_of_pairs_and_a_gap_beyond_the_iqr():
    parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]
    # Better in 8 of 10 pairs only: no win.
    change = [v + 5 for v in parent[:8]] + [v - 1 for v in parent[8:]]
    assert stats.verdict(parent, change, "higher", 0.1, 0, 0)[0] != stats.WIN
    # Better in every pair but by less than the parent's IQR: no win.
    iqr = stats.quartiles(parent)[2] - stats.quartiles(parent)[0]
    tiny = [v + iqr / 4 for v in parent]
    assert stats.verdict(parent, tiny, "higher", 0.1, 0, 0)[0] == stats.SAME


def test_compare_rule_needs_ten_pairs_and_no_more_failures_than_the_parent():
    parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]
    faster = [v * 1.2 for v in parent]
    with pytest.raises(ValueError):
        stats.verdict(parent[:9], faster[:9], "higher", 0.1, 0, 0)
    assert stats.verdict(parent, faster, "higher", 0.1, 2, 2)[0] == stats.WIN
    assert stats.verdict(parent, faster, "higher", 0.1, 0, 1)[0] != stats.WIN


def test_compare_rule_reports_wide_spread_as_unresolved():
    parent = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
    change = [v * 0.97 for v in parent]
    assert stats.verdict(parent, change, "higher", 0.1, 0, 0)[0] == stats.UNRESOLVED
    # Unless every change run beats every parent run.
    above = [141.0 + 0.1 * i for i in range(10)]
    assert stats.verdict(parent, above, "higher", 0.1, 0, 0)[0] == stats.SAME


def test_alternating_order():
    assert stats.alternating_order(3) == [("parent", "change"), ("change", "parent"),
                                          ("parent", "change")]


def test_spec_names_match_what_the_benchmark_reports():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    reported = ([f"{name}.self_s" for name in LAYERS] + [f"{n}.calls" for n in run.CALLS]
                + list(run.COUNTERS) + ["trace.overhead_s"])
    assert sorted(m["name"] for m in SPEC["per_layer"]) == sorted(reported)


def test_same_seed_gives_same_inputs_and_tracer_restores_the_program():
    digests = []
    for _ in range(2):
        ep = run.Program()
        w = workloads.setup("solve-sampled", ep, 7)
        gate = run.Gate(None)
        run.run_pass(w, gate, run.Tally())
        digests.append(gate.digest())
    assert digests[0] == digests[1]

    original = ep.ordinal.compare
    tracer = Tracer()
    tracer.install(ep)
    try:
        a, b = ep.ordinal.parse_ordinal("w^(w) + 3"), ep.ordinal.parse_ordinal("w*2")
        assert ep.ordinal.compare(a, b) == ep.ordinal.GT
    finally:
        tracer.uninstall()
    assert ep.ordinal.compare is original
    totals = tracer.totals()
    assert totals["ordinal.compare"][1] >= 1
    assert totals["ordinal.text"][1] == 2
    assert all(seconds >= 0 for seconds, _ in totals.values())
    assert all(parent < span for span, parent, *_ in tracer.spans)

"""Descent traces and the k-stream combiner, checked against a stateless
replayer and exhaustive small families."""

import itertools

import pytest

from epsilon0.descent import (
    BOUND, NOT_DECREASING,
    DescentTrace, MalformedLogError, StreamEvent, StreamEventLog,
    format_descent_trace, format_event_log, gamma_combine,
    parse_descent_trace, parse_event_log, residual, validate_descent,
)
from epsilon0.ordinal import (
    LT, OMEGA, ZERO, compare, from_int, nat_add, nat_mul_k, omega_pow,
    parse_ordinal,
)

o = parse_ordinal
w = OMEGA


def make_log(k, bound, events):
    return StreamEventLog(k=k, bound=bound,
                          events=tuple(StreamEvent(t, e, v) for t, e, v in events))


# ---------------------------------------------------------------------------
# validate_descent
# ---------------------------------------------------------------------------

def test_validate_examples():
    ok = DescentTrace(o("w^(2)"), (o("w*3 + 1"), o("w*3"), from_int(5), ZERO))
    assert validate_descent(ok) is None

    flat = DescentTrace(w, (from_int(3), from_int(3)))
    violation = validate_descent(flat)
    assert (violation.index, violation.reason) == (1, NOT_DECREASING)

    high = DescentTrace(w, (w,))
    violation = validate_descent(high)
    assert (violation.index, violation.reason) == (0, BOUND)


def test_validate_reports_bound_before_monotonicity():
    trace = DescentTrace(w, (from_int(1), w))
    violation = validate_descent(trace)
    assert (violation.index, violation.reason) == (1, BOUND)


# ---------------------------------------------------------------------------
# residual
# ---------------------------------------------------------------------------

def test_residual_examples():
    beta = o("w^(2)")
    empty = make_log(2, beta, [])
    assert residual(empty, 0, 100) == beta

    log = make_log(1, w, [(0, 0, from_int(5))])
    assert residual(log, 0, 0) == from_int(5)

    log2 = make_log(2, w, [(0, 0, from_int(5)), (1, 1, from_int(4))])
    assert residual(log2, 1, 0) == w  # stream 1 has not spoken at time 0
    assert residual(log2, 1, 1) == from_int(4)

    with pytest.raises(IndexError):
        residual(log2, 2, 0)


def test_residual_non_increasing_in_time():
    log = make_log(2, o("w*3"), [(0, 0, o("w*2 + 1")), (2, 0, o("w + 4")), (5, 0, from_int(2))])
    values = [residual(log, 0, t) for t in range(7)]
    for earlier, later in zip(values, values[1:]):
        assert compare(later, earlier) != 1


# ---------------------------------------------------------------------------
# gamma_combine
# ---------------------------------------------------------------------------

def test_gamma_examples():
    log = make_log(2, w, [(0, 0, from_int(5)), (1, 1, from_int(4)),
                          (2, 0, from_int(3)), (3, 1, from_int(2))])
    trace = gamma_combine(log)
    assert trace.bound == o("w*2")
    assert [str(v) for v in trace.values] == ["w + 5", "9", "7", "5"]
    assert validate_descent(trace) is None

    single = make_log(1, w, [(0, 0, from_int(7)), (1, 0, from_int(2))])
    assert [str(v) for v in gamma_combine(single).values] == ["7", "2"]

    empty = make_log(2, o("w^(2)"), [])
    trace = gamma_combine(empty)
    assert trace.values == () and trace.bound == o("w^(2)*2")


def test_gamma_rejects_malformed_logs():
    bad_time = make_log(2, w, [(0, 0, from_int(5)), (0, 1, from_int(4))])
    with pytest.raises(MalformedLogError):
        gamma_combine(bad_time)
    bad_stream = make_log(1, w, [(0, 1, from_int(5))])
    with pytest.raises(MalformedLogError):
        gamma_combine(bad_stream)
    not_decreasing = make_log(1, w, [(0, 0, from_int(5)), (1, 0, from_int(5))])
    with pytest.raises(MalformedLogError):
        gamma_combine(not_decreasing)
    above_bound = make_log(1, w, [(0, 0, w)])
    with pytest.raises(MalformedLogError):
        gamma_combine(above_bound)


def brute_replay(log):
    """Stateless oracle: at each event time recompute every stream's last
    value by scanning the whole log, then natural-sum them."""
    values = []
    for ev in log.events:
        total = ZERO if log.k else None
        first = True
        for e in range(log.k):
            last = log.bound
            for other in log.events:
                if other.time <= ev.time and other.stream == e:
                    last = other.value
            total = last if first else nat_add(total, last)
            first = False
        values.append(total)
    return values


def exhaustive_logs(bound, pool, k, max_events):
    """All well-formed logs with values from the pool, consecutive times."""
    below = [v for v in pool if compare(v, bound) == LT]
    for length in range(max_events + 1):
        for streams in itertools.product(range(k), repeat=length):
            def assignments(position, last_by_stream):
                if position == length:
                    yield []
                    return
                e = streams[position]
                for v in below:
                    prev = last_by_stream.get(e)
                    if prev is not None and compare(v, prev) != LT:
                        continue
                    for rest in assignments(position + 1, {**last_by_stream, e: v}):
                        yield [(position, e, v)] + rest
            for events in assignments(0, {}):
                yield make_log(k, bound, events)


def test_gamma_matches_brute_oracle_exhaustively():
    pool = [ZERO, from_int(1), from_int(2), w, o("w + 1"), o("w + 2"),
            o("w*2"), o("w*2 + 1")]
    checked = 0
    for bound in (from_int(2), w, o("w + 2"), o("w*2"), o("w*3")):
        for k in (1, 2):
            for log in exhaustive_logs(bound, pool, k, 3):
                trace = gamma_combine(log)
                assert list(trace.values) == brute_replay(log)
                assert trace.bound == nat_mul_k(bound, k)
                assert validate_descent(trace) is None
                checked += 1
    assert checked > 2_000


def test_gamma_exactly_one_residual_drops_per_event():
    log = make_log(3, o("w^(2)"), [(0, 1, o("w*4")), (1, 0, o("w + 1")),
                                   (3, 1, o("w*2 + 5")), (4, 2, from_int(9)),
                                   (7, 1, o("w*2"))])
    trace = gamma_combine(log)
    assert validate_descent(trace) is None
    for i, ev in enumerate(log.events):
        before = [residual(log, e, ev.time - 1) for e in range(log.k)]
        after = [residual(log, e, ev.time) for e in range(log.k)]
        changed = [e for e in range(log.k) if before[e] != after[e]]
        assert changed == [ev.stream]
        assert compare(after[ev.stream], before[ev.stream]) == LT


# ---------------------------------------------------------------------------
# random logs (seeded), matching the quantified module property
# ---------------------------------------------------------------------------

def random_logs(count, max_k=5, max_events=50, seed=7):
    from epsilon0.generate import SplitMix64

    rng = SplitMix64(seed)

    def random_ordinal(depth):
        if depth == 0:
            return from_int(rng.below(4))
        total = ZERO
        for _ in range(rng.below(3)):
            total = nat_add(total, nat_mul_k(omega_pow(random_ordinal(depth - 1)),
                                             rng.below(3) + 1))
        return total

    made = 0
    while made < count:
        k = rng.below(max_k) + 1
        bound = nat_add(random_ordinal(2), from_int(1))  # nonzero
        current = [bound] * k
        events = []
        t = 0
        for _ in range(rng.below(max_events + 1)):
            e = rng.below(k)
            cur = current[e]
            if cur == ZERO:
                continue
            # a strictly smaller value: shrink the leading term or drop it
            smaller = _shrink(cur, rng)
            events.append((t, e, smaller))
            current[e] = smaller
            t += rng.below(3) + 1
        yield make_log(k, bound, events)
        made += 1


def _shrink(a, rng):
    terms = list(a.terms)
    exp, coeff = terms[0]
    choice = rng.below(3)
    if choice == 0 and coeff > 1:
        rest = (exp, coeff - 1)
        return type(a)((rest,) + tuple(terms[1:]))
    if choice == 1 and len(terms) > 1:
        return type(a)(tuple(terms[1:]))
    if exp == ZERO:
        if coeff > 1:
            return type(a)(((exp, coeff - 1),))
        return ZERO
    return from_int(rng.below(5))


def test_gamma_output_valid_on_random_logs():
    import os

    count = 10_000 if os.environ.get("EPS0_FULL") else 2_000
    for log in random_logs(count):
        trace = gamma_combine(log)
        assert trace.bound == nat_mul_k(log.bound, log.k)
        assert len(trace.values) == len(log.events)
        assert validate_descent(trace) is None


# ---------------------------------------------------------------------------
# text formats
# ---------------------------------------------------------------------------

def test_log_file_roundtrip():
    log = make_log(2, o("w*2"), [(0, 0, o("w + 3")), (2, 1, w), (5, 0, from_int(8))])
    text = format_event_log(log)
    assert text.splitlines()[0] == "k=2 bound=w*2"
    assert parse_event_log(text) == log


def test_trace_file_roundtrip():
    trace = gamma_combine(make_log(2, w, [(0, 0, from_int(5)), (1, 1, from_int(4))]))
    again = parse_descent_trace(format_descent_trace(trace))
    assert again == trace


def test_parse_log_rejects_garbage():
    with pytest.raises(MalformedLogError):
        parse_event_log("")
    with pytest.raises(MalformedLogError):
        parse_event_log("k=2\nt=0 e=0 v=1\n")
    with pytest.raises(MalformedLogError):
        parse_event_log("k=2 bound=w\nt=0 e=0\n")


def test_memory_follows_the_events_not_k():
    k = 10 ** 15
    log = make_log(k, w, [(0, 5, from_int(3)), (1, k - 1, from_int(4)), (2, 5, ZERO)])
    trace = gamma_combine(log)
    assert trace.bound == nat_mul_k(w, k)
    assert trace.values == (
        nat_add(nat_mul_k(w, k - 1), from_int(3)),
        nat_add(nat_mul_k(w, k - 2), from_int(7)),
        nat_add(nat_mul_k(w, k - 2), from_int(4)),
    )
    assert validate_descent(trace) is None

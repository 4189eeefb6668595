"""Depth-aware ordering, checked against tuple order.

`compare`, `nat_add`, `std_add`, `is_below`, the constructor's decreasing
check and the parser's term stack walk two operands deeper than
`ordinal._SHALLOW` level by level and hand shallow ones to tuple order in
C.  Every result is compared with the tuple-order versions kept in
`tests/reference_ordinal.py` on:

- every pair of values whose index is below 10^4;
- towers of every height from 1 to MAX_DEPTH - 1 over eight finite bases
  (against the order of the bases), and over more bases, with sums of
  towers, at sampled heights (against the reference);
- every pair of depths 5 to 8 around the threshold;
- equal deep values that are not the same object (rebuilt through
  format and parse) and values that share subterms;
- coefficient overflow, which names the same coefficient on both paths.

The scale tests time each operation on towers with different bases at
heights 60 and 240, the two heights in turn within each round and the
garbage collector off: linear time gives a ratio near 4, the quadratic
tuple order near 16, and the bound is 8.  `gamma_combine` and
`zeta_measure` sort eight such towers as the exponents of their natural
sums.
"""

import functools
import gc
import time

import pytest

import reference_ordinal as ref
import reference_parser
from epsilon0.descent import StreamEvent, StreamEventLog, gamma_combine
from epsilon0.enumeration import LabeledTree, RankAssignment, zeta_measure
from epsilon0.ordinal import (
    COEFF_LIMIT, EQ, LT, MAX_DEPTH, OMEGA, ONE, ZERO, InvalidIndexError, Ordinal,
    OrdinalOverflowError, _SHALLOW, _depth, _read, compare, decode, format_ordinal,
    from_int, is_below, nat_add, nat_mul_k, nat_mul_omega, omega_pow, parse_ordinal,
    std_add, tower,
)
from support import outcome

SMALL = []
for _i in range(10_000):
    try:
        SMALL.append(decode(_i))
    except InvalidIndexError:
        continue

#: Eight finite bases: every tower over one of them is at most MAX_DEPTH deep.
FINITE = [ZERO, ONE] + [from_int(n) for n in (2, 3, 5, 8, 1000, COEFF_LIMIT)]
#: Transfinite bases, depths 2 and 3.
TRANSFINITE = [OMEGA, nat_add(OMEGA, ONE), omega_pow(from_int(2)), omega_pow(OMEGA),
               nat_add(omega_pow(OMEGA), nat_mul_k(OMEGA, 3))]


def assert_pairs_agree(values):
    """Every operation on every pair of values agrees with the reference."""
    for a in values:
        for b in values:
            rel = ref.compare(a, b)
            assert compare(a, b) == rel, (a, b)
            assert is_below(a, b) == (rel == LT)
            assert outcome(nat_add, a, b) == outcome(ref.nat_add, a, b)
            assert outcome(std_add, a, b) == outcome(ref.std_add, a, b)


def rebuilt(a: Ordinal) -> Ordinal:
    """An equal value that shares no object with a."""
    copy = parse_ordinal(format_ordinal(a))
    assert copy == a and (copy is not a or not a)
    return copy


# ---------------------------------------------------------------------------
# shallow values: the C path
# ---------------------------------------------------------------------------

def test_every_pair_of_indexed_values_compares_as_tuple_order():
    assert len(SMALL) == 1113
    for a in SMALL:
        for b in SMALL:
            assert compare(a, b) == ref.compare(a, b)


def test_indexed_values_add_as_tuple_order_merges():
    for a in SMALL[::7]:
        for b in SMALL:
            assert nat_add(a, b) == ref.nat_add(a, b)
            assert std_add(a, b) == ref.std_add(a, b)


# ---------------------------------------------------------------------------
# deep values: the walk
# ---------------------------------------------------------------------------

def test_towers_of_every_height_order_as_their_bases():
    for h in range(1, MAX_DEPTH):
        towers = [tower(x, h) for x in FINITE]
        for x, a in zip(FINITE, towers):
            for y, b in zip(FINITE, towers):
                assert compare(a, b) == compare(x, y)
        assert all(is_below(a, b) for a, b in zip(towers, towers[1:]))
        big, small = towers[-1], towers[0]
        assert nat_add(small, big) == nat_add(big, small) == _raw_sum(big, small)


def _raw_sum(big, small):
    """big + small as two terms, built without any ordering."""
    return tuple.__new__(Ordinal, (big[0], small[0]))


@pytest.mark.parametrize("h", [1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 33, 64])
def test_towers_and_their_sums_agree_with_tuple_order(h):
    values = [tower(x, h) for x in FINITE[::2]]
    values += [tower(x, h - 1) for x in FINITE[1::3]]
    values += [tower(x, h - 1) for x in TRANSFINITE[:2]]
    values += [nat_add(values[0], values[-1]), nat_add(values[1], SMALL[200]),
               nat_mul_k(values[2], 3)]
    assert_pairs_agree(values)


@pytest.mark.parametrize("h", [128, MAX_DEPTH - 2, MAX_DEPTH - 1])
def test_the_highest_towers_agree_with_tuple_order(h):
    # fewer values: the reference takes milliseconds per pair at these heights
    values = [tower(x, h) for x in FINITE[::3]] + [tower(from_int(2), h - 1)]
    values += [nat_add(values[0], values[-1]), nat_add(values[1], SMALL[200])]
    assert_pairs_agree(values)


def test_towers_over_transfinite_bases_agree_with_tuple_order():
    for h in (5, 6, 7, 50, MAX_DEPTH - 3):
        values = [tower(x, h) for x in TRANSFINITE]
        assert_pairs_agree(values + [nat_add(values[0], values[3]), nat_add(values[4], values[1])])


def test_pairs_around_the_depth_threshold():
    values = []
    for d in range(_SHALLOW - 1, _SHALLOW + 3):
        values += [tower(x, d - _depth(x)) for x in FINITE[:4] + TRANSFINITE[:3]]
    values += [nat_add(a, b) for a, b in zip(values, values[7:])]
    values += [nat_add(a, SMALL[50]) for a in values[::5]]
    assert {_depth(v) for v in values} == set(range(_SHALLOW - 1, _SHALLOW + 3))
    assert_pairs_agree(values)


def test_equal_deep_values_that_share_no_object():
    for h in (_SHALLOW, _SHALLOW + 1, 50, MAX_DEPTH - 1):
        for a in (tower(from_int(2), h), nat_add(tower(ONE, h), tower(ZERO, h))):
            b = rebuilt(a)
            assert compare(a, b) == compare(b, a) == EQ
            assert not is_below(a, b)
            assert nat_add(a, b) == nat_mul_k(a, 2) == ref.nat_add(a, b)
            assert std_add(a, b) == ref.std_add(a, b)
            other = tower(from_int(3), h)
            assert nat_add(a, other) == nat_add(b, other) == ref.nat_add(a, other)
            assert compare(a, other) == compare(b, other) == ref.compare(a, other)


def test_values_that_share_subterms():
    for h in (_SHALLOW, 40, MAX_DEPTH - 2):
        a = nat_add(tower(from_int(2), h), tower(ZERO, h))
        shifted = nat_mul_omega(a)
        values = [nat_mul_k(a, k) for k in (1, 2, 9)] + [a, shifted, nat_add(a, shifted)]
        assert all(compare(v, shifted) == LT for v in values[:4])
        assert_pairs_agree(values)


def test_overflow_names_the_same_coefficient_on_both_paths():
    messages = set()
    for h in (1, 3, _SHALLOW + 1, 100):
        for exp in (tower(ONE, h), nat_add(tower(ZERO, h), ONE)):
            a = Ordinal([(exp, COEFF_LIMIT)])
            b = Ordinal([(rebuilt(exp), 1)])
            for x, y in ((a, b), (b, a), (a, a)):
                got = outcome(nat_add, x, y)
                assert got == outcome(ref.nat_add, x, y)
                assert got[0] is OrdinalOverflowError
                messages.add(got[1])
                assert outcome(std_add, x, y) == outcome(ref.std_add, x, y)
    assert messages == {f"coefficient {COEFF_LIMIT + 1} exceeds 64-bit limit",
                        f"coefficient {2 * COEFF_LIMIT} exceeds 64-bit limit"}


def test_constructor_and_parser_order_deep_terms():
    for h in (_SHALLOW, _SHALLOW + 1, 120, MAX_DEPTH - 3):
        low, high = tower(from_int(2), h), tower(from_int(3), h)
        assert Ordinal([(high, 1), (low, 4)]) == _raw_sum(Ordinal([(high, 1)]), Ordinal([(low, 4)]))
        for terms in ([(low, 1), (high, 1)], [(high, 1), (rebuilt(high), 1)]):
            with pytest.raises(ValueError, match="strictly decreasing"):
                Ordinal(terms)
        a, b = format_ordinal(omega_pow(low)), format_ordinal(omega_pow(high))
        for text in (f"{b} + {a}", f"{a} + {b}", f"{a} + {b} + {a} + {b}*2 + 1",
                     f"{b} + {a} + {a}", f"w^({a} + {b}) + w^({b})"):
            expected = reference_parser.parse_ordinal(text)
            assert parse_ordinal(text) == expected
            memo = {}
            assert _read(text, memo) == _read(text, memo) == expected


# ---------------------------------------------------------------------------
# scale
# ---------------------------------------------------------------------------

def _best_times(*fns, rounds=9):
    """The best CPU time of 20 calls of each function over `rounds` rounds,
    the functions timed in turn within each round, so that a neighbour
    process that slows one of them slows the others in the same round.
    The garbage collector is off while they run, as in `timeit`: the
    more a call allocates, the more collections run, and each walks every
    live tower, so its share grows faster than the height whatever the
    timed code does (with it on, `sort` read 6.5-7.7 on an idle machine)."""
    best = [float("inf")] * len(fns)
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(rounds):
            for i, fn in enumerate(fns):
                t0 = time.process_time()
                for _ in range(20):
                    fn()
                best[i] = min(best[i], time.process_time() - t0)
    finally:
        if enabled:
            gc.enable()
    return best


def _operations(h):
    a, b = tower(from_int(2), h), tower(from_int(3), h)
    eight = [tower(from_int(n), h) for n in (9, 4, 7, 2, 8, 3, 6, 5)]
    text = format_ordinal(nat_add(a, b))
    log = StreamEventLog(1, omega_pow(tower(from_int(10), h)),
                         (StreamEvent(0, 0, functools.reduce(nat_add, map(omega_pow, eight))),))
    leaves = LabeledTree([()] + [(i,) for i in range(8)])
    ranks = RankAssignment({(i,): x for i, x in enumerate(eight)}, tower(from_int(10), h))
    return {
        "compare": lambda: compare(a, b),
        "nat_add": lambda: nat_add(a, b),
        "std_add": lambda: std_add(b, a),
        "is_below": lambda: is_below(a, b),
        "sort": lambda: sorted(eight, key=functools.cmp_to_key(compare)),
        "parse": lambda: parse_ordinal(text),
        "gamma_combine": lambda: gamma_combine(log),     # natural sums of the eight
        "zeta_measure": lambda: zeta_measure(leaves, ranks),
    }


@pytest.mark.parametrize("op", ["compare", "nat_add", "std_add", "is_below", "sort", "parse",
                                "gamma_combine", "zeta_measure"])
def test_time_grows_linearly_with_the_shared_depth(op):
    ratio = None
    for _ in range(3):   # a neighbour on a shared machine can slow one timing
        low, high = _best_times(_operations(60)[op], _operations(240)[op])
        ratio = high / low
        if ratio < 8:
            break
    assert ratio < 8, f"{op}: height 240 took {ratio:.1f} times height 60"


def test_the_deepest_values_raise_no_recursion_error():
    h = MAX_DEPTH - 1
    towers = [tower(x, h) for x in FINITE]
    copies = [rebuilt(t) for t in towers]
    assert sorted(towers[::-1], key=functools.cmp_to_key(compare)) == towers
    for a, b in zip(towers, copies):
        assert compare(a, b) == EQ
        assert nat_add(a, b) == nat_mul_k(a, 2)
    for a, b in zip(towers, towers[1:]):
        assert compare(a, b) == LT and is_below(a, b)
        assert std_add(a, b) == b
        assert std_add(b, a) == nat_add(a, b)

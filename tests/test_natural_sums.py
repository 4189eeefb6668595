"""Natural sums by counting, checked against the one-`nat_add`-per-summand
reference in `tests/reference_measures.py`.

`gamma_combine`, `zeta_measure`, `zeta_pair_measure` and
`zeta_decrease_check` count exponents; the reference folds values one by
one.  Each Hypothesis test runs with `derandomize=True, database=None`
and asserts the same value, or the same error type and message, on
coefficients near COEFF_LIMIT, ranks at MAX_DEPTH, missing ranks, nodes
with more than two children, idle stages and nodes added together with
their children, and on towers around and far past `ordinal._SHALLOW` as
exponents or ranks (sorted by the walk when the bound is that deep, by
tuple order otherwise).  `run_to_finiteness`, which checks only each
stage's delta, is compared with the driver that checks the whole tree.
"""

import time

from hypothesis import given, settings, strategies as st

import epsilon0.enumeration
from epsilon0.descent import StreamEvent, StreamEventLog, gamma_combine
from epsilon0.enumeration import (
    Finished, FuelExhausted, LabeledTree, MonotoneEnumeration, RankAssignment,
    run_to_finiteness, step, zeta_decrease_check, zeta_measure, zeta_pair_measure,
)
from epsilon0.ordinal import (
    COEFF_LIMIT, MAX_DEPTH, OMEGA, ONE, ZERO, Ordinal, OrdinalOverflowError, _SHALLOW,
    format_ordinal, from_int, nat_add, nat_mul_k, omega_pow, parse_ordinal, tower,
)
from reference_measures import (
    ref_gamma_combine, ref_run_to_finiteness, ref_zeta_decrease_check,
    ref_zeta_measure, ref_zeta_pair_measure,
)
from support import outcome

derandomized = settings(derandomize=True, database=None)

#: The least rank whose w-power is past MAX_DEPTH, and ranks above it.
DEEP = tower(ZERO, MAX_DEPTH)
DEEP_RANKS = [DEEP, nat_add(DEEP, ONE), nat_mul_k(DEEP, 2)]
RANK_BOUND = nat_mul_k(DEEP, 3)
SHALLOW_RANKS = [ZERO, ONE, from_int(2), OMEGA, nat_add(OMEGA, ONE), omega_pow(from_int(2))]

EXPONENTS = [ZERO, ONE, from_int(2), OMEGA]
COEFFS = st.one_of(
    st.integers(1, 3),
    st.builds(lambda top, below: top - below,
              st.sampled_from([COEFF_LIMIT, COEFF_LIMIT // 2 + 1, COEFF_LIMIT // 3 + 1]),
              st.integers(0, 3)))


def ordinals(exponents):
    """Ordinals of up to three terms over the given exponents."""
    return st.dictionaries(st.sampled_from(exponents), COEFFS, max_size=3).map(
        lambda terms: Ordinal(sorted(terms.items(), reverse=True)))


ORDINALS = ordinals(EXPONENTS)

#: Towers one level below, at and past ordinal._SHALLOW and far past it,
#: each with an equal copy that shares no object with it.
TOWERS = [tower(from_int(n), h) for h in (_SHALLOW - 1, _SHALLOW, _SHALLOW + 1, 100)
          for n in (2, 5)]
TOWERS += [parse_ordinal(format_ordinal(t)) for t in TOWERS]


# ---------------------------------------------------------------------------
# gamma_combine
# ---------------------------------------------------------------------------

@st.composite
def event_logs(draw, values=ORDINALS):
    """k streams below a shared bound, with values drawn from `values` and
    interleaved in the drawn order; k may be large enough that the silent
    streams' k-fold bound alone passes the limit."""
    k = draw(st.one_of(st.integers(1, 4), st.sampled_from([3, COEFF_LIMIT // 2, COEFF_LIMIT])))
    bound = draw(values.filter(bool))
    pairs = draw(st.lists(st.tuples(st.integers(0, 3), values), max_size=12))
    queues = {s: sorted({v for t, v in pairs if t == s and v < bound}, reverse=True)
              for s in range(4)}
    events = []
    for s, _ in pairs:
        if queues[s] and s < k:
            events.append(StreamEvent(len(events), s, queues[s].pop(0)))
    return StreamEventLog(k, bound, tuple(events))


@derandomized
@given(event_logs())
def test_gamma_combine_matches_the_one_by_one_sum(log):
    assert outcome(gamma_combine, log) == outcome(ref_gamma_combine, log)


@derandomized
@given(event_logs(ordinals(TOWERS)))
def test_gamma_combine_on_deep_exponents_matches_the_one_by_one_sum(log):
    assert outcome(gamma_combine, log) == outcome(ref_gamma_combine, log)


def _log(k, bound, values):
    return StreamEventLog(k, bound, tuple(StreamEvent(t, s, v) for t, (s, v) in enumerate(values)))


def test_gamma_combine_names_the_first_partial_coefficient_past_the_limit():
    # at the last event the finite parts add up to L + 9, but the
    # one-by-one sum over streams 0, 1, 2 passes the limit at L + 7
    big = COEFF_LIMIT
    log = _log(3, omega_pow(from_int(2)),
               [(0, OMEGA), (1, from_int(big - 3)), (2, from_int(2)), (0, from_int(10))])
    got = outcome(gamma_combine, log)
    assert got == outcome(ref_gamma_combine, log)
    assert got == (OrdinalOverflowError, f"coefficient {big + 7} exceeds 64-bit limit", None)


def test_gamma_combine_names_the_silent_streams_product():
    bound = nat_mul_k(OMEGA, COEFF_LIMIT // 2)
    log = _log(4, bound, [(0, from_int(1)), (1, from_int(1))])
    got = outcome(gamma_combine, log)
    assert got == outcome(ref_gamma_combine, log)
    assert got == (OrdinalOverflowError,
                   f"coefficient {(COEFF_LIMIT // 2) * 3} exceeds 64-bit limit", None)
    # silent for good: the trace bound k * bound itself overflows
    silent = _log(3, bound, [])
    assert outcome(gamma_combine, silent) == outcome(ref_gamma_combine, silent)


def test_gamma_combine_with_a_thousand_streams_is_linear():
    k = 1000
    first = [(s, nat_add(OMEGA, from_int(s + 1))) for s in range(k)]
    second = [(s, from_int(s + 1)) for s in range(k)]
    log = _log(k, omega_pow(from_int(2)), first + second)
    start = time.perf_counter()
    trace = gamma_combine(log)
    assert time.perf_counter() - start < 1.0
    assert len(trace) == 2 * k
    assert trace.values[-1] == from_int(k * (k + 1) // 2)
    assert trace.values[k - 1] == nat_add(nat_mul_k(OMEGA, k), from_int(k * (k + 1) // 2))


# ---------------------------------------------------------------------------
# zeta_measure and zeta_pair_measure
# ---------------------------------------------------------------------------

@st.composite
def trees(draw):
    """Prefix-closed trees with up to four children per node, the child
    indices not necessarily consecutive."""
    nodes = [()]
    for _ in range(draw(st.integers(0, 12))):
        node = draw(st.sampled_from(nodes)) + (draw(st.integers(0, 3)),)
        if node not in nodes:
            nodes.append(node)
    return LabeledTree(nodes)


def _drawn(data, tree, values):
    """A value from `values` for each node of `tree`, with None left out."""
    drawn = {node: data.draw(values) for node in sorted(tree.nodes)}
    return {node: v for node, v in drawn.items() if v is not None}


@derandomized
@given(trees(), st.data())
def test_zeta_measure_matches_the_tree_fold(tree, data):
    # a sparse pool mixes missing and too-deep ranks; a full one mostly measures
    pool = data.draw(st.sampled_from([SHALLOW_RANKS * 4 + DEEP_RANKS + [None],
                                      SHALLOW_RANKS[:2] + DEEP_RANKS[:1] + [None] * 2]))
    ranks = RankAssignment(_drawn(data, tree, st.sampled_from(pool)), RANK_BOUND)
    assert outcome(zeta_measure, tree, ranks) == outcome(ref_zeta_measure, tree, ranks)


@derandomized
@given(trees(), st.data(), st.sampled_from([RANK_BOUND, tower(from_int(9), _SHALLOW - 1)]))
def test_zeta_measure_of_deep_ranks_matches_the_tree_fold(tree, data, bound):
    # below the second bound only the shallowest towers are ranks
    pool = [t for t in TOWERS + [nat_add(t, ONE) for t in TOWERS] if t < bound]
    ranks = RankAssignment(_drawn(data, tree, st.sampled_from(pool)), bound)
    assert outcome(zeta_measure, tree, ranks) == outcome(ref_zeta_measure, tree, ranks)


@derandomized
@given(trees(), st.data())
def test_zeta_pair_measure_matches_the_tree_fold(tree, data):
    slot = st.sampled_from([0, 1, 2, 3] * 12 + [-5, COEFF_LIMIT, None])
    f0, f1 = _drawn(data, tree, slot), _drawn(data, tree, slot)
    assert outcome(zeta_pair_measure, tree, f0, f1) == outcome(ref_zeta_pair_measure, tree, f0, f1)


# ---------------------------------------------------------------------------
# zeta_decrease_check
# ---------------------------------------------------------------------------

@st.composite
def enumerations(draw):
    """Enumerations built by `step` from the root or from a larger tree at
    stage 0: a stage grows current leaves, may grow a node added in the
    same stage (so that node is a leaf at no stage), and may be idle."""
    first = draw(st.one_of(st.just(LabeledTree([()])), trees()))
    enum = MonotoneEnumeration(deltas=(first.nodes,), current=first)
    for _ in range(draw(st.integers(0, 5))):
        additions = {}
        for _ in range(draw(st.integers(0, 3))):
            base = draw(st.sampled_from(enum.current.leaves() + list(additions)))
            additions[base + (draw(st.integers(0, 2)),)] = None
        enum = step(enum, additions)
        assert isinstance(enum, MonotoneEnumeration)
    return enum


@derandomized
@given(enumerations(), st.data())
def test_zeta_decrease_check_matches_the_per_stage_measure(enum, data):
    # mostly ranks that drop with depth, from 0 or from DEEP (whose
    # w-power is too deep), with some drawn at random or left out
    base = data.draw(st.sampled_from([ZERO, DEEP]))
    ranks = {}
    for node in sorted(enum.current.nodes):
        choice = data.draw(st.integers(0, 9))
        if choice == 1:
            ranks[node] = data.draw(st.sampled_from(SHALLOW_RANKS + DEEP_RANKS))
        elif choice:
            ranks[node] = nat_add(base, from_int(20 - len(node)))
    assignment = RankAssignment(ranks, RANK_BOUND)
    assert outcome(zeta_decrease_check, enum, assignment) == \
        outcome(ref_zeta_decrease_check, enum, assignment)


@derandomized
@given(enumerations(), st.data())
def test_zeta_decrease_check_on_deep_ranks_matches_the_per_stage_measure(enum, data):
    # ranks that drop with depth from a deep tower, some drawn at random
    base = data.draw(st.sampled_from(TOWERS))
    ranks = {}
    for node in sorted(enum.current.nodes):
        if data.draw(st.integers(0, 4)):
            ranks[node] = nat_add(base, from_int(20 - len(node)))
        else:
            ranks[node] = data.draw(st.sampled_from(TOWERS))
    assignment = RankAssignment(ranks, RANK_BOUND)
    assert outcome(zeta_decrease_check, enum, assignment) == \
        outcome(ref_zeta_decrease_check, enum, assignment)


def test_zeta_decrease_check_takes_no_w_power_of_a_node_that_is_never_a_leaf(monkeypatch):
    # (0,) is added with its child (0, 0) in one stage, so it is a leaf at no stage
    enum = step(MonotoneEnumeration.initial(), {(0,): None, (0, 0): None})
    enum = step(enum, {(0, 0, 0): None, (0, 0, 1): None})
    ranks = {(): from_int(9), (0,): from_int(8), (0, 0): from_int(7), (0, 0, 0): from_int(6),
             (0, 0, 1): from_int(5)}
    powered = []

    def recording(rank):
        powered.append(rank)
        return omega_pow(rank)

    monkeypatch.setattr(epsilon0.enumeration, "omega_pow", recording)
    assert zeta_decrease_check(enum, RankAssignment(ranks, OMEGA)).ok
    assert ranks[(0,)] not in powered


def test_zeta_decrease_check_on_a_chain_grown_one_node_per_stage():
    ranks = RankAssignment({(0,) * d: from_int(1501 - d) for d in range(1501)}, from_int(1502))
    start = time.perf_counter()
    enum = MonotoneEnumeration.initial()
    for d in range(1, 1501):
        enum = step(enum, {(0,) * d: None})
    verdict = zeta_decrease_check(enum, ranks)
    assert time.perf_counter() - start < 1.0
    assert verdict.ok


# ---------------------------------------------------------------------------
# run_to_finiteness
# ---------------------------------------------------------------------------

@st.composite
def stage_scripts(draw):
    """Stages that may break any clause of `step`, the bound or the
    branching: nodes extend any node seen so far, not only leaves."""
    seen = {()}
    stages = []
    for _ in range(draw(st.integers(0, 6))):
        additions = {}
        for _ in range(draw(st.integers(0, 4))):
            base = draw(st.sampled_from(sorted(seen | set(additions))))
            additions[base + (draw(st.integers(0, 3)),)] = None
        seen |= set(additions)
        stages.append(additions)
    return stages


def _summary(result):
    if isinstance(result, (Finished, FuelExhausted)):
        return type(result), result.enumeration.deltas
    return result


@derandomized
@given(stage_scripts(), st.integers(0, 4), st.integers(0, 3), st.integers(0, 8))
def test_run_to_finiteness_checks_the_delta_like_the_whole_tree(stages, b, d, fuel):
    got = outcome(run_to_finiteness, iter(stages), b, d, fuel)
    want = outcome(ref_run_to_finiteness, iter(stages), b, d, fuel)
    assert _summary(got) == _summary(want)

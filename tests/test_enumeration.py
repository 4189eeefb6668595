"""Monotone enumerations, boundedness, and the ordinal measures."""

import pytest

from epsilon0.enumeration import (
    Finished, FuelExhausted, LabeledTree, MissingRankError,
    MonotoneEnumeration, PreconditionViolation, RankAssignment, StepRejection,
    check_bounded, extendible_node, format_enumeration_log, format_node,
    parse_enumeration_log, parse_node, run_to_finiteness, step,
    zeta_decrease_check, zeta_measure, zeta_pair_measure,
)
from epsilon0.generate import SplitMix64
from epsilon0.ordinal import (
    GT, LT, ZERO, compare, from_int, nat_add, nat_mul_k, omega_pow,
    parse_ordinal,
)

o = parse_ordinal


def grow(enum, *nodes):
    result = step(enum, {n: None for n in nodes})
    assert isinstance(result, MonotoneEnumeration), result
    return result


# ---------------------------------------------------------------------------
# step
# ---------------------------------------------------------------------------

def test_step_examples():
    e = MonotoneEnumeration.initial()
    assert isinstance(step(e, {(0,): None, (1,): None}), MonotoneEnumeration)

    rejected = step(e, {(0, 0): None})  # (0,) is not in T[0]
    assert isinstance(rejected, StepRejection) and rejected.clause == 3

    idle = step(e, {})
    assert isinstance(idle, MonotoneEnumeration)
    assert idle.deltas[-1] == frozenset()


def test_step_rejects_extension_of_internal_node():
    e = grow(grow(MonotoneEnumeration.initial(), (0,)), (0, 0))
    # (0,) now has a child, so a second child must not appear in a later stage
    rejected = step(e, {(0, 1): None})
    assert isinstance(rejected, StepRejection) and rejected.clause == 3


def test_step_accepts_multilevel_additions_through_a_leaf():
    e = MonotoneEnumeration.initial()
    e = grow(e, (0,), (0, 0), (0, 0, 1))
    assert (0, 0, 1) in e.current
    rejected = step(MonotoneEnumeration.initial(), {(0,): None, (0, 0, 0): None})
    assert isinstance(rejected, StepRejection) and rejected.clause == 3


def test_step_rejects_duplicates():
    e = grow(MonotoneEnumeration.initial(), (0,))
    rejected = step(e, {(0,): None})
    assert isinstance(rejected, StepRejection) and rejected.clause == 3


# ---------------------------------------------------------------------------
# check_bounded / run_to_finiteness
# ---------------------------------------------------------------------------

def chain(length):
    e = MonotoneEnumeration.initial()
    node = ()
    for _ in range(length):
        node = node + (0,)
        e = grow(e, node)
    return e


def test_check_bounded_examples():
    assert check_bounded(chain(3), 3) is None
    assert check_bounded(chain(4), 3) == (0, 0, 0, 0)
    assert check_bounded(MonotoneEnumeration.initial(), 0) is None


def full_tree_generator(b, d):
    level = [()]
    for _ in range(b):
        nxt = []
        for node in level:
            nxt.extend(node + (i,) for i in range(d))
        yield {n: None for n in nxt}
        level = nxt


def test_run_full_binary_depth2():
    outcome = run_to_finiteness(full_tree_generator(2, 2), 2, 2, fuel=50)
    assert isinstance(outcome, Finished)
    assert len(outcome.enumeration.current) == 7


def test_run_deep_chain_halts_at_bound():
    def chain_gen(b):
        node = ()
        for _ in range(b):
            node = node + (0,)
            yield {node: None}
    outcome = run_to_finiteness(chain_gen(3), 3, 1, fuel=50)
    assert isinstance(outcome, Finished)
    assert len(outcome.enumeration.current) == 4  # root plus three levels


def test_run_rejects_clause3_adversary():
    def adversary():
        yield {(0,): None}
        yield {(0, 0): None}
        yield {(0, 1): None}  # (0,) is no longer terminal
    outcome = run_to_finiteness(adversary(), 4, 2, fuel=50)
    assert isinstance(outcome, StepRejection) and outcome.clause == 3


def test_run_flags_bound_and_branching_violations():
    def too_deep():
        yield {(0,): None}
        yield {(0, 0): None}
    outcome = run_to_finiteness(too_deep(), 1, 2, fuel=10)
    assert isinstance(outcome, PreconditionViolation) and outcome.kind == "bound"

    def too_wide():
        yield {(0,): None, (1,): None, (2,): None}
    outcome = run_to_finiteness(too_wide(), 2, 2, fuel=10)
    assert isinstance(outcome, PreconditionViolation) and outcome.kind == "branching"


def test_run_fuel_exhaustion():
    def idle_forever():
        while True:
            yield {}
    outcome = run_to_finiteness(idle_forever(), 2, 2, fuel=11)
    assert isinstance(outcome, FuelExhausted)


def test_node_count_bound_on_random_runs():
    rng = SplitMix64(99)
    for _ in range(1000):
        b = rng.below(4) + 1
        d = rng.below(4) + 1

        def random_gen():
            leaves = [()]
            while leaves:
                stage = {}
                nxt = []
                for leaf in leaves:
                    if len(leaf) >= b:
                        continue
                    kids = rng.below(d + 1)
                    for i in range(kids):
                        child = leaf + (i,)
                        stage[child] = None
                        nxt.append(child)
                if not stage:
                    return
                yield stage
                leaves = nxt

        outcome = run_to_finiteness(random_gen(), b, d, fuel=1000)
        assert isinstance(outcome, Finished)
        assert len(outcome.enumeration.current) <= (d + 1) ** (b + 1)


# ---------------------------------------------------------------------------
# zeta measures
# ---------------------------------------------------------------------------

def test_zeta_examples():
    lone = LabeledTree([()])
    assert zeta_measure(lone, RankAssignment({(): from_int(2)}, from_int(3))) == o("w^(2)")

    two = LabeledTree([(), (0,), (1,)])
    ranks = RankAssignment({(0,): from_int(3), (1,): from_int(1)}, from_int(4))
    assert zeta_measure(two, ranks) == o("w^(3) + w")

    ranks11 = RankAssignment({(0,): from_int(1), (1,): from_int(1)}, from_int(2))
    assert zeta_measure(two, ranks11) == o("w*2")


def test_zeta_missing_rank():
    two = LabeledTree([(), (0,), (1,)])
    with pytest.raises(MissingRankError):
        zeta_measure(two, RankAssignment({(0,): from_int(1)}, from_int(2)))


def test_zeta_below_omega_pow_bound():
    tree = LabeledTree([(), (0,), (1,), (0, 0), (0, 1)])
    ranks = RankAssignment({(0, 0): o("w"), (0, 1): from_int(4), (1,): o("w*2")},
                           bound=o("w*3"))
    value = zeta_measure(tree, ranks)
    assert compare(value, omega_pow(o("w*3"))) == LT


def test_zeta_decrease_examples():
    e = grow(MonotoneEnumeration.initial(), (0,), (1,))
    ranks = RankAssignment({(): from_int(2), (0,): from_int(1), (1,): from_int(1)}, o("w"))
    trees = e.stages
    assert zeta_measure(trees[0], ranks) == o("w^(2)")
    assert zeta_measure(trees[1], ranks) == o("w*2")
    assert zeta_decrease_check(e, ranks).ok

    e2 = grow(MonotoneEnumeration.initial(), (0,))
    ranks2 = RankAssignment({(): from_int(1), (0,): ZERO}, o("w"))
    assert zeta_measure(e2.stages[0], ranks2) == o("w")
    assert zeta_measure(e2.stages[1], ranks2) == o("1")
    assert zeta_decrease_check(e2, ranks2).ok

    bad = RankAssignment({(): from_int(2), (0,): from_int(2), (1,): from_int(1)}, o("w"))
    verdict = zeta_decrease_check(e, bad)
    assert not verdict.ok and verdict.kind == "rank" and verdict.node == (0,)


def test_zeta_decrease_exempts_idle_stages():
    e = grow(MonotoneEnumeration.initial(), (0,))
    e = step(e, {})
    assert isinstance(e, MonotoneEnumeration)
    ranks = RankAssignment({(): from_int(1), (0,): ZERO}, o("w"))
    assert zeta_decrease_check(e, ranks).ok


def random_rank_decreasing_enumeration(rng, max_depth=6, max_branch=3):
    """Grow stages where every new child gets a strictly smaller rank; the
    root rank leaves slack so the assignment's bound holds."""
    e = MonotoneEnumeration.initial()
    ranks = {(): o("w*2 + %d" % (max_depth + 1))}
    bound = o("w*3")
    for _ in range(rng.below(8)):
        additions = {}
        for leaf in e.current.leaves():
            if len(leaf) >= max_depth or ranks[leaf] == ZERO:
                continue
            for i in range(rng.below(max_branch + 1)):
                child = leaf + (i,)
                additions[child] = None
                ranks[child] = _rank_below(ranks[leaf], rng)
        e2 = step(e, additions)
        assert isinstance(e2, MonotoneEnumeration)
        e = e2
    return e, RankAssignment(ranks, bound)


def _rank_below(r, rng):
    """A strictly smaller ordinal: decrement a trailing finite part, or
    step below a trailing limit term and pad with a small finite part."""
    terms = list(r.terms)
    exp, coeff = terms[-1]
    if exp == ZERO:
        if coeff > 1:
            return type(r)(tuple(terms[:-1]) + ((ZERO, coeff - 1),))
        return type(r)(tuple(terms[:-1])) if len(terms) > 1 else ZERO
    lowered = terms[:-1] + ([(exp, coeff - 1)] if coeff > 1 else [])
    return nat_add(type(r)(tuple(lowered)), from_int(rng.below(7)))


def test_zeta_decrease_on_random_growth():
    import os

    count = 1000 if os.environ.get("EPS0_FULL") else 300
    rng = SplitMix64(4242)
    for _ in range(count):
        e, ranks = random_rank_decreasing_enumeration(rng)
        verdict = zeta_decrease_check(e, ranks)
        assert verdict.ok, verdict
        # initial-bound property: the root's measure dominates every stage
        # and itself stays below w^bound
        zeta0 = zeta_measure(e.stages[0], ranks)
        assert compare(zeta0, omega_pow(ranks.bound)) == LT
        for tree in e.stages[1:]:
            assert compare(zeta_measure(tree, ranks), zeta0) != GT


# ---------------------------------------------------------------------------
# two-rank measure
# ---------------------------------------------------------------------------

def test_zeta_pair_examples():
    lone = LabeledTree([()])
    assert zeta_pair_measure(lone, {(): 2}, {(): 1}) == o("w^(3)*2")

    with_child = LabeledTree([(), (0,)])
    value = zeta_pair_measure(with_child, {(): 2, (0,): 1}, {(): 1, (0,): 1})
    assert value == o("w^(3) + w^(2)*2")
    assert compare(value, o("w^(3)*2")) == LT

    two_kids = LabeledTree([(), (0,), (1,)])
    f0 = {(): 0, (0,): 0, (1,): 0}
    f1 = {(): 0, (0,): 0, (1,): 0}
    # brute recursion: root contributes w^0 * (2-2) = 0, each leaf w^0 * 2
    assert zeta_pair_measure(two_kids, f0, f1) == from_int(4)


def test_zeta_pair_rejects_wide_nodes():
    wide = LabeledTree([(), (0,), (1,), (2,)])
    zeros = {n: 0 for n in wide.nodes}
    with pytest.raises(ValueError):
        zeta_pair_measure(wide, zeros, zeros)


def _chain(depth):
    return LabeledTree([(0,) * d for d in range(depth + 1)])


def test_zeta_measures_take_a_chain_past_the_recursion_limit():
    chain = _chain(1500)
    leaf = (0,) * 1500
    assert zeta_measure(chain, RankAssignment({leaf: from_int(3)}, o("w"))) == o("w^(3)")
    # 1,500 one-child nodes contribute w^0 once each, the leaf w^0 twice
    zeros = {node: 0 for node in chain.nodes}
    assert zeta_pair_measure(chain, zeros, zeros) == from_int(1502)
    ones = {**zeros, (): 1}
    assert zeta_pair_measure(chain, ones, zeros) == o("w + 1501")


def test_zeta_measures_report_the_first_missing_or_wide_node_depth_first():
    tree = LabeledTree([(), (0,), (1,), (0, 0), (0, 1), (1, 0), (1, 1), (1, 2)])
    with pytest.raises(MissingRankError, match=r"\(0, 1\)"):
        zeta_measure(tree, RankAssignment({(0, 0): ZERO, (1, 0): ZERO}, o("w")))
    full = {node: 0 for node in tree.nodes}
    with pytest.raises(ValueError, match=r"node \(1,\) has 3 children"):
        zeta_pair_measure(tree, {**full}, {node: 0 for node in tree.nodes if node != (1, 2)})
    with pytest.raises(KeyError, match=r"\(0,\)"):
        zeta_pair_measure(tree, {node: 0 for node in tree.nodes if node != (0,)}, full)


def test_zeta_pair_strict_decrease_on_growth():
    """Random binary growth where a 0-child drops f0 and keeps f1 (and
    symmetrically); the measure strictly decreases at every step and the
    per-node slot inequality w^(parent) > w^(child) * 2 holds."""
    rng = SplitMix64(1717)
    for _ in range(300):
        e = MonotoneEnumeration.initial()
        f0 = {(): rng.below(4) + 3}
        f1 = {(): rng.below(4) + 3}
        previous = zeta_pair_measure(e.current, f0, f1)
        for _ in range(rng.below(10)):
            leaves = [n for n in e.current.nodes
                      if len(e.current.children(n)) < 2 and len(n) < 6]
            if not leaves:
                break
            parent = sorted(leaves)[rng.below(len(leaves))]
            side = len(e.current.children(parent))  # next free slot: 0 then 1
            if side == 0 and f0[parent] == 0:
                continue
            if side == 1 and f1[parent] == 0:
                continue
            child = parent + (side,)
            result = step(e, {child: None})
            if isinstance(result, StepRejection):
                continue  # parent was not terminal this stage; skip
            e = result
            if side == 0:
                f0[child] = f0[parent] - (rng.below(f0[parent]) + 1)
                f1[child] = f1[parent]
            else:
                f0[child] = f0[parent]
                f1[child] = f1[parent] - (rng.below(f1[parent]) + 1)
            parent_slot = omega_pow(from_int(f0[parent] + f1[parent]))
            child_slot = omega_pow(from_int(f0[child] + f1[child]))
            assert compare(parent_slot, nat_mul_k(child_slot, 2)) == GT
            current = zeta_pair_measure(e.current, f0, f1)
            assert compare(current, previous) == LT
            previous = current


# ---------------------------------------------------------------------------
# extendible nodes
# ---------------------------------------------------------------------------

def complete_binary(depth):
    nodes = [()]
    frontier = [()]
    for _ in range(depth):
        nxt = []
        for node in frontier:
            for i in (0, 1):
                child = node + (i,)
                nodes.append(child)
                nxt.append(child)
        frontier = nxt
    return LabeledTree(nodes)


def comparable_count(tree, node):
    return sum(1 for other in tree.nodes
               if other[:len(node)] == node or node[:len(other)] == other)


def test_extendible_examples():
    full = complete_binary(3)
    assert extendible_node(full, 1) == (0,)  # tie broken leftmost

    spine = LabeledTree([(), (0,), (1,), (0, 0), (0, 1), (0, 0, 0)])
    assert extendible_node(spine, 2) == (0, 0)

    with pytest.raises(ValueError):
        extendible_node(spine, 7)


def test_extendible_matches_naive_oracle():
    rng = SplitMix64(31)
    for _ in range(100):
        e = MonotoneEnumeration.initial()
        for _ in range(rng.below(6) + 1):
            additions = {}
            for leaf in e.current.leaves():
                if len(leaf) >= 5:
                    continue
                for i in range(rng.below(3)):
                    additions[leaf + (i,)] = None
            stepped = step(e, additions)
            assert isinstance(stepped, MonotoneEnumeration)
            e = stepped
        tree = e.current
        depth = max(len(n) for n in tree.nodes)
        for level in range(depth + 1):
            at_level = tree.at_depth(level)
            if not at_level:
                continue
            pick = extendible_node(tree, level)
            best = max(comparable_count(tree, n) for n in at_level)
            assert comparable_count(tree, pick) == best
            ties = [n for n in at_level if comparable_count(tree, n) == best]
            assert pick == min(ties)


# ---------------------------------------------------------------------------
# log format
# ---------------------------------------------------------------------------

def test_log_roundtrip():
    e = grow(MonotoneEnumeration.initial(), (0,), (1,))
    e = grow(e, (0, 0))
    ranks = RankAssignment({(): from_int(3), (0,): from_int(2),
                            (1,): from_int(1), (0, 0): from_int(1)}, from_int(5))
    text = format_enumeration_log(e, ranks)
    e2, ranks2, bound = parse_enumeration_log(text)
    assert e2.current.nodes == e.current.nodes
    assert e2.deltas == e.deltas
    assert dict(ranks2.rank) == dict(ranks.rank)
    assert bound == from_int(5)


def test_node_text_forms():
    assert format_node(()) == "-" and parse_node("-") == ()
    assert format_node((0, 2, 1)) == "0.2.1" and parse_node("0.2.1") == (0, 2, 1)


def test_parse_log_rejects_bad_stages():
    with pytest.raises(ValueError):
        parse_enumeration_log("stage 2\nadd 0\n")
    with pytest.raises(ValueError):
        parse_enumeration_log("add 0\n")


@pytest.mark.parametrize("b, d", [(-1, 2), (2, -1), (0, -2)])
def test_run_to_finiteness_refuses_negative_bounds(b, d):
    def gen():
        raise AssertionError("the generator must not start")
        yield {}
    with pytest.raises(ValueError, match="must be non-negative"):
        run_to_finiteness(gen(), b, d, 10)

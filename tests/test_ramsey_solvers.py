"""Greedy solvers and the composed pipeline."""

import itertools

import pytest

from epsilon0.generate import make_coloring, make_order, make_tournament
from epsilon0.ramsey import (
    EmptyCellError, LinearOrderInstance, PairColoring, SetFamily, Tournament,
    SolverTrace, ads_solve, brute_max_homogeneous, brute_max_transitive,
    coh_solve, em_solve, is_homogeneous, is_transitive, limit_classification,
    rt22_solve, verify_trace,
)
from epsilon0.ramsey.instances import pair_count
from epsilon0.sweep import ascdesc_bound, verify_cohesive
from reference_checkers import ref_coloring_is_transitive, ref_is_homogeneous
from support import pentagon, three_cycle


def family_from_coloring(f):
    """R_x = {y : f(x, y) = 1}, one set per vertex."""
    sets = []
    for x in range(f.n):
        sets.append(frozenset(y for y in range(f.n) if y != x and f.color(x, y)))
    return SetFamily(f.n, tuple(sets))


# ---------------------------------------------------------------------------
# limit classification
# ---------------------------------------------------------------------------

def test_classification_natural_orientation():
    natural = Tournament.from_order(range(6))
    cls = limit_classification(natural, 1)
    # every vertex beats the window above it; the last is vacuously side 1
    assert sorted(cls.a0) == [0, 1, 2, 3, 4]
    assert sorted(cls.a1) == [5]
    assert not cls.undecided
    for w in range(1, 7):
        cls = limit_classification(natural, w)
        assert set(range(6 - w)) <= cls.a0


def test_classification_reversed_orientation():
    reverse = Tournament.from_order(range(5, -1, -1))
    cls = limit_classification(reverse, 1)
    assert sorted(cls.a1) == [0, 1, 2, 3, 4, 5]
    for w in range(1, 7):
        cls = limit_classification(reverse, w)
        assert set(range(6 - w)) <= cls.a1


def test_classification_mixed_is_undecided():
    # vertex 0 beats 3 but loses to 2, so with window {2,3} it is undecided
    r = Tournament.from_order([1, 3, 0, 2])
    assert r.beats(0, 3) and r.beats(2, 0)
    cls = limit_classification(r, 2)
    assert 0 in cls.undecided
    total = cls.a0 | cls.a1 | cls.undecided
    assert total == frozenset(range(4))
    assert not (cls.a0 & cls.a1) and not (cls.a0 & cls.undecided)


def test_classification_window_bounds():
    with pytest.raises(ValueError):
        limit_classification(three_cycle(), 4)
    with pytest.raises(ValueError):
        limit_classification(three_cycle(), -1)


# ---------------------------------------------------------------------------
# cohesive solver
# ---------------------------------------------------------------------------

def test_coh_single_split():
    family = SetFamily(8, (frozenset({0, 2, 4, 6}),))
    result = coh_solve(family, 3)
    assert result.sides == (1,)  # evens tie odds 4 >= 4, side 1 wins
    assert set(result.chosen) <= {0, 2, 4, 6}
    assert len(result.chosen) == 3
    assert verify_cohesive(family, result)


def test_coh_two_splits_lands_in_largest_cell():
    evens = frozenset(range(0, 12, 2))
    m3 = frozenset(range(0, 12, 3))
    family = SetFamily(12, (evens, m3))
    result = coh_solve(family, 4)
    cells = [evens & m3, evens - m3,
             (frozenset(range(12)) - evens) & m3,
             (frozenset(range(12)) - evens) - m3]
    largest = max(len(c) for c in cells)
    landed = [c for c in cells if set(result.chosen) <= c]
    assert landed and len(landed[0]) == largest
    assert verify_cohesive(family, result)


@pytest.mark.parametrize("element", [-1, 6, 99])
def test_set_family_refuses_elements_outside_the_universe(element):
    with pytest.raises(ValueError, match=r"set 1 leaves the universe \[0,6\)"):
        SetFamily(6, (frozenset({0, 5}), frozenset({2, element})))


def test_set_family_masks_are_built_with_the_instance():
    family = SetFamily(6, (frozenset({0, 5}), frozenset(), frozenset({1, 2, 3})))
    assert family.masks() == (0b100001, 0, 0b1110)
    assert family.masks() is family.masks()


def test_coh_empty_family():
    result = coh_solve(SetFamily(7, ()), 5)
    assert result.chosen == (0, 1, 2, 3, 4)
    assert result.sides == () and result.thresholds == ()


def test_coh_empty_universe_reports_failing_prefix():
    with pytest.raises(EmptyCellError) as err:
        coh_solve(SetFamily(0, (frozenset(),)), 0)
    assert err.value.prefix == ()


def test_coh_secures_two_for_small_universes():
    for n in (2, 3, 4, 5, 6):
        for code in range(1 << pair_count(n)):
            family = family_from_coloring(PairColoring(n, code))
            result = coh_solve(family, n)
            assert len(result.chosen) >= 2
            assert verify_cohesive(family, result)


def test_coh_random_families():
    from epsilon0.generate import make_family

    for i in range(300):
        family = make_family(10, seed=i)
        result = coh_solve(family, 10)
        assert verify_cohesive(family, result)
        assert list(result.chosen) == sorted(set(result.chosen))


def _ref_verify_cohesive(family, result):
    """verify_cohesive one element and set at a time, for results with one
    side and threshold per set."""
    for i, s in enumerate(family.sets):
        side, thr = result.sides[i], result.thresholds[i]
        for x in result.chosen:
            if x >= thr and ((x in s) != bool(side)):
                return False
    return True


def test_verify_cohesive_matches_the_reference_on_corrupted_results():
    from dataclasses import replace

    from epsilon0.generate import SplitMix64, make_family

    rng = SplitMix64(77)
    verdicts = set()
    for i in range(300):
        n = 1 + i % 12
        family = make_family(n, seed=i)
        result = coh_solve(family, n)
        m = len(family.sets)
        for bad in (result,
                    replace(result, sides=tuple(rng.below(3) for _ in range(m))),
                    replace(result, thresholds=tuple(rng.below(n + 3) - 1 for _ in range(m))),
                    replace(result, chosen=tuple(sorted({rng.below(n) for _ in range(n)})))):
            verdict = verify_cohesive(family, bad)
            assert verdict == _ref_verify_cohesive(family, bad), (i, bad)
            verdicts.add(verdict)
    assert verdicts == {True, False}


def test_verify_cohesive_refuses_a_side_or_threshold_count_mismatch():
    from dataclasses import replace

    family = SetFamily(6, (frozenset({0, 2, 4}), frozenset({1, 2}), frozenset()))
    result = coh_solve(family, 6)
    assert verify_cohesive(family, result)
    for sides, thresholds in ((result.sides[:-1], result.thresholds),
                              (result.sides, result.thresholds[:-1]),
                              (result.sides + (1,), result.thresholds),
                              (result.sides, result.thresholds + (6,)),
                              (result.sides + (0,), result.thresholds + (6,)),
                              ((), ())):
        assert not verify_cohesive(family, replace(result, sides=sides, thresholds=thresholds))
    with pytest.raises(ValueError, match="subset leaves the universe"):
        verify_cohesive(family, replace(result, chosen=(0, 6)))


# ---------------------------------------------------------------------------
# transitive solver
# ---------------------------------------------------------------------------

def test_em_transitive_tournament_full_for_every_window():
    for n in (1, 2, 3, 5, 8):
        natural = Tournament.from_order(range(n))
        for w in range(n + 1):
            assert em_solve(natural, w).subset == tuple(range(n))


def test_em_three_cycle():
    result = em_solve(three_cycle())
    assert len(result.subset) == 2
    assert is_transitive(three_cycle(), result.subset).ok
    assert brute_max_transitive(three_cycle())[0] == 2


def test_em_singleton():
    assert em_solve(Tournament(1, (0,))).subset == (0,)


def test_em_exhaustive_small():
    for n in range(1, 7):
        for code in range(1 << pair_count(n)):
            r = Tournament.from_bits(n, code)
            result = em_solve(r)
            assert is_transitive(r, result.subset).ok
            assert brute_max_transitive(r)[0] >= len(result.subset)


def test_em_random_windows():
    for i in range(300):
        n = 4 + i % 9
        r = make_tournament(n, seed=i)
        for w in (1, 2, n // 2, n):
            result = em_solve(r, w)
            assert is_transitive(r, result.subset).ok
            assert len(result.subset) >= 1
            # main-pass steps plus completions account for the whole set
            built = sorted([s[0] for s in result.steps] + list(result.completed))
            assert built == sorted(result.subset)


# ---------------------------------------------------------------------------
# monotone solver
# ---------------------------------------------------------------------------

def test_ads_identity_and_reversed():
    identity = ads_solve(LinearOrderInstance(5, (0, 1, 2, 3, 4)))
    assert identity.direction == "ascending"
    assert identity.sequence == (0, 1, 2, 3, 4)

    reverse = ads_solve(LinearOrderInstance(5, (4, 3, 2, 1, 0)))
    assert reverse.direction == "descending"
    assert reverse.sequence == (0, 1, 2, 3, 4)


def test_ads_mixed_shape_candidates():
    """On the half-ascending, half-descending order the descending
    candidate is the tail block; the ascending candidate is longer and
    wins."""
    result = ads_solve(LinearOrderInstance(6, (0, 2, 4, 5, 3, 1)))
    assert result.descending == (3, 4, 5)  # L-values 5, 3, 1
    assert result.ascending == (0, 1, 2, 3)  # L-values 0, 2, 4, 5
    assert result.direction == "ascending" and len(result.sequence) == 4
    assert result.u_set == frozenset({0, 1, 5})
    assert result.greedy_ascending == (0, 1)
    assert result.greedy_descending == (2, 4)


def test_ads_output_monotone_both_orders():
    for i in range(500):
        n = 2 + i % 15
        order = make_order(n, seed=i)
        result = ads_solve(order)
        seq = result.sequence
        assert list(seq) == sorted(seq)
        ranks = [order.ranking[x] for x in seq]
        if result.direction == "ascending":
            assert ranks == sorted(ranks)
        else:
            assert ranks == sorted(ranks, reverse=True)


def test_ads_sqrt_bound_exhaustive():
    for n in range(1, 9):
        bound = ascdesc_bound(n)
        for perm in itertools.permutations(range(n)):
            result = ads_solve(LinearOrderInstance(n, perm))
            assert len(result.sequence) >= bound, (perm, result)


def _longest_monotone_dp(order, ascending):
    """Quadratic DP oracle for the longest monotone subsequence length."""
    n = order.n
    best = [1] * n
    for j in range(n):
        for i in range(j):
            if order.less(i, j) == ascending and best[i] + 1 > best[j]:
                best[j] = best[i] + 1
    return max(best, default=0)


def test_ads_candidates_are_maximum_length():
    for n in range(1, 8):
        for perm in itertools.permutations(range(n)):
            order = LinearOrderInstance(n, perm)
            result = ads_solve(order)
            assert len(result.ascending) == _longest_monotone_dp(order, True)
            assert len(result.descending) == _longest_monotone_dp(order, False)


def test_ads_greedy_pair_is_a_split_pair():
    for i in range(300):
        order = make_order(9, seed=i)
        result = ads_solve(order)
        asc, desc = result.greedy_ascending, result.greedy_descending
        assert set(asc) <= result.u_set and set(desc) <= result.v_set
        if asc and desc:
            assert max(order.ranking[x] for x in asc) < min(order.ranking[x] for x in desc)


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------

def test_rt22_all_zero():
    f = PairColoring(6, 0)
    trace = rt22_solve(f)
    assert len(trace.final_set) >= 3
    assert trace.final_color == 0
    assert verify_trace(trace, f).ok


def test_rt22_pentagon():
    f = pentagon()
    trace = rt22_solve(f)
    assert len(trace.final_set) == 2
    assert is_homogeneous(f, trace.final_set).ok
    assert brute_max_homogeneous(f)[0] == 2
    assert verify_trace(trace, f).ok


def test_rt22_exhaustive_small():
    for n in (1, 2, 3, 4, 5):
        for code in range(1 << pair_count(n)):
            f = PairColoring(n, code)
            trace = rt22_solve(f)
            assert is_homogeneous(f, trace.final_set).ok
            assert verify_trace(trace, f).ok
            if n >= 2:
                assert len(trace.final_set) >= 2


def test_rt22_stage_inclusions():
    import os

    count = 2000 if os.environ.get("EPS0_FULL") else 600
    for i in range(count):
        n = 5 + i % 20
        f = make_coloring(n, seed=i)
        t = rt22_solve(f)
        assert set(t.final_set) == set(t.monotone_set)
        assert set(t.monotone_set) <= set(t.transitive_set) <= set(t.cohesive_set)
        assert set(t.cohesive_set) <= set(range(n))
        assert is_homogeneous(f, t.final_set).ok
        assert verify_trace(t, f).ok
        assert len(t.final_set) >= 2


def test_rt22_respects_window_argument():
    f = make_coloring(12, seed=5)
    for w in (1, 2, 3, 6):
        trace = rt22_solve(f, window=w)
        assert verify_trace(trace, f).ok


def test_rt22_rejects_empty():
    with pytest.raises(ValueError):
        rt22_solve(PairColoring(0, 0))


def test_trace_json_roundtrip():
    trace = rt22_solve(pentagon())
    again = SolverTrace.from_json(trace.to_json())
    assert again == trace


# ---------------------------------------------------------------------------
# trace verification catches corruption
# ---------------------------------------------------------------------------

def _mutate(trace, **kwargs):
    from dataclasses import replace
    return replace(trace, **kwargs)


def test_verify_trace_stage_detection():
    f = make_coloring(8, seed=11)
    trace = rt22_solve(f)
    assert verify_trace(trace, f).ok

    broken = _mutate(trace, cohesive_set=trace.cohesive_set + (7,)
                     if 7 not in trace.cohesive_set else trace.cohesive_set[:-1])
    outcome = verify_trace(broken, f)
    assert not outcome.ok

    outside = [x for x in range(8) if x not in trace.cohesive_set]
    assert outside, "seed 11 must leave a vertex outside the cohesive stage"
    not_subset = _mutate(trace, transitive_set=tuple(sorted(set(trace.transitive_set) | {outside[0]})))
    outcome = verify_trace(not_subset, f)
    assert not outcome.ok and outcome.stage == "transitive"

    flipped = _mutate(trace, monotone_direction=(
        "descending" if trace.monotone_direction == "ascending" else "ascending"))
    if len(trace.monotone_set) >= 2:
        outcome = verify_trace(flipped, f)
        assert not outcome.ok and outcome.stage == "monotone"

    bad_final = _mutate(trace, final_set=trace.final_set[:-1])
    outcome = verify_trace(bad_final, f)
    assert not outcome.ok and outcome.stage == "final"

    bad_color = _mutate(trace, final_color=1 - trace.final_color)
    outcome = verify_trace(bad_color, f)
    assert not outcome.ok and outcome.stage == "final"


# ---------------------------------------------------------------------------
# mask-native pipeline against the restrict-based reference
# ---------------------------------------------------------------------------
#
# The reference below is the pipeline as it ran before every stage moved
# onto the coloring's adjacency masks: each stage re-indexes its set with
# `PairColoring.restrict`, rebuilds a tournament and a linear order, and
# the checks read one pair color at a time.

def _ref_rt22_solve(f, window=None):
    from epsilon0.ramsey import order_from_transitive_coloring, tournament_from_coloring
    from epsilon0.ramsey.solvers import default_window

    coh = coh_solve(family_from_coloring(f), target=f.n)
    g0 = list(coh.chosen)
    w0 = min(window, len(g0)) if window is not None else default_window(len(g0))
    em = em_solve(tournament_from_coloring(f.restrict(g0)), w0)
    g1 = [g0[a] for a in em.subset]
    ads = ads_solve(order_from_transitive_coloring(f.restrict(g1)))
    h = [g1[a] for a in ads.sequence]
    final_check = is_homogeneous(f, h)
    return SolverTrace(
        n=f.n, window=w0,
        cohesive_set=tuple(g0), cohesive_sides=coh.sides,
        cohesive_thresholds=coh.thresholds,
        transitive_set=tuple(g1),
        transitive_steps=tuple((g0[x], side) for x, side, _ in em.steps),
        monotone_direction=ads.direction, monotone_set=tuple(h), final_set=tuple(h),
        final_color=final_check.color if final_check.ok else -1,
    )


def _ref_verify_trace(trace, f):
    """verify_trace one pair at a time, on the per-pair reference checkers."""
    n = f.n
    if trace.n != n:
        return (False, "cohesive", "vertex count mismatch")
    c = list(trace.cohesive_set)
    if c != sorted(set(c)) or any(x < 0 or x >= n for x in c):
        return (False, "cohesive", "not an ascending subset of the universe")
    if len(trace.cohesive_sides) != n or len(trace.cohesive_thresholds) != n:
        return (False, "cohesive", "one side and threshold per vertex set required")
    for i in range(n):
        side, thr = trace.cohesive_sides[i], trace.cohesive_thresholds[i]
        for x in c:
            if x < thr:
                continue
            member = x != i and f.color(i, x) == 1
            if member != bool(side):
                return (False, "cohesive",
                        f"element {x} above threshold {thr} breaks side {side} of set {i}")
    g1 = list(trace.transitive_set)
    if not set(g1) <= set(c) or g1 != sorted(set(g1)):
        return (False, "transitive", "not a subset of the cohesive stage")
    check = ref_coloring_is_transitive(f, g1)
    if not check.ok:
        return (False, "transitive", f"not transitive, witness {check.witness}")
    h = list(trace.monotone_set)
    if not set(h) <= set(g1) or h != sorted(set(h)):
        return (False, "monotone", "not a subset of the transitive stage")
    if trace.monotone_direction not in ("ascending", "descending"):
        return (False, "monotone", "unknown direction")
    want = 1 if trace.monotone_direction == "ascending" else 0
    for i in range(len(h)):
        for j in range(i + 1, len(h)):
            if f.color(h[i], h[j]) != want:
                return (False, "monotone",
                        f"pair ({h[i]},{h[j]}) breaks {trace.monotone_direction} monotonicity")
    if list(trace.final_set) != h:
        return (False, "final", "final set differs from the monotone stage")
    final = ref_is_homogeneous(f, trace.final_set)
    if not final.ok:
        return (False, "final", f"not homogeneous, witness {final.witness}")
    if final.color != trace.final_color:
        return (False, "final", "recorded color disagrees with the checker")
    return (True, None, "")


def _verdict(trace, f):
    check = verify_trace(trace, f)
    return (check.ok, check.stage, check.detail)


def test_adjacency_masks_match_colors():
    for n in range(0, 9):
        for i in range(40):
            f = make_coloring(n, seed=1000 * n + i)
            for x in range(n):
                want = sum(1 << y for y in range(n) if y != x and f.color(x, y))
                assert f.adj[x] == want
            assert len(f.adj) == n and f.adj is f.adj


def test_rt22_matches_reference_exhaustively_to_n6():
    for n in range(1, 7):
        for code in range(1 << pair_count(n)):
            f = PairColoring(n, code)
            assert rt22_solve(f) == _ref_rt22_solve(f), (n, code)


def test_rt22_matches_reference_on_seeded_colorings():
    for i in range(240):
        n = 7 + i % 42
        f = make_coloring(n, seed=7919 * i + 3)
        for window in (None, 0, 1, 2, 5, n):
            trace = rt22_solve(f, window)
            assert trace == _ref_rt22_solve(f, window), (n, i, window)
            assert _verdict(trace, f) == (True, None, "")


def test_rt22_negative_window_rejected_like_em_solve():
    f = make_coloring(9, seed=4)
    with pytest.raises(ValueError) as err:
        rt22_solve(f, window=-1)
    with pytest.raises(ValueError) as ref_err:
        _ref_rt22_solve(f, window=-1)
    assert str(err.value) == str(ref_err.value)


def _criterion7_mutations(base, outside):
    from dataclasses import replace

    inside = base.cohesive_set
    return [
        replace(base, cohesive_set=(inside[1], inside[0]) + inside[2:]),
        replace(base, cohesive_sides=base.cohesive_sides[:-1]),
        replace(base, cohesive_thresholds=(0,) * base.n,
                cohesive_sides=tuple(1 - s for s in base.cohesive_sides)),
        replace(base, transitive_set=tuple(sorted(set(base.transitive_set) | {outside[0]}))),
        replace(base, monotone_set=tuple(sorted(set(base.monotone_set) | {outside[0]})),
                final_set=tuple(sorted(set(base.monotone_set) | {outside[0]}))),
        replace(base, monotone_direction="sideways"),
        replace(base, monotone_direction=(
            "descending" if base.monotone_direction == "ascending" else "ascending")),
        replace(base, final_set=base.final_set[:-1]),
        replace(base, final_set=base.final_set + (outside[0],)),
        replace(base, final_color=1 - base.final_color),
    ]


def test_verify_trace_matches_reference_on_criterion7_mutations():
    f = make_coloring(9, seed=2718)
    base = rt22_solve(f)
    outside = [x for x in range(9) if x not in base.cohesive_set]
    for mutated in _criterion7_mutations(base, outside):
        verdict = _verdict(mutated, f)
        assert not verdict[0]
        assert verdict == _ref_verify_trace(mutated, f)


def _corruptions(trace, rng):
    """Seeded corruptions of every field of a trace."""
    from dataclasses import replace

    n = trace.n

    def edit(values):
        values = list(values)
        kind = rng.below(6)
        if kind == 0 and values:
            del values[rng.below(len(values))]
        elif kind == 1:
            values.insert(rng.below(len(values) + 1), rng.below(n + 2) - 1)
        elif kind == 2 and len(values) >= 2:
            i, j = rng.below(len(values)), rng.below(len(values))
            values[i], values[j] = values[j], values[i]
        elif kind == 3 and values:
            values[rng.below(len(values))] = rng.below(n + 4) - 2
        elif kind == 4:
            values = sorted(set(values) ^ {rng.below(n)})
        else:
            values = values[::-1]
        return tuple(values)

    yield replace(trace, n=trace.n + rng.below(3) - 1)
    yield replace(trace, window=rng.below(n + 1))
    for name in ("cohesive_set", "cohesive_sides", "cohesive_thresholds",
                 "transitive_set", "monotone_set", "final_set"):
        yield replace(trace, **{name: edit(getattr(trace, name))})
    yield replace(trace, transitive_steps=tuple(reversed(trace.transitive_steps)))
    yield replace(trace, monotone_direction=("ascending", "descending", "up")[rng.below(3)])
    yield replace(trace, final_color=rng.below(4) - 1)
    # a stage and everything after it replaced by one edited set
    shared = edit(trace.transitive_set)
    yield replace(trace, transitive_set=shared, monotone_set=shared, final_set=shared)
    shared = edit(trace.monotone_set)
    yield replace(trace, monotone_set=shared, final_set=shared)
    yield replace(trace, cohesive_thresholds=tuple(rng.below(n + 3) - 1 for _ in range(n)))
    yield replace(trace, cohesive_sides=tuple(rng.below(3) for _ in range(n)))


def test_verify_trace_matches_reference_on_random_corruptions():
    from epsilon0.generate import SplitMix64

    rng = SplitMix64(31337)
    failures = set()
    for i in range(400):
        n = 3 + i % 14
        f = make_coloring(n, seed=i)
        trace = rt22_solve(f, (None, 1, 2)[i % 3])
        for bad in _corruptions(trace, rng):
            verdict = _verdict(bad, f)
            assert verdict == _ref_verify_trace(bad, f), (i, bad)
            failures.add(verdict[1])
    assert failures == {None, "cohesive", "transitive", "monotone", "final"}


def test_verify_trace_own_vertex_is_never_a_member_of_its_set():
    from dataclasses import replace

    # All pairs colored 1: every other vertex lies in R_i, but i itself
    # does not, so side 1 fails at i once the threshold is at or below i.
    f = PairColoring(4, (1 << pair_count(4)) - 1)
    trace = rt22_solve(f)
    assert _verdict(trace, f) == (True, None, "")
    bad = replace(trace, cohesive_sides=(1,) * 4, cohesive_thresholds=(4, 4, 0, 4))
    expected = (False, "cohesive", "element 2 above threshold 0 breaks side 1 of set 2")
    assert _ref_verify_trace(bad, f) == expected
    assert _verdict(bad, f) == expected
    ok = replace(trace, cohesive_sides=(1,) * 4, cohesive_thresholds=(4, 4, 3, 4))
    assert _verdict(ok, f) == _ref_verify_trace(ok, f) == (True, None, "")


def test_verify_trace_transitive_failure_names_the_reference_witness():
    from dataclasses import replace

    # Claim the whole universe as the transitive stage (thresholds n excuse
    # every cohesive side): it fails exactly on the intransitive colorings.
    stages = set()
    for code in range(1 << pair_count(5)):
        f = PairColoring(5, code)
        wide = replace(rt22_solve(f), cohesive_set=tuple(range(5)),
                       cohesive_thresholds=(5,) * 5, transitive_set=tuple(range(5)))
        verdict = _verdict(wide, f)
        assert verdict == _ref_verify_trace(wide, f)
        stages.add(verdict[1])
    assert "transitive" in stages


# sha256 of emit() on coloring sweeps, pinned from the restrict-based pipeline.
GOLDEN = {
    ("exhaustive", 5, None, "summary"):
        "70c56adac250f63dda4a000dcf30aaa3fad9aa273e578eb5657798907bfff613",
    ("exhaustive", 5, None, "tsv"):
        "65ac60648cfc32fc5be49d6d7e53ffabe26c65febe8ef64f8b85336c2f14463b",
    ("exhaustive", 5, None, "trace"):
        "490540c03ca320b7a3142223d09a8ee7e9b9f0d41451336d15cafbe62e1b64b9",
    ("sample", 9, None, "tsv"):
        "d868f8fcafce7a6c645a72ca0a9cbee0f4947401cd6a9053acaf2fac2e5dc2af",
    ("sample", 9, None, "trace"):
        "1d7a0795408bba89e1077b64f0526b2bbfb0572457e52016e555c43dab0dddfe",
    ("sample", 16, None, "tsv"):
        "60bb77675f2140485effe171156971e41fc003d52c4c6d8be96979ab4d24bde9",
    ("sample", 16, None, "trace"):
        "966032b0a4d578a1a86b4ff5ebb7b088ebd462fe2444ce49ed424cdb693f58fa",
    ("sample", 32, None, "tsv"):
        "4764592d6913c400f07064af6e236527f9bae052c0f9f7939bc1d299635732f4",
    ("sample", 32, None, "trace"):
        "5bbad7417be3b5336099091ecce8378da1452ce11ee5a5a1a432009e94ff8852",
    ("sample", 12, 2, "tsv"):
        "6b48a312f17266541dd9ae2672d646b4552acb8dd6c75668514d214c1562efbe",
    ("sample", 12, 2, "trace"):
        "d9fa2897ee71f04333601c36d801ce8f018e9b213c55cecec8c21cc3ca50eca7",
}


def test_coloring_sweep_reports_match_golden_digests():
    import hashlib

    from epsilon0.report import emit
    from epsilon0.sweep import sweep

    for (mode, n, window), fmts in itertools.groupby(GOLDEN, key=lambda k: k[:3]):
        kwargs = {"count": 64, "seed": 7} if mode == "sample" else {}
        report = sweep("coloring", n, mode, window=window, want_traces=True, **kwargs)
        for key in fmts:
            digest = hashlib.sha256(emit(report, key[3]).encode()).hexdigest()
            assert digest == GOLDEN[key], key


def test_trace_json_lists_every_field_once_and_round_trips():
    import json
    from dataclasses import fields
    for code in range(1 << pair_count(5)):
        f = PairColoring(5, code)
        trace = rt22_solve(f)
        text = trace.to_json()
        assert list(json.loads(text)) == sorted(field.name for field in fields(SolverTrace))
        again = SolverTrace.from_json(text)
        assert again == trace
        assert all(type(step) is tuple for step in again.transitive_steps)

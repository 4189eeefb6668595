"""Checkers, correspondences, and brute-force oracles."""

import itertools

import pytest

from epsilon0.generate import SplitMix64, make_coloring, make_tournament
from epsilon0.ramsey import (
    LinearOrderInstance, PairColoring, Tournament,
    brute_max_homogeneous, brute_max_transitive,
    coloring_from_tournament, coloring_is_transitive,
    has_homogeneous_of_size, has_transitive_of_size,
    is_homogeneous, is_transitive,
    order_from_transitive_coloring, tournament_from_coloring,
)
from epsilon0.ramsey.instances import (
    format_coloring, format_order, format_tournament, pair_count, pair_index,
    parse_coloring, parse_order, parse_tournament,
)
from epsilon0.ramsey.solvers import em_solve, rt22_solve
from reference_checkers import (
    ref_coloring_is_transitive, ref_is_homogeneous, ref_is_transitive,
)


def pentagon():
    return PairColoring.from_function(5, lambda x, y: abs(x - y) in (1, 4))


def three_cycle():
    # 0 -> 1 -> 2 -> 0
    return Tournament(3, (0b010, 0b100, 0b001))


# ---------------------------------------------------------------------------
# homogeneity
# ---------------------------------------------------------------------------

def test_is_homogeneous_examples():
    all0 = PairColoring(6, 0)
    check = is_homogeneous(all0, range(6))
    assert check.ok and check.color == 0

    single = is_homogeneous(all0, [3])
    assert single.ok and single.color == 0

    bad = is_homogeneous(pentagon(), [0, 1, 2])
    assert not bad.ok and bad.witness == (0, 2)


def test_is_homogeneous_rejects_foreign_vertices():
    with pytest.raises(ValueError):
        is_homogeneous(PairColoring(3, 0), [0, 5])


# ---------------------------------------------------------------------------
# transitivity
# ---------------------------------------------------------------------------

def test_is_transitive_examples():
    natural = Tournament.from_order(range(5))
    assert is_transitive(natural, range(5)).ok

    cyc = is_transitive(three_cycle(), [0, 1, 2])
    assert not cyc.ok and cyc.witness == (0, 1, 2)

    assert is_transitive(three_cycle(), [0, 2]).ok
    assert is_transitive(three_cycle(), []).ok


# ---------------------------------------------------------------------------
# coloring <-> tournament
# ---------------------------------------------------------------------------

def test_all_one_coloring_is_natural_orientation():
    all1 = PairColoring(4, (1 << pair_count(4)) - 1)
    assert tournament_from_coloring(all1) == Tournament.from_order(range(4))


def test_three_cycle_coloring():
    f = coloring_from_tournament(three_cycle())
    assert (f.color(0, 1), f.color(1, 2), f.color(0, 2)) == (1, 1, 0)


def test_roundtrip_random_tournaments():
    for i in range(1000):
        r = make_tournament(3 + i % 10, seed=i)
        assert tournament_from_coloring(coloring_from_tournament(r)) == r


def test_roundtrip_exhaustive_small():
    for n in range(1, 6):
        for code in range(1 << pair_count(n)):
            f = PairColoring(n, code)
            assert coloring_from_tournament(tournament_from_coloring(f)) == f
            r = Tournament.from_bits(n, code)
            assert tournament_from_coloring(coloring_from_tournament(r)) == r


def test_transitive_sets_agree_across_the_correspondence():
    for code in range(1 << pair_count(4)):
        f = PairColoring(4, code)
        r = tournament_from_coloring(f)
        for size in (2, 3, 4):
            for subset in itertools.combinations(range(4), size):
                assert (coloring_is_transitive(f, subset).ok
                        == is_transitive(r, subset).ok)


# ---------------------------------------------------------------------------
# transitive coloring <-> linear order
# ---------------------------------------------------------------------------

def test_order_from_coloring_examples():
    all1 = PairColoring(4, (1 << pair_count(4)) - 1)
    assert order_from_transitive_coloring(all1).ranking == (0, 1, 2, 3)

    all0 = PairColoring(4, 0)
    assert order_from_transitive_coloring(all0).ranking == (3, 2, 1, 0)

    target = LinearOrderInstance(3, (2, 0, 1))
    f = PairColoring.from_function(3, lambda x, y: target.less(x, y))
    assert order_from_transitive_coloring(f).ranking == (2, 0, 1)


def test_order_from_coloring_rejects_intransitive():
    f = coloring_from_tournament(three_cycle())
    with pytest.raises(ValueError):
        order_from_transitive_coloring(f)


def test_order_roundtrip_exhaustive():
    for n in range(1, 6):
        for perm in itertools.permutations(range(n)):
            order = LinearOrderInstance(n, perm)
            f = PairColoring.from_function(
                n, lambda x, y, o=order: o.less(x, y))
            assert order_from_transitive_coloring(f).ranking == perm


@pytest.mark.parametrize("subset", [[-1, 0, 1], [0, 1, 3], [3], [99], [0, 99]])
def test_is_transitive_refuses_vertices_outside_the_universe(subset):
    with pytest.raises(ValueError, match="subset leaves the universe"):
        is_transitive(three_cycle(), subset)
    with pytest.raises(ValueError, match="subset leaves the universe"):
        coloring_is_transitive(PairColoring(3, 0), subset)


# ---------------------------------------------------------------------------
# the mask checkers against the per-pair references
# ---------------------------------------------------------------------------

def _same_verdicts(f, r, subset):
    assert is_homogeneous(f, subset) == ref_is_homogeneous(f, subset), (f, subset)
    assert is_transitive(r, subset) == ref_is_transitive(r, subset), (r, subset)
    assert coloring_is_transitive(f, subset) == ref_coloring_is_transitive(f, subset), (f, subset)


def test_checkers_match_the_references_on_every_subset_to_n5():
    for n in range(0, 6):
        subsets = [[x for x in range(n) if (mask >> x) & 1] for mask in range(1 << n)]
        for code in range(1 << pair_count(n)):
            f, r = PairColoring(n, code), Tournament.from_bits(n, code)
            for subset in subsets:
                _same_verdicts(f, r, subset)
            assert coloring_is_transitive(f) == ref_coloring_is_transitive(f)


def test_checkers_match_the_references_on_seeded_instances():
    """Random subsets of every size, unsorted and with repeats, plus the
    solvers' transitive and homogeneous sets, so both verdicts occur."""
    rng = SplitMix64(2024)
    for n in range(6, 25):
        for i in range(40):
            f, r = make_coloring(n, seed=100 * n + i), make_tournament(n, seed=100 * n + i)
            small = [rng.below(n) for _ in range(rng.below(6))]
            half = [x for x in range(n) if rng.bit()][::-1]
            trace = rt22_solve(f)
            for subset in (small, half, range(n), em_solve(r).subset,
                           trace.transitive_set, trace.final_set):
                _same_verdicts(f, r, subset)
            assert coloring_is_transitive(f) == ref_coloring_is_transitive(f)


# ---------------------------------------------------------------------------
# brute-force oracles
# ---------------------------------------------------------------------------

def test_brute_max_homogeneous_examples():
    all0 = PairColoring(6, 0)
    assert brute_max_homogeneous(all0) == (6, frozenset(range(6)))

    size, witness = brute_max_homogeneous(pentagon())
    assert size == 2
    assert is_homogeneous(pentagon(), witness).ok


def test_brute_max_transitive_examples():
    size, witness = brute_max_transitive(three_cycle())
    assert size == 2
    assert is_transitive(three_cycle(), witness).ok

    assert brute_max_transitive(Tournament.from_order(range(6)))[0] == 6


def test_brute_witnesses_pass_checkers():
    from epsilon0.generate import make_coloring

    for i in range(100):
        f_inst = make_coloring(8, i)
        size, witness = brute_max_homogeneous(f_inst)
        assert len(witness) == size
        assert is_homogeneous(f_inst, witness).ok
        r = make_tournament(8, i)
        size, witness = brute_max_transitive(r)
        assert len(witness) == size
        assert is_transitive(r, witness).ok


def test_brute_oracles_agree_with_naive_subset_enumeration():
    """Check the pruned searches against plain itertools enumeration."""
    from epsilon0.generate import make_coloring

    def naive_max_homogeneous(f):
        best = 1 if f.n else 0
        for size in range(2, f.n + 1):
            for subset in itertools.combinations(range(f.n), size):
                if is_homogeneous(f, subset).ok:
                    best = max(best, size)
        return best

    def naive_max_transitive(r):
        best = 1 if r.n else 0
        for size in range(2, r.n + 1):
            for subset in itertools.combinations(range(r.n), size):
                if is_transitive(r, subset).ok:
                    best = max(best, size)
        return best

    for code in range(1 << pair_count(4)):
        f = PairColoring(4, code)
        assert brute_max_homogeneous(f)[0] == naive_max_homogeneous(f)
        r = Tournament.from_bits(4, code)
        assert brute_max_transitive(r)[0] == naive_max_transitive(r)
    for i in range(30):
        f = make_coloring(7, seed=500 + i)
        assert brute_max_homogeneous(f)[0] == naive_max_homogeneous(f)
        r = make_tournament(7, seed=500 + i)
        assert brute_max_transitive(r)[0] == naive_max_transitive(r)


def test_has_size_agrees_with_max():
    for i in range(200):
        r = make_tournament(7, seed=1000 + i)
        size, _ = brute_max_transitive(r)
        for k in range(1, 8):
            assert has_transitive_of_size(r, k) == (k <= size)
    from epsilon0.generate import make_coloring
    for i in range(200):
        f = make_coloring(7, seed=2000 + i)
        size, _ = brute_max_homogeneous(f)
        for k in range(1, 8):
            assert has_homogeneous_of_size(f, k) == (k <= size)


def test_ramsey_witness_small():
    """Every coloring of [6]^2 has a 3-set of one color; some coloring of
    [5]^2 has none (the pentagon), so brute max there is exactly 2."""
    for code in range(1 << pair_count(5)):
        assert brute_max_homogeneous(PairColoring(5, code))[0] >= 2
    assert brute_max_homogeneous(pentagon())[0] == 2
    # 6-vertex check lives in the acceptance suite; spot-check a slice here
    for code in range(0, 1 << pair_count(6), 97):
        assert brute_max_homogeneous(PairColoring(6, code))[0] >= 3


def test_erdos_moser_bound_exhaustive_n5():
    for n in range(1, 6):
        bound = n.bit_length()
        for code in range(1 << pair_count(n)):
            r = Tournament.from_bits(n, code)
            assert brute_max_transitive(r)[0] >= bound


def test_erdos_moser_bound_sampled_8_to_12():
    import os

    per_n = 2000 if os.environ.get("EPS0_FULL") else 300
    for n in range(8, 13):
        bound = n.bit_length()
        for i in range(per_n):
            assert has_transitive_of_size(make_tournament(n, seed=i), bound)


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def test_instance_file_roundtrips():
    f = pentagon()
    assert parse_coloring(format_coloring(f)) == f
    r = three_cycle()
    assert parse_tournament(format_tournament(r)) == r
    order = LinearOrderInstance(6, (0, 2, 4, 5, 3, 1))
    assert parse_order(format_order(order)) == order


def test_coloring_file_layout():
    f = PairColoring.from_function(3, lambda x, y: (x, y) == (0, 1))
    assert format_coloring(f) == "n=3\n100\n"


def _per_pair_from_bits(n, bits):
    """Tournament.from_bits as it read one pair bit at a time, kept as the
    reference for the adjacency-mask rule."""
    out = [0] * n
    for x, y in itertools.combinations(range(n), 2):
        if (bits >> pair_index(x, y, n)) & 1:
            out[x] |= 1 << y
        else:
            out[y] |= 1 << x
    return tuple(out)


def test_from_bits_matches_the_per_pair_rule():
    for n in range(0, 7):
        for code in range(1 << pair_count(n)):
            assert Tournament.from_bits(n, code).out == _per_pair_from_bits(n, code)
    for i in range(500):
        n = 7 + i % 20
        code = make_tournament(n, seed=i).to_bits()
        assert Tournament.from_bits(n, code).out == _per_pair_from_bits(n, code)


def test_from_bits_refuses_bits_past_the_pair_range():
    for n, bits in ((0, 1), (1, 1), (2, 2), (4, 1 << 6), (4, -1)):
        with pytest.raises(ValueError, match="C\\(n,2\\)-bit range"):
            Tournament.from_bits(n, bits)
    assert Tournament.from_bits(4, (1 << 6) - 1).out == (0b1110, 0b1100, 0b1000, 0)

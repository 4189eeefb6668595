"""Two builds moved from one value at a time into numpy, against the code
they replaced (kept verbatim under tests/reference_*.py): the
lexicographic permutations of the exhaustive order sweep, built in
blocks, and the `SetFamily` masks, built in one packed grid."""

import random
from math import factorial

import numpy as np
import pytest

import reference_instances
import reference_sweep
from epsilon0.generate import make_family
from epsilon0.ramsey.instances import SetFamily, parse_family
from epsilon0.sweep import _order_rows, _permutations


@pytest.mark.parametrize("n", range(9))
def test_block_permutations_equal_the_itertools_order(n):
    ranks = _permutations(n)
    expected = reference_sweep._order_ranks(n, 0, factorial(n))
    assert ranks.dtype == expected.dtype == np.int8
    assert ranks.shape == expected.shape == (factorial(n), n)
    assert np.array_equal(ranks, expected)


@pytest.mark.parametrize("n", [1, 5, 8])
def test_slices_of_the_permutations_equal_the_reference(n):
    total = factorial(n)
    for lo, hi in [(0, 0), (total, total), (total // 3, total // 3),   # empty
                   (1, total - 1), (total // 3, 2 * total // 3 + 1),  # interior
                   (total - 1, total), (0, total)]:                   # last row, all
        assert np.array_equal(_permutations(n)[lo:hi], reference_sweep._order_ranks(n, lo, hi))


def test_order_rows_of_a_slice_are_that_slice_of_the_whole():
    total = factorial(7)
    whole, _ = _order_rows(7, 0, total, None, total, False)
    for lo, hi in [(0, 0), (100, 2001), (total - 1, total)]:
        part, _ = _order_rows(7, lo, hi, None, hi - lo, False)
        for column, expected in zip(part, whole):
            assert np.array_equal(column, expected[lo:hi])


def masks_or_error(n, sets):
    try:
        return SetFamily(n, tuple(sets)).masks()
    except ValueError as error:
        return ("ValueError", str(error))


def reference_masks_or_error(n, sets):
    try:
        return reference_instances.set_masks(n, tuple(sets))
    except ValueError as error:
        return ("ValueError", str(error))


def test_seeded_families_equal_the_reference():
    for n in (1, 2, 7, 8, 9, 63, 64, 65, 130):
        for seed in range(4):
            for m in (0, 1, 3, n):
                sets = make_family(n, seed, m).sets
                assert masks_or_error(n, sets) == reference_masks_or_error(n, sets)


EDGE_FAMILIES = [
    (0, []), (0, [frozenset()]), (0, [frozenset(), frozenset()]), (0, [frozenset({0})]),
    (3, [frozenset(), frozenset()]), (3, [frozenset({0, 1, 2}), frozenset(), frozenset({1})]),
    (1, [frozenset({0})]), (8, [frozenset({7})]), (9, [frozenset({8}), frozenset({0})]),
    (5, [frozenset({1}), frozenset({-1}), frozenset({5})]),      # negative before >= n
    (5, [frozenset({1}), frozenset({5}), frozenset({-1})]),      # >= n before negative
    (5, [frozenset({0, 4}), frozenset({2, 9, 3}), frozenset({-7})]),
    (4, [frozenset({-1, 1, 9})]), (2, [frozenset({2})]), (2, [frozenset({-1})]),
    (5, [frozenset({1, 1 << 70})]), (5, [frozenset({1}), frozenset({-(1 << 70)})]),
    (5, [frozenset({1 << 63})]), (5, [frozenset({True, 3})]),
    (70, [frozenset({69, 0}), frozenset({64}), frozenset()]),
    (5, [frozenset({np.int64(4), np.uint8(1)})]),
]


@pytest.mark.parametrize("n, sets", EDGE_FAMILIES)
def test_edge_families_equal_the_reference(n, sets):
    assert masks_or_error(n, sets) == reference_masks_or_error(n, sets)


def test_random_families_with_offending_sets_equal_the_reference():
    rng = random.Random(18)
    for _ in range(300):
        n = rng.randrange(0, 20)
        sets = [frozenset(rng.randrange(-2, n + 3) for _ in range(rng.randrange(0, 6)))
                for _ in range(rng.randrange(0, 6))]
        assert masks_or_error(n, sets) == reference_masks_or_error(n, sets)


def test_a_non_int_element_is_a_type_error():
    with pytest.raises(TypeError):
        SetFamily(5, (frozenset({1.5}),))


def test_a_parsed_family_names_the_first_offending_set():
    with pytest.raises(ValueError, match=r"^set 1 leaves the universe \[0,3\)$"):
        parse_family("n=3 m=3\n0 1\n3\n-1\n")
    assert parse_family("n=3 m=3\n0 2\n-\n1\n").masks() == (5, 0, 2)

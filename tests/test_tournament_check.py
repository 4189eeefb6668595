"""`Tournament.__post_init__`, which checks every pair at once on the bit
matrix and its transpose, against the per-pair loop it replaced
(`tests/reference_instances.tournament_check`): the same masks pass, and
malformed ones raise the same error type with the same message, naming
the same first pair in row-major order, at sizes around the byte and word
boundaries of the packed rows.  `Tournament.from_order`, one comparison
grid packed by rows, against its double loop
(`tests/reference_instances.tournament_from_order`) on the same sizes:
seeded rankings give the same tournament, and rankings with ties the
same error."""

import pytest

from epsilon0.generate import SplitMix64, make_order, make_tournament
from epsilon0.ramsey.instances import Tournament
from reference_instances import tournament_check, tournament_from_order
from support import outcome

SIZES = [0, 1, 2, 7, 8, 9, 63, 64, 65]


def assert_same(n, out):
    """The reference's error for these masks, or None, after checking that
    `Tournament` raises the same or builds one."""
    old = outcome(tournament_check, n, tuple(out))
    new = outcome(Tournament, n, tuple(out))
    assert (None if isinstance(new, Tournament) else new) == old, (n, out)
    return old


@pytest.mark.parametrize("n", SIZES)
def test_seeded_tournaments_pass_both(n):
    for seed in range(5):
        assert assert_same(n, make_tournament(n, seed).out) is None


@pytest.mark.parametrize("n", [n for n in SIZES if n >= 2])
def test_flipped_and_doubled_pairs_name_the_same_first_pair(n):
    rng = SplitMix64(n)
    for _ in range(40):
        out = list(make_tournament(n, rng.next64()).out)
        for _ in range(1 + rng.below(3)):
            a, b = rng.below(n), rng.below(n)
            if a == b:
                continue
            if rng.bit():
                out[a] ^= 1 << b            # the pair now goes both ways or neither
            else:
                out[a] |= 1 << b
                out[b] |= 1 << a
        assert_same(n, out)


@pytest.mark.parametrize("n", SIZES)
def test_malformed_masks_raise_as_the_reference(n):
    base = list(make_tournament(n, 3).out)
    cases = [base[:-1], base + [0], [0] * n]
    if n:
        cases += [[base[0] | 1 << n] + base[1:],            # wider than n
                  base[:-1] + [base[-1] | 1 << (n - 1)],    # a self-loop on the last vertex
                  [-1] + base[1:],                          # negative, so wider than n
                  [base[0] | 1] + base[1:],                 # a self-loop on vertex 0
                  [(1 << n) - 1 & ~1] * n]                  # every vertex beats all but 0
    for out in cases:
        assert_same(n, out)


def test_every_pair_both_ways_names_pair_0_1():
    n = 9
    out = [((1 << n) - 1) & ~(1 << a) for a in range(n)]
    assert assert_same(n, out) == (ValueError, "pair (0,1) must be oriented exactly one way",
                                   None)


@pytest.mark.parametrize("n", SIZES)
def test_from_order_matches_the_double_loop(n):
    rng = SplitMix64(100 + n)
    rankings = [make_order(n, seed).ranking for seed in range(5)] if n else [()]
    rankings += [range(n), range(n - 1, -1, -1)]
    rankings += [[rng.below(max(n // 2, 1)) for _ in range(n)] for _ in range(5)]     # ties
    rankings += [[rng.next64() - (1 << 63) for _ in range(n)],                        # int64
                 [rng.next64() << 10 for _ in range(n)],                              # past it
                 [rng.below(3) - 1 for _ in range(n)]]
    errors = []
    for ranking in rankings:
        got = outcome(Tournament.from_order, ranking)
        assert got == outcome(tournament_from_order, ranking), ranking
        errors.append(not isinstance(got, Tournament))
    assert any(errors) == (n >= 2)          # tied ranks raise once two vertices can tie

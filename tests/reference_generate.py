"""The seeded generators as they drew one `SplitMix64.next64` call at a
time, kept verbatim as the reference for the differential tests of the
array generators in `epsilon0.generate`."""

from epsilon0.generate import SplitMix64
from epsilon0.ramsey.instances import (
    LinearOrderInstance,
    PairColoring,
    SetFamily,
    Tournament,
    pair_count,
)


def _pair_bits(n: int, rng: SplitMix64) -> int:
    bits = 0
    for i in range(pair_count(n)):
        if rng.bit():
            bits |= 1 << i
    return bits


def make_coloring(n: int, seed: int) -> PairColoring:
    return PairColoring(n, _pair_bits(n, SplitMix64(seed)))


def make_tournament(n: int, seed: int) -> Tournament:
    return Tournament.from_bits(n, _pair_bits(n, SplitMix64(seed)))


def make_order(n: int, seed: int) -> LinearOrderInstance:
    rng = SplitMix64(seed)
    ranking = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.below(i + 1)
        ranking[i], ranking[j] = ranking[j], ranking[i]
    return LinearOrderInstance(n, tuple(ranking))


def make_family(n: int, seed: int, m: int | None = None) -> SetFamily:
    rng = SplitMix64(seed)
    m = n if m is None else m
    sets = []
    for _ in range(m):
        sets.append(frozenset(x for x in range(n) if rng.bit()))
    return SetFamily(n, tuple(sets))

"""Deterministic seeded instance generation.

All randomness flows through a splitmix64 stream, specified bit-exactly so
identical (kind, n, seed) triples give identical instances on every
platform:

    state := (state + 0x9E3779B97F4A7C15) mod 2^64
    z := state
    z := ((z XOR (z >> 30)) * 0xBF58476D1CE4E5B9) mod 2^64
    z := ((z XOR (z >> 27)) * 0x94D049BB133111EB) mod 2^64
    output := z XOR (z >> 31)

The state after i + 1 steps is seed + (i+1)*0x9E3779B97F4A7C15 mod 2^64,
so output i (from 0) is the last three lines applied to it, and no
output depends on another (Steele, Lea & Flood, OOPSLA 2014).  All four
generators draw their outputs in that closed form, as one numpy uint64
array pass whose products wrap mod 2^64; `SplitMix64` stays as the
stepwise stream.

Colorings and tournaments draw one low bit per pair in pair order;
orders use a Fisher-Yates shuffle with j = output mod (i + 1) for
i = n-1 .. 1; families draw one membership bit per (set, element) in
row-major order, with n sets by default.
"""

from __future__ import annotations

from itertools import compress
from typing import Union

import numpy as np

from .ramsey.instances import (
    LinearOrderInstance,
    PairColoring,
    SetFamily,
    Tournament,
    pair_count,
)

__all__ = ["SplitMix64", "make_coloring", "make_tournament", "make_order",
           "make_family", "generate", "Instance", "KINDS"]

_MASK64 = (1 << 64) - 1

KINDS = ("coloring", "tournament", "order", "family")

Instance = Union[PairColoring, Tournament, LinearOrderInstance, SetFamily]


class SplitMix64:
    """The splitmix64 generator; 64-bit outputs, documented above."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def bit(self) -> int:
        return self.next64() & 1

    def below(self, bound: int) -> int:
        return self.next64() % bound


def _outputs(seed: int, m: int) -> np.ndarray:
    """The first m outputs of SplitMix64(seed), as one uint64 array."""
    z = np.arange(1, m + 1, dtype=np.uint64)
    z *= np.uint64(0x9E3779B97F4A7C15)
    z += np.uint64(seed & _MASK64)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def _pair_bits(n: int, seed: int) -> int:
    low = (_outputs(seed, pair_count(n)) & np.uint64(1)).astype(np.uint8)
    return int.from_bytes(np.packbits(low, bitorder="little").tobytes(), "little")


def make_coloring(n: int, seed: int) -> PairColoring:
    return PairColoring(n, _pair_bits(n, seed))


def make_tournament(n: int, seed: int) -> Tournament:
    return Tournament.from_bits(n, _pair_bits(n, seed))


def make_order(n: int, seed: int) -> LinearOrderInstance:
    outputs = _outputs(seed, n - 1).tolist()
    ranking = list(range(n))
    for i, out in zip(range(n - 1, 0, -1), outputs):
        j = out % (i + 1)
        ranking[i], ranking[j] = ranking[j], ranking[i]
    return LinearOrderInstance(n, tuple(ranking))


def make_family(n: int, seed: int, m: int | None = None) -> SetFamily:
    rows, cols = max(n if m is None else m, 0), max(n, 0)
    bits = (_outputs(seed, rows * cols) & np.uint64(1)).reshape(rows, cols).tolist()
    return SetFamily(n, tuple(frozenset(compress(range(cols), row)) for row in bits))


def generate(kind: str, n: int, seed: int) -> Instance:
    """Deterministic instance of the given kind; identical arguments give
    byte-identical instances."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if kind == "coloring":
        return make_coloring(n, seed)
    if kind == "tournament":
        return make_tournament(n, seed)
    if kind == "order":
        return make_order(n, seed)
    if kind == "family":
        return make_family(n, seed)
    raise ValueError(f"unknown kind {kind!r}; expected one of {KINDS}")

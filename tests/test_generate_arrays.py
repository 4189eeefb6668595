"""The array generators in `epsilon0.generate` against the stepwise
`SplitMix64` stream and the one-draw-at-a-time generators kept in
`reference_generate`.  numpy warns on a scalar uint64 overflow rather than
wrapping silently, so every warning here is an error."""

import importlib
import io
import random
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

import reference_generate as ref
from epsilon0.cli import main
from epsilon0.generate import KINDS, SplitMix64, _outputs
from epsilon0.ramsey.instances import format_family
from epsilon0.report import FORMATS, emit
from epsilon0.sweep import sweep

pytestmark = pytest.mark.filterwarnings("error")

# `epsilon0.generate` and `epsilon0.sweep` also name functions of the package
gen = importlib.import_module("epsilon0.generate")
sweep_mod = importlib.import_module("epsilon0.sweep")

EDGE_SEEDS = [0, 1, 2**63 - 1, 2**63, 2**64 - 2, 2**64 - 1, -1, 2**64 + 5]
_RNG = random.Random(13)
RANDOM_SEEDS = [_RNG.getrandbits(64) for _ in range(50)]
MAKERS = ("make_coloring", "make_tournament", "make_order", "make_family")


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def outcome(call, *args):
    """The value of call(*args), or the type and text of what it raised."""
    try:
        return "value", call(*args)
    except Exception as exc:  # the reference decides which errors are right
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("seed", EDGE_SEEDS + RANDOM_SEEDS)
def test_outputs_equal_the_stepwise_stream(seed):
    rng = SplitMix64(seed)
    outputs = _outputs(seed, 1000)
    assert outputs.dtype == np.uint64
    assert outputs.tolist() == [rng.next64() for _ in range(1000)]


def test_random_seeds_are_distinct_and_reach_both_halves():
    assert len(set(RANDOM_SEEDS)) == 50
    assert min(RANDOM_SEEDS) < 2**63 <= max(RANDOM_SEEDS)


@pytest.mark.parametrize("maker", MAKERS)
@pytest.mark.parametrize("n", [0, 1, 2, 7, 48, 64])
def test_generators_equal_the_reference(maker, n):
    for seed in EDGE_SEEDS + RANDOM_SEEDS[:5]:
        assert outcome(getattr(gen, maker), n, seed) == outcome(getattr(ref, maker), n, seed)


@pytest.mark.parametrize("n", [0, 1, 2, 7, 48, 64])
@pytest.mark.parametrize("m", [0, 3])
def test_family_with_m_sets_equals_the_reference(n, m):
    for seed in EDGE_SEEDS + RANDOM_SEEDS[:5]:
        assert gen.make_family(n, seed, m) == ref.make_family(n, seed, m)


@pytest.mark.parametrize("maker", MAKERS)
@pytest.mark.parametrize("n", [-1, -3])
def test_negative_n_fails_or_passes_as_before(maker, n):
    assert outcome(getattr(gen, maker), n, 9) == outcome(getattr(ref, maker), n, 9)
    if maker == "make_family":
        for m in (-2, 2):
            assert outcome(gen.make_family, n, 9, m) == outcome(ref.make_family, n, 9, m)


def sweep_bytes(kind, n):
    def run():
        report = sweep(kind, n, "sample", count=3, seed=2**64 - 1, want_traces=True)
        return [emit(report, fmt) for fmt in FORMATS]
    return outcome(run)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", [0, 7])
def test_sampled_sweep_across_the_seed_wrap_equals_the_reference(kind, n, monkeypatch):
    got = sweep_bytes(kind, n)
    columns, _, check, chunk_rows = sweep_mod._KINDS[kind]
    monkeypatch.setitem(sweep_mod._KINDS, kind,
                        (columns, getattr(ref, f"make_{kind}"), check, chunk_rows))
    assert got == sweep_bytes(kind, n)


def test_generate_cli_with_a_negative_seed_equals_the_reference():
    assert run_cli("generate", "--kind", "family", "--n", "1", "--seed", "-1") == (
        0, format_family(ref.make_family(1, -1)), "")


@pytest.mark.parametrize("argv", [
    ["generate", "--kind", "coloring", "--n", "1000000", "--seed", "1"],
    ["generate", "--kind", "order", "--n", "1000000000000", "--seed", "1"],
    ["sweep", "--kind", "family", "--n", "1000000", "--count", "1", "--seed", "1"],
])
def test_out_of_memory_while_drawing_is_an_error(argv, monkeypatch):
    """A huge n makes `_outputs` ask for about 8 bytes per draw at once; the
    stub raises MemoryError as that request would, without allocating."""
    def out_of_memory(seed, m):
        raise MemoryError

    monkeypatch.setattr(gen, "_outputs", out_of_memory)
    code, out, err = run_cli(*argv)
    assert (code, out, err) == (1, "", "error: out of memory\n")

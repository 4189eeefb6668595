"""The pair codec of `epsilon0.ramsey.instances`: `PairColoring.adj`,
`PairColoring.from_function`, `restrict` and `Tournament.to_bits` against
their per-bit loops over the cached pair table
(`tests/reference_instances.py`), at sizes around the byte and word
boundaries of the packed codes, on seeded, all-zero and all-one codes.
Then scale: `eps0 generate`, `ramsey solve`, `ramsey em` at n = 2,000 and
a sampled tournament sweep at n = 3,000 through `main`, `adj`, `to_bits`
and `restrict` in time linear in the pair count, and no pair table kept
alive after an `adj`."""

import gc
import random
import time
import tracemalloc

import numpy as np
import pytest

import reference_instances as ref
from epsilon0.generate import make_coloring, make_tournament
from epsilon0.ramsey.instances import (
    PairColoring, Tournament, _upper, pair_count, parse_coloring, parse_tournament,
)
from support import outcome, run_cli

SIZES = [0, 1, 2, 7, 8, 9, 63, 64, 65]


def codes(n):
    """All-zero, all-one and seeded codes of C(n,2) bits."""
    m = pair_count(n)
    rng = random.Random(n)
    found = [0, (1 << m) - 1, 1 << max(m - 1, 0) if m else 0, (1 << m) // 3]
    found += [rng.getrandbits(m) for _ in range(20)]
    found += [make_coloring(n, seed).bits for seed in range(5) if n]
    return found


@pytest.mark.parametrize("n", SIZES)
def test_adj_and_out_equal_the_per_bit_reference(n):
    for bits in codes(n):
        f = PairColoring(n, bits)
        assert f.adj == ref.adj(f), (n, bits)
        assert f.out == tuple(a ^ ((1 << x) - 1) for x, a in enumerate(ref.adj(f)))


@pytest.mark.parametrize("n", SIZES)
def test_to_bits_equals_the_per_bit_reference(n):
    tournaments = [Tournament.from_bits(n, bits) for bits in codes(n)]
    tournaments += [make_tournament(n, seed) for seed in range(5) if n]
    rng = random.Random(n)
    tournaments += [Tournament.from_order(rng.sample(range(n), n)) for _ in range(5)]
    for r in tournaments:
        assert r.to_bits() == ref.to_bits(r), (n, r.out)
    for bits in codes(n):
        assert Tournament.from_bits(n, bits).to_bits() == bits


@pytest.mark.parametrize("n", SIZES)
def test_from_function_equals_the_per_bit_reference(n):
    for bits in codes(n):
        f = PairColoring(n, bits)
        assert PairColoring.from_function(n, f.color) == ref.from_function(PairColoring, n, f.color)
    values = [0, 1, 2, -1, "", "a", None, [], [0], (), 0.0, 3.5, np.int64(0), np.int64(7),
              np.bool_(True), np.uint8(0), object()]
    for seed in range(4):
        rng = random.Random(seed)
        table = {(x, y): rng.choice(values) for x in range(n) for y in range(x + 1, n)}
        calls, ref_calls = [], []

        def fn(x, y, log):
            log.append((x, y))
            return table[x, y]

        new = PairColoring.from_function(n, lambda x, y: fn(x, y, calls))
        old = ref.from_function(PairColoring, n, lambda x, y: fn(x, y, ref_calls))
        assert new == old and calls == ref_calls, (n, seed)


@pytest.mark.parametrize("n", SIZES)
def test_from_function_raises_what_the_reference_raises(n):
    def fn(x, y):
        if (x + 2 * y) % 5 == 3:
            raise KeyError((x, y))
        return x ^ y

    assert outcome(lambda: PairColoring.from_function(n, fn)) == outcome(
        lambda: ref.from_function(PairColoring, n, fn))
    for bad in (-1, -5):
        assert outcome(lambda: PairColoring.from_function(bad, fn)) == outcome(
            lambda: ref.from_function(PairColoring, bad, fn))


@pytest.mark.parametrize("n", SIZES)
def test_restrict_equals_the_reference_with_its_errors(n):
    rng = random.Random(n)
    f = PairColoring(n, rng.getrandbits(pair_count(n)))
    k = min(n, 12)
    vertex_lists = [
        range(k), sorted(rng.sample(range(n), k)), rng.sample(range(n), k),  # unsorted
        list(range(n))[::-1], [], [n - 1],
        [0, 1, 1], [n - 1, 0, n - 1], [3 % max(n, 1)] * 3,                   # duplicates
        [0, n], [n, 0], [n + 4, n + 9], [-1, 0], [0, -1], [-2, -1, 0],       # out of range
        rng.sample(range(n), k) + [n],
    ]
    for vertices in vertex_lists:
        new = outcome(lambda: f.restrict(vertices))
        assert new == outcome(lambda: ref.restrict(f, vertices)), (n, vertices)


def test_the_pair_grid_is_the_pair_order_and_read_only():
    for n in SIZES:
        cells = [tuple(cell) for cell in np.argwhere(_upper(n)).tolist()]
        assert cells == list(ref._pair_table(n))
    with pytest.raises(ValueError):
        _upper(5)[0, 1] = False


# ---------------------------------------------------------------------------
# scale
# ---------------------------------------------------------------------------

def timed(call):
    started = time.process_time()
    result = call()
    return result, time.process_time() - started


def test_generate_solve_and_em_at_n_2000_through_main(tmp_path):
    for kind, op in (("coloring", "solve"), ("tournament", "em")):
        (code, text, err), spent = timed(lambda: run_cli("generate", "--kind", kind,
                                                         "--n", 2000, "--seed", 7))
        assert (code, err) == (0, "") and spent < 3, (kind, spent)
        header, line = text.split("\n")[:2]
        assert header == "n=2000" and len(line) == pair_count(2000)
        path = tmp_path / f"{kind}.txt"
        path.write_text(text)
        (code, out, err), spent = timed(lambda: run_cli("ramsey", op, path))
        assert (code, err) == (0, "") and spent < 5, (op, spent)
        assert out.startswith("n=2000 ")
    coloring = parse_coloring((tmp_path / "coloring.txt").read_text())
    assert coloring == make_coloring(2000, 7)
    tournament = parse_tournament((tmp_path / "tournament.txt").read_text())
    assert tournament.to_bits() == make_tournament(2000, 7).to_bits()


def test_a_sampled_tournament_sweep_at_n_3000_through_main():
    (code, out, err), spent = timed(lambda: run_cli("sweep", "--kind", "tournament",
                                                    "--n", 3000, "--count", 1, "--seed", 1))
    assert code == 0 and spent < 5, spent
    assert "valid=1" in out.split("\n")


def test_adj_and_to_bits_are_linear_in_the_pair_count():
    n = 2000
    bits = random.Random(n).getrandbits(pair_count(n))
    f = PairColoring(n, bits)
    adj, spent = timed(lambda: f.adj)
    assert spent < 0.5, spent
    rng = random.Random(1)
    for x, y in ((rng.randrange(n), rng.randrange(n)) for _ in range(200)):
        assert (adj[x] >> y) & 1 == (f.color(x, y) if x != y else 0)
    r = Tournament(n, f.out)
    code, spent = timed(r.to_bits)
    assert spent < 0.5, spent
    assert code == bits


def test_restrict_is_linear_in_the_pair_count():
    f = make_coloring(2000, 3)
    rng = random.Random(2)
    for vertices in (range(300), rng.sample(range(2000), 300)):
        g, spent = timed(lambda: f.restrict(vertices))
        assert spent < 0.5, spent
        assert g.n == 300
        for a, b in ((rng.randrange(300), rng.randrange(300)) for _ in range(200)):
            if a != b:
                assert g.color(a, b) == f.color(vertices[a], vertices[b])


def _kept_after(call):
    """Bytes still allocated after `call` and a collection, traced from the
    start of the call."""
    gc.collect()
    tracemalloc.start()
    try:
        call()
        gc.collect()
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def test_adj_keeps_no_pair_table_alive():
    bits = random.Random(600).getrandbits(pair_count(600))
    assert _kept_after(lambda: PairColoring(600, bits).adj) < 1 << 20


def test_the_pair_grids_cached_cover_a_handful_of_sizes():
    def many():
        for n in range(600, 620):
            PairColoring(n, (1 << pair_count(n)) - 1).adj

    # one n = 600 grid is 360 kB: four or five of them stay under 2 MB
    assert _kept_after(many) < 2 << 20

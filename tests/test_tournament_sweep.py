"""The vectorized exhaustive tournament sweep against the scalar reference.

`_tournament_chunk` runs EM, the score test and the transitive bound over
an array of pair codes at once; each column is compared per code with
`em_solve_masks`, `is_transitive_mask` and `has_transitive_of_size` on
`Tournament.from_bits`, which share no code with the kernel.
"""

import hashlib
import importlib
import io
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

from epsilon0.cli import main
from epsilon0.ramsey import Tournament
from epsilon0.ramsey.instances import pair_count
from epsilon0.ramsey.oracles import has_transitive_of_size, is_transitive_mask
from epsilon0.ramsey.solvers import default_window, em_solve_masks
from epsilon0.report import emit
from epsilon0.sweep import (
    _has_transitive, _out_mask_array, _score_ok, _tournament_chunk, sweep,
    transitive_bound,
)

# the package exports the function `sweep` under the module's name
SWEEP_MODULE = importlib.import_module("epsilon0.sweep")


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _check_kernel(n, codes, w):
    codes = np.asarray(codes, dtype=np.uint32)
    chosen, transitive, bound_ok = _tournament_chunk(n, codes, w)
    bound = transitive_bound(n)
    for code, got, trans, b_ok in zip(codes.tolist(), chosen.tolist(),
                                      transitive.tolist(), bound_ok.tolist()):
        r = Tournament.from_bits(n, code)
        want = em_solve_masks(n, r.out, w)[0]
        assert got == want, (n, code, w)
        assert trans == is_transitive_mask(r.out, want), (n, code)
        assert b_ok == has_transitive_of_size(r, bound), (n, code)


def _seeded_codes(n, count, seed):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 1 << pair_count(n), size=count, dtype=np.uint32)


@pytest.mark.parametrize("n", range(0, 7))
def test_kernel_matches_the_reference_on_every_small_code(n):
    _check_kernel(n, range(1 << pair_count(n)), default_window(n))


@pytest.mark.parametrize("n", range(0, 6))
def test_kernel_matches_the_reference_for_every_window(n):
    for w in (-2, 0, 1, 2, n, n + 3):
        _check_kernel(n, range(1 << pair_count(n)), w)


@pytest.mark.parametrize("n, count, seed", [(7, 1 << 14, 7), (8, 1 << 12, 8)])
def test_kernel_matches_the_reference_on_seeded_codes(n, count, seed):
    _check_kernel(n, _seeded_codes(n, count, seed), default_window(n))


def test_out_masks_match_tournament_from_bits():
    for n in range(0, 9):
        codes = (_seeded_codes(n, 300, n) if n >= 7
                 else np.arange(1 << pair_count(n), dtype=np.uint32))
        out = _out_mask_array(n, codes)
        assert out.dtype == np.uint8 and out.shape == (n, len(codes))
        for i, code in enumerate(codes.tolist()):
            assert tuple(out[:, i].tolist()) == Tournament.from_bits(n, code).out


def test_score_test_matches_is_transitive_mask_on_every_subset():
    # The EM result is always transitive, so this is where the score test
    # meets subsets that are not.
    for n in range(0, 6):
        codes = np.arange(1 << pair_count(n), dtype=np.uint32)
        out = _out_mask_array(n, codes)
        for mask in range(1 << n):
            got = _score_ok(out, np.full(len(codes), mask, dtype=np.uint8))
            for code, ok in zip(codes.tolist(), got.tolist()):
                assert ok == is_transitive_mask(Tournament.from_bits(n, code).out, mask)


def test_transitive_subset_rules_match_the_oracle():
    # Every size the rules cover, including sizes past the guaranteed
    # bound, where some tournaments (the 3-cycle, the Paley tournament on
    # 7 vertices) have no transitive subset of that size.
    cases = [(n, np.arange(1 << pair_count(n), dtype=np.uint32)) for n in range(0, 6)]
    cases += [(7, _seeded_codes(7, 3000, 70)), (8, _seeded_codes(8, 3000, 80))]
    paley7 = sum(1 << i for i, (x, y) in enumerate(
        (x, y) for x in range(7) for y in range(x + 1, 7)) if (y - x) % 7 in (1, 2, 4))
    cases.append((7, np.array([paley7], dtype=np.uint32)))
    misses = 0
    for n, codes in cases:
        out = _out_mask_array(n, codes)
        for k in range(0, 5):
            got = _has_transitive(out, k).tolist()
            for code, ok in zip(codes.tolist(), got):
                assert ok == has_transitive_of_size(Tournament.from_bits(n, code), k), (n, k)
                misses += not ok
    assert misses > 0
    with pytest.raises(ValueError):
        _has_transitive(out, 5)


def test_chunk_boundaries_do_not_change_the_report(monkeypatch):
    whole = {rows: sweep("tournament", 6, "exhaustive", max_rows=rows)
             for rows in (0, 5, 1500, 100_000)}
    monkeypatch.setattr(SWEEP_MODULE, "_CHUNK", 1000)
    for rows, report in whole.items():
        chunked = sweep("tournament", 6, "exhaustive", max_rows=rows)
        for fmt in ("summary", "tsv"):
            assert emit(chunked, fmt) == emit(report, fmt), (rows, fmt)



def test_failures_count_every_failed_check_across_chunks(monkeypatch):
    # No tournament with n <= 8 fails a check, so inject failures.
    kernel = _tournament_chunk

    def failing(n, codes, w):
        chosen, transitive, bound_ok = kernel(n, codes, w)
        return chosen, transitive & (codes % 3 != 0), bound_ok & (codes % 5 != 0)

    monkeypatch.setattr(SWEEP_MODULE, "_CHUNK", 100)
    monkeypatch.setattr(SWEEP_MODULE, "_tournament_chunk", failing)
    report = sweep("tournament", 5, "exhaustive", max_rows=7)
    assert report.failures == sum(1 for c in range(1024) if c % 3 == 0 or c % 5 == 0)
    assert [row[2:] for row in report.rows[:4]] == [(0, 0, 0), (1, 1, 1), (1, 1, 1), (0, 1, 0)]

# sha256 of emit() on exhaustive tournament sweeps, pinned from the
# per-code em_solve_masks loop the kernel replaced; keys (n, max_rows).
GOLDEN = {
    (0, None): (
        "2afa112710b27cc55cfc08c2d437d91840c0eb6acc4f49db7344295689e0d0a4",
        "d02f59a8bdc8347c25054eeb94f9441e88e811e8aadbbe5f808e65a0427ae6b8"),
    (0, 5): (
        "2afa112710b27cc55cfc08c2d437d91840c0eb6acc4f49db7344295689e0d0a4",
        "d02f59a8bdc8347c25054eeb94f9441e88e811e8aadbbe5f808e65a0427ae6b8"),
    (0, 0): (
        "848b687acfde137479432f31bd0a4bcab5f38f8fcd5ecb27e20b7d68d90d64c0",
        "cf7a2d665a6ec06c61ea392f44fda42b0ee578f0c0ee94438d8b3364d1a2eb13"),
    (1, None): (
        "d7b9b0de163a42dc4d8714014665bc85ef001ec624d3134304500b1c1dba577d",
        "05228ae7a132842ec138b923e52f10fa09a4d290f1d56dc7485cb7faf00d1132"),
    (1, 5): (
        "d7b9b0de163a42dc4d8714014665bc85ef001ec624d3134304500b1c1dba577d",
        "05228ae7a132842ec138b923e52f10fa09a4d290f1d56dc7485cb7faf00d1132"),
    (1, 0): (
        "f61b8695a4ec5cb08e1bae41b0c81976bc508f2178f6ef02d1c06058492267cd",
        "e6104e46c6b9a7385781ed553d43d9d18f7049db592b7af51f64438c62f7bfa8"),
    (2, None): (
        "4cfb682e7388f9a926a925ddba351453a20353308230fe82fcc66dd0021e116f",
        "b7c6c9ebf72676af07e620b3214ee65dbfa7293735213287e8aaf4962cbaebc5"),
    (2, 5): (
        "4cfb682e7388f9a926a925ddba351453a20353308230fe82fcc66dd0021e116f",
        "b7c6c9ebf72676af07e620b3214ee65dbfa7293735213287e8aaf4962cbaebc5"),
    (2, 0): (
        "f8ab10d27f5ac550823468de5cde93edcc318fbb1f33b069a9243861b614932c",
        "468da6196e2a4b4c49709d66a53c68048ab2ee91b9448fc0dcf5f1cc66782cfc"),
    (3, None): (
        "fe62bad5542cbc2625fff6db6d59f663c0bfc2f5da3836688766e9183c7d5c56",
        "868cc047131c0ccb6887ee42876d199f94a658dc06d26a5a39fecb5da296c7db"),
    (3, 5): (
        "990943f3035e62f5537ac182bcefefe1af3d450dee3ef933707808430d6a3b5f",
        "cc8eb8ad677cd083bdb027bd660e4dfc801f081f331783e917e94ddc000d7747"),
    (3, 0): (
        "aa7e33b68d4c0c3f18b015927f9ad39ecfcc20253a2faaf9102712a89b8e665e",
        "5a4cc41fa542957b46094d33150a31db7d3c7a38305957210a0e04cdb1a5b85d"),
    (4, None): (
        "3b4ec315f8527ca17b0116fc5a50001c3a5defdccc518bc289539b401d975c3e",
        "7a8246ece82638a0eefa160b189c078910fb392505b743e3baa8724f5ffe4412"),
    (4, 5): (
        "feafc70d2f4b1c05b975c902f9047fe3b51639db481c7217edb96200675dbccf",
        "74618039704c401c728b1521616dc073689a5aacd2112c09c768128fadf62062"),
    (4, 0): (
        "e351f80593805f0f98d98b4741335613824de3a7f3904a6209b3fd07cd253683",
        "ea32b8ccd66a028643e3390ce4c9a02182aee7d0d05bd295679103f1d5d480f8"),
    (5, None): (
        "69ead1b68adc76b65d406daeb56098e4dc6466e645ecac273dc3f5cae7fdb85d",
        "20d4075264aad1914863039e343fd7ed5c660ebdd461047adfa81baecb20afcd"),
    (5, 5): (
        "0d302e6578c5211671ea8daa069926cf5782acf455465f3195370d64ad638f2a",
        "51e79f2a0069912cebe880ed02b3b9df3cc54dd6042153702e1c0ec0f493ec82"),
    (5, 0): (
        "6e85bb9223be5527cc18db477a3193d75e36fb36ad5f50d799fb1c18f6b7a831",
        "c6d3e425a5778901c20e7d2514697bead4defaf69c5166620ce645cc0fc49e54"),
    (6, None): (
        "77303f59a4ab549963da210943d04fe679ad90e1b720afcdf8c610205a294ae0",
        "b5223c065cfa6ba9d6a223bca70a65a3cceb4834613a82406b1631f1cdac5294"),
    (6, 5): (
        "836c45ed6711f0b9d5253729ecfdc8de8c4860f13b9d2e76fdfa057f24dfb005",
        "1c4884373bcc7122ceef566e6df7a6d399f583cbc4cb94876b470f7441dc4601"),
    (6, 0): (
        "8a3f4ff829628e94189e76987a110d2f38d44ae51a3ded77650603ddb2d15dd3",
        "e07cb66e3fd6f258b65bc987a5f12000ab40add4759a9b561ea3d5cb8a4d0f40"),
    (7, None): (
        "dc8ea020496b7132f498f1d30b750cfe4559a43b44ef2f2e5dc63f0378952494",
        "35f203bcfe16cc77ac77134af0ffa2754c585f31618ffedb8cf69fc8c0c2c4eb"),
    (7, 5): (
        "b13fa15ad28371474ee2534bfb0adee5ae036d70794725f7fade4fd91b570802",
        "43210cf985b7b05fac5a24fb2b6efcfc55819f247b96daa7b11bc1b63f3c641f"),
    (7, 0): (
        "4b8a4072dcd28455ced4efb2e092ce320bc600c531d020085e7becc8194da6e2",
        "ed17664a62e6ced273066d820e775140cbe528626ede48a57861d2cddb1d47d0"),
}


def test_tournament_sweep_reports_match_golden_digests():
    for (n, rows), (summary, tsv) in GOLDEN.items():
        kwargs = {} if rows is None else {"max_rows": rows}
        report = sweep("tournament", n, "exhaustive", **kwargs)
        assert hashlib.sha256(emit(report, "summary").encode()).hexdigest() == summary, (n, rows)
        assert hashlib.sha256(emit(report, "tsv").encode()).hexdigest() == tsv, (n, rows)


CLI_N7_SUMMARY = """\
kind=tournament
n=7
mode=exhaustive
seed=0
count=2097152
failures=0
instances=100000
valid=100000
invalid=0
size_3=2744
size_4=37922
size_5=47875
size_6=11004
size_7=455
rows_truncated=1
"""


def test_cli_exhaustive_tournament_sweep_n7():
    code, out, err = run_cli("sweep", "--kind", "tournament", "--n", "7",
                             "--exhaustive", "--format", "summary")
    assert code == 0, err
    assert out == CLI_N7_SUMMARY


@pytest.mark.parametrize("mode, extra", [("exhaustive", {}), ("sample", {"count": 20, "seed": 3})])
def test_tournament_sweeps_refuse_a_negative_window(mode, extra):
    with pytest.raises(ValueError, match=r"window must lie in \[0, 4\]"):
        sweep("tournament", 4, mode, window=-2, **extra)
    flags = ("--exhaustive",) if mode == "exhaustive" else ("--count", "20", "--seed", "3")
    code, out, err = run_cli("sweep", "--kind", "tournament", "--n", "4", *flags,
                             "--window", "-2")
    assert (code, out, err) == (1, "", "error: window must lie in [0, 4]\n")


@pytest.mark.parametrize("mode, extra", [("exhaustive", {}), ("sample", {"count": 50, "seed": 3})])
def test_a_tournament_window_above_n_acts_as_n(mode, extra):
    for n in (3, 5):
        whole = emit(sweep("tournament", n, mode, window=n, **extra), "tsv")
        for w in (n + 1, n + 7):
            assert emit(sweep("tournament", n, mode, window=w, **extra), "tsv") == whole

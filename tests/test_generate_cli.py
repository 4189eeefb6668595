"""Seeded generation, reports, sweeps, and the command-line front end."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest

from epsilon0.cli import main, parse_family, format_family
from epsilon0.generate import (
    SplitMix64, generate, make_coloring, make_family, make_order,
    make_tournament,
)
from epsilon0.ramsey import SolverTrace, verify_trace
from epsilon0.ramsey.instances import parse_coloring
from epsilon0.report import Report, emit, parse_tsv, summarize_rows
from epsilon0.sweep import sweep


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# splitmix64 and generation
# ---------------------------------------------------------------------------

def test_splitmix64_reference_outputs():
    # first outputs for seed 0 under the standard constants
    rng = SplitMix64(0)
    assert [hex(rng.next64()) for _ in range(3)] == [
        "0xe220a8397b1dcdaf", "0x6e789e6aa1b965f4", "0x6c45d188009454f"]


def test_generation_deterministic():
    assert generate("coloring", 5, 0) == generate("coloring", 5, 0)
    assert make_tournament(7, 42) == make_tournament(7, 42)
    assert make_order(9, 3) == make_order(9, 3)
    assert make_family(6, 8) == make_family(6, 8)
    assert make_coloring(5, 0) != make_coloring(5, 1)


def test_generation_shapes():
    order = make_order(4, seed=99)
    assert sorted(order.ranking) == [0, 1, 2, 3]
    tournament = make_tournament(3, seed=5)
    assert len(tournament.out) == 3
    family = make_family(5, seed=1)
    assert len(family.sets) == 5
    with pytest.raises(ValueError):
        generate("coloring", 0, 1)
    with pytest.raises(ValueError):
        generate("widget", 3, 1)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def small_report():
    return sweep("coloring", 4, "exhaustive")


def test_summary_matches_tsv_parse_back():
    report = small_report()
    tsv = emit(report, "tsv")
    header, columns, rows = parse_tsv(tsv)
    assert int(header["count"]) == report.count
    assert int(header["failures"]) == report.failures
    assert summarize_rows(columns, rows) == summarize_rows(report.columns, report.rows)
    assert len(rows) == report.count


def test_summary_aggregates_sum_to_count():
    report = small_report()
    summary = summarize_rows(report.columns, report.rows)
    sizes = {k: v for k, v in summary.items() if k.startswith("size_")}
    assert sum(sizes.values()) == summary["instances"] == report.count
    assert summary["valid"] + summary["invalid"] == report.count


def test_emit_formats_deterministic():
    a, b = small_report(), small_report()
    for fmt in ("summary", "tsv"):
        assert emit(a, fmt) == emit(b, fmt)
    empty = Report(kind="coloring", n=3, mode="sample", seed=1,
                   columns=("instance", "ok"), rows=[], count=0, failures=0)
    tsv = emit(empty, "tsv")
    assert tsv.splitlines()[-1] == "instance\tok"  # header-only


def test_trace_format_replayable():
    report = sweep("coloring", 4, "sample", count=10, seed=7, want_traces=True)
    assert len(report.traces) == 10
    for i, line in enumerate(report.traces):
        trace = SolverTrace.from_json(line)
        coloring = make_coloring(4, (7 + i) & ((1 << 64) - 1))
        assert verify_trace(trace, coloring).ok


def test_sweep_kinds_run_clean():
    assert sweep("tournament", 4, "exhaustive").failures == 0
    assert sweep("order", 4, "exhaustive").failures == 0
    assert sweep("family", 6, "sample", count=50, seed=3).failures == 0
    assert sweep("coloring", 4, "sample", count=50, seed=3).failures == 0


def test_sweep_example_counts():
    five = sweep("coloring", 5, "exhaustive")
    assert (five.count, five.failures) == (1024, 0)
    four = sweep("tournament", 4, "exhaustive")
    assert (four.count, four.failures) == (64, 0)
    assert all(int(row[2]) == 1 for row in four.rows)  # transitive column
    two = sweep("coloring", 2, "exhaustive")
    assert (two.count, two.failures) == (2, 0)
    assert all(int(row[3]) == 2 for row in two.rows)  # both pairs fully homogeneous


def test_sweep_guards():
    with pytest.raises(ValueError):
        sweep("coloring", 9, "exhaustive")  # C(9,2) = 36 > 28
    with pytest.raises(ValueError):
        sweep("family", 4, "exhaustive")
    with pytest.raises(ValueError):
        sweep("coloring", 4, "sample")  # missing count/seed


def test_sweep_row_cap_keeps_counts():
    report = sweep("coloring", 4, "exhaustive", max_rows=10)
    assert report.count == 64 and len(report.rows) == 10 and report.truncated
    text = emit(report, "tsv")
    assert text.rstrip().endswith("# truncated")


def test_sweep_traces_obey_the_row_cap():
    full = sweep("coloring", 4, "sample", count=5, seed=1, want_traces=True)
    capped = sweep("coloring", 4, "sample", count=5, seed=1, max_rows=2, want_traces=True)
    assert len(full.traces) == 5
    assert capped.traces == full.traces[:2] and capped.count == 5 and capped.truncated
    assert sweep("coloring", 4, "exhaustive", max_rows=0, want_traces=True).traces == []
    code, out, _ = run_cli("sweep", "--kind", "coloring", "--n", "4", "--count", "5",
                           "--seed", "1", "--max-rows", "2", "--format", "trace")
    assert code == 0 and out == emit(capped, "trace") and len(out.splitlines()) == 2


def test_sweep_rejects_negative_limits():
    with pytest.raises(ValueError, match="max_rows"):
        sweep("coloring", 4, "exhaustive", max_rows=-5)
    with pytest.raises(ValueError, match="count"):
        sweep("tournament", 4, "exhaustive", count=-1)
    with pytest.raises(ValueError, match="count"):
        sweep("order", 4, "sample", count=-3, seed=1)
    for argv in (("sweep", "--kind", "coloring", "--n", "4", "--count", "5", "--seed", "1",
                  "--max-rows", "-5", "--format", "tsv"),
                 ("ramsey", "sweep", "--kind", "order", "--n", "4", "--exhaustive",
                  "--count", "-2")):
        code, out, err = run_cli(*argv)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "non-negative" in err


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_ord_roundtrip():
    code, out, _ = run_cli("ord", "eval", "w^(w)*2 + w*3 + 1")
    assert code == 0 and out.strip() == "w^(w)*2 + w*3 + 1"
    code, out, _ = run_cli("ord", "nat-add", "w + 1", "w")
    assert code == 0 and out.strip() == "w*2 + 1"
    code, out, _ = run_cli("ord", "compare", "w", "5")
    assert code == 0 and out.strip() == "GT"
    code, out, _ = run_cli("ord", "encode", "w")
    assert code == 0 and out.strip() == "2"
    code, out, _ = run_cli("ord", "decode", "2")
    assert code == 0 and out.strip() == "w"
    code, _, err = run_cli("ord", "eval", "w +")
    assert code == 1 and "position" in err


def test_cli_descent(tmp_path):
    log = tmp_path / "log.txt"
    log.write_text("k=2 bound=w\nt=0 e=0 v=5\nt=1 e=1 v=4\n")
    code, out, _ = run_cli("descent", "combine", str(log))
    assert code == 0
    assert out.splitlines() == ["bound=w*2", "w + 5", "9"]

    trace = tmp_path / "trace.txt"
    trace.write_text("bound=w\n5\n3\n")
    code, out, _ = run_cli("descent", "validate", str(trace))
    assert code == 0 and out.strip() == "ok length=2"

    trace.write_text("bound=w\n3\n5\n")
    code, out, _ = run_cli("descent", "validate", str(trace))
    assert code == 1 and "not-strictly-decreasing" in out


def test_cli_enum(tmp_path):
    log = tmp_path / "enum.txt"
    log.write_text("bound=5\nroot rank=3\nstage 1\nadd 0 rank=2\nadd 1 rank=1\n")
    code, out, _ = run_cli("enum", "measure", str(log))
    assert code == 0
    assert out.splitlines()[-1] == "decrease ok"

    bad = tmp_path / "bad.txt"
    bad.write_text("bound=5\nroot rank=3\nstage 1\nadd 0 rank=3\n")
    code, out, _ = run_cli("enum", "measure", str(bad))
    assert code == 1 and "kind=rank" in out

    code, out, _ = run_cli("enum", "run", "--style", "full",
                           "--depth", "2", "--branching", "2")
    assert code == 0 and out.strip() == "finished nodes=7 bound=27"

    code, out, _ = run_cli("enum", "check", str(log), "--bound", "1")
    assert code == 0


def test_cli_ramsey_and_exit_codes(tmp_path):
    target = tmp_path / "c6.txt"
    code, out, _ = run_cli("generate", "--kind", "coloring", "--n", "6",
                           "--seed", "1", "-o", str(target))
    assert code == 0
    code, out, _ = run_cli("ramsey", "solve", str(target))
    assert code == 0 and "size=" in out
    code, out, _ = run_cli("ramsey", "solve", str(target), "--format", "trace")
    assert code == 0
    trace = SolverTrace.from_json(out.strip())
    assert verify_trace(trace, parse_coloring(target.read_text())).ok

    t7 = tmp_path / "t.txt"
    run_cli("generate", "--kind", "tournament", "--n", "7", "--seed", "2", "-o", str(t7))
    code, out, _ = run_cli("ramsey", "em", str(t7))
    assert code == 0
    code, out, _ = run_cli("ramsey", "brute", str(t7), "--instance", "tournament")
    assert code == 0 and out.startswith("max=")

    fam = tmp_path / "fam.txt"
    run_cli("generate", "--kind", "family", "--n", "8", "--seed", "5", "-o", str(fam))
    code, out, _ = run_cli("ramsey", "coh", str(fam), "--target", "3")
    assert code == 0


def test_cli_generate_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    run_cli("generate", "--kind", "coloring", "--n", "5", "--seed", "0", "-o", str(a))
    run_cli("generate", "--kind", "coloring", "--n", "5", "--seed", "0", "-o", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_cli_sweep_deterministic_bytes():
    runs = [run_cli("sweep", "--kind", "coloring", "--n", "4", "--exhaustive",
                    "--format", "tsv") for _ in range(2)]
    assert runs[0][0] == 0
    assert runs[0][1] == runs[1][1]
    code, out, _ = run_cli("sweep", "--kind", "order", "--n", "5",
                           "--count", "25", "--seed", "9", "--format", "summary")
    assert code == 0 and "failures=0" in out


def test_cli_ramsey_sweep_alias():
    code, out, _ = run_cli("ramsey", "sweep", "--kind", "coloring", "--n", "5",
                           "--exhaustive")
    assert code == 0 and "count=1024" in out and "failures=0" in out
    code, _, err = run_cli("ramsey", "sweep")
    assert code == 1 and "--n" in err


def test_cli_ramsey_sweep_refuses_exhaustive_with_count():
    code, out, err = run_cli("ramsey", "sweep", "--kind", "tournament", "--n", "3",
                             "--exhaustive", "--count", "2")
    assert (code, out) == (1, "")
    assert err == "error: exhaustive sweeps take no count, got count=2\n"
    with pytest.raises(ValueError, match="take no count"):
        sweep("coloring", 3, "exhaustive", count=2)


def test_family_file_roundtrip():
    family = make_family(6, seed=2)
    assert parse_family(format_family(family)) == family
    empty = make_family(1, seed=0)
    assert parse_family(format_family(empty)) == empty


@pytest.mark.parametrize("kind", ["coloring", "tournament", "order", "family"])
@pytest.mark.parametrize("mode", ["exhaustive", "sample"])
def test_sweep_refuses_a_negative_n(kind, mode):
    count, seed = (0, None) if mode == "exhaustive" else (3, 1)
    with pytest.raises(ValueError, match=r"^n must be non-negative, got -2$"):
        sweep(kind, -2, mode, count=count, seed=seed)
    size = ["--exhaustive"] if mode == "exhaustive" else ["--count", "3"]
    code, out, err = run_cli("sweep", "--kind", kind, "--n", "-2", *size)
    assert (code, out, err) == (1, "", "error: n must be non-negative, got -2\n")

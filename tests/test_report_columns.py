"""The columnar report writers against the row-based reference
(tests/reference_report.py), byte for byte, and `eps0 sweep` stdout
across hash seeds."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import epsilon0
import reference_report as ref
from epsilon0.report import FORMATS, Report, _interned, emit
from epsilon0.sweep import sweep

UNBOUNDED = 1 << 62

EXHAUSTIVE = [("coloring", n) for n in (1, 2, 3, 5)] + [
    (kind, n) for kind in ("tournament", "order") for n in (0, 1, 2, 5)]
SAMPLED = [("coloring", n) for n in (1, 2, 6)] + [
    (kind, n) for kind in ("tournament", "order", "family") for n in (0, 1, 2, 9)]


def assert_emit_equals_the_reference(report):
    for fmt in FORMATS:
        assert emit(report, fmt) == ref.emit(report, fmt), fmt


@pytest.mark.parametrize("max_rows", [0, 1, 7, UNBOUNDED])
@pytest.mark.parametrize("kind, n", EXHAUSTIVE)
def test_exhaustive_reports_equal_the_reference(kind, n, max_rows):
    report = sweep(kind, n, "exhaustive", max_rows=max_rows, want_traces=True)
    assert len(report.rows) == min(report.count, max_rows)
    assert_emit_equals_the_reference(report)


@pytest.mark.parametrize("max_rows", [0, 1, 7, UNBOUNDED])
@pytest.mark.parametrize("kind, n", SAMPLED)
def test_sampled_reports_equal_the_reference(kind, n, max_rows):
    report = sweep(kind, n, "sample", count=40, seed=n + 3, max_rows=max_rows,
                   want_traces=True)
    assert len(report.rows) == min(40, max_rows)
    assert_emit_equals_the_reference(report)


@pytest.mark.parametrize("max_rows", [(1 << 16) - 1, (1 << 16) + 1])
def test_a_row_cap_next_to_a_chunk_boundary_equals_the_reference(max_rows):
    report = sweep("tournament", 7, "exhaustive", max_rows=max_rows)
    assert report.count == 1 << 21 and report.truncated
    rows = report.rows
    assert len(rows) == max_rows and [row[0] for row in rows] == list(range(max_rows))
    for fmt in ("summary", "tsv"):
        assert emit(report, fmt) == ref.emit(report, fmt), fmt


def test_rows_is_a_read_only_view_of_the_cells():
    report = sweep("order", 3, "exhaustive")
    assert report.rows == [(i, *row) for i, row in enumerate(zip(
        *(column.tolist() for column in report.cells[1:])))]
    assert all(type(cell) in (int, str) for row in report.rows for cell in row)
    with pytest.raises(AttributeError):
        report.rows = []


def test_many_wide_and_mixed_columns_equal_the_reference():
    # Each uint8 column multiplies the row key by 256: past eight of them
    # the first would be shifted out of an int64 unless the key is
    # renumbered on the way.  Wide ints, strings and lists mixed in.
    rng = np.random.default_rng(16)
    count = 3000
    flags = [rng.integers(0, 256, count).astype(np.uint8)] + [np.zeros(count, np.uint8)] * 8
    cells = (range(count), *flags, rng.choice([-(1 << 61), 0, 1 << 61], count),
             tuple(rng.choice(["up", "down", "-"], count).tolist()),
             rng.integers(0, 2, count).astype(np.uint8), rng.integers(0, 4, count).tolist())
    columns = ("instance", *(f"f{i}" for i in range(9)), "wide", "direction", "ok", "size")
    report = Report(kind="coloring", n=5, mode="sample", seed=1, columns=columns,
                    cells=cells, count=count + 5, failures=2, truncated=True)
    assert_emit_equals_the_reference(report)


def test_interned_rows_renumber_keys_that_would_overflow():
    # Nine columns of values up to 255 span 2^72 keys, past an int64, so
    # the keys are renumbered on the way; a string column is matched by
    # equality and wide ints by a sort.
    rng = np.random.default_rng(17)
    count = 2000
    columns = [rng.integers(0, 256, count).astype(np.uint8) for _ in range(9)]
    columns += [rng.choice(["ascending", "descending"], count),
                rng.choice([-(1 << 61), 7, 1 << 61], count), rng.integers(0, 2, count) == 1]
    written = []

    def write(*row):
        written.append(row)
        return repr(row)

    rows = list(zip(*(column.tolist() for column in columns)))
    assert _interned(count, columns, write) == [repr(row) for row in rows]
    assert sorted(written) == sorted(set(rows))
    cells = (range(count), *columns)
    report = Report(kind="order", n=5, mode="sample", seed=1,
                    columns=("instance", *(f"c{i}" for i in range(12))), cells=cells,
                    count=count, failures=0)
    assert_emit_equals_the_reference(report)


def test_interned_rows_share_one_string_per_distinct_row():
    columns = [np.array([3, 1, 3, 3], dtype=np.uint8), np.array(["a", "b", "a", "a"])]
    lines = _interned(4, columns, lambda *row: "".join(map(str, row)))
    assert lines == ["3a", "1b", "3a", "3a"]
    assert lines[0] is lines[2] is lines[3]


SWEEP_SCRIPT = """
import hashlib, io, sys
from contextlib import redirect_stderr, redirect_stdout
from epsilon0.cli import main
for argv in sys.argv[1:]:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(argv.split())
    print(code, len(out.getvalue()), hashlib.sha256(out.getvalue().encode()).hexdigest())
"""

SWEEPS = ["--kind coloring --n 4 --exhaustive", "--kind tournament --n 5 --exhaustive",
          "--kind order --n 5 --exhaustive", "--kind coloring --n 6 --count 30 --seed 9",
          "--kind tournament --n 9 --count 30 --seed 9", "--kind order --n 12 --count 30 --seed 9",
          "--kind family --n 8 --count 30 --seed 9",
          "--kind tournament --n 4 --exhaustive --max-rows 7"]


def test_sweep_stdout_is_the_same_under_two_hash_seeds():
    argvs = [f"sweep {sweep_args} --format {fmt}" for sweep_args in SWEEPS for fmt in FORMATS]
    src = str(Path(epsilon0.__file__).resolve().parents[1])
    outputs = []
    for seed in ("0", "4242"):
        done = subprocess.run([sys.executable, "-c", SWEEP_SCRIPT, *argvs], capture_output=True,
                              text=True, timeout=300,
                              env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed))
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout.splitlines())
    assert outputs[0] == outputs[1]
    assert len(outputs[0]) == len(argvs)
    assert all(line.startswith("0 ") and int(line.split()[1]) > 0
               for line, argv in zip(outputs[0], argvs) if "trace" not in argv)

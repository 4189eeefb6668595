"""The columnar report writers against the row-based reference
(tests/reference_report.py), byte for byte, and `Report.rows` as the
cells row by row with `direction` codes as their words."""

import numpy as np
import pytest

import reference_report as ref
from epsilon0.report import _WORDS, Report, _interned, emit
from epsilon0.sweep import sweep
from support import assert_emit_equals_the_reference

UNBOUNDED = 1 << 62

EXHAUSTIVE = [("coloring", n) for n in (1, 2, 3, 5)] + [
    (kind, n) for kind in ("tournament", "order") for n in (0, 1, 2, 5)]
SAMPLED = [("coloring", n) for n in (1, 2, 6)] + [
    (kind, n) for kind in ("tournament", "order", "family") for n in (0, 1, 2, 9)]


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
    for kind, mode in [(kind, mode) for kind in ("coloring", "order")
                       for mode in ("exhaustive", "sample")]:
        report = sweep(kind, 4, mode, count=0 if mode == "exhaustive" else 30, seed=2)
        at = report.columns.index("direction")
        codes = report.cells[at]
        assert codes.dtype.kind in "iu" and set(codes.tolist()) == {0, 1}
        cells = [column.tolist() for column in report.cells[1:]]
        cells[at - 1] = [_WORDS["direction"][code] for code in cells[at - 1]]
        assert report.rows == [(i, *row) for i, row in enumerate(zip(*cells))]
        assert [row[at] for row in report.rows] == [
            "ascending" if code else "descending" for code in codes.tolist()]
        assert all(type(cell) is int for row in report.rows for cell in row[:at] + row[at + 1:])
        with pytest.raises(AttributeError):
            report.rows = []


def test_many_wide_and_mixed_columns_equal_the_reference():
    # Each uint8 column multiplies the row key by 256: past eight of them
    # the first would be shifted out of an int64 unless the key is
    # renumbered on the way.  Wide ints, direction codes, tuples and lists
    # mixed in.
    rng = np.random.default_rng(16)
    count = 3000
    flags = [rng.integers(0, 256, count).astype(np.uint8)] + [np.zeros(count, np.uint8)] * 8
    cells = (range(count), *flags, rng.choice([-(1 << 61), 0, 1 << 61], count),
             tuple(rng.integers(0, 2, count).tolist()),
             rng.integers(0, 2, count).astype(np.uint8), rng.integers(0, 4, count).tolist())
    columns = ("instance", *(f"f{i}" for i in range(9)), "wide", "direction", "ok", "size")
    report = Report(kind="coloring", n=5, mode="sample", seed=1, columns=columns,
                    cells=cells, count=count + 5, failures=2, truncated=True)
    assert_emit_equals_the_reference(report)


def test_interned_rows_renumber_keys_that_would_overflow():
    # Nine columns of values up to 255 span 2^72 keys, past an int64, so
    # the keys are renumbered on the way; wide ints are ranked by a sort.
    rng = np.random.default_rng(17)
    count = 2000
    columns = [rng.integers(0, 256, count).astype(np.uint8) for _ in range(9)]
    columns += [rng.choice([300, 70_000], count),
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
    columns = [np.array([3, 1, 3, 3], dtype=np.uint8), np.array([700, 9, 700, 700])]
    lines = _interned(4, columns, lambda *row: "".join(map(str, row)))
    assert lines == ["3700", "19", "3700", "3700"]
    assert lines[0] is lines[2] is lines[3]

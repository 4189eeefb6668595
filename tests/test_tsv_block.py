"""The byte-block tsv writer and the dense row keys of `epsilon0.report`
against the row-based writers of tests/reference_report.py, byte for
byte: instance ids at decimal digit boundaries, list and empty instance
columns, key spaces that are renumbered on the way, the errors for ids
that are not non-negative ints and for cells that are not ints, and the
benchmark's own exhaustive sweeps in every format."""

import numpy as np
import pytest

import reference_report as ref
from epsilon0 import report as report_mod
from epsilon0.report import Report, _interned, emit
from epsilon0.sweep import sweep
from support import assert_emit_equals_the_reference


def sample_report(columns, cells, **fields):
    config = dict(kind="order", n=5, mode="sample", seed=1, count=len(cells[0]), failures=0)
    return Report(columns=tuple(columns), cells=tuple(cells), **{**config, **fields})


@pytest.mark.parametrize("max_rows", [9, 10, 11, 99, 100, 101, 9_999, 10_000, 10_001])
def test_rows_capped_at_a_digit_boundary_equal_the_reference(max_rows):
    report = sweep("tournament", 6, "exhaustive", max_rows=max_rows)
    assert report.truncated and len(report.rows) == max_rows
    assert_emit_equals_the_reference(report, ("summary", "tsv"))
    last = emit(report, "tsv").splitlines()[-2]
    assert last.split("\t")[0] == str(max_rows - 1)


def test_a_list_instance_column_equals_the_reference():
    ids = [7, 0, 10, 99_999, 100_000, 3, 0, 1 << 40]
    sizes = np.array([1, 2, 3, 1, 2, 3, 1, 2], dtype=np.uint8)
    report = sample_report(("instance", "size", "ok"), (ids, sizes, [1, 0] * 4))
    assert_emit_equals_the_reference(report)
    lines = emit(report, "tsv").splitlines()
    assert [line.split("\t")[0] for line in lines[-len(ids):]] == [str(i) for i in ids]


@pytest.mark.parametrize("instance", [[], range(0), np.zeros(0, dtype=np.int64)])
def test_an_empty_instance_column_writes_the_header_only(instance):
    report = sample_report(("instance", "direction", "ok"), (instance, (), ()))
    assert_emit_equals_the_reference(report)
    assert emit(report, "tsv").splitlines()[-1] == "instance\tdirection\tok"


def test_a_one_column_report_equals_the_reference():
    report = sample_report(("instance",), (range(12),))
    assert_emit_equals_the_reference(report)


def test_key_spaces_renumbered_more_than_once_equal_the_reference(monkeypatch):
    # Nine columns of values below 8 span 8^9 keys: the key space passes
    # 8 * rows + 256 after the fifth column and again after each later
    # pair, and each time the keys are renumbered densely.  A last column
    # of many wide ints is joined to many distinct keys by a sort.
    renumbered = []
    dense = report_mod._dense

    def counting_dense(key, space):
        renumbered.append(space)
        return dense(key, space)

    monkeypatch.setattr(report_mod, "_dense", counting_dense)
    rng = np.random.default_rng(18)
    count = 2000
    columns = [rng.integers(0, 8, count).astype(np.uint8) for _ in range(9)]
    columns.append(rng.integers(0, 1 << 40, count) * np.where(rng.random(count) < 0.5, 1, -1))
    rows = list(zip(*(column.tolist() for column in columns)))
    assert _interned(count, columns, lambda *row: repr(row)) == [repr(row) for row in rows]
    assert len(renumbered) >= 3        # at least twice on the way, once at the end
    assert max(renumbered) <= 8 * count + 256
    renumbered.clear()
    report = sample_report(("instance", *(f"c{i}" for i in range(10))), (range(count), *columns))
    assert_emit_equals_the_reference(report)
    assert len(renumbered) >= 3


@pytest.mark.parametrize("instance", [[0, -1], range(-1, 2), np.array([3, -2]),
                                      [0.0, 1.0], ["0", "1"], [True, False],
                                      np.array([1 << 63], dtype=np.uint64), [0, 1 << 70]])
def test_an_instance_that_is_no_non_negative_int_is_refused(instance):
    report = sample_report(("instance", "ok"), (instance, [1] * len(instance)))
    with pytest.raises(ValueError, match="^instance ids must be non-negative ints$"):
        emit(report, "tsv")
    assert emit(report, "summary") == ref.emit(report, "summary")


@pytest.mark.parametrize("kind, n, want_traces", [("coloring", 6, True),
                                                  ("tournament", 6, False),
                                                  ("order", 8, False)])
def test_the_benchmark_sweeps_equal_the_reference(kind, n, want_traces):
    report = sweep(kind, n, "exhaustive", want_traces=want_traces)
    assert not report.truncated and len(report.rows) == report.count
    assert len(report.traces) == (report.count if want_traces else 0)
    assert_emit_equals_the_reference(report)


@pytest.mark.parametrize("cells", [
    ("up", "down", "up"),                                 # str
    np.array(["ascending", "descending", "ascending"]),  # a numpy str column
    (0.5, 1.0, 2.0),                                      # float
    np.array([np.nan, 1.0, np.nan]),
    np.array([1, 2, 1], dtype=object),                    # object
    np.array(["a\x00", "a", "a\x00"], dtype=object),
    (0, 1 << 70, 1),                                      # past int64
])
def test_a_cell_that_is_no_int_is_refused(cells):
    report = sample_report(("instance", "d", "ok"), (range(3), cells, [1, 0, 1]))
    with pytest.raises(ValueError, match="^report cells must be ints$"):
        emit(report, "tsv")
    assert emit(report, "summary") == ref.emit(report, "summary")

"""Run reports with deterministic serialization.

A Report carries the run configuration, the per-instance cells column by
column (`rows` is a derived, read-only view of them row by row), aggregate
counters derived purely from the cells, and the wall-clock time.  All
emitted formats are byte-deterministic for a fixed configuration; the
wall-clock never appears in them (callers print it to stderr if they want
it).  Three formats:

* tsv: `# key<TAB>value` header lines, a column-name line, then one row
  per instance (possibly capped, with a trailing `# truncated` marker),
  written as one byte block: each distinct row tail (the cells after
  `instance`) formatted and encoded once, the instance digits in numpy;
* summary: the aggregates, one `key=value` per line;
* trace: one JSON document per instance for runs that produce replayable
  solver traces.

`summarize` recomputes the aggregates from the cells alone, which is what
ties the summary to the tsv (parse a tsv back and you must get the same
summary).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

# numpy is imported by each function that builds an array, never at the top:
# `import epsilon0` and the ordinal verbs then load none (see README.md).

__all__ = ["Report", "summarize", "emit", "parse_tsv"]

FORMATS = ("summary", "tsv", "trace")

#: The words of the code columns: `direction` is 1 for an ascending run.
_WORDS = {"direction": ("descending", "ascending")}


@dataclass
class Report:
    kind: str
    n: int
    mode: str                      # "exhaustive" or "sample"
    seed: Optional[int]
    columns: Tuple[str, ...]
    cells: Tuple[Sequence, ...]    # one per column, ints, rows kept only (else tsv:
                                   # ValueError); `instance` ids are ints >= 0
    count: int                     # instances run (rows may be capped)
    failures: int
    truncated: bool = False
    traces: List[str] = field(default_factory=list)  # JSON lines
    wall_clock: float = 0.0        # never serialized into reports

    @property
    def rows(self) -> List[Tuple]:
        """The cells as one tuple of Python values per row, codes as words."""
        import numpy as np
        columns = [c.tolist() if isinstance(c, np.ndarray) else c for c in self.cells]
        return list(zip(*([_WORDS[name][code] for code in column] if name in _WORDS else column
                          for name, column in zip(self.columns, columns))))

    def config_items(self) -> List[Tuple[str, str]]:
        return [
            ("kind", self.kind),
            ("n", str(self.n)),
            ("mode", self.mode),
            ("seed", "-" if self.seed is None else str(self.seed)),
            ("count", str(self.count)),
            ("failures", str(self.failures)),
        ]


def summarize(columns: Sequence[str], cells: Sequence[Sequence]) -> Dict[str, int]:
    """Aggregates recomputed from the cells of each column (ints or their
    decimal strings): total, ok/failed counts from the `ok` column if
    present, and a size histogram from the `size` column."""
    import numpy as np
    kept = len(cells[0]) if cells else 0
    out: Dict[str, int] = {"instances": kept}
    if "ok" in columns:
        ok = np.count_nonzero(np.asarray(cells[columns.index("ok")], dtype=np.int64) == 1)
        out["valid"] = int(ok)
        out["invalid"] = kept - int(ok)
    if "size" in columns:
        hist = np.bincount(np.asarray(cells[columns.index("size")], dtype=np.int64))
        for size in np.flatnonzero(hist).tolist():
            out[f"size_{size}"] = int(hist[size])
    return out


def _dense(key: np.ndarray, space: int) -> Tuple[np.ndarray, int]:
    """(the keys in [0, space) renumbered in order to [0, distinct), distinct),
    by marks in a bool array of `space` entries and their running count."""
    import numpy as np
    present = np.zeros(space, dtype=bool)
    present[key] = True
    rank = np.cumsum(present) - 1
    return rank[key], int(rank[-1]) + 1


def _distinct(rows: int, columns: Sequence[Sequence], write: Callable[..., str]
              ) -> Tuple[List[str], np.ndarray]:
    """`write(*cells)` of each distinct row of the int columns, from any one
    row of it, and the index of every row's text.  Ints in [0, 256) code
    themselves and others are ranked by `np.unique`; the codes join into
    one key per row, renumbered by `_dense` whenever the key space would
    pass a small multiple of `rows` (by a sort if even that is too small).
    ValueError for a column that is not ints."""
    import numpy as np
    if not rows:
        return [], np.zeros(0, dtype=np.intp)
    key, space, limit = np.zeros(rows, dtype=np.intp), 1, 8 * rows + 256
    given = [np.asarray(column) for column in columns]
    for column in given:
        if column.dtype.kind not in "biu":
            raise ValueError("report cells must be ints")
        if 0 <= column.min() and column.max() < 256:
            size = int(column.max()) + 1
        else:
            values, column = np.unique(column, return_inverse=True)
            size = len(values)
        if space * size > limit:
            key, space = _dense(key, space)
        key, space = key * size + column, space * size
        if space > limit:
            values, key = np.unique(key, return_inverse=True)
            space = len(values)
    inverse, distinct = _dense(key, space)
    first = np.empty(distinct, dtype=np.intp)
    first[inverse] = np.arange(rows)
    cells = [column[first].tolist() for column in given]
    return [write(*(column[i] for column in cells)) for i in range(distinct)], inverse


def _interned(rows: int, columns: Sequence[Sequence], write: Callable[..., str]) -> List[str]:
    """`write(*cells)` of every row, one string per distinct row (`_distinct`)."""
    import numpy as np
    texts, inverse = _distinct(rows, columns, write)
    return np.array(texts, dtype=object)[inverse].tolist()


def _row_text(columns: Sequence[str], cells: Sequence[Sequence]) -> str:
    """The tsv lines of every row as one string: a uint8 block of rows x
    (digits + width) holds the decimal digits of each instance id, then its
    tail (`\t`-led cells after `instance`, `\n`-ended, codes of a column in
    `_WORDS` as their words) from a zero-padded table of the distinct tails'
    bytes; a mask of the same shape keeps the significant digits and each
    tail's true length, decoded once."""
    import numpy as np
    rows, ids = len(cells[0]), cells[0]
    if not rows:
        return ""
    ids = np.arange(ids.start, ids.stop, ids.step) if isinstance(ids, range) else np.asarray(ids)
    if ids.dtype.kind in "iu":
        ids = ids.astype(np.int64)                # past 2^63 reads as negative
    if ids.dtype != np.int64 or ids.min() < 0:
        raise ValueError("instance ids must be non-negative ints")
    names, line = columns[1:], ("\t{}" * (len(cells) - 1) + "\n").format
    texts, inverse = _distinct(rows, cells[1:], lambda *tail: line(*(
        _WORDS[name][cell] if name in _WORDS else cell for name, cell in zip(names, tail))))
    encoded = [text.encode() for text in texts]
    table = np.array(encoded).view(np.uint8).reshape(len(encoded), -1)    # NUL-padded
    digits, width = len(str(ids.max())), table.shape[1]
    tails = np.arange(width) < np.array([len(text) for text in encoded])[:, None]
    block = np.empty((rows, digits + width), dtype=np.uint8)
    keep = np.empty(block.shape, dtype=bool)
    for out, source in ((block, table), (keep, tails)):     # one `width`-byte item per row
        out[:, digits:].view(f"V{width}")[:, 0] = source.view(f"V{width}")[inverse, 0]
    for j in reversed(range(digits)):             # the last digit first
        block[:, j], keep[:, j] = ids % 10 + 48, ids != 0
        ids = ids // 10
    keep[:, digits - 1] = True                    # 0 is one digit
    return block[keep].tobytes().decode()


def _emit_summary(report: Report) -> str:
    lines = [f"{k}={v}" for k, v in report.config_items()]
    for k, v in summarize(report.columns, report.cells).items():
        lines.append(f"{k}={v}")
    if report.truncated:
        lines.append("rows_truncated=1")
    return "\n".join(lines) + "\n"


def _emit_tsv(report: Report) -> str:
    lines = [f"# {k}\t{v}\n" for k, v in report.config_items()]
    lines += ["\t".join(report.columns) + "\n", _row_text(report.columns, report.cells)]
    if report.truncated:
        lines.append("# truncated\n")
    return "".join(lines)


def emit(report: Report, fmt: str) -> str:
    if fmt == "summary":
        return _emit_summary(report)
    if fmt == "tsv":
        return _emit_tsv(report)
    if fmt == "trace":
        return "\n".join(report.traces) + "\n" if report.traces else ""
    raise ValueError(f"unknown format {fmt!r}; expected one of {FORMATS}")


def parse_tsv(text: str) -> Tuple[Dict[str, str], Tuple[str, ...], List[Tuple[str, ...]]]:
    """Invert _emit_tsv: (header dict, columns, rows of strings)."""
    header: Dict[str, str] = {}
    columns: Tuple[str, ...] = ()
    rows: List[Tuple[str, ...]] = []
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("# ") and "\t" in line:
            key, _, value = line[2:].partition("\t")
            header[key] = value
            continue
        if line == "# truncated":
            header["truncated"] = "1"
            continue
        if not columns:
            columns = tuple(line.split("\t"))
        else:
            rows.append(tuple(line.split("\t")))
    return header, columns, rows

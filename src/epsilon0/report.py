"""Run reports with deterministic serialization.

A Report carries the run configuration, the per-instance cells column by
column (`rows` is a derived, read-only view of them row by row), aggregate
counters derived purely from the cells, and the wall-clock time.  All
emitted formats are byte-deterministic for a fixed configuration; the
wall-clock never appears in them (callers print it to stderr if they want
it).  Three formats:

* tsv: `# key<TAB>value` header lines, a column-name line, then one row
  per instance, each distinct row tail (the cells after `instance`)
  formatted once (possibly capped, with a trailing `# truncated` marker);
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

import numpy as np

__all__ = ["Report", "summarize", "emit", "parse_tsv"]

FORMATS = ("summary", "tsv", "trace")


@dataclass
class Report:
    kind: str
    n: int
    mode: str                      # "exhaustive" or "sample"
    seed: Optional[int]
    columns: Tuple[str, ...]
    cells: Tuple[Sequence, ...]    # one per column, ints or strings, rows kept only
    count: int                     # instances run (rows may be capped)
    failures: int
    truncated: bool = False
    traces: List[str] = field(default_factory=list)  # JSON lines
    wall_clock: float = 0.0        # never serialized into reports

    @property
    def rows(self) -> List[Tuple]:
        """The cells as one tuple of Python ints and strings per row."""
        return list(zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in self.cells)))

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


def _interned(rows: int, columns: Sequence[Sequence], write: Callable[..., str]) -> List[str]:
    """`write(*cells)` of each of the `rows` rows of the columns, called
    once per distinct row and shared by the rows equal to it.  Each column
    is coded as ints: strings (the two `direction` values) by matching
    each distinct value in turn, with no string sort; ints in [0, 256)
    stand for themselves and others are ranked.  The codes join into one
    int64 key per row, the keys so far renumbered whenever the next column
    would overflow it."""
    key, space = np.zeros(rows, dtype=np.int64), 1
    for column in map(np.asarray, columns):
        if column.dtype.kind not in "biu":
            codes = np.full(rows, -1)
            while (codes < 0).any():
                codes[column == column[codes.argmin()]] = codes.max() + 1
            column = codes
        if len(column) and 0 <= column.min() and column.max() < 256:
            size = int(column.max()) + 1
        else:
            values, column = np.unique(column, return_inverse=True)
            size = len(values)
        if space * size >= 1 << 62:
            values, key = np.unique(key, return_inverse=True)
            space = len(values)
        key, space = key * size + column, space * size
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    cells = [np.asarray(column)[first].tolist() for column in columns]
    texts = [write(*(column[i] for column in cells)) for i in range(len(first))]
    return np.array(texts, dtype=object)[inverse].tolist()


def _row_lines(cells: Sequence[Sequence]) -> List[str]:
    """The tsv line of every row, newline included: `str(instance)` joined
    to its tail, each distinct tail formatted once."""
    if not cells:
        return []
    tails = _interned(len(cells[0]), cells[1:], ("\t{}" * (len(cells) - 1) + "\n").format)
    return [f"{instance}{tail}" for instance, tail in zip(cells[0], tails)]


def _emit_summary(report: Report) -> str:
    lines = [f"{k}={v}" for k, v in report.config_items()]
    for k, v in summarize(report.columns, report.cells).items():
        lines.append(f"{k}={v}")
    if report.truncated:
        lines.append("rows_truncated=1")
    return "\n".join(lines) + "\n"


def _emit_tsv(report: Report) -> str:
    lines = [f"# {k}\t{v}\n" for k, v in report.config_items()]
    lines.append("\t".join(report.columns) + "\n")
    lines += _row_lines(report.cells)
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

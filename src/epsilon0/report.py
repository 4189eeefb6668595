"""Run reports with deterministic serialization.

A Report carries the run configuration, per-instance rows, aggregate
counters derived purely from the rows, and the wall-clock time.  All
emitted formats are byte-deterministic for a fixed configuration; the
wall-clock never appears in them (callers print it to stderr if they want
it).  Three formats:

* tsv: `# key<TAB>value` header lines, a column-name line, then one row
  per instance (possibly capped, with a trailing `# truncated` marker);
* summary: the aggregates, one `key=value` per line;
* trace: one JSON document per instance for runs that produce replayable
  solver traces.

`summarize_rows` recomputes the aggregates from rows alone, which is what
ties the summary to the tsv (parse a tsv back and you must get the same
summary).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["Report", "summarize_rows", "emit", "parse_tsv"]

FORMATS = ("summary", "tsv", "trace")


@dataclass
class Report:
    kind: str
    n: int
    mode: str                      # "exhaustive" or "sample"
    seed: Optional[int]
    columns: Tuple[str, ...]
    rows: List[Tuple]              # cells are ints or strings
    count: int                     # instances run (rows may be capped)
    failures: int
    truncated: bool = False
    traces: List[str] = field(default_factory=list)  # JSON lines
    wall_clock: float = 0.0        # never serialized into reports

    def config_items(self) -> List[Tuple[str, str]]:
        return [
            ("kind", self.kind),
            ("n", str(self.n)),
            ("mode", self.mode),
            ("seed", "-" if self.seed is None else str(self.seed)),
            ("count", str(self.count)),
            ("failures", str(self.failures)),
        ]


def _value_counts(rows: Sequence[Tuple], column: int) -> Counter:
    """How often each integer value occurs in one column, with one int() per distinct cell."""
    counts: Counter = Counter()
    for cell, times in Counter(map(itemgetter(column), rows)).items():
        counts[int(cell)] += times
    return counts


def summarize_rows(columns: Sequence[str], rows: Sequence[Tuple]) -> Dict[str, int]:
    """Aggregates recomputed from rows: total, ok/failed counts from the
    `ok` column if present, and a size histogram from the `size` column."""
    out: Dict[str, int] = {"instances": len(rows)}
    if "ok" in columns:
        ok = _value_counts(rows, list(columns).index("ok"))[1]
        out["valid"] = ok
        out["invalid"] = len(rows) - ok
    if "size" in columns:
        hist = _value_counts(rows, list(columns).index("size"))
        for size in sorted(hist):
            out[f"size_{size}"] = hist[size]
    return out


def _emit_summary(report: Report) -> str:
    lines = [f"{k}={v}" for k, v in report.config_items()]
    for k, v in summarize_rows(report.columns, report.rows).items():
        lines.append(f"{k}={v}")
    if report.truncated:
        lines.append("rows_truncated=1")
    return "\n".join(lines) + "\n"


def _emit_tsv(report: Report) -> str:
    lines = [f"# {k}\t{v}" for k, v in report.config_items()]
    lines.append("\t".join(report.columns))
    for row in report.rows:
        lines.append("\t".join(str(c) for c in row))
    if report.truncated:
        lines.append("# truncated")
    return "\n".join(lines) + "\n"


def _emit_trace(report: Report) -> str:
    return "".join(line + "\n" for line in report.traces)


def emit(report: Report, fmt: str) -> str:
    if fmt == "summary":
        return _emit_summary(report)
    if fmt == "tsv":
        return _emit_tsv(report)
    if fmt == "trace":
        return _emit_trace(report)
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

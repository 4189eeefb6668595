"""The row-based summary, tsv and trace writers as they read one Python
tuple per row (`str()` on every cell, a second count over the cells),
kept verbatim as the reference for the columnar writers in
`epsilon0.report`.  They read a Report through `rows`, `columns`,
`config_items()`, `truncated` and `traces` only."""

from collections import Counter
from operator import itemgetter
from typing import Dict, Sequence, Tuple

from epsilon0.report import Report


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
    return {"summary": _emit_summary, "tsv": _emit_tsv, "trace": _emit_trace}[fmt](report)

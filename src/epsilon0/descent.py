"""Strictly decreasing ordinal sequences and the k-stream descent combiner.

A DescentTrace certifies a finite strict descent below an explicit bound.
A StreamEventLog records k interleaved partial descents below a common
bound; `gamma_combine` merges them into one trace below bound * k (natural
multiple) by emitting, at every event, the natural sum of the latest value
seen on each stream (streams that have not spoken yet count as the bound
itself).  Exactly one summand strictly drops per event, so the combined
sequence strictly decreases.

Log file format (one log per file)::

    k=<int> bound=<ordinal>
    t=<int> e=<int> v=<ordinal>
    ...

using the ordinal text grammar from `epsilon0.ordinal`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .ordinal import (
    LT,
    Ordinal,
    compare,
    format_ordinal,
    nat_add,
    nat_mul_k,
    parse_ordinal,
)

__all__ = [
    "DescentTrace", "DescentViolation", "StreamEvent", "StreamEventLog",
    "MalformedLogError", "validate_descent", "residual", "gamma_combine",
    "parse_event_log", "format_event_log", "format_descent_trace",
]

BOUND = "bound"
NOT_DECREASING = "not-strictly-decreasing"


class MalformedLogError(ValueError):
    """A StreamEventLog violates its invariants."""


@dataclass(frozen=True)
class DescentTrace:
    """A candidate strict descent: every value < bound, strictly decreasing."""

    bound: Ordinal
    values: Tuple[Ordinal, ...]

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class DescentViolation:
    index: int
    reason: str  # BOUND or NOT_DECREASING


def validate_descent(trace: DescentTrace) -> Optional[DescentViolation]:
    """None if the trace is a valid descent, else the first violation.

    At each index the bound check runs before the monotonicity check.
    """
    prev: Optional[Ordinal] = None
    for i, v in enumerate(trace.values):
        if compare(v, trace.bound) != LT:
            return DescentViolation(i, BOUND)
        if prev is not None and compare(v, prev) != LT:
            return DescentViolation(i, NOT_DECREASING)
        prev = v
    return None


@dataclass(frozen=True)
class StreamEvent:
    time: int
    stream: int
    value: Ordinal


@dataclass(frozen=True)
class StreamEventLog:
    """Time-ordered emissions of k descending streams below a shared bound."""

    k: int
    bound: Ordinal
    events: Tuple[StreamEvent, ...]

    def check(self) -> None:
        """Raise MalformedLogError on any invariant violation."""
        if self.k < 0:
            raise MalformedLogError("k must be non-negative")
        last_time = -1
        last_value: Dict[int, Ordinal] = {}
        for ev in self.events:
            if not 0 <= ev.stream < self.k:
                raise MalformedLogError(f"stream {ev.stream} out of range [0,{self.k})")
            if ev.time <= last_time:
                raise MalformedLogError(f"times must strictly increase (t={ev.time})")
            last_time = ev.time
            if compare(ev.value, self.bound) != LT:
                raise MalformedLogError(
                    f"value {format_ordinal(ev.value)} not below bound at t={ev.time}")
            prev = last_value.get(ev.stream)
            if prev is not None and compare(ev.value, prev) != LT:
                raise MalformedLogError(
                    f"stream {ev.stream} not strictly decreasing at t={ev.time}")
            last_value[ev.stream] = ev.value


def residual(log: StreamEventLog, stream: int, t: int) -> Ordinal:
    """Last value emitted by `stream` at time <= t, or the bound if none.

    Non-increasing in t for every fixed stream.
    """
    if not 0 <= stream < log.k:
        raise IndexError(f"stream {stream} out of range [0,{log.k})")
    value = log.bound
    for ev in log.events:
        if ev.time > t:
            break
        if ev.stream == stream:
            value = ev.value
    return value


def gamma_combine(log: StreamEventLog) -> DescentTrace:
    """Merge k partial descents below b into one descent below b * k.

    One output value per event: the natural sum over all k streams of the
    latest value each has emitted (bound if silent so far).
    """
    log.check()
    # Only the streams that have spoken are stored; the silent ones add
    # up to one natural multiple of the bound, so memory and time follow
    # the events, not k.
    latest: Dict[int, Ordinal] = {}
    values: List[Ordinal] = []
    for ev in log.events:
        latest[ev.stream] = ev.value
        total = nat_mul_k(log.bound, log.k - len(latest))
        for v in latest.values():
            total = nat_add(total, v)
        values.append(total)
    return DescentTrace(bound=nat_mul_k(log.bound, log.k), values=tuple(values))


# ---------------------------------------------------------------------------
# Log and trace text formats
# ---------------------------------------------------------------------------

_HEADER_RE = re.compile(r"^k=([0-9]+)\s+bound=(.+)$")
_EVENT_RE = re.compile(r"^t=([0-9]+)\s+e=([0-9]+)\s+v=(.+)$")


def parse_event_log(text: str) -> StreamEventLog:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise MalformedLogError("empty log")
    header = _HEADER_RE.match(lines[0])
    if header is None:
        raise MalformedLogError(f"bad header: {lines[0]!r}")
    events = []
    for ln in lines[1:]:
        match = _EVENT_RE.match(ln)
        if match is None:
            raise MalformedLogError(f"bad event line: {ln!r}")
        events.append(StreamEvent(int(match.group(1)), int(match.group(2)),
                                  parse_ordinal(match.group(3))))
    return StreamEventLog(k=int(header.group(1)), bound=parse_ordinal(header.group(2)),
                          events=tuple(events))


def format_event_log(log: StreamEventLog) -> str:
    lines = [f"k={log.k} bound={format_ordinal(log.bound)}"]
    lines.extend(f"t={ev.time} e={ev.stream} v={format_ordinal(ev.value)}"
                 for ev in log.events)
    return "\n".join(lines) + "\n"


def format_descent_trace(trace: DescentTrace) -> str:
    lines = [f"bound={format_ordinal(trace.bound)}"]
    lines.extend(format_ordinal(v) for v in trace.values)
    return "\n".join(lines) + "\n"


def parse_descent_trace(text: str) -> DescentTrace:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("bound="):
        raise ValueError("descent trace must start with a bound= line")
    bound = parse_ordinal(lines[0][len("bound="):])
    return DescentTrace(bound=bound, values=tuple(parse_ordinal(ln) for ln in lines[1:]))

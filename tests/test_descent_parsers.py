"""The event-log and descent-trace parsers: round trips, and malformed text
that must end in ValueError (and, from the CLI, `error: ...` with exit
code 1).

A coefficient past 64 bits raises OrdinalOverflowError, the documented
error of the ordinal layer (an ArithmeticError).  The examples are drawn
with `derandomize=True, database=None`, so a run writes no example
database."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epsilon0.descent import (
    DescentTrace, MalformedLogError, StreamEvent, StreamEventLog, format_descent_trace,
    format_event_log, parse_descent_trace, parse_event_log,
)
from epsilon0.ordinal import COEFF_LIMIT, from_int
from support import parses_or_raises_value_error, run_cli, sum_of_terms

derandomized = settings(derandomize=True, database=None)


ordinals = st.integers(0, COEFF_LIMIT).map(from_int) | st.recursive(
    st.integers(0, 9).map(from_int),
    lambda inner: st.lists(st.tuples(inner, st.integers(1, 9)), max_size=3).map(sum_of_terms),
    max_leaves=6)
naturals = st.integers(0, 10 ** 6)


@st.composite
def event_logs(draw):
    events = draw(st.lists(st.builds(StreamEvent, naturals, naturals, ordinals), max_size=6))
    return StreamEventLog(k=draw(naturals), bound=draw(ordinals), events=tuple(events))


descent_traces = st.builds(DescentTrace, ordinals,
                           st.lists(ordinals, max_size=6).map(tuple))

FORMATS = {
    "event-log": (event_logs(), format_event_log, parse_event_log),
    "descent-trace": (descent_traces, format_descent_trace, parse_descent_trace),
}


@pytest.mark.parametrize("kind", FORMATS)
@derandomized
@given(data=st.data())
def test_parse_inverts_format(kind, data):
    strategy, fmt, parse = FORMATS[kind]
    value = data.draw(strategy)
    assert parse(fmt(value)) == value


@pytest.mark.parametrize("kind", FORMATS)
@derandomized
@given(text=st.text(max_size=60))
def test_arbitrary_text_parses_or_raises_value_error(kind, text):
    parses_or_raises_value_error(FORMATS[kind][2], text)


@pytest.mark.parametrize("kind", FORMATS)
@derandomized
@given(text=st.text(alphabet="kboundtev=w^()*+0123456789 \n", max_size=50))
def test_log_like_text_parses_or_raises_value_error(kind, text):
    parses_or_raises_value_error(FORMATS[kind][2], text)


@pytest.mark.parametrize("kind", FORMATS)
@derandomized
@given(data=st.data())
def test_one_character_mutations_parse_or_raise_value_error(kind, data):
    strategy, fmt, parse = FORMATS[kind]
    text = fmt(data.draw(strategy))
    pos = data.draw(st.integers(0, len(text)))
    char = data.draw(st.sampled_from("0123456789=w^()*+ \n\tx٢") | st.characters())
    edit = data.draw(st.sampled_from(("replace", "insert", "delete")))
    if edit == "replace":
        text = text[:pos] + char + text[pos + 1:]
    elif edit == "insert":
        text = text[:pos] + char + text[pos:]
    else:
        text = text[:pos] + text[pos + 1:]
    parses_or_raises_value_error(parse, text)


@pytest.mark.parametrize("text, message", [
    ("k=٢ bound=w\nt=0 e=0 v=3\n", "bad header: 'k=٢ bound=w'"),
    ("k=2 bound=w\nt=٠ e=0 v=3\n", "bad event line: 't=٠ e=0 v=3'"),
    ("k=2 bound=w\nt=0 e=١ v=3\n", "bad event line: 't=0 e=١ v=3'"),
    ("k=²  bound=w\n", "bad header: 'k=²  bound=w'"),
])
def test_log_numbers_take_ascii_digits_only(tmp_path, text, message):
    with pytest.raises(MalformedLogError) as info:
        parse_event_log(text)
    assert str(info.value) == message
    path = tmp_path / "log.txt"
    path.write_text(text)
    assert run_cli("descent", "combine", str(path)) == (1, "", f"error: {message}\n")

"""Instance file parsers: round trips, and malformed text that must end in
ValueError (and, from the CLI, `error: ...` with exit code 1)."""

import io
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given
from hypothesis import strategies as st

from epsilon0.cli import format_family, main, parse_family
from epsilon0.ramsey.instances import (
    LinearOrderInstance, PairColoring, SetFamily, Tournament, format_coloring,
    format_order, format_tournament, pair_count, parse_coloring, parse_order,
    parse_tournament,
)


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@st.composite
def colorings(draw):
    n = draw(st.integers(0, 12))
    return PairColoring(n, draw(st.integers(0, (1 << pair_count(n)) - 1)))


@st.composite
def tournaments(draw):
    n = draw(st.integers(0, 12))
    return Tournament.from_bits(n, draw(st.integers(0, (1 << pair_count(n)) - 1)))


@st.composite
def orders(draw):
    n = draw(st.integers(0, 12))
    return LinearOrderInstance(n, tuple(draw(st.permutations(range(n)))))


@st.composite
def families(draw):
    n = draw(st.integers(0, 10))
    sets = draw(st.lists(st.frozensets(st.integers(0, n - 1)) if n else st.just(frozenset()),
                         max_size=8))
    return SetFamily(n, tuple(sets))


FORMATS = {
    "coloring": (colorings(), format_coloring, parse_coloring),
    "tournament": (tournaments(), format_tournament, parse_tournament),
    "order": (orders(), format_order, parse_order),
    "family": (families(), format_family, parse_family),
}
PARSERS = [parse for _, _, parse in FORMATS.values()]


@pytest.mark.parametrize("kind", FORMATS)
@given(data=st.data())
def test_parse_inverts_format(kind, data):
    strategy, fmt, parse = FORMATS[kind]
    instance = data.draw(strategy)
    assert parse(fmt(instance)) == instance


def _value_or_value_error(parse, text):
    try:
        parse(text)
    except ValueError:
        pass


@pytest.mark.parametrize("parse", PARSERS)
@given(text=st.text(max_size=60))
def test_arbitrary_text_parses_or_raises_value_error(parse, text):
    _value_or_value_error(parse, text)


@pytest.mark.parametrize("parse", PARSERS)
@given(text=st.text(alphabet="nm=0123456789- \n", max_size=40))
def test_header_like_text_parses_or_raises_value_error(parse, text):
    _value_or_value_error(parse, text)


@pytest.mark.parametrize("kind", FORMATS)
@given(data=st.data())
def test_one_character_mutations_parse_or_raise_value_error(kind, data):
    strategy, fmt, parse = FORMATS[kind]
    text = fmt(data.draw(strategy))
    pos = data.draw(st.integers(0, len(text)))
    char = data.draw(st.sampled_from("0123456789nm=- \n\tx") | st.characters())
    edit = data.draw(st.sampled_from(("replace", "insert", "delete")))
    if edit == "replace":
        text = text[:pos] + char + text[pos + 1:]
    elif edit == "insert":
        text = text[:pos] + char + text[pos:]
    else:
        text = text[:pos] + text[pos + 1:]
    _value_or_value_error(parse, text)


def test_parsers_name_what_is_missing():
    for parse in (parse_coloring, parse_tournament, parse_order):
        with pytest.raises(ValueError, match="header"):
            parse("")
        with pytest.raises(ValueError, match="missing the .*line"):
            parse("n=3\n")
    with pytest.raises(ValueError, match="header"):
        parse_family("\n")
    with pytest.raises(ValueError, match="'n=<int>'"):
        parse_family("m=2\n0 1\n-\n")
    with pytest.raises(ValueError, match="'m=<int>'"):
        parse_family("n=3\n0 1\n")
    with pytest.raises(ValueError, match="non-negative"):
        parse_coloring("n=-2\n0\n")


def test_family_parser_refuses_negative_sizes():
    for text in ("n=-3 m=0\n", "n=3 m=-1\n"):
        with pytest.raises(ValueError, match="non-negative"):
            parse_family(text)


def test_a_huge_order_header_fails_fast():
    with pytest.raises(ValueError, match="ranking"):
        parse_order("n=1000000000000\n0 1\n")


@pytest.mark.parametrize("op, text", [
    ("solve", ""),
    ("solve", "n=3\n"),
    ("em", ""),
    ("em", "n=4\n"),
    ("ads", ""),
    ("ads", "n=3\n"),
    ("coh", ""),
    ("coh", "m=2\n0 1\n-\n"),
    ("coh", "n=3\n0 1\n"),
])
def test_cli_reports_malformed_instance_files(tmp_path, op, text):
    path = tmp_path / "instance.txt"
    path.write_text(text)
    code, out, err = run_cli("ramsey", op, str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1

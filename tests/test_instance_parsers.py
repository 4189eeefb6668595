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


@pytest.mark.parametrize("parse, text, message", [
    # numbers in ASCII digits only, written whole
    (parse_coloring, "n=٣\n101\n", "expected 'n=<int>' header"),
    (parse_coloring, "n=+3\n101\n", "expected 'n=<int>' header"),
    (parse_coloring, "n=0_3\n101\n", "expected 'n=<int>' header"),
    (parse_coloring, "n= 3\n101\n", "expected 'n=<int>' header"),
    (parse_tournament, "n=٣\n101\n", "expected 'n=<int>' header"),
    (parse_order, "n=٣\n2 0 1\n", "expected 'n=<int>' header"),
    (parse_order, "n=3\n٢ 0 1\n", "expected an integer, got '٢'"),
    (parse_order, "n=3\n+2 0 1\n", "expected an integer, got '\\+2'"),
    (parse_order, "n=3\n2 0 0_1\n", "expected an integer, got '0_1'"),
    (parse_family, "n=2 m=1\n٠\n", "expected an integer, got '٠'"),
    (parse_family, "n=٢ m=1\n0\n", "family header"),
    (parse_family, "n=2 m=+1\n0\n", "family header"),
    # nothing after the instance
    (parse_coloring, "n=3\n101\n111\n", "unexpected line after the instance: '111'"),
    (parse_tournament, "n=3\n101\n111\n", "unexpected line after the instance: '111'"),
    (parse_order, "n=2\n1 0\n7 7\n", "unexpected line after the instance: '7 7'"),
    (parse_family, "n=2 m=1\n0\n1\n", "expected 1 set lines, found 2"),
    # no bits line when n <= 1
    (parse_coloring, "n=1\nxyz\n", "expected 0 bits of 0/1"),
    (parse_tournament, "n=0\n1\n", "expected 0 bits of 0/1"),
    (parse_order, "n=0\n0\n", "ranking must be a permutation"),
    # the family header has n and m once each, and nothing else
    (parse_family, "n=2 m=1 x=9\n0\n", "family header"),
    (parse_family, "n=2 m=1 n=5\n0\n", "family header"),
    (parse_family, "n=2 m\n0\n", "family header"),
])
def test_parsers_read_the_whole_file_in_ascii_digits(parse, text, message):
    with pytest.raises(ValueError, match=message):
        parse(text)


def test_parsers_still_take_blank_lines_and_either_header_order():
    assert parse_coloring("  n=3  \n\n 101 \n\n") == PairColoring(3, 0b101)
    assert parse_coloring("n=1\n\n") == PairColoring(1, 0)
    assert parse_order("n=0\n") == LinearOrderInstance(0, ())
    assert parse_family("m=1 n=2\n-\n") == SetFamily(2, (frozenset(),))


def test_cli_refuses_a_non_ascii_header(tmp_path):
    path = tmp_path / "instance.txt"
    path.write_text("n=٣\n101\n", encoding="utf-8")
    assert run_cli("ramsey", "solve", str(path)) == (
        1, "", "error: expected 'n=<int>' header, got 'n=٣'\n")

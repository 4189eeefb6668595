"""The enumeration-log parser: round trips, and malformed text that must end
in ValueError (and, from the CLI, `error: ...` with exit code 1).

A coefficient past 64 bits raises OrdinalOverflowError, the documented
error of the ordinal layer (an ArithmeticError); the CLI reports it the
same way."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from epsilon0.enumeration import (
    ROOT, MonotoneEnumeration, RankAssignment, format_enumeration_log,
    parse_enumeration_log, step,
)
from epsilon0.ordinal import OMEGA, from_int, nat_add, parse_ordinal
from support import parses_or_raises_value_error, run_cli


@st.composite
def logs(draw):
    """A replayable enumeration whose ranks drop from parent to child and
    stay below the bound, as (enumeration, ranks)."""
    enum = MonotoneEnumeration.initial()
    top = draw(st.integers(0, 6))
    ranks = {ROOT: nat_add(OMEGA, from_int(top)) if draw(st.booleans()) else from_int(top)}
    finite = {ROOT: top}
    for _ in range(draw(st.integers(0, 4))):
        additions = {}
        for leaf in enum.current.leaves():
            if finite[leaf] == 0:
                continue
            for i in range(draw(st.integers(0, 2))):
                child = leaf + (i,)
                finite[child] = draw(st.integers(0, finite[leaf] - 1))
                additions[child] = None
                ranks[child] = from_int(finite[child])
        enum = step(enum, additions)
    bound = draw(st.sampled_from([parse_ordinal("w^(2)"), parse_ordinal("w*3")]))
    return enum, RankAssignment(ranks, bound)


@given(log=logs())
def test_parse_inverts_format(log):
    enum, ranks = log
    parsed, parsed_ranks, bound = parse_enumeration_log(format_enumeration_log(enum, ranks))
    assert parsed.deltas == enum.deltas
    assert dict(parsed_ranks.rank) == dict(ranks.rank)
    assert bound == ranks.bound


@given(text=st.text(max_size=60))
def test_arbitrary_text_parses_or_raises_value_error(text):
    parses_or_raises_value_error(parse_enumeration_log, text)


@given(text=st.text(alphabet="bound=rtsagdk w^()*+.-0123456789 \n#", max_size=50))
def test_log_like_text_parses_or_raises_value_error(text):
    parses_or_raises_value_error(parse_enumeration_log, text)


@given(log=logs(), data=st.data())
def test_one_character_mutations_parse_or_raise_value_error(log, data):
    text = format_enumeration_log(*log)
    pos = data.draw(st.integers(0, len(text)))
    char = data.draw(st.sampled_from("0123456789=.-w^()*+ \n\tx") | st.characters())
    edit = data.draw(st.sampled_from(("replace", "insert", "delete")))
    if edit == "replace":
        text = text[:pos] + char + text[pos + 1:]
    elif edit == "insert":
        text = text[:pos] + char + text[pos:]
    else:
        text = text[:pos] + text[pos + 1:]
    parses_or_raises_value_error(parse_enumeration_log, text)


@pytest.mark.parametrize("text, lineno", [
    ("stage\n", 1),
    ("bound\nstage 1\nadd 0\n", 1),
    ("root rank=1\nroot\n", 2),
    ("stage 1\nadd\n", 2),
    ("stage one\n", 1),
])
def test_malformed_lines_name_their_line(text, lineno):
    with pytest.raises(ValueError, match=f"^line {lineno}: expected"):
        parse_enumeration_log(text)


def test_ranks_must_lie_below_the_bound():
    with pytest.raises(ValueError, match="not below the bound"):
        RankAssignment({ROOT: OMEGA}, OMEGA)
    with pytest.raises(ValueError, match=r"rank of \(\) is not below the bound"):
        parse_enumeration_log("bound=w\nroot rank=w^(3)\nstage 1\nadd 0 rank=w^(2)\n")


@pytest.mark.parametrize("op", ["check", "measure"])
@pytest.mark.parametrize("text, message", [
    ("stage\n", "error: line 1: expected 'stage <int>', got 'stage'\n"),
    ("bound\n", "error: line 1: expected 'bound=<ordinal>', got 'bound'\n"),
    ("root\n", "error: line 1: expected 'root rank=<ordinal>', got 'root'\n"),
    ("stage 1\nadd\n", "error: line 2: expected 'add <node> [rank=<ordinal>]', got 'add'\n"),
    ("bound=w\nroot rank=w^(3)\nstage 1\nadd 0 rank=w^(2)\n",
     "error: rank of () is not below the bound\n"),
    ("root rank=99999999999999999999999\nstage 1\nadd 0 rank=1\n",
     "error: coefficient 99999999999999999999999 exceeds 64-bit limit\n"),
])
def test_cli_reports_malformed_logs(tmp_path, op, text, message):
    path = tmp_path / "enum.log"
    path.write_text(text)
    code, out, err = run_cli("enum", op, str(path))
    assert (code, out, err) == (1, "", message)


@pytest.mark.parametrize("op, text", [
    ("combine", "k=2 bound=w\nt=0 e=0 v=99999999999999999999999\n"),
    ("validate", "bound=w\n99999999999999999999999\n"),
])
def test_cli_reports_coefficient_overflow_in_descent_files(tmp_path, op, text):
    path = tmp_path / "descent.log"
    path.write_text(text)
    code, out, err = run_cli("descent", op, str(path))
    assert (code, out) == (1, "")
    assert err == "error: coefficient 99999999999999999999999 exceeds 64-bit limit\n"


# ---------------------------------------------------------------------------
# every line form is matched whole
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("line", [
    "boundary=w^(2)", "rooted rank=w", "stagecoach 1", "address 0 rank=3",
])
def test_keyword_prefixes_are_unrecognized(tmp_path, line):
    with pytest.raises(ValueError, match=r"^line 1: unrecognized line "):
        parse_enumeration_log(line + "\n")
    path = tmp_path / "enum.log"
    path.write_text(line + "\n")
    code, out, err = run_cli("enum", "measure", str(path))
    assert (code, out, err) == (1, "", f"error: line 1: unrecognized line {line!r}\n")


@pytest.mark.parametrize("text", [
    "bound=w^(2)\nroot rank=w + 5\nstage 1\nadd 0 rank=w + 7\n",
    "bound=w^(2)\nroot rank=w+5\nstage 1\nadd 0 rank=w+7\n",
])
def test_a_rank_runs_to_the_end_of_its_line(tmp_path, text):
    _, ranks, _ = parse_enumeration_log(text)
    assert ranks.rank[(0,)] == parse_ordinal("w + 7")
    path = tmp_path / "enum.log"
    path.write_text(text)
    code, out, err = run_cli("enum", "measure", str(path))
    assert (code, err) == (1, "")
    assert out == "stage=0 zeta=w^(w + 5)\nstage=1 zeta=w^(w + 7)\nviolation stage=1 kind=rank\n"


@pytest.mark.parametrize("text", [
    "stage 1\nadd 0 depth=3\n",
    "stage 1 extra\n",
    "stage 1\nadd 0 rank\n",
    "stage 1\nadd -1\n",
    "stage 1\nadd ٣\n",
    "stage 1\nadd 0.x\n",
    "stage ٣\n",
])
def test_lines_outside_their_form_are_refused(text):
    with pytest.raises(ValueError, match=r"^line \d+: expected"):
        parse_enumeration_log(text)


@st.composite
def logs_with_multi_term_ranks(draw):
    """A chain whose ranks are strictly decreasing sums of several terms."""
    count = draw(st.integers(1, 5))
    values = sorted(draw(st.sets(st.tuples(st.integers(0, 3), st.integers(0, 9),
                                           st.integers(1, 9)),
                                 min_size=count + 1, max_size=count + 1)), reverse=True)
    ranks = {}
    enum = MonotoneEnumeration.initial()
    node = ROOT
    for i, (a, b, c) in enumerate(values):
        rank = parse_ordinal(f"w^(2)*{a + 1} + w*{b + 1} + {c}")
        if i:
            node = node + (0,)
            enum = step(enum, {node: None})
        ranks[node] = rank
    return enum, RankAssignment(ranks, parse_ordinal("w^(3)"))


@given(log=logs_with_multi_term_ranks())
def test_parse_inverts_format_with_multi_term_ranks(log):
    enum, ranks = log
    text = format_enumeration_log(enum, ranks)
    assert " + " in text.splitlines()[-1]
    parsed, parsed_ranks, bound = parse_enumeration_log(text)
    assert parsed.deltas == enum.deltas
    assert dict(parsed_ranks.rank) == dict(ranks.rank)
    assert bound == ranks.bound

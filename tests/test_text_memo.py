"""The per-document text memo of `epsilon0.ordinal` against per-line text.

A document (an event log, a descent trace, an enumeration log) reads its
values with one memo through `ordinal._read`, which looks up each
top-level term text and hands only the texts it has not seen to the one
tokenizing parser, `ordinal._parse`; documents (those and the
`stage=... zeta=...` lines of `eps0 enum measure`) are written with one
memo through `ordinal._format`.  Every value read that way must equal what
`tests/reference_parser.py` reads from its line alone, and every error must
have the same type, message and position; every text written must equal
`format_ordinal` of the value alone.  Documents come from seeded event
logs and enumeration logs, from a valid line followed by a one-character
change of it, and from hand-picked texts: malformed terms after stored
ones, lines that `_read` hands whole to `_parse` (a term that is not one
term alone, an unbalanced tail, a merge past the coefficient limit), and
equal exponents written with other spacing, which must be one object.
Hypothesis runs are derandomized, so a run writes no example database.
"""

import inspect

import pytest
from hypothesis import given, settings, strategies as st

import reference_parser
from epsilon0.descent import (
    StreamEvent, StreamEventLog, format_descent_trace, format_event_log, gamma_combine,
    parse_descent_trace, parse_event_log,
)
from epsilon0.enumeration import (
    ROOT, RankAssignment, format_enumeration_log, format_node, parse_enumeration_log,
)
from epsilon0.generate import SplitMix64
import epsilon0.ordinal
from epsilon0.ordinal import (
    COEFF_LIMIT, MAX_DEPTH, ONE, ZERO, Ordinal, OrdinalSyntaxError, _format, _read, format_ordinal,
    from_int, nat_add, nat_mul_k, omega_pow, parse_ordinal,
)
from support import outcome

derandomized = settings(derandomize=True, database=None, max_examples=200)

#: Characters of the grammar and a space: a one-character change draws from them.
ALPHABET = "w^()+*0123456789 "


def assert_document_reads_like_its_lines(lines):
    memo = {}
    for text in lines:
        new, old = outcome(_read, text, memo), outcome(reference_parser.parse_ordinal, text)
        assert new == old and type(new) is type(old), text


def random_ordinal(rng, depth, width):
    if depth == 0:
        return from_int(rng.below(4))
    total = ZERO
    for _ in range(width):
        term = omega_pow(random_ordinal(rng, depth - 1, width))
        total = nat_add(total, nat_mul_k(term, 1 + rng.below(3)))
    return total


def below(rng, a):
    """A seeded value strictly below a > 0 (the last term lowered by one,
    and a finite-exponent term appended when that term was infinite)."""
    terms = list(a)
    exp, coeff = terms[-1]
    lowered = Ordinal(terms[:-1] + ([(exp, coeff - 1)] if coeff > 1 else []))
    if not exp:
        return lowered
    smaller = exp.as_int() - 1 if exp.is_finite() else rng.below(4)
    return nat_add(lowered, nat_mul_k(omega_pow(from_int(smaller)), 1 + rng.below(5)))


def event_log(seed, k, depth, events=40):
    rng = SplitMix64(seed)
    bound = nat_add(random_ordinal(rng, depth, 2), ONE)
    current, out, t = [bound] * k, [], 0
    for _ in range(events):
        e = rng.below(k)
        if current[e]:
            current[e] = below(rng, current[e])
            out.append(StreamEvent(t, e, current[e]))
            t += 1 + rng.below(3)
    return StreamEventLog(k=k, bound=bound, events=tuple(out))


def rank_script(seed, stages=6):
    """An enumeration log text whose ranks strictly fall from parent to child."""
    rng = SplitMix64(seed)
    root = nat_add(random_ordinal(rng, 3, 2), omega_pow(ONE))
    ranks, leaves = {ROOT: root}, [ROOT]
    lines = [f"bound={format_ordinal(nat_add(root, ONE))}", f"root rank={format_ordinal(root)}"]
    for s in range(1, stages + 1):
        lines.append(f"stage {s}")
        grown = []
        for leaf in leaves:
            if not ranks[leaf] or len(leaf) >= 4:
                continue
            for i in range(1 + rng.below(2)):
                child = leaf + (i,)
                ranks[child] = below(rng, ranks[leaf])
                lines.append(f"add {format_node(child)} rank={format_ordinal(ranks[child])}")
                grown.append(child)
        leaves = grown
    return "\n".join(lines) + "\n", ranks


LOGS = [(seed, 1 + seed % 6, 2 + seed % 3) for seed in range(24)]


@pytest.mark.parametrize("seed, k, depth", LOGS)
def test_event_logs_read_and_written_with_a_memo_equal_their_lines(seed, k, depth):
    log = event_log(seed, k, depth)
    text = format_event_log(log)
    lines = text.splitlines()
    assert lines[0] == f"k={k} bound={format_ordinal(log.bound)}"
    assert lines[1:] == [f"t={ev.time} e={ev.stream} v={format_ordinal(ev.value)}"
                         for ev in log.events]
    parsed = parse_event_log(text)
    assert parsed == log
    assert parsed.bound == reference_parser.parse_ordinal(lines[0].split("bound=", 1)[1])
    for ev, line in zip(parsed.events, lines[1:]):
        assert ev.value == reference_parser.parse_ordinal(line.split("v=", 1)[1])
    trace = gamma_combine(parsed)
    written = format_descent_trace(trace)
    assert written.splitlines() == [f"bound={format_ordinal(trace.bound)}",
                                    *map(format_ordinal, trace.values)]
    assert parse_descent_trace(written) == trace
    assert [reference_parser.parse_ordinal(v) for v in written.splitlines()[1:]] == \
        list(trace.values)


def test_equal_exponents_of_one_log_are_one_object():
    log = parse_event_log(format_event_log(event_log(5, 3, 3)))
    lead = log.bound[0][0]
    sharing = [ev.value[0][0] for ev in log.events if ev.value[0][0] == lead]
    assert len(sharing) > 1 and all(e is lead for e in sharing)
    other = parse_event_log(format_event_log(event_log(5, 3, 3)))
    assert other.bound[0][0] == lead and other.bound[0][0] is not lead    # no memo between calls


@pytest.mark.parametrize("seed", range(12))
def test_enumeration_logs_read_and_written_with_a_memo_equal_their_lines(seed):
    text, ranks = rank_script(seed)
    enum, assigned, bound = parse_enumeration_log(text)
    assert assigned.rank == ranks
    for line in text.splitlines():
        if "rank=" in line:
            node = ROOT if line.startswith("root") else tuple(
                map(int, line.split()[1].split(".")))
            assert ranks[node] == reference_parser.parse_ordinal(line.split("rank=", 1)[1])
    assert bound == reference_parser.parse_ordinal(text.splitlines()[0][len("bound="):])
    assert format_enumeration_log(enum, RankAssignment(rank=ranks, bound=bound)) == text


@pytest.mark.parametrize("seed", range(8))
def test_the_lines_of_seeded_documents_read_like_the_reference(seed):
    log = event_log(100 + seed, 4, 3)
    values = [log.bound, *(ev.value for ev in log.events)]
    assert_document_reads_like_its_lines([format_ordinal(v) for v in values])


@st.composite
def line_and_change(draw):
    """A formatted value with a multi-token top-level group, and a
    one-character change of it: a replacement, an insertion or a deletion."""
    seed = draw(st.integers(0, 2**32))
    rng = SplitMix64(seed)
    value = nat_add(random_ordinal(rng, 3, 2), from_int(1 + rng.below(5)))
    text = format_ordinal(value)
    i = draw(st.integers(0, len(text) - 1))
    kind = draw(st.sampled_from(["replace", "insert", "delete"]))
    ch = draw(st.sampled_from(ALPHABET))
    changed = {"replace": text[:i] + ch + text[i + 1:], "insert": text[:i] + ch + text[i:],
               "delete": text[:i] + text[i + 1:]}[kind]
    return text, changed


@derandomized
@given(line_and_change())
def test_a_line_then_a_one_character_change_reads_like_the_reference(lines):
    text, changed = lines
    assert_document_reads_like_its_lines([text, changed])
    assert_document_reads_like_its_lines([text, changed, text])


@pytest.mark.parametrize("lines", [
    ["w^(12)", "w^(1 2)"],
    ["w^(12) + 1", "w^(1 2) + 1", "w^(12)"],
    ["w^(w + 1)", "w^(w 1)", "w^(w + + 1)", "w^(w+1"],
    ["w^(w^(2) + 1)*3", "w^(w^(2) + 1)*0", "w^(w^(2) + 1)*", "w^(w^(2) + 1) w"],
    ["w^(w*2 + 3) + w^(w*2 + 3)", "w^(w*2 + 3)*9223372036854775807 + w^(w*2 + 3)"],
    ["w^(w + 1)", "(w + 1)", "w^((w + 1))", "w ^ (w + 1)) + 1"],
    ["w^(w + 1)", "w^(", "1 + w^(", "w ^", "w^(w + 1) + w^("],
    # the group is stored, then its term is too deep, on every line
    ["w^(" * (MAX_DEPTH - 1) + "w" + ")" * (MAX_DEPTH - 1)] * 2,
    ["w^(" * (MAX_DEPTH - 2) + "w" + ")" * (MAX_DEPTH - 2)] * 2,
])
def test_malformed_groups_after_stored_ones_raise_as_the_reference(lines):
    assert_document_reads_like_its_lines(lines)


def test_a_group_that_joins_into_a_stored_key_still_raises():
    memo = {}
    _read("w^(12)", memo)
    with pytest.raises(OrdinalSyntaxError) as err:
        _read("w^(1 2)", memo)
    assert (str(err.value), err.value.position) == ("expected ')' (at position 5)", 5)


def test_equal_exponents_read_from_differently_spaced_lines_are_one_object():
    memo = {}
    lines = ["w^(w^(3) + w*2 + 1)*4 + 2", "w ^ ( w^(3)+w * 2+ 1 ) * 5",
             "w^(w ^ (3) + w*2 + 1) + w^(w^(3) + w*2 + 1)*2", "  w^(w^(3) + w*2 + 1)  "]
    values = [_read(text, memo) for text in lines]
    assert values == [reference_parser.parse_ordinal(text) for text in lines]
    lead = values[0][0][0]
    assert all(value[0][0] is lead for value in values)
    assert values[2] == Ordinal([(lead, 3)])
    # each distinct term text is stored once, every exponent once more under itself
    assert sum(isinstance(key, str) for key in memo) == 6
    assert [key for key in memo if not isinstance(key, str)] == [lead, ZERO]


@pytest.mark.parametrize("lines", [
    # a piece that is not one term alone
    ["w", "0 + w", "w + 0", "0", " 0 ", "w + ", "+w", "w + + 1", ""],
    # an unbalanced tail, and a "+" between groups that is not inside one
    ["w^(w + 1) + w", "w^(w + 1", "w^(w + 1) + w^(2", "w) + (w", "w^(1) + 2) + (3"],
    # a factor that the grammar does not take, and one past 64 bits
    ["w^(2)*3", "w^(2)*3*4", "w^(2)*3 + w^(2)*3*4", "w*9223372036854775807*2",
     "w^(2)*4611686018427387904*2", "w^(2) + w*99999999999999999999"],
    # a merge past COEFF_LIMIT, and one just at it
    [f"w^(w)*{COEFF_LIMIT} + w^(w)", f"w^(w)*{COEFF_LIMIT - 1} + w^(w)",
     f"w^(w)*{COEFF_LIMIT} + 1 + w^(w)", f"5 + w^(w)*{COEFF_LIMIT} + 3 + w^(w)*2"],
    # non-canonical sums: absorbed and merged terms
    ["1 + w", "w^(1) + w", "w + w^(1) + w*3", "1 + 2 + w + w^(2) + 1", "w^(w) + w^(w^(1))"],
    # the MAX_DEPTH towers, deep and spaced, alone and as a sum's terms
    ["w^(" * MAX_DEPTH + "1" + ")" * MAX_DEPTH, "w^(" * (MAX_DEPTH - 1) + "1" + ")" * (MAX_DEPTH - 1),
     "w ^ (" * (MAX_DEPTH - 1) + "w" + ")" * (MAX_DEPTH - 1),
     "w^(" * (MAX_DEPTH - 1) + "w" + ")" * (MAX_DEPTH - 1),
     "w^(" * (MAX_DEPTH - 2) + "w" + ")" * (MAX_DEPTH - 2) + " + " +
     "w^(" * (MAX_DEPTH - 1) + "1" + ")" * (MAX_DEPTH - 1)],
])
def test_lines_read_whole_by_the_parser_read_as_the_reference(lines):
    assert_document_reads_like_its_lines(lines)
    assert_document_reads_like_its_lines(lines[::-1])


def test_a_term_shared_by_a_thousand_lines_is_tokenized_once(monkeypatch):
    shared = "w^(w^(w^(2) + w*3 + 1)*2 + w^(4) + 7)"
    texts, parse = [], epsilon0.ordinal._parse

    def counting_parse(text):
        texts.append(text)
        return parse(text)

    monkeypatch.setattr(epsilon0.ordinal, "_parse", counting_parse)
    lines = [f"t={t} e=0 v={shared} + w^({t % 5 + 1})*{t % 3 + 1} + {t % 7 + 1}" for t in range(1000)]
    log = parse_event_log("\n".join([f"k=1 bound={shared}*2"] + lines) + "\n")
    assert len(log.events) == 1000
    assert texts.count(shared) == 1
    assert len(texts) == len(set(texts)) < 30
    assert log.bound[0][0] is log.events[0].value[0][0]


@derandomized
@given(st.lists(st.integers(0, 2**32), min_size=1, max_size=8))
def test_values_written_with_one_memo_equal_format_ordinal(seeds):
    memo = {}
    for seed in seeds:
        rng = SplitMix64(seed)
        value = random_ordinal(rng, 1 + seed % 4, 1 + seed % 3)
        assert _format(value, memo) == format_ordinal(value)
        assert parse_ordinal(_format(value, memo)) == value


@pytest.mark.parametrize("seed", range(4))
def test_enum_measure_prints_format_ordinal_of_each_stage(tmp_path, seed):
    import io
    from contextlib import redirect_stdout

    from epsilon0.cli import main
    from epsilon0.enumeration import _stage_measures

    text = rank_script(seed)[0]
    path = tmp_path / "enum.txt"
    path.write_text(text)
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["enum", "measure", str(path)]) == 0
    enum, ranks, _ = parse_enumeration_log(text)
    expected = [f"stage={s} zeta={format_ordinal(z)}"
                for s, z in enumerate(_stage_measures(enum, ranks))]
    assert out.getvalue().splitlines() == expected + ["decrease ok"]


def test_the_memos_are_arguments_with_no_default():
    for helper in (_read, _format):
        memo = inspect.signature(helper).parameters["memo"]
        assert memo.default is inspect.Parameter.empty

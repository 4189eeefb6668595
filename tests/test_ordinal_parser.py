"""The tokenizing `parse_ordinal` against the scanner it replaced.

`reference_parser.parse_ordinal` is the old character scanner, kept
verbatim.  For every text both parsers must give an equal value, or raise
the same exception type with the same message and position.  Texts come
from formatted ordinals, the same texts with whitespace inserted or one
character changed, arbitrary text over the grammar's characters, a `0` put
in every position, overflowing coefficients and nesting around MAX_DEPTH.
The one known difference is the overflow of a product with an over-long
factor, which names the factor instead of the product; it and literals
past the interpreter's int/str limit are also tested on their own.  Runs
are derandomized, so a run writes no example database.
"""

import re

import pytest
from hypothesis import example, given, settings, strategies as st

import reference_parser
from epsilon0.ordinal import (
    COEFF_LIMIT, MAX_DEPTH, Ordinal, OrdinalOverflowError, format_ordinal, parse_ordinal,
)

derandomized = settings(derandomize=True, database=None, max_examples=300)

#: Characters of the grammar, a space, and digits that are not ASCII.
ALPHABET = "w^()+*0123456789 ٣²３"

#: Whitespace by `str.isspace()`, including the ideographic space and the
#: file separator.
SPACES = [" ", "\t", "\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\xa0", " ", "　"]

#: A product with a factor of 20 digits or more: its overflow names the
#: factor, where the reference names the product.
LONG_FACTOR = re.compile(r"[0-9]{20}\s*\*|\*\s*[0-9]{20}")


def outcome(parse, text):
    try:
        value = parse(text)
    except Exception as exc:  # every exception is part of the comparison
        return type(exc), str(exc), getattr(exc, "position", None)
    assert type(value) is Ordinal
    return value, format_ordinal(value)


def assert_same(text):
    new, old = outcome(parse_ordinal, text), outcome(reference_parser.parse_ordinal, text)
    if new != old and LONG_FACTOR.search(text) and new[0] is old[0] is OrdinalOverflowError:
        # the known difference: the message names a literal of the text
        assert new[1].split()[1] in re.findall("[0-9]{20,}", text), (text, new)
    else:
        assert new == old, text


def ordinals(max_depth=3):
    """Canonical ordinals with small and near-limit coefficients."""
    coeff = st.integers(1, 12) | st.integers(COEFF_LIMIT - 3, COEFF_LIMIT)
    strat = st.builds(lambda n: Ordinal([(Ordinal(), n)]) if n else Ordinal(),
                      st.integers(0, 5))
    for _ in range(max_depth):
        strat = st.lists(st.tuples(strat, coeff), max_size=4, unique_by=lambda t: t[0]).map(
            lambda pairs: Ordinal(sorted(pairs, reverse=True)))
    return strat


formatted = ordinals().map(format_ordinal)


@derandomized
@given(formatted)
def test_formatted_ordinals(text):
    assert_same(text)


@derandomized
@given(formatted, st.lists(st.tuples(st.integers(0, 10**6), st.sampled_from(SPACES),
                                     st.integers(1, 3)), max_size=6))
def test_inserted_whitespace(text, inserts):
    for at, space, count in inserts:
        at %= len(text) + 1
        text = text[:at] + space * count + text[at:]
    assert_same(text)


@derandomized
@given(formatted, st.integers(0, 10**6), st.sampled_from(["delete", "replace", "insert"]),
       st.sampled_from(ALPHABET + "\tx"))
def test_one_character_mutations(text, at, how, ch):
    at %= len(text) + (how == "insert")
    if how == "delete":
        text = text[:at] + text[at + 1:]
    elif how == "replace" and text:
        text = text[:at] + ch + text[at + 1:]
    else:
        text = text[:at] + ch + text[at:]
    assert_same(text)


@derandomized
@given(st.text(ALPHABET, max_size=40))
@example("w ^ ( w )")
@example("w^(0 + 1)")
@example("05")
@example("w*05")
@example("")
@example("   ")
def test_arbitrary_text(text):
    assert_same(text)


@settings(derandomize=True, database=None, max_examples=60)
@given(ordinals(max_depth=2).map(format_ordinal))
def test_zero_in_every_position(text):
    for at in range(len(text) + 1):
        assert_same(text[:at] + "0" + text[at:])
        assert_same(text[:at] + "0" + text[at + 1:])


LIMIT = str(COEFF_LIMIT)
OVER = str(COEFF_LIMIT + 1)


@pytest.mark.parametrize("text", [
    # literals
    LIMIT, OVER, "1" + "0" * 19, "9" * 100, "9" * 4300, f"w + {OVER}", f"w^({OVER})",
    f"{OVER} *", f"{OVER} * 0", f"{OVER}*٣", f"{OVER} + w^(", f"w^({OVER} + 1)",
    # products
    f"{LIMIT}*1", f"{LIMIT}*2", f"w*{LIMIT}", f"w*{OVER}", f"w^(2)*{OVER}",
    "4294967296*2147483648", "4294967296*2147483647", "3037000500*3037000500",
    f"{OVER}*1", f"{LIMIT} * 2 + w^(", f"w^(w*{OVER})*2",
    # sums that merge coefficients
    f"{LIMIT} + 1", f"w*{LIMIT} + w", f"w*{LIMIT} + 5 + w", f"w^(2)*{LIMIT} + w + w^(2)",
    f"w^(w*{LIMIT} + w) + 1", f"{LIMIT} + 1 + ٣", f"w*{COEFF_LIMIT - 5} + w*5", f"1 + {LIMIT}",
])
def test_overflow(text):
    assert_same(text)


@pytest.mark.parametrize("levels", [MAX_DEPTH - 1, MAX_DEPTH, MAX_DEPTH + 1])
@pytest.mark.parametrize("core", ["1", "w", "w*2 + 1", "0"])
@pytest.mark.parametrize("closed", [True, False])
@pytest.mark.parametrize("opener", ["w^(", "w ^ ( "])
def test_nesting_around_the_depth_limit(levels, core, closed, opener):
    text = opener * levels + core + ")" * (levels - (not closed))
    assert_same(text)
    assert_same(text + " + w")
    assert_same(text + f"*{OVER}")


def test_long_literals_overflow_and_name_the_factor():
    long = "7" * 5000
    for text in (long, f"w + {long}", f"w^({long})"):
        with pytest.raises(OrdinalOverflowError) as err:
            parse_ordinal(text)
        assert str(err.value) == f"coefficient {long} exceeds 64-bit limit"
    other = "8" * 30
    for text in (f"{long}*3", f"3*{long}", f"w*{long}", f"{long}*{other}", f"w^(1)*{long}"):
        with pytest.raises(OrdinalOverflowError) as err:
            parse_ordinal(text)
        assert str(err.value) == f"coefficient {long} exceeds 64-bit limit"
    with pytest.raises(OrdinalOverflowError, match=f"^coefficient {other} exceeds"):
        parse_ordinal(f"{other}*{long}")
    twenty = "1" + "0" * 19
    with pytest.raises(OrdinalOverflowError, match=f"^coefficient {twenty} exceeds"):
        parse_ordinal(f"2*{twenty}")
    with pytest.raises(OrdinalOverflowError, match=f"^coefficient {2 * 10**19} exceeds"):
        reference_parser.parse_ordinal(f"2*{twenty}")

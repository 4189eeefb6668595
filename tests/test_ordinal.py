"""Ordinal arithmetic: frozen examples plus algebraic laws."""

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import epsilon0
from epsilon0.ordinal import (
    COEFF_LIMIT, EQ, GT, LT, MAX_DEPTH, OMEGA, ONE, TOP, ZERO,
    InvalidIndexError, Ordinal, OrdinalDepthError, OrdinalOverflowError,
    OrdinalSyntaxError,
    compare, decode, encode, format_ordinal, from_int, is_below,
    nat_add, nat_mul_k, nat_mul_omega, omega_pow,
    pair, parse_ordinal, std_add, tower, unpair,
)
import reference_ordinal
from support import iter_valid_indexes, outcome, sum_of_terms

o = parse_ordinal


def ordinals(max_depth: int = 3):
    """Canonical ordinals built by natural-summing single terms."""
    base = st.integers(0, 9).map(from_int)
    strat = base
    for _ in range(max_depth):
        strat = st.lists(st.tuples(strat, st.integers(1, 9)), max_size=3).map(sum_of_terms)
    return strat


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def test_compare_examples():
    assert compare(OMEGA, ONE) == GT
    assert compare(o("w^(w)"), o("w*5 + 3")) == GT
    assert compare(o("w^(2) + w"), o("w^(2) + w")) == EQ


def test_compare_tail_cases():
    assert compare(o("w + 1"), OMEGA) == GT
    assert compare(o("w*2"), o("w + 1")) == GT
    assert compare(ZERO, ONE) == LT


@given(ordinals(), ordinals())
def test_compare_antisymmetric(a, b):
    assert compare(a, b) == -compare(b, a)
    assert (compare(a, b) == EQ) == (a == b)


@given(ordinals(), ordinals(), ordinals())
def test_compare_transitive(a, b, c):
    if compare(a, b) != GT and compare(b, c) != GT:
        assert compare(a, c) != GT


# ---------------------------------------------------------------------------
# sums and products
# ---------------------------------------------------------------------------

def test_std_add_examples():
    assert std_add(ONE, OMEGA) == OMEGA
    assert std_add(o("w + 1"), OMEGA) == o("w*2")
    assert std_add(o("w^(2)"), o("w + 1")) == o("w^(2) + w + 1")


def test_nat_add_examples():
    assert nat_add(OMEGA, ONE) == o("w + 1")
    assert nat_add(o("w + 1"), OMEGA) == o("w*2 + 1")
    assert std_add(o("w + 1"), OMEGA) == o("w*2")  # contrast with the natural sum


@given(ordinals())
def test_add_identities(a):
    assert nat_add(ZERO, a) == a
    assert nat_add(a, ZERO) == a
    assert std_add(a, ZERO) == a
    assert std_add(ZERO, a) == a


@given(ordinals(), ordinals())
def test_std_add_dominates_right(a, b):
    assert compare(std_add(a, b), b) != LT


@given(ordinals(), ordinals())
def test_nat_add_commutative(a, b):
    assert nat_add(a, b) == nat_add(b, a)


@given(ordinals(), ordinals(), ordinals())
def test_nat_add_associative(a, b, c):
    assert nat_add(nat_add(a, b), c) == nat_add(a, nat_add(b, c))


@given(ordinals(), ordinals(), ordinals())
def test_nat_add_strictly_monotone(a, b, c):
    small, large = (a, b) if compare(a, b) == LT else (b, a)
    if small == large:
        return
    assert compare(nat_add(small, c), nat_add(large, c)) == LT
    assert compare(nat_add(c, small), nat_add(c, large)) == LT


def test_nat_mul_k_examples():
    assert nat_mul_k(o("w^(2)*3 + w*2"), 2) == o("w^(2)*6 + w*4")
    assert nat_mul_k(o("w^(w) + 4"), 1) == o("w^(w) + 4")
    assert nat_mul_k(o("w^(w) + 4"), 0) == ZERO


def test_nat_mul_omega_examples():
    assert nat_mul_omega(o("w^(2)*3 + w*2")) == o("w^(3)*3 + w^(2)*2")
    assert nat_mul_omega(ONE) == OMEGA
    assert nat_mul_omega(ZERO) == ZERO


@given(ordinals(), st.integers(1, 10))
def test_nat_mul_k_below_nat_mul_omega(a, k):
    if a == ZERO:
        return
    assert compare(nat_mul_k(a, k), nat_mul_omega(a)) == LT


@given(ordinals(), st.integers(0, 5), st.integers(0, 5))
def test_nat_mul_k_additive(a, j, k):
    assert nat_mul_k(a, j + k) == nat_add(nat_mul_k(a, j), nat_mul_k(a, k))


def test_omega_pow_examples():
    assert omega_pow(ZERO) == ONE
    assert omega_pow(ONE) == OMEGA
    assert omega_pow(OMEGA) == o("w^(w)")


@given(ordinals(), ordinals())
def test_omega_pow_strictly_monotone(a, b):
    if compare(a, b) == LT:
        assert compare(omega_pow(a), omega_pow(b)) == LT


def test_tower_examples():
    alpha = o("w^(2) + 3")
    assert tower(alpha, 0) == alpha
    assert tower(OMEGA, 2) == o("w^(w^(w))")
    assert tower(ZERO, 1) == ONE


# ---------------------------------------------------------------------------
# integer coding
# ---------------------------------------------------------------------------

def test_pairing_roundtrip():
    for x in range(40):
        for y in range(40):
            assert unpair(pair(x, y)) == (x, y)


def test_encode_examples():
    assert encode(ZERO) == 0
    assert decode(0) == ZERO
    alpha = o("w^(w)*2 + 5")
    assert decode(encode(alpha)) == alpha


def test_decode_rejects_malformed():
    with pytest.raises(InvalidIndexError):
        decode(-1)
    bad = [i for i in range(200)
           if not _valid_index(i)]
    assert bad, "some small integers must be invalid indexes"
    for i in bad[:20]:
        with pytest.raises(InvalidIndexError):
            decode(i)


def _valid_index(i):
    try:
        decode(i)
        return True
    except InvalidIndexError:
        return False


def test_encode_injective_small_indexes():
    seen = {}
    for i, alpha in iter_valid_indexes(10_000):
        assert encode(alpha) == i
        assert alpha not in seen, f"indexes {seen[alpha]} and {i} decode alike"
        seen[alpha] = i
    assert len(seen) > 500


@settings(max_examples=150)
@given(ordinals(max_depth=4))
def test_encode_decode_roundtrip(a):
    assert decode(encode(a)) == a


def test_bulk_roundtrip_random_depth5():
    from epsilon0.generate import SplitMix64

    count = 100_000
    rng = SplitMix64(20240)

    def random_ordinal(depth):
        if depth == 0:
            return from_int(rng.below(6))
        total = ZERO
        for _ in range(rng.below(3)):
            term = nat_mul_k(omega_pow(random_ordinal(depth - 1)), rng.below(4) + 1)
            total = nat_add(total, term)
        return total

    for _ in range(count):
        a = random_ordinal(5)
        assert decode(encode(a)) == a


# ---------------------------------------------------------------------------
# text form
# ---------------------------------------------------------------------------

def test_parse_examples():
    assert parse_ordinal("w^(w)*2 + w*3 + 1") == nat_add(
        nat_add(nat_mul_k(omega_pow(OMEGA), 2), nat_mul_k(OMEGA, 3)), ONE)
    assert parse_ordinal("0") == ZERO
    assert format_ordinal(nat_add(parse_ordinal("w"), parse_ordinal("w"))) == "w*2"


def test_parse_canonicalizes():
    assert parse_ordinal("w + w") == o("w*2")
    assert parse_ordinal("1 + w") == OMEGA
    assert parse_ordinal("w^(0)*3") == from_int(3)
    assert parse_ordinal("  w ^ ( w )  ") == o("w^(w)")


def test_parse_errors_carry_position():
    for text in ("", "w +", "w^)", "05", "w*0", "3w", "w^(w"):
        with pytest.raises(OrdinalSyntaxError) as err:
            parse_ordinal(text)
        assert err.value.position >= 0


@given(ordinals(max_depth=4))
def test_format_parse_roundtrip(a):
    assert parse_ordinal(format_ordinal(a)) == a


# Parsing is linear in the length of the text: each term is pushed onto
# and popped off its group's partial sum at most once.  The 20,000-term sum
# took about a minute when every `+` copied the partial sum.

def _wide_sum(terms):
    """w^(n)*(n % 7 + 2) for n = terms, ..., 1: canonical, about 11 bytes a term."""
    return Ordinal([(from_int(n), n % 7 + 2) for n in range(terms, 0, -1)])


def _cpu_seconds(fn, *args):
    import time

    start = time.process_time()
    value = fn(*args)
    return value, time.process_time() - start


def test_a_wide_canonical_sum_parses_in_linear_time():
    wide = _wide_sum(20_000)
    text = format_ordinal(wide)
    assert len(text) > 200_000
    value, seconds = _cpu_seconds(parse_ordinal, text)
    assert value == wide
    assert seconds < 1.0


def test_merging_and_absorbing_sums_parse_in_linear_time():
    wide = _wide_sum(5_000)
    text = format_ordinal(wide)
    value, seconds = _cpu_seconds(parse_ordinal, text + " + 1" * 5_000)
    assert value == std_add(wide, from_int(5_000))
    assert seconds < 1.0
    value, seconds = _cpu_seconds(parse_ordinal, text + " + w^(5001)")
    assert value == omega_pow(from_int(5_001))
    assert seconds < 1.0
    ascending = " + ".join(f"w^({n})*2" for n in range(1, 5_001))
    value, seconds = _cpu_seconds(parse_ordinal, ascending)
    assert value == nat_mul_k(omega_pow(from_int(5_000)), 2)
    assert seconds < 1.0


def test_ord_eval_prints_a_wide_sum_back_unchanged():
    from contextlib import redirect_stderr, redirect_stdout
    from io import StringIO

    from epsilon0.cli import main

    text = format_ordinal(_wide_sum(20_000))
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["ord", "eval", text])
    assert (code, out.getvalue(), err.getvalue()) == (0, text + "\n", "")


# ---------------------------------------------------------------------------
# representation limits and the TOP sentinel
# ---------------------------------------------------------------------------

def test_coefficient_overflow_checked():
    big = from_int(COEFF_LIMIT)
    with pytest.raises(OrdinalOverflowError):
        nat_mul_k(big, 2)
    with pytest.raises(OrdinalOverflowError):
        nat_add(big, big)
    with pytest.raises(OrdinalOverflowError):
        Ordinal(((ZERO, COEFF_LIMIT + 1),))


def test_invalid_constructions():
    with pytest.raises(ValueError):
        Ordinal(((ZERO, 0),))
    with pytest.raises(ValueError):
        Ordinal(((ZERO, 1), (ONE, 1)))  # exponents must strictly decrease
    with pytest.raises(ValueError):
        from_int(-3)


@pytest.mark.parametrize("n", [
    1, 2, 7, 10**6, COEFF_LIMIT - 1, COEFF_LIMIT, COEFF_LIMIT + 1, 2**63, 2**64, 10**40,
    0, -1, -(2**63), True, False, 1.0, 0.0, 2.5, -1.5,
])
def test_from_int_equals_the_reference_with_its_errors(n):
    new, old = outcome(from_int, n), outcome(reference_ordinal.from_int, n)
    assert new == old and type(new) is type(old)
    if isinstance(new, Ordinal) and new:
        assert new[0][0] is ZERO and type(new[0][1]) is int


def test_top_sentinel():
    assert is_below(tower(OMEGA, 4), TOP)
    assert is_below(ZERO, TOP)
    assert not is_below(OMEGA, OMEGA)
    assert is_below(OMEGA, o("w + 1"))
    assert repr(TOP) == "TOP"


def test_ordinal_immutable_and_hashable():
    a = o("w^(2) + w")
    with pytest.raises(AttributeError):
        a.terms = ()
    assert len({a, o("w^(2) + w"), OMEGA}) == 2


def test_ordinal_has_no_tuple_arithmetic():
    a = o("w^(2) + w")
    with pytest.raises(TypeError):
        a + a
    with pytest.raises(TypeError):
        a * 2
    with pytest.raises(TypeError):
        2 * a
    with pytest.raises(TypeError):
        a < 1
    assert a.terms == tuple(a) and type(a.terms) is tuple


# ---------------------------------------------------------------------------
# tuple-order primitives against the recursive reference
# ---------------------------------------------------------------------------
#
# The reference is the recursive Python code the tuple-based primitives
# replaced: compare term by term, exponents first, then coefficients;
# equality term by term; nat_add as a merge driven by that compare.

def _ref_compare(a, b):
    ta, tb = a.terms, b.terms
    for (ea, ca), (eb, cb) in zip(ta, tb):
        c = _ref_compare(ea, eb)
        if c != EQ:
            return c
        if ca != cb:
            return GT if ca > cb else LT
    if len(ta) == len(tb):
        return EQ
    return GT if len(ta) > len(tb) else LT


def _ref_equal(a, b):
    ta, tb = a.terms, b.terms
    return len(ta) == len(tb) and all(
        ca == cb and _ref_equal(ea, eb) for (ea, ca), (eb, cb) in zip(ta, tb))


def _ref_nat_add(a, b):
    ta, tb = a.terms, b.terms
    out = []
    i = j = 0
    while i < len(ta) and j < len(tb):
        rel = _ref_compare(ta[i][0], tb[j][0])
        if rel == GT:
            out.append(ta[i])
            i += 1
        elif rel == LT:
            out.append(tb[j])
            j += 1
        else:
            out.append((ta[i][0], ta[i][1] + tb[j][1]))
            i += 1
            j += 1
    return Ordinal(out + list(ta[i:]) + list(tb[j:]))


def _rebuilt(a):
    """A structural copy of `a` that shares no Ordinal object with it."""
    return Ordinal([(_rebuilt(e), c) for e, c in a.terms])


@given(ordinals(), ordinals())
def test_compare_and_eq_match_reference(a, b):
    assert compare(a, b) == _ref_compare(a, b)
    assert (a == b) == _ref_equal(a, b)
    assert (a != b) == (not _ref_equal(a, b))
    assert (a < b) == (_ref_compare(a, b) == LT)
    assert (a >= b) == (_ref_compare(a, b) != LT)


@given(ordinals(), ordinals())
def test_nat_add_matches_reference(a, b):
    assert _ref_equal(nat_add(a, b), _ref_nat_add(a, b))


@given(ordinals(max_depth=4))
def test_equal_values_hash_alike(a):
    copy = _rebuilt(a)
    assert copy is not a
    assert copy == a and _ref_equal(copy, a) and compare(copy, a) == EQ
    assert hash(copy) == hash(a)
    assert len({a, copy}) == 1


def test_compare_matches_reference_exhaustively():
    family = [alpha for _, alpha in iter_valid_indexes(2000)]
    assert len(family) > 300
    for a in family:
        for b in family:
            assert compare(a, b) == _ref_compare(a, b), (a, b)
            assert (a == b) == (a is b)


# ---------------------------------------------------------------------------
# the nesting-depth limit
# ---------------------------------------------------------------------------

def _run_python(*args, **env):
    """Run the interpreter on `args` with this checkout's epsilon0."""
    src = str(Path(epsilon0.__file__).resolve().parents[1])
    full_env = dict(os.environ, PYTHONPATH=src, **env)
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=full_env, timeout=120)


def test_depth_limit_boundary():
    deepest = tower(ONE, MAX_DEPTH - 1)
    assert compare(deepest, tower(ONE, MAX_DEPTH - 1)) == EQ
    assert hash(deepest) == hash(_rebuilt(deepest))
    assert parse_ordinal(format_ordinal(deepest)) == deepest
    assert nat_add(deepest, deepest) == nat_mul_k(deepest, 2)
    with pytest.raises(OrdinalDepthError):
        omega_pow(deepest)
    with pytest.raises(OrdinalDepthError):
        tower(ONE, MAX_DEPTH)
    with pytest.raises(OrdinalDepthError):
        Ordinal([(deepest, 1)])
    with pytest.raises(OrdinalDepthError):
        parse_ordinal("w^(" * MAX_DEPTH + "1" + ")" * MAX_DEPTH)
    assert issubclass(OrdinalDepthError, ValueError)


DEEP_SCRIPT = """
from epsilon0.ordinal import ONE, Ordinal, OrdinalDepthError, omega_pow, parse_ordinal, tower

def nested_constructor():
    a = ONE
    for _ in range(100_000):
        a = Ordinal([(a, 1)])
    return hash(a)

def nested_omega_pow():
    a = ONE
    for _ in range(100_000):
        a = omega_pow(a)
    return hash(a)

attempts = [
    lambda: hash(tower(ONE, 100_000)),
    nested_constructor,
    nested_omega_pow,
    lambda: hash(parse_ordinal("w^(" * 100_000 + "1" + ")" * 100_000)),
]
for attempt in attempts:
    try:
        attempt()
        print("built")
    except OrdinalDepthError:
        print("refused")
"""


def test_values_past_the_depth_limit_are_refused_without_a_crash():
    done = _run_python("-c", DEEP_SCRIPT)
    assert done.returncode >= 0, f"ended on {signal.Signals(-done.returncode).name}"
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["refused"] * 4


def test_cli_refuses_a_tower_past_the_depth_limit():
    done = _run_python("-m", "epsilon0.cli", "ord", "tower", "1", "100000")
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr.startswith("error: ")
    assert "Traceback" not in done.stderr


# ---------------------------------------------------------------------------
# the code-size limit of encode
# ---------------------------------------------------------------------------

def test_encode_refuses_codes_past_the_bit_limit_quickly():
    import time

    from epsilon0.ordinal import MAX_CODE_BITS, OrdinalCodeSizeError

    assert issubclass(OrdinalCodeSizeError, ValueError)
    # about fourfold in bits per level: tower 11 fits, tower 12 does not
    widest = tower(ONE, 11)
    code = encode(widest)
    assert MAX_CODE_BITS // 4 < code.bit_length() <= MAX_CODE_BITS
    assert decode(code) == widest
    for height in (12, 20, MAX_DEPTH - 1):
        started = time.process_time()
        with pytest.raises(OrdinalCodeSizeError, match=str(MAX_CODE_BITS)):
            encode(tower(ONE, height))
        assert time.process_time() - started < 5
    # wide values grow twofold per term and hit the same limit
    wide = ZERO
    for k in range(40):
        wide = nat_add(wide, omega_pow(from_int(k)))
    with pytest.raises(OrdinalCodeSizeError):
        encode(wide)


def test_cli_encode_past_the_digit_limit_and_the_bit_limit():
    nine = format_ordinal(tower(ONE, 9))
    done = _run_python("-m", "epsilon0.cli", "ord", "encode", nine)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == _decimal(encode(tower(ONE, 9)))
    assert len(done.stdout.strip()) > sys.get_int_max_str_digits()
    done = _run_python("-m", "epsilon0.cli", "ord", "encode", format_ordinal(tower(ONE, 20)))
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr.startswith("error: ") and "MAX_CODE_BITS" in done.stderr
    assert "Traceback" not in done.stderr


def _decimal(i):
    """Decimal text of i by repeated division, independent of str(int)."""
    digits = []
    while True:
        i, r = divmod(i, 10)
        digits.append("0123456789"[r])
        if not i:
            return "".join(reversed(digits))


def test_cli_decode_reads_back_what_encode_printed():
    nine = tower(ONE, 9)
    done = _run_python("-m", "epsilon0.cli", "ord", "encode", format_ordinal(nine))
    assert done.returncode == 0, done.stderr
    code = done.stdout.strip()
    assert len(code) > sys.get_int_max_str_digits()
    done = _run_python("-m", "epsilon0.cli", "ord", "decode", code)
    assert done.returncode == 0, done.stderr
    assert done.stdout == format_ordinal(nine) + "\n"


def test_cli_decode_refuses_an_index_past_the_bit_limit_quickly():
    import time

    from epsilon0.ordinal import MAX_CODE_BITS, OrdinalCodeSizeError, parse_index

    started = time.process_time()
    with pytest.raises(OrdinalCodeSizeError, match="MAX_CODE_BITS"):
        parse_index("7" * 400_000)
    assert time.process_time() - started < 1
    started = time.process_time()
    with pytest.raises(OrdinalCodeSizeError, match="MAX_CODE_BITS"):
        # as many digits as 2^MAX_CODE_BITS has, so converted, then refused
        parse_index("9" * 315_653)
    assert time.process_time() - started < 5
    assert parse_index("1" + "0" * 9999) == 10 ** 9999
    assert parse_index(" 0042 ") == 42
    for bad in ("", "-1", "+3", "1e5", "4.0", "\u0661"):
        with pytest.raises(InvalidIndexError):
            parse_index(bad)
    # in process: one argument of a new process holds at most 128 KiB on Linux
    from contextlib import redirect_stderr, redirect_stdout
    from io import StringIO

    from epsilon0.cli import main

    out, err = StringIO(), StringIO()
    started = time.process_time()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["ord", "decode", "7" * 400_000])
    assert time.process_time() - started < 1
    assert code == 1
    assert out.getvalue() == ""
    assert err.getvalue().startswith("error: ") and "MAX_CODE_BITS" in err.getvalue()


# ---------------------------------------------------------------------------
# hashes do not depend on the process
# ---------------------------------------------------------------------------

HASH_SCRIPT = """
from epsilon0.ordinal import InvalidIndexError, decode, format_ordinal, parse_ordinal, tower
values = []
for i in range(3000):        # the indexes below 3000 that decode
    try:
        values.append(decode(i))
    except InvalidIndexError:
        pass
values += [parse_ordinal("w^(w^(w*2 + 1) + w^(3))*4 + w*7 + 2"), tower(values[7], 40)]
print(" ".join(str(hash(v)) for v in values))
print(" | ".join(format_ordinal(v) for v in set(values)))
"""


def test_hashes_and_set_order_agree_across_hash_seeds():
    outputs = []
    for seed in ("0", "12345"):
        done = _run_python("-c", HASH_SCRIPT, PYTHONHASHSEED=seed)
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]
    assert len(outputs[0].splitlines()[0].split()) > 300


@pytest.mark.parametrize("text, position", [
    ("٣", 0), ("w*٣", 2), ("²", 0), ("w*²", 2), ("1²", 1), ("w^(٣)", 3), ("w + ３", 4),
])
def test_only_ascii_digits_are_numbers(text, position):
    with pytest.raises(OrdinalSyntaxError) as err:
        parse_ordinal(text)
    assert err.value.position == position

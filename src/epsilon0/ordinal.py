"""Exact arithmetic for ordinals below epsilon_0 in Cantor normal form.

An ordinal is a tuple of (exponent, coefficient) terms with strictly
decreasing exponents and positive coefficients, so every value has exactly
one representation.  All operations return new values; nothing is mutated
in place.

`Ordinal` subclasses `tuple`, with the terms as its items.  Python orders
tuples lexicographically, item by item, and a tuple that is a proper
prefix of another sorts first: exactly the normal-form order.  So `<`,
`==` and `hash` are tuple's own, run in C, and `compare` only combines
them.  Hashes are structural (from the coefficients and the exponents'
hashes), so they are the same in every process.

Nesting is bounded: the depth of 0 is 0, and the depth of w^g*n + rest is
one more than the depth of g (the leading exponent, which is at least as
deep as every other exponent).  A value deeper than MAX_DEPTH raises
OrdinalDepthError where a level is added (`Ordinal(...)`, `omega_pow`,
`tower` and the parser), so the recursive operations, in Python and in C,
stay far inside the interpreter's stack.

Integer coding of ordinals uses the Cantor pairing function

    pair(x, y) = (x + y) * (x + y + 1) // 2 + y

with   encode(0) = 0
       encode(w^g * n + rest) = 1 + pair(pair(encode(g), n - 1), encode(rest))

where `rest` is the remainder of the normal form.  `decode` is its exact
inverse and rejects integers that do not describe a canonical form.
A code grows about fourfold in bits per nesting level and twofold per
term, so `encode` raises OrdinalCodeSizeError as soon as the code of a
term passes MAX_CODE_BITS bits.
"""

from __future__ import annotations

import re
from math import isqrt, log10
from typing import Iterable, Iterator, Tuple, Union

__all__ = [
    "LT", "EQ", "GT",
    "COEFF_LIMIT", "MAX_DEPTH", "MAX_CODE_BITS",
    "Ordinal", "OrdinalIndex",
    "ZERO", "ONE", "OMEGA", "TOP",
    "OrdinalOverflowError", "OrdinalDepthError", "OrdinalCodeSizeError",
    "InvalidIndexError",
    "OrdinalSyntaxError",
    "from_int", "compare", "std_add", "nat_add", "nat_mul_k",
    "nat_mul_omega", "omega_pow", "tower",
    "encode", "decode", "parse_index", "pair", "unpair",
    "parse_ordinal", "format_ordinal", "is_below",
]

LT, EQ, GT = -1, 0, 1

#: Coefficients are stored as Python integers but a fixed 64-bit signed
#: width is enforced so that overflow is an error instead of silent growth.
COEFF_LIMIT = (1 << 63) - 1

#: Deepest nesting of exponents a value may have (see the module docstring).
MAX_DEPTH = 256

#: Widest integer code, in bits, that `encode` builds (see the module
#: docstring): 1 Mibit, 315 653 decimal digits.
MAX_CODE_BITS = 1 << 20

#: Integer index of an ordinal under the documented coding scheme.
OrdinalIndex = int


class OrdinalOverflowError(ArithmeticError):
    """A coefficient left the checked 64-bit range."""


class OrdinalDepthError(ValueError):
    """A value would nest exponents deeper than MAX_DEPTH."""


class OrdinalCodeSizeError(ValueError):
    """A value's integer code would be wider than MAX_CODE_BITS."""


class InvalidIndexError(ValueError):
    """An integer does not decode to a canonical normal form."""


class OrdinalSyntaxError(ValueError):
    """Malformed ordinal text; `position` is the offending offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _check_coeff(c: int) -> int:
    if not isinstance(c, int) or isinstance(c, bool):
        raise TypeError(f"coefficient must be an int, got {type(c).__name__}")
    if c < 1:
        raise ValueError(f"coefficient must be >= 1, got {c}")
    if c > COEFF_LIMIT:
        raise OrdinalOverflowError(f"coefficient {c} exceeds 64-bit limit")
    return c


def _depth(a: "Ordinal") -> int:
    d = 0
    while a:
        a = a[0][0]
        d += 1
    return d


def _check_depth(depth: int) -> None:
    if depth > MAX_DEPTH:
        raise OrdinalDepthError(f"nesting depth {depth} exceeds the limit of {MAX_DEPTH}")


class Ordinal(tuple):
    """An ordinal below epsilon_0 in Cantor normal form.

    The items are (exponent, coefficient) pairs with exponents strictly
    decreasing and coefficients in [1, COEFF_LIMIT]; the empty tuple is 0.
    `terms` gives them as a plain tuple.  Comparison, equality and hashing
    are tuple's: an Ordinal equals, and hashes like, the plain tuple of its
    pairs (ZERO == ()), and against any other tuple it orders by tuple
    rules.  `+` and `*` raise TypeError instead of concatenating or
    repeating; use the functions of this module.  A value nested deeper
    than MAX_DEPTH raises OrdinalDepthError.
    """

    __slots__ = ()

    def __new__(cls, terms: Iterable[Tuple["Ordinal", int]] = ()):
        terms = tuple((e, c) for e, c in terms)
        for e, c in terms:
            if not isinstance(e, Ordinal):
                raise TypeError("exponents must be Ordinal values")
            _check_coeff(c)
        for i in range(len(terms) - 1):
            if not terms[i][0] > terms[i + 1][0]:
                raise ValueError("exponents must be strictly decreasing")
        if terms:
            _check_depth(1 + _depth(terms[0][0]))
        return tuple.__new__(cls, terms)

    # tuple's own slots, bound by name so that they can be looked up and
    # wrapped like methods; `<`, `<=`, `>` and `>=` are inherited as well.
    __eq__ = tuple.__eq__
    __ne__ = tuple.__ne__
    __hash__ = tuple.__hash__

    def __add__(self, other):
        return NotImplemented

    __mul__ = __rmul__ = __add__

    @property
    def terms(self) -> Tuple[Tuple["Ordinal", int], ...]:
        return tuple(self)

    def is_zero(self) -> bool:
        return not self

    def is_finite(self) -> bool:
        """True for 0 and the positive integers (single w^0 term)."""
        return not self or (len(self) == 1 and not self[0][0])

    def as_int(self) -> int:
        if not self.is_finite():
            raise ValueError(f"{self} is not a finite ordinal")
        return self[0][1] if self else 0

    def degree(self) -> "Ordinal":
        """Leading exponent; 0 for the ordinal 0."""
        return self[0][0] if self else ZERO

    def __repr__(self) -> str:
        return f"Ordinal({format_ordinal(self)!r})"

    def __str__(self) -> str:
        return format_ordinal(self)


#: Internal constructor; the caller guarantees canonical shape and depth.
_raw = tuple.__new__

ZERO = Ordinal()
ONE = Ordinal(((ZERO, 1),))


def from_int(n: int) -> Ordinal:
    """The finite ordinal n."""
    if n < 0:
        raise ValueError("ordinals are non-negative")
    if n == 0:
        return ZERO
    return Ordinal(((ZERO, _check_coeff(n)),))


class _Top:
    """Sentinel strictly above every Ordinal; usable only in comparisons.

    Stands in for epsilon_0 where a bound "less than epsilon_0" has no
    finite representative.  It is not an Ordinal and no arithmetic
    accepts it.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "TOP"


TOP = _Top()

Bound = Union[Ordinal, _Top]


def is_below(a: Ordinal, bound: Bound) -> bool:
    """a < bound, where bound may be TOP (then always true)."""
    return bound is TOP or a < bound


def compare(a: Ordinal, b: Ordinal) -> int:
    """Total order on normal forms: LT, EQ or GT.

    Term lists are compared lexicographically, exponents first, then
    coefficients; with a common prefix the longer list is larger.  This is
    tuple order, so the work is done in C.
    """
    return (a > b) - (a < b)


def std_add(a: Ordinal, b: Ordinal) -> Ordinal:
    """Standard (non-commutative) ordinal sum.

    Terms of `a` with exponent below the leading exponent of `b` are
    absorbed: 1 + w = w.
    """
    if not b:
        return a
    if not a:
        return b
    lead, coeff = b[0]
    i = 0
    while i < len(a) and a[i][0] > lead:
        i += 1
    if i < len(a) and a[i][0] == lead:
        return _raw(Ordinal, (*a[:i], (lead, _check_coeff(a[i][1] + coeff)), *b[1:]))
    return _raw(Ordinal, (*a[:i], *b))


def nat_add(a: Ordinal, b: Ordinal) -> Ordinal:
    """Natural (Hessenberg) sum: coefficients add over the merged exponents.

    Commutative, associative and strictly monotone in both arguments.
    """
    if not a:
        return b
    if not b:
        return a
    out = []
    i = j = 0
    la, lb = len(a), len(b)
    while i < la and j < lb:
        ea, ca = term_a = a[i]
        eb, cb = term_b = b[j]
        if ea > eb:
            out.append(term_a)
            i += 1
        elif ea < eb:
            out.append(term_b)
            j += 1
        else:
            out.append((ea, _check_coeff(ca + cb)))
            i += 1
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return _raw(Ordinal, out)


def nat_mul_k(a: Ordinal, k: int) -> Ordinal:
    """k-fold natural sum of `a` with itself: every coefficient times k."""
    if k < 0:
        raise ValueError("k must be non-negative")
    if k == 0 or not a:
        return ZERO
    return _raw(Ordinal, [(e, _check_coeff(c * k)) for e, c in a])


def nat_mul_omega(a: Ordinal) -> Ordinal:
    """Each exponent incremented by one, coefficients preserved.

    Bounds every nat_mul_k(a, k): for a > 0 the result strictly dominates
    all of them.
    """
    return _raw(Ordinal, [(std_add(e, ONE), c) for e, c in a])


def omega_pow(a: Ordinal) -> Ordinal:
    """The single-term ordinal w^a."""
    _check_depth(_depth(a) + 1)
    return _raw(Ordinal, ((a, 1),))


OMEGA = omega_pow(ONE)


def tower(a: Ordinal, k: int) -> Ordinal:
    """k-fold iterated w-exponentiation starting from a."""
    if k < 0:
        raise ValueError("k must be non-negative")
    _check_depth(_depth(a) + k)
    for _ in range(k):
        a = _raw(Ordinal, ((a, 1),))
    return a


# ---------------------------------------------------------------------------
# Integer coding
# ---------------------------------------------------------------------------

def pair(x: int, y: int) -> int:
    """Cantor pairing: (x + y)(x + y + 1)/2 + y."""
    s = x + y
    return s * (s + 1) // 2 + y


def unpair(z: int) -> Tuple[int, int]:
    """Exact inverse of pair()."""
    w = (isqrt(8 * z + 1) - 1) // 2
    t = w * (w + 1) // 2
    y = z - t
    return w - y, y


def encode(a: Ordinal) -> OrdinalIndex:
    """Injective integer index of a normal form; raises
    OrdinalCodeSizeError when the code passes MAX_CODE_BITS bits."""
    code = 0
    for g, n in reversed(a):
        code = 1 + pair(pair(encode(g), n - 1), code)
        if code.bit_length() > MAX_CODE_BITS:
            raise OrdinalCodeSizeError(
                f"the integer code exceeds the limit of MAX_CODE_BITS = {MAX_CODE_BITS} bits")
    return code


#: Decimal digits of 2^MAX_CODE_BITS, the most a code within the limit has.
_MAX_CODE_DIGITS = int(MAX_CODE_BITS * log10(2)) + 1


def _digits_to_int(digits: str) -> int:
    """int(digits) past the interpreter's int/str digit limit (which is
    at least 640 when set): halves are converted and joined, which keeps
    the cost near that of multiplication instead of quadratic."""
    if len(digits) <= 512:
        return int(digits)
    half = len(digits) // 2
    return _digits_to_int(digits[:-half]) * 10 ** half + _digits_to_int(digits[-half:])


def parse_index(text: str) -> OrdinalIndex:
    """The integer code written in decimal in `text`, read without the
    interpreter's int/str digit limit.  Raises OrdinalCodeSizeError, before
    converting, when the digit count alone puts the code past
    MAX_CODE_BITS bits (and after, when its value does), and
    InvalidIndexError when `text` is not a non-negative decimal integer."""
    digits = text.strip()
    if not (digits.isascii() and digits.isdigit()):
        raise InvalidIndexError(f"index must be a non-negative decimal integer, got {text[:40]!r}")
    digits = digits.lstrip("0") or "0"
    if len(digits) > _MAX_CODE_DIGITS:
        raise OrdinalCodeSizeError(
            f"a {len(digits)}-digit index exceeds the limit of MAX_CODE_BITS = {MAX_CODE_BITS} bits")
    code = _digits_to_int(digits)
    if code.bit_length() > MAX_CODE_BITS:
        raise OrdinalCodeSizeError(
            f"the index exceeds the limit of MAX_CODE_BITS = {MAX_CODE_BITS} bits")
    return code


def decode(i: OrdinalIndex) -> Ordinal:
    """Inverse of encode(); raises InvalidIndexError off the image."""
    if not isinstance(i, int) or isinstance(i, bool) or i < 0:
        raise InvalidIndexError(f"index must be a non-negative int, got {i!r}")
    if i == 0:
        return ZERO
    head, rest_code = unpair(i - 1)
    g_code, n_minus_1 = unpair(head)
    if n_minus_1 + 1 > COEFF_LIMIT:
        raise InvalidIndexError(f"index {i} encodes an oversized coefficient")
    g = decode(g_code)
    rest = decode(rest_code)
    if rest and not rest[0][0] < g:
        raise InvalidIndexError(f"index {i} is not in normal form")
    return _raw(Ordinal, ((g, n_minus_1 + 1), *rest))


# ---------------------------------------------------------------------------
# Text form
# ---------------------------------------------------------------------------
#
# ord  := "0" | term ("+" term)*
# term := base ("*" nat)?
# base := "w" | "w^(" ord ")" | nat
# nat  := [1-9][0-9]*
#
# Whitespace around tokens is ignored.  Non-canonical sums are accepted and
# canonicalized as std_add would; format always emits canonical form, largest
# exponent first, omitting "*1" and abbreviating w^(1) as "w".
#
# The parser reads the tokens in one pass with a stack of the open "w^("
# groups.  A group's partial sum is a monotone stack: a new term pops the
# smaller exponents (std_add absorbs them), then merges with an equal one or
# is pushed, so parsing takes time linear in the text.  A value is at least
# as deep as its "w^(" nesting, so OrdinalDepthError is raised before a level
# past MAX_DEPTH is entered.  A term raises its syntax error first, then its
# coefficient's overflow, then its value's depth.

#: A token after the whitespace before it: "w^(", "0" (always alone, so "05"
#: is 0 then 5), a number or another character.  `\s` is `str.isspace()`.
_TOKEN = re.compile(r"\s*(w\^\(|0|[1-9][0-9]*|\S)")

#: A literal with more digits than COEFF_LIMIT is past it by its length
#: alone, and is read as _LONG instead of going through int().
_COEFF_DIGITS, _LONG = len(str(COEFF_LIMIT)), COEFF_LIMIT + 1
_NONZERO = "numbers start with a nonzero digit"


def _syntax_error(text: str, k: int, message: str) -> OrdinalSyntaxError:
    """The error at the k-th token of `text`, or at its end past the last."""
    starts = [m.start(1) for m in _TOKEN.finditer(text)] + [len(text)]
    return OrdinalSyntaxError(message, starts[k])


def parse_ordinal(text: str) -> Ordinal:
    """Parse the ASCII grammar above; canonicalizes non-canonical input."""
    toks = _TOKEN.findall(text) + [""]  # "" is the end of the text
    deep = len(toks) > MAX_DEPTH        # a too-deep value takes more tokens
    groups, terms, i = [], [], 0        # partial sums of the open groups, the innermost ord
    while True:
        tok = toks[i]
        i += 1
        if tok == "w^(" or tok == "w" and toks[i] == "^":
            if tok == "w":
                if toks[i + 1] != "(":
                    raise _syntax_error(text, i + 1, "expected '('")
                i += 2
            if len(groups) == MAX_DEPTH:
                _check_depth(MAX_DEPTH + 1)
            groups.append(terms)
            terms = []
            continue
        if "0" < tok[:1] <= "9":
            exp, lit, depth = ZERO, tok, 0
            coeff = int(tok) if len(tok) <= _COEFF_DIGITS else _LONG
        elif tok == "w":
            exp, lit, coeff, depth = ONE, "", 1, 0
        elif tok == "0" and not terms:  # the ord is 0
            exp = None
        else:
            raise _syntax_error(text, i - 1,
                                _NONZERO if tok == "0" else "expected 'w' or a number")
        while True:
            if exp is not None:         # a term ends before token i
                f = ""
                if toks[i] == "*":
                    f = toks[i + 1]
                    if not "0" < f[:1] <= "9":
                        raise _syntax_error(text, i + 1,
                                            _NONZERO if f == "0" else "expected a number")
                    i += 2
                    coeff *= int(f) if len(f) <= _COEFF_DIGITS else _LONG
                if coeff > COEFF_LIMIT:     # named by its first over-long literal, if any
                    big = next((n for n in (lit, f) if len(n) > _COEFF_DIGITS), coeff)
                    raise OrdinalOverflowError(f"coefficient {big} exceeds 64-bit limit")
                if depth > MAX_DEPTH:
                    _check_depth(depth)
                if terms and not terms[-1][0] > exp:   # else the term just follows
                    while terms and terms[-1][0] < exp:
                        terms.pop()
                    if terms and terms[-1][0] == exp:
                        coeff = _check_coeff(coeff + terms.pop()[1])
                terms.append((exp, coeff))
                if toks[i] == "+":
                    i += 1
                    break
            value = _raw(Ordinal, terms)    # an ord ends before token i
            if not groups:
                if toks[i]:
                    raise _syntax_error(text, i, "trailing input")
                return value
            if toks[i] != ")":
                raise _syntax_error(text, i, "expected ')'")
            i += 1
            terms = groups.pop()
            exp, lit, coeff, depth = value, "", 1, 1 + _depth(value) if deep else 0


def format_ordinal(a: Ordinal) -> str:
    """Canonical text form; parse_ordinal(format_ordinal(a)) == a."""
    if not a:
        return "0"
    parts = []
    for e, c in a:
        if not e:
            parts.append(str(c))
            continue
        base = "w" if e == ONE else f"w^({format_ordinal(e)})"
        parts.append(base if c == 1 else f"{base}*{c}")
    return " + ".join(parts)


def iter_valid_indexes(limit: int) -> Iterator[Tuple[int, Ordinal]]:
    """Yield (index, ordinal) for every well-formed index below limit."""
    for i in range(limit):
        try:
            yield i, decode(i)
        except InvalidIndexError:
            continue

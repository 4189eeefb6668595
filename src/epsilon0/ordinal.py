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
# canonicalized by accumulating with std_add; format always emits canonical
# form, largest exponent first, omitting "*1" and abbreviating w^(1) as "w".
# A value is at least as deep as its "w^(" nesting, so the parser raises
# OrdinalDepthError as soon as that nesting passes MAX_DEPTH.

class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str) -> None:
        if self.peek() != ch:
            raise OrdinalSyntaxError(f"expected {ch!r}", self.pos)
        self.pos += 1

    def nat(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and "0" <= self.text[self.pos] <= "9":
            self.pos += 1
        lit = self.text[start:self.pos]
        if not lit:
            raise OrdinalSyntaxError("expected a number", start)
        if lit[0] == "0":
            raise OrdinalSyntaxError("numbers start with a nonzero digit", start)
        return int(lit)


def _parse_ord(s: _Scanner) -> Ordinal:
    if s.peek() == "0":
        s.pos += 1
        return ZERO
    total = _parse_term(s)
    while s.peek() == "+":
        s.pos += 1
        total = std_add(total, _parse_term(s))
    return total


def _parse_term(s: _Scanner) -> Ordinal:
    ch = s.peek()
    if ch == "w":
        s.pos += 1
        if s.peek() == "^":
            s.pos += 1
            s.expect("(")
            s.depth += 1
            _check_depth(s.depth)
            exp = _parse_ord(s)
            s.depth -= 1
            s.expect(")")
        else:
            exp = ONE
        coeff = 1
    elif "0" <= ch <= "9":
        exp = ZERO
        coeff = s.nat()
    else:
        raise OrdinalSyntaxError("expected 'w' or a number", s.pos)
    if s.peek() == "*":
        s.pos += 1
        coeff *= s.nat()
    return Ordinal(((exp, _check_coeff(coeff)),))


def parse_ordinal(text: str) -> Ordinal:
    """Parse the ASCII grammar above; canonicalizes non-canonical input."""
    s = _Scanner(text)
    value = _parse_ord(s)
    s.skip_ws()
    if s.pos != len(text):
        raise OrdinalSyntaxError("trailing input", s.pos)
    return value


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

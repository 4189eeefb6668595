"""The ordinal parser that `parse_ordinal` replaced, kept verbatim as the
reference for the differential tests: a character scanner with one
recursive function per grammar rule, accumulating sums with `std_add`.

It reads the grammar in `epsilon0.ordinal`.  Two differences are known and
tested on their own: a literal of more than 4,300 digits hits the
interpreter's int/str limit here (a ValueError), and the overflow of `a*b`
with an over-long factor names the product here and the factor there.
"""

from epsilon0.ordinal import (
    ONE, ZERO, Ordinal, OrdinalSyntaxError, _check_coeff, _check_depth, std_add,
)


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

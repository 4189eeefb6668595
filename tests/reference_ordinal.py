"""The ordinal orderings as they were computed by tuple order alone, kept
verbatim as the reference for the depth-aware versions in `epsilon0`:
`compare` as two tuple orderings, and `nat_add` and `std_add` as merges
and scans on tuple `<`, `>` and `==`.  Tuple order takes time quadratic in
the depth two values share, so the tests run these only on values whose
cost they can afford.  `from_int` is kept as it was built through the
checking constructor, as the reference for the one that builds its single
term directly."""

from epsilon0.ordinal import ZERO, Ordinal, _check_coeff, _raw


def from_int(n: int) -> Ordinal:
    if n < 0:
        raise ValueError("ordinals are non-negative")
    if n == 0:
        return ZERO
    return Ordinal(((ZERO, _check_coeff(n)),))


def compare(a: Ordinal, b: Ordinal) -> int:
    return (a > b) - (a < b)


def std_add(a: Ordinal, b: Ordinal) -> Ordinal:
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

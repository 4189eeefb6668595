"""The instance-file bit writer as it tested one bit of the code at a
time (quadratic in C(n,2) on a Python int), the `SetFamily` masks as
they were built one element at a time, the `Tournament` checks with
their per-pair loop, and `Tournament.from_order` with its n^2 double
loop, kept verbatim as the reference for
`epsilon0.ramsey.instances._format_bits`,
`epsilon0.ramsey.instances.SetFamily.__post_init__`,
`epsilon0.ramsey.instances.Tournament.__post_init__` and
`epsilon0.ramsey.instances.Tournament.from_order`."""

from epsilon0.ramsey.instances import Tournament, pair_count


def _format_bits(bits: int, n: int) -> str:
    return "".join("1" if (bits >> i) & 1 else "0" for i in range(pair_count(n)))


def set_masks(n, sets):
    """The masks of `SetFamily(n, sets)`, or its error."""
    masks = []
    for i, s in enumerate(sets):
        if s and (min(s) < 0 or max(s) >= n):
            raise ValueError(f"set {i} leaves the universe [0,{n})")
        mask = 0
        for x in s:
            mask |= 1 << x
        masks.append(mask)
    return tuple(masks)


def tournament_check(n, out):
    """The checks of `Tournament(n, out)` with the per-pair loop, or its error."""
    if len(out) != n:
        raise ValueError("out must have one mask per vertex")
    for a in range(n):
        if out[a] >> n:
            raise ValueError("out mask wider than n")
        if (out[a] >> a) & 1:
            raise ValueError(f"vertex {a} beats itself")
    for a in range(n):
        for b in range(a + 1, n):
            ab = (out[a] >> b) & 1
            ba = (out[b] >> a) & 1
            if ab == ba:
                raise ValueError(f"pair ({a},{b}) must be oriented exactly one way")


def tournament_from_order(ranking):
    """`Tournament.from_order(ranking)` with the double loop, or its error."""
    n = len(ranking)
    out = [0] * n
    for a in range(n):
        for b in range(n):
            if a != b and ranking[a] < ranking[b]:
                out[a] |= 1 << b
    return Tournament(n, tuple(out))

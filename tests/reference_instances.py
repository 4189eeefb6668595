"""The instance-file bit writer as it tested one bit of the code at a
time (quadratic in C(n,2) on a Python int), and the `SetFamily` masks as
they were built one element at a time, kept verbatim as the reference
for `epsilon0.ramsey.instances._format_bits` and
`epsilon0.ramsey.instances.SetFamily.__post_init__`."""

from epsilon0.ramsey.instances import pair_count


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

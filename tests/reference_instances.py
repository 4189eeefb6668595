"""The instance-file bit writer as it tested one bit of the code at a
time (quadratic in C(n,2) on a Python int), kept verbatim as the
reference for `epsilon0.ramsey.instances._format_bits`."""

from epsilon0.ramsey.instances import pair_count


def _format_bits(bits: int, n: int) -> str:
    return "".join("1" if (bits >> i) & 1 else "0" for i in range(pair_count(n)))

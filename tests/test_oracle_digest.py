"""Byte-level pins of every brute-force oracle answer.

For each instance the answer line is the (size, sorted witness) of
`brute_max_homogeneous` / `brute_max_transitive` followed by the
`has_*_of_size` answers for k = -1 .. n+1.  The digests are sha256 of
those lines, one per (property, n), over every code with n <= 5 and over
the seeded instances `make_<kind>(n, 100 * n + i)`, i < 40, for
n = 6 .. 14.  They were computed with the searches as written before the
threshold queries became the maximum searches run from a floor.
"""

import hashlib

import pytest

from epsilon0.generate import make_coloring, make_tournament
from epsilon0.ramsey import (
    PairColoring, Tournament,
    brute_max_homogeneous, brute_max_transitive,
    has_homogeneous_of_size, has_transitive_of_size,
)
from epsilon0.ramsey.instances import pair_count

SEEDED = 40

PROPERTIES = {
    "homogeneous": (PairColoring, make_coloring, brute_max_homogeneous,
                    has_homogeneous_of_size),
    "transitive": (Tournament.from_bits, make_tournament, brute_max_transitive,
                   has_transitive_of_size),
}


def instances(prop, n):
    from_code, make, _, _ = PROPERTIES[prop]
    if n <= 5:
        return [from_code(n, code) for code in range(1 << pair_count(n))]
    return [make(n, 100 * n + i) for i in range(SEEDED)]


def answer_digest(prop, n):
    _, _, brute, has = PROPERTIES[prop]
    h = hashlib.sha256()
    for inst in instances(prop, n):
        size, witness = brute(inst)
        answers = "".join("1" if has(inst, k) else "0" for k in range(-1, n + 2))
        h.update(f"{size} {sorted(witness)} {answers}\n".encode())
    return h.hexdigest()


GOLDEN = {
    ("homogeneous", 0): "458ef9439a844fd6917ff84ccdb97e6b44c010db7cb36d75b0a4f2bd7e239fe2",
    ("homogeneous", 1): "5fc2a9e88ede1b71ac38ca8032703a501e269d39e2ae92c7c3748dbc7f55c807",
    ("homogeneous", 2): "39bec5002da8808964551d0f25bc83bdfc2983434d1d136cce2916ff37ec3f2a",
    ("homogeneous", 3): "f3b6565fd88de8826a5c048e5505bdfe429cd76e129ecf95b045e03a55feec32",
    ("homogeneous", 4): "0edbe3b51f44c6250cb8265cb5004fba9f127662b816b197374413f144f3060b",
    ("homogeneous", 5): "5b02636e9b0f703fa66d51816683d8b9926b68aac722272d8ec8d0ec1a87f439",
    ("homogeneous", 6): "32b47cae51bcf063e7e536625287c51309bcbca8901cbd67626e02edc4a8992d",
    ("homogeneous", 7): "81c9f9e2883a5386d89ed1cbc58e53a7c98fd09db603fdfc2f6410c39ca7aee4",
    ("homogeneous", 8): "89b43398c2a90c8588e10d1cdf27508d1390e29464bf7437c41e878c50a29d4d",
    ("homogeneous", 9): "77babd1d3b38073ff6f0e2e183465778a303f9e5fca3218002ddd3b610f1de50",
    ("homogeneous", 10): "ad2c3404f0b2c5cbdf3b469f1097a949cc3059b64c1d9df5d3a37dbb1c7eeba5",
    ("homogeneous", 11): "398ebfad53f99236d146938448b48191eb7305281b9b3b5490a0a397261c3af1",
    ("homogeneous", 12): "a873eafa7c2aa98403d8a4e4a397988e2974236d8e0b2f81943fa412d2a9a036",
    ("homogeneous", 13): "c0bf8d12fdd72a7b087fa26dfb8972d66381772b17abb7b306e5158b0155398c",
    ("homogeneous", 14): "8c094ad1da441a2bd5bffd0713587ed41d827a7e1c18e3872aeda7b2ced62694",
    ("transitive", 0): "458ef9439a844fd6917ff84ccdb97e6b44c010db7cb36d75b0a4f2bd7e239fe2",
    ("transitive", 1): "5fc2a9e88ede1b71ac38ca8032703a501e269d39e2ae92c7c3748dbc7f55c807",
    ("transitive", 2): "39bec5002da8808964551d0f25bc83bdfc2983434d1d136cce2916ff37ec3f2a",
    ("transitive", 3): "603b185ca6f21ea43db1352ca0db53401caafb1106bec01dcf97230d799b1617",
    ("transitive", 4): "73c4168d40314b4ff7a98306863c95bafcafeb4bddf13b80c6d8bb76edc1551e",
    ("transitive", 5): "32bb2fc19cd515b0637d244c934ddc0e0d4ec9b62db54649a8e378ecbf55b92f",
    ("transitive", 6): "d35a8694f29f3924571ee98817dfee9f94817ff3ccfd1275c633799b7ce76bfb",
    ("transitive", 7): "75b0d177e5b549935537b646d4854de3160c4996036000a9b5cc27d17c935323",
    ("transitive", 8): "e47bcfd373d1b103ea605370d06ac27f87e553b58c6a59a58e6ae227c831e2d9",
    ("transitive", 9): "3ed2a5c2b3b92b90c1fe01b2a8778800ae2774b10756113bf8a33a3610519699",
    ("transitive", 10): "25267ee61de8bd861df2900e134725de40e57663da63f2737043fb11fdccd2c4",
    ("transitive", 11): "586f809a63c20d89f5baacfdd22ddec4b7d94cdeb487929df4e40f12981176f4",
    ("transitive", 12): "b9e4a865014f22203a1cff9d1209338cea134f7dd1d16c2ca8d3b0b23afacc49",
    ("transitive", 13): "d468db51522f716aa6d68b388454938f4c89122eca092c3482ad8f2232b39866",
    ("transitive", 14): "15109e2b50a3e8884a11950cb703b675aea19db7f1103e3de8a2bb9c98105e0b",
}


@pytest.mark.parametrize("prop,n", sorted(GOLDEN))
def test_oracle_answers_match_golden_digest(prop, n):
    assert answer_digest(prop, n) == GOLDEN[prop, n]


def test_every_property_and_size_is_pinned():
    assert sorted(GOLDEN) == sorted((p, n) for p in PROPERTIES for n in range(15))

"""An enumeration is its delta log plus one current tree.

Equality, hash and repr come from the deltas alone.  `eps0 enum measure`
prints one leaf-rank count per stage, the same count `zeta_decrease_check`
reads; it is checked through `main` against the command as it was, which
measured every stage snapshot on its own (`ref_cmd_enum_measure` in
`tests/reference_measures.py`): stdout, stderr and exit code must match
byte for byte, including the lines printed before an `error: ...`.  A
chain grown one node per stage over 1,500 stages is run and measured
within a wall-clock budget.
"""

import tempfile
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import epsilon0.cli
import epsilon0.enumeration
from epsilon0.enumeration import (
    MonotoneEnumeration, RankAssignment, format_enumeration_log, step,
)
from epsilon0.ordinal import (
    MAX_DEPTH, ONE, ZERO, format_ordinal, from_int, nat_add, nat_mul_k, omega_pow, tower,
)
from reference_measures import ref_cmd_enum_measure
from support import run_cli

#: The least rank whose w-power is past MAX_DEPTH, and the bound of every log.
DEEP = tower(ZERO, MAX_DEPTH)
BOUND = nat_mul_k(DEEP, 3)
SHALLOW_RANKS = [ZERO, ONE, from_int(2), from_int(30)]
DEEP_RANKS = [DEEP, nat_add(DEEP, ONE)]


def test_equality_hash_and_repr_come_from_the_deltas():
    def build():
        return step(step(MonotoneEnumeration.initial(), [(0,), (1,)]), [(0, 0)])

    a, b = build(), build()
    assert a.current is not b.current
    assert a == b and hash(a) == hash(b)
    assert repr(a) == repr(b) == f"MonotoneEnumeration(deltas={a.deltas!r})"
    assert a != step(MonotoneEnumeration.initial(), [(0,), (1,)])
    assert MonotoneEnumeration.initial() == MonotoneEnumeration.initial()


# ---------------------------------------------------------------------------
# enum measure against the per-snapshot command
# ---------------------------------------------------------------------------

def measure_both_ways(text):
    """`eps0 enum measure` on the log `text`, then the same through the
    per-snapshot reference."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "enum.log"
        path.write_text(text)
        got = run_cli("enum", "measure", str(path))
        with mock.patch.object(epsilon0.cli, "_cmd_enum", ref_cmd_enum_measure):
            want = run_cli("enum", "measure", str(path))
    return got, want


@st.composite
def measure_logs(draw):
    """Logs whose stages grow current leaves, may grow a node added in the
    same stage (so it is a leaf at no stage) and may be idle.  Ranks
    mostly drop with depth; some are missing, too deep for a w-power, or
    drawn at random, so not below the parent."""
    enum = MonotoneEnumeration.initial()
    for _ in range(draw(st.integers(0, 5))):
        additions = []
        for _ in range(draw(st.integers(0, 3))):
            base = draw(st.sampled_from(enum.current.leaves() + additions))
            additions.append(base + (draw(st.integers(0, 2)),))
        enum = step(enum, additions)
    ranks = {}
    for node in sorted(enum.current.nodes):
        choice = draw(st.integers(0, 20))
        if choice == 1:
            ranks[node] = draw(st.sampled_from(SHALLOW_RANKS))
        elif choice == 2:
            ranks[node] = draw(st.sampled_from(DEEP_RANKS))
        elif choice:
            ranks[node] = from_int(20 - len(node))
    return format_enumeration_log(enum, RankAssignment(ranks, BOUND))


@settings(derandomize=True, database=None)
@given(measure_logs())
def test_enum_measure_matches_the_per_snapshot_command(text):
    got, want = measure_both_ways(text)
    assert got == want


ROOT_TO_TWO_LEAVES = "root rank=3\nstage 1\nadd 0 rank=2\nadd 1 rank=2\n"


@pytest.mark.parametrize("text, expected", [
    # a missing rank at stage 2, after two stage lines
    (ROOT_TO_TWO_LEAVES + "stage 2\nadd 0.0\n",
     (1, "stage=0 zeta=w^(3)\nstage=1 zeta=w^(2)*2\n",
      "error: no rank for node (0, 0)\n")),
    # a rank too deep for its w-power at stage 2
    (f"bound={format_ordinal(BOUND)}\n" + ROOT_TO_TWO_LEAVES
     + f"stage 2\nadd 1.0 rank={format_ordinal(DEEP)}\n",
     (1, "stage=0 zeta=w^(3)\nstage=1 zeta=w^(2)*2\n",
      f"error: nesting depth {MAX_DEPTH + 1} exceeds the limit of {MAX_DEPTH}\n")),
    # (0,) is a leaf at no stage: only the rank pass misses its rank
    ("root rank=3\nstage 1\nadd 0\nadd 0.0 rank=1\n",
     (1, "stage=0 zeta=w^(3)\nstage=1 zeta=w\n", "error: no rank for node (0,)\n")),
    # idle stages are exempt from the decrease
    (ROOT_TO_TWO_LEAVES + "stage 2\nstage 3\nadd 1.0 rank=0\nstage 4\n",
     (0, "stage=0 zeta=w^(3)\nstage=1 zeta=w^(2)*2\nstage=2 zeta=w^(2)*2\n"
         "stage=3 zeta=w^(2) + 1\nstage=4 zeta=w^(2) + 1\ndecrease ok\n", "")),
    # a stage whose measure does not drop: a child ranked at its parent's rank
    (ROOT_TO_TWO_LEAVES + "stage 2\nadd 0.0 rank=2\n",
     (1, "stage=0 zeta=w^(3)\nstage=1 zeta=w^(2)*2\nstage=2 zeta=w^(2)*2\n"
         "violation stage=2 kind=rank\n", "")),
])
def test_enum_measure_matches_the_per_snapshot_command_on_each_case(text, expected):
    got, want = measure_both_ways(text)
    assert got == want == expected


@pytest.mark.parametrize("text, expected", [
    (ROOT_TO_TWO_LEAVES + "stage 2\nadd 1.0 rank=0\n",
     (0, "stage=0 zeta=w^(3)\nstage=1 zeta=w^(2)*2\nstage=2 zeta=w^(2) + 1\ndecrease ok\n", "")),
    (ROOT_TO_TWO_LEAVES + "stage 2\nadd 0.0 rank=2\n",
     (1, "stage=0 zeta=w^(3)\nstage=1 zeta=w^(2)*2\nstage=2 zeta=w^(2)*2\n"
         "violation stage=2 kind=rank\n", "")),
    (ROOT_TO_TWO_LEAVES + "stage 2\nadd 0.0\n",
     (1, "stage=0 zeta=w^(3)\nstage=1 zeta=w^(2)*2\n", "error: no rank for node (0, 0)\n")),
])
def test_enum_measure_measures_the_stages_in_one_pass(text, expected):
    passes = []
    stage_measures = epsilon0.enumeration._stage_measures

    def counted(enum, ranks):
        passes.append(1)
        return stage_measures(enum, ranks)

    with mock.patch.object(epsilon0.enumeration, "_stage_measures", counted):
        got, want = measure_both_ways(text)
    assert got == want == expected
    assert len(passes) == 1


# ---------------------------------------------------------------------------
# a chain grown one node per stage
# ---------------------------------------------------------------------------

def test_enum_run_grows_a_1500_stage_chain_within_budget():
    start = time.perf_counter()
    got = run_cli("enum", "run", "--style", "chain", "--depth", "1500",
                  "--branching", "1", "--fuel", "2000")
    assert time.perf_counter() - start < 3.0
    assert got == (0, f"finished nodes=1501 bound={2 ** 1501}\n", "")


def test_enum_measure_of_a_1500_stage_chain_within_budget(tmp_path):
    path = tmp_path / "chain.log"
    lines = ["bound=w^(2)", "root rank=w"]
    for d in range(1, 1501):
        lines += [f"stage {d}", f"add {'.'.join('0' * d)} rank={1500 - d}"]
    path.write_text("\n".join(lines) + "\n")
    start = time.perf_counter()
    code, out, err = run_cli("enum", "measure", str(path))
    assert time.perf_counter() - start < 3.0
    zetas = ["w^(w)"] + [format_ordinal(omega_pow(from_int(1500 - d))) for d in range(1, 1501)]
    assert (code, err) == (0, "")
    assert out == "".join(f"stage={s} zeta={z}\n" for s, z in enumerate(zetas)) + "decrease ok\n"

"""`step` against the prefix-scanning version it replaced.

`reference_step` is the old `step`: for every added node it slices each
prefix to find the anchor and the first missing intermediate node, O(d^2)
work per node of depth d, and it builds the next tree from scratch.  The
current `step` decides a node from its parent and grows a copy of the
current tree; both must return the same enumeration and tree, or the same
first rejection (node, clause and reason, in `additions` order).  Stepping
an older enumeration again (a fork) must leave its tree as it was.
"""

import io
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import example, given, settings
from hypothesis import strategies as st

from epsilon0.cli import main
from epsilon0.enumeration import (
    LabeledTree, MonotoneEnumeration, StepRejection, step,
)


def reference_step(enum, additions):
    tree = enum.current
    added = dict.fromkeys(map(tuple, additions))
    for node in added:
        if node in tree:
            return StepRejection(3, node, "node already enumerated")
        # Longest prefix already in the tree; it must be a current leaf
        # and the gap must be filled by this same stage.
        k = len(node) - 1
        while k >= 0 and node[:k] not in tree:
            k -= 1
        anchor = node[:k]
        if not tree.is_leaf(anchor):
            return StepRejection(3, node, "does not extend a terminal node")
        for j in range(k + 1, len(node)):
            if node[:j] not in added:
                return StepRejection(3, node, f"missing intermediate node {node[:j]}")
    return MonotoneEnumeration(deltas=enum.deltas + (frozenset(added),),
                               current=LabeledTree(tree.nodes | set(added)))


def enumeration_of(nodes):
    closed = {()}
    for node in nodes:
        closed.update(node[:k] for k in range(len(node) + 1))
    return MonotoneEnumeration(deltas=(frozenset(closed),), current=LabeledTree(closed))


def shape(tree):
    """A tree's nodes and every node's children, for comparing trees."""
    return tree.nodes, {node: tree.children(node) for node in tree.nodes}


def assert_same_step(enum, additions):
    got, want = step(enum, additions), reference_step(enum, additions)
    if isinstance(want, StepRejection):
        assert got == want
    else:
        assert isinstance(got, MonotoneEnumeration)
        assert got == want                      # the deltas; `current` is not compared
        assert shape(got.current) == shape(want.current)
    return want


coordinate = st.integers(0, 2)
short_node = st.lists(coordinate, max_size=3).map(tuple)


@st.composite
def additions_to(draw, tree):
    """One stage's additions to `tree`, built to reach every clause:
    chains grown from leaves and from internal nodes, chains with missing
    links, nodes already in the tree, in any order (children often before
    their parents), or nothing (an idle stage)."""
    nodes = sorted(tree.nodes)
    additions = []
    for _ in range(draw(st.integers(0, 4))):
        base = draw(st.sampled_from(nodes))
        tail = draw(st.lists(coordinate, min_size=1, max_size=4))
        chain = [base + tuple(tail[:k]) for k in range(1, len(tail) + 1)]
        missing = draw(st.sets(st.integers(0, len(chain) - 2))) if len(chain) > 1 else set()
        additions += [node for i, node in enumerate(chain) if i not in missing]
    if draw(st.booleans()):
        additions.append(draw(st.sampled_from(nodes)))         # already enumerated
    return draw(st.permutations(additions))


@st.composite
def stage_scripts(draw):
    """A current tree and one stage's additions."""
    enum = enumeration_of(draw(st.lists(short_node, max_size=6)))
    return enum, draw(additions_to(enum.current))


@given(stage_scripts())
@example((enumeration_of([]), [(0, 0, 0), (0, 0), (0,)]))
@example((enumeration_of([(0,)]), [(0, 0, 0), (0,)]))
@example((enumeration_of([(0, 1)]), [(0, 2, 1), (0, 2), (1, 0, 0)]))
@example((enumeration_of([(0,)]), [(0, 0, 1, 1), (0, 0)]))
def test_step_matches_the_reference(script):
    assert_same_step(*script)


@settings(derandomize=True, database=None)
@given(st.lists(short_node, max_size=4), st.data())
def test_stepping_and_forking_grow_the_trees_a_rebuild_gives(start, data):
    # each entry: an enumeration and its stage trees, built from scratch
    enum = enumeration_of(start)
    history = [(enum, [enum.current])]
    for _ in range(data.draw(st.integers(1, 6))):
        enum, snapshots = history[data.draw(st.integers(0, len(history) - 1))]
        before = shape(enum.current)
        additions = data.draw(additions_to(enum.current))
        got, want = step(enum, additions), reference_step(enum, additions)
        assert shape(enum.current) == before
        assert got == want
        if isinstance(want, StepRejection):
            continue
        snapshots = snapshots + [want.current]
        assert shape(got.current) == shape(want.current)
        assert [shape(tree) for tree in got.stages] == [shape(tree) for tree in snapshots]
        history.append((got, snapshots))
    for enum, snapshots in history:
        assert shape(enum.current) == shape(snapshots[-1])


def test_every_rejection_clause_is_reached_with_children_first():
    enum = enumeration_of([(0, 1), (1,)])       # leaves (0, 1) and (1,)
    cases = [
        ({(1, 0, 0): 1, (1, 0): 2, (0, 1, 1): 3}, None),
        ({(1, 0): 1, (0,): 2}, ((0,), "node already enumerated")),
        ({(0, 2, 0): 1, (0, 2): 1}, ((0, 2, 0), "does not extend a terminal node")),
        ({(2, 0, 0): 1, (2, 0): 1}, ((2, 0, 0), "does not extend a terminal node")),
        ({(1, 0, 0, 0): 1, (1, 0): 1}, ((1, 0, 0, 0), "missing intermediate node (1, 0, 0)")),
        ({(1, 0, 0, 0): 1, (1, 0, 0): 1}, ((1, 0, 0, 0), "missing intermediate node (1, 0)")),
        ({(1, 0, 0, 0): 1}, ((1, 0, 0, 0), "missing intermediate node (1, 0)")),
    ]
    for additions, rejected in cases:
        want = assert_same_step(enum, additions)
        got = (want.node, want.reason) if isinstance(want, StepRejection) else None
        assert got == rejected


def test_step_checks_each_added_node_a_bounded_number_of_times(monkeypatch):
    # The scan it replaced made 1.13M membership tests for this chain.
    depth = 1500
    chain = {(0,) * d: None for d in range(depth, 0, -1)}      # children first
    calls = 0
    contains = LabeledTree.__contains__

    def counting(self, node):
        nonlocal calls
        calls += 1
        return contains(self, node)

    monkeypatch.setattr(LabeledTree, "__contains__", counting)
    result = step(MonotoneEnumeration.initial(), chain)
    assert isinstance(result, MonotoneEnumeration) and len(result.current) == depth + 1
    assert calls <= 4 * depth


def test_enum_measure_of_a_deep_chain_added_in_one_stage(tmp_path):
    path = tmp_path / "chain.log"
    adds = [f"add {'.'.join('0' * d)} rank={1500 - d}" for d in range(1500, 0, -1)]
    path.write_text("\n".join(["bound=w^(2)", "root rank=w", "stage 1", *adds]) + "\n")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["enum", "measure", str(path)])
    assert (code, out.getvalue(), err.getvalue()) == (
        0, "stage=0 zeta=w^(w)\nstage=1 zeta=1\ndecrease ok\n", "")

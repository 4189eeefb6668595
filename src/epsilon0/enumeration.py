"""Staged monotone enumerations and their ordinal termination measures.

A monotone enumeration grows a finitely branching tree in stages:
the root appears at stage 0, each stage adds finitely many nodes, and
every node added at stage s+1 must properly extend a node that was a leaf
at the end of stage s.  A b-bounded enumeration (all nodes of length at
most b) with branching at most d can never exceed (d+1)^(b+1) nodes, which
is the desk-scale content of "bounded monotone enumerations are finite".

An enumeration is recorded as its per-stage additions (the deltas) plus
the tree at its last stage; the tree of an earlier stage is rebuilt from
the deltas when asked for.

Two ordinal measures witness termination:

* `zeta_measure` assigns w^rank to every leaf and the natural sum of the
  children to every internal node; growing a leaf into strictly
  lower-ranked children strictly shrinks the value.  `eps0 enum measure`
  and `zeta_decrease_check` read it off one leaf-rank count per stage.
* `zeta_pair_measure` is the two-rank variant for binary trees: each node
  contributes w^(f0 + f1) * (2 - #children), plus its children.

Enumeration log format (see README)::

    root rank=<ordinal>            # optional, before any stage block
    stage <s>
    add <dot-separated-ints> rank=<ordinal>
    ...

Stage numbers must increase; stage 0 is implicit (the root) and may only
carry the root rank line.  A log is read and written with one text memo.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Tuple, Union

from .ordinal import (
    LT,
    OMEGA,
    Ordinal,
    _SHALLOW,
    _depth,
    _format,
    _nat_sum,
    _read,
    compare,
    from_int,
    omega_pow,
)

Node = Tuple[int, ...]

ROOT: Node = ()

__all__ = [
    "Node", "ROOT", "LabeledTree", "MonotoneEnumeration", "RankAssignment",
    "StepRejection", "Finished", "FuelExhausted",
    "step", "check_bounded", "run_to_finiteness",
    "zeta_measure", "zeta_decrease_check", "ZetaCheckResult",
    "zeta_pair_measure", "extendible_node",
    "parse_enumeration_log", "format_enumeration_log", "MissingRankError",
]


class MissingRankError(ValueError):
    """A measure needed a rank that the assignment does not provide."""


class LabeledTree:
    """A finite prefix-closed set of integer sequences.

    Children are ordered by their final coordinate.
    """

    __slots__ = ("nodes", "_children")

    def __init__(self, nodes: Iterable[Node]):
        nodes = frozenset(tuple(n) for n in nodes)
        if ROOT not in nodes:
            raise ValueError("the root must be present")
        children: Dict[Node, List[Node]] = {n: [] for n in nodes}
        for n in nodes:
            if n:
                parent = n[:-1]
                if parent not in nodes:
                    raise ValueError(f"not prefix-closed: {n} present without {parent}")
                children[parent].append(n)
        for kids in children.values():
            kids.sort()
        self.nodes: FrozenSet[Node] = nodes
        self._children = children

    def _grown(self, delta: FrozenSet[Node]) -> "LabeledTree":
        """This tree plus `delta`, where every node of `delta` has its
        parent among this tree's leaves or in `delta` (as `step` checks).
        The node set and children dict are copied, which reuses the stored
        hashes; only the parents of delta nodes get new child lists, so
        this tree is left as it was."""
        tree = LabeledTree.__new__(LabeledTree)
        tree.nodes = self.nodes | delta
        tree._children = children = dict(self._children)
        children.update((node, []) for node in delta | {node[:-1] for node in delta})
        for node in sorted(delta):
            children[node[:-1]].append(node)
        return tree

    def __contains__(self, node: Node) -> bool:
        return node in self.nodes

    def __len__(self) -> int:
        return len(self.nodes)

    def children(self, node: Node) -> List[Node]:
        return self._children[node]

    def is_leaf(self, node: Node) -> bool:
        return not self._children[node]

    def leaves(self) -> List[Node]:
        return sorted(n for n, kids in self._children.items() if not kids)

    def at_depth(self, depth: int) -> List[Node]:
        return sorted(n for n in self.nodes if len(n) == depth)


@dataclass(frozen=True)
class StepRejection:
    """A stage violated one of the three enumeration clauses."""

    clause: int  # 1, 2 or 3
    node: Optional[Node] = None
    reason: str = ""


@dataclass(frozen=True)
class MonotoneEnumeration:
    """The per-stage additions: `deltas[0]` is the tree T[0] and
    `deltas[s]` the nodes added at stage s.  `current` is the last tree;
    it follows from the deltas, so equality, hash and repr ignore it."""

    deltas: Tuple[FrozenSet[Node], ...]
    current: LabeledTree = field(compare=False, repr=False)

    @classmethod
    def initial(cls) -> "MonotoneEnumeration":
        return cls(deltas=(frozenset({ROOT}),), current=LabeledTree([ROOT]))

    @property
    def stages(self) -> Tuple[LabeledTree, ...]:
        """The trees T[0], T[1], ..., replayed from the deltas."""
        trees = [LabeledTree(self.deltas[0])]
        for delta in self.deltas[1:]:
            trees.append(trees[-1]._grown(delta))
        return tuple(trees)

    def stage_count(self) -> int:
        return len(self.deltas)


def step(enum: MonotoneEnumeration,
         additions: Iterable[Node]) -> Union[MonotoneEnumeration, StepRejection]:
    """Append the next stage, or reject with the violated clause.

    Every added node must properly extend a leaf of the current tree, with
    any intermediate nodes also among the additions (so the result stays
    prefix-closed).  An empty addition set is an idle stage.  The first
    offending node in `additions` order is rejected, or raises ValueError
    if its last index is not a non-negative int.  `enum` itself is not
    changed, so it can be stepped again.
    """
    tree = enum.current
    added = dict.fromkeys(map(tuple, additions))
    found: Dict[Node, Tuple[Node, Optional[Node]]] = {}
    for node in added:
        if node and (type(node[-1]) is not int or node[-1] < 0):
            raise ValueError(f"node {node!r}: an index must be a non-negative int")
        if node in tree:
            return StepRejection(3, node, "node already enumerated")
        parent = node[:-1]
        if parent in tree:
            anchor, gap = parent, None
        else:
            anchor, gap = _anchor_and_gap(tree, added, node, found)
        if not tree.is_leaf(anchor):
            return StepRejection(3, node, "does not extend a terminal node")
        if gap is not None:
            return StepRejection(3, node, f"missing intermediate node {gap}")
    delta = frozenset(added)
    return MonotoneEnumeration(deltas=enum.deltas + (delta,), current=tree._grown(delta))


def _anchor_and_gap(tree: LabeledTree, added: Mapping[Node, None], node: Node,
                    found: Dict[Node, Tuple[Node, Optional[Node]]]
                    ) -> Tuple[Node, Optional[Node]]:
    """For an added node outside the tree: its longest prefix in the tree
    (the anchor) and its shortest prefix between the anchor and itself
    that is not added (the gap, None when there is none).

    A node whose parent is in the tree has that parent as anchor and no
    gap.  A node whose parent is added (and not in the tree) shares the
    parent's anchor and gap: the prefixes between the anchor and the node
    are the parent's plus the parent itself.  Chains of added parents are
    walked iteratively and every node decided is kept in `found`, so each
    is decided once; only a node whose parent is neither in the tree nor
    added is scanned prefix by prefix.
    """
    chain = []
    while node not in found:
        parent = node[:-1]
        if parent in tree:
            found[node] = (parent, None)
        elif parent in added:
            chain.append(node)
            node = parent
            continue
        else:
            k = len(node) - 1
            while node[:k] not in tree:           # the root is always in the tree
                k -= 1
            gap = next(node[:j] for j in range(k + 1, len(node)) if node[:j] not in added)
            found[node] = (node[:k], gap)
        break
    for child in chain:
        found[child] = found[node]
    return found[node]


def check_bounded(enum: MonotoneEnumeration, b: int) -> Optional[Node]:
    """None if every node has length <= b, else the first offending node."""
    return min((node for node in enum.current.nodes if len(node) > b), default=None)


@dataclass(frozen=True)
class Finished:
    enumeration: MonotoneEnumeration


@dataclass(frozen=True)
class FuelExhausted:
    enumeration: MonotoneEnumeration


@dataclass(frozen=True)
class PreconditionViolation:
    """The generator broke the bound or branching precondition."""

    kind: str  # "bound" or "branching"
    node: Optional[Node] = None
    reason: str = ""


RunOutcome = Union[Finished, FuelExhausted, StepRejection, PreconditionViolation]


def run_to_finiteness(gen: Iterator[Iterable[Node]],
                      b: int, d: int, fuel: int) -> RunOutcome:
    """Drive a stage generator until it stops, it misbehaves, or fuel runs out.

    The generator must only produce stages that pass `step`, stay b-bounded
    and keep branching at most d; violations are returned as rejections.
    Exhaustion of the generator is the finiteness signal, and the static
    node-count bound (d+1)^(b+1) is asserted on the final tree.  A negative
    b or d raises ValueError before the generator is first called.
    """
    if b < 0 or d < 0:
        raise ValueError(f"bound and branching must be non-negative, got b={b} d={d}")
    enum = MonotoneEnumeration.initial()
    for _ in range(fuel):
        try:
            additions = next(gen)
        except StopIteration:
            bound = (d + 1) ** (b + 1)
            if len(enum.current) > bound:
                raise AssertionError(
                    f"node count {len(enum.current)} exceeds static bound {bound}")
            return Finished(enum)
        result = step(enum, additions)
        if isinstance(result, StepRejection):
            return result
        enum = result
        delta = enum.deltas[-1]  # the earlier stages passed; only the delta can fail
        offender = min((node for node in delta if len(node) > b), default=None)
        if offender is not None:
            return PreconditionViolation("bound", offender, f"node longer than bound {b}")
        if any(len(enum.current.children(node[:-1])) > d for node in delta):
            return PreconditionViolation("branching", None, f"branching exceeds {d}")
    return FuelExhausted(enum)


@dataclass(frozen=True)
class RankAssignment:
    """Ordinal ranks for tree nodes, all below an explicit bound."""

    rank: Mapping[Node, Ordinal]
    bound: Ordinal

    def __post_init__(self):
        self.check_bounds()

    def get(self, node: Node) -> Ordinal:
        try:
            return self.rank[node]
        except KeyError:
            raise MissingRankError(f"no rank for node {node}") from None

    def check_bounds(self) -> None:
        for node, r in self.rank.items():
            if compare(r, self.bound) != LT:
                raise ValueError(f"rank of {node} is not below the bound")


def zeta_measure(tree: LabeledTree, ranks: RankAssignment) -> Ordinal:
    """Bottom-up measure: leaves give w^rank, internal nodes the natural
    sum of their children, so the root's is the sum of w^rank over the
    leaves (in sorted, depth-first order).  Always below w^bound."""
    return _nat_sum(Counter(omega_pow(ranks.get(leaf))[0][0] for leaf in tree.leaves()),
                    _depth(ranks.bound) > _SHALLOW)   # no rank is deeper than its bound


@dataclass(frozen=True)
class ZetaCheckResult:
    ok: bool
    stage: Optional[int] = None
    kind: str = ""  # "rank" (precondition) or "decrease"
    node: Optional[Node] = None


def _stage_measures(enum: MonotoneEnumeration, ranks: RankAssignment) -> Iterator[Ordinal]:
    """`zeta_measure` of every stage's tree in turn, from the deltas alone.

    Keeps the current leaves and the count of their ranks.  At each stage
    the parents of the added nodes stop being leaves, and the added nodes
    that are leaves at its end, in sorted order, enter with w^rank; the
    older leaves were measured at earlier stages, so the first missing or
    too-deep rank raised is the one `zeta_measure` of that tree raises.
    """
    leaves: Dict[Node, Ordinal] = {}
    counts: Counter = Counter()
    deep = _depth(ranks.bound) > _SHALLOW         # no rank is deeper than its bound
    for delta in enum.deltas:
        parents = {node[:-1] for node in delta if node}
        for parent in parents & leaves.keys():
            rank = leaves.pop(parent)
            counts[rank] -= 1
            if not counts[rank]:
                del counts[rank]
        for node in sorted(delta - parents):
            leaves[node] = omega_pow(ranks.get(node))[0][0]
            counts[leaves[node]] += 1
        yield _nat_sum(counts, deep)


def zeta_decrease_check(enum: MonotoneEnumeration, ranks: RankAssignment) -> ZetaCheckResult:
    """Verify the measure strictly drops at every growing stage.

    First enforces the rank precondition (every added node ranked strictly
    below its parent), then compares the measures of consecutive stages.
    Idle stages are exempt from the decrease requirement.
    """
    return _decrease_verdict(enum, ranks, _stage_measures(enum, ranks))


def _decrease_verdict(enum: MonotoneEnumeration, ranks: RankAssignment,
                      measures: Iterable[Ordinal]) -> ZetaCheckResult:
    """`zeta_decrease_check` given the stage measures, which it reads only
    once the rank precondition holds and no further than the first
    violation, so `eps0 enum measure` can pass the ones it printed."""
    for s, delta in enumerate(enum.deltas[1:], start=1):
        for node in sorted(delta):
            if compare(ranks.get(node), ranks.get(node[:-1])) != LT:
                return ZetaCheckResult(False, s, "rank", node)
    measures = iter(measures)
    previous = next(measures)
    for s, (delta, current) in enumerate(zip(enum.deltas[1:], measures), start=1):
        if delta and compare(current, previous) != LT:
            return ZetaCheckResult(False, s, "decrease")
        previous = current
    return ZetaCheckResult(True)


def zeta_pair_measure(tree: LabeledTree,
                      f0: Mapping[Node, int],
                      f1: Mapping[Node, int]) -> Ordinal:
    """Two-rank measure for binary trees.

    Each node contributes w^(f0 + f1) times its free child slots
    (2 - #children), combined with its children by natural sum.
    """
    counts = Counter()
    for node in sorted(tree.nodes):
        kids = tree.children(node)
        if len(kids) > 2:
            raise ValueError(f"node {node} has {len(kids)} children; tree must be binary")
        counts[from_int(f0[node] + f1[node])] += 2 - len(kids)
    return _nat_sum(counts)


def extendible_node(tree: LabeledTree, level: int) -> Node:
    """The depth-`level` node with the most comparable nodes (its ancestors
    plus its descendants within the tree); ties go to the leftmost."""
    candidates = tree.at_depth(level)
    if not candidates:
        raise ValueError(f"no node at depth {level}")
    best = None
    best_count = -1
    for node in candidates:  # sorted, so the first maximum is leftmost
        count = sum(1 for other in tree.nodes
                    if other[:len(node)] == node or node[:len(other)] == other)
        if count > best_count:
            best, best_count = node, count
    return best


# ---------------------------------------------------------------------------
# Enumeration log text format
# ---------------------------------------------------------------------------

def format_node(node: Node) -> str:
    return ".".join(str(i) for i in node) if node else "-"


def parse_node(text: str) -> Node:
    if text == "-":
        return ROOT
    return tuple(map(int, text.split(".")))


# Each line form is matched whole, keyed by the line's first word; a rank
# runs to the end of its line.
_LINE_FORMS = {
    "bound": (re.compile(r"bound=(.*)"), "bound=<ordinal>"),
    "root": (re.compile(r"root\s+rank=(.*)"), "root rank=<ordinal>"),
    "stage": (re.compile(r"stage\s+([0-9]+)"), "stage <int>"),
    "add": (re.compile(r"add\s+(-|[0-9]+(?:\.[0-9]+)*)(?:\s+rank=(.*))?"),
            "add <node> [rank=<ordinal>]"),
}


def _line_fields(keyword: str, line: str, lineno: int) -> Tuple[Optional[str], ...]:
    pattern, form = _LINE_FORMS[keyword]
    match = pattern.fullmatch(line)
    if match is None:
        raise ValueError(f"line {lineno}: expected '{form}', got {line!r}")
    return match.groups()


def parse_enumeration_log(text: str) -> Tuple[MonotoneEnumeration, RankAssignment, Ordinal]:
    """Parse the stage-block format; returns the replayed enumeration, the
    rank assignment, and the rank bound (`bound=<ordinal>` header line,
    defaulting to w).  Malformed or unrecognized lines, and ranks not below
    the bound, raise ValueError."""
    enum = MonotoneEnumeration.initial()
    ranks: Dict[Node, Ordinal] = {}
    bound = OMEGA
    pending: Optional[List[Node]] = None
    expected_stage = 1
    memo: Dict[object, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        keyword = line.split(maxsplit=1)[0].split("=", 1)[0]
        if keyword == "bound":
            bound = _read(_line_fields(keyword, line, lineno)[0], memo)
        elif keyword == "root":
            ranks[ROOT] = _read(_line_fields(keyword, line, lineno)[0], memo)
        elif keyword == "stage":
            if pending is not None:
                result = step(enum, pending)
                if isinstance(result, StepRejection):
                    raise ValueError(f"stage rejected before line {lineno}: {result}")
                enum = result
            declared = int(_line_fields(keyword, line, lineno)[0])
            if declared != expected_stage:
                raise ValueError(f"line {lineno}: expected stage {expected_stage}, got {declared}")
            expected_stage += 1
            pending = []
        elif keyword == "add":
            if pending is None:
                raise ValueError(f"line {lineno}: 'add' before any 'stage'")
            node_text, rank_text = _line_fields(keyword, line, lineno)
            node = parse_node(node_text)
            pending.append(node)
            if rank_text is not None:
                ranks[node] = _read(rank_text, memo)
        else:
            raise ValueError(f"line {lineno}: unrecognized line {line!r}")
    if pending is not None:
        result = step(enum, pending)
        if isinstance(result, StepRejection):
            raise ValueError(f"final stage rejected: {result}")
        enum = result
    return enum, RankAssignment(rank=ranks, bound=bound), bound


def format_enumeration_log(enum: MonotoneEnumeration,
                           ranks: Optional[RankAssignment] = None) -> str:
    lines, memo = [], {}
    if ranks is not None:
        lines.append(f"bound={_format(ranks.bound, memo)}")
        if ROOT in ranks.rank:
            lines.append(f"root rank={_format(ranks.rank[ROOT], memo)}")
    for s, delta in enumerate(enum.deltas):
        if s == 0:
            continue
        lines.append(f"stage {s}")
        for node in sorted(delta):
            if ranks is not None and node in ranks.rank:
                lines.append(f"add {format_node(node)} rank={_format(ranks.rank[node], memo)}")
            else:
                lines.append(f"add {format_node(node)}")
    return "\n".join(lines) + "\n"

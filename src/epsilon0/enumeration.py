"""Staged monotone enumerations and their ordinal termination measures.

A monotone enumeration grows a finitely branching labelled tree in stages:
the root appears at stage 0, each stage adds finitely many nodes, and
every node added at stage s+1 must properly extend a node that was a leaf
at the end of stage s.  A b-bounded enumeration (all nodes of length at
most b) with branching at most d can never exceed (d+1)^(b+1) nodes, which
is the desk-scale content of "bounded monotone enumerations are finite".

Two ordinal measures witness termination:

* `zeta_measure` assigns w^rank to every leaf and the natural sum of the
  children to every internal node; growing a leaf into strictly
  lower-ranked children strictly shrinks the value.
* `zeta_pair_measure` is the two-rank variant for binary trees: each node
  contributes w^(f0 + f1) * (2 - #children), plus its children.

Enumeration log format (see README)::

    root rank=<ordinal>            # optional, before any stage block
    stage <s>
    add <dot-separated-ints> rank=<ordinal>
    ...

Stage numbers must increase; stage 0 is implicit (the root) and may only
carry the root rank line.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Tuple, Union

from .ordinal import (
    LT,
    OMEGA,
    Ordinal,
    compare,
    format_ordinal,
    from_int,
    nat_add,
    nat_mul_k,
    omega_pow,
    parse_ordinal,
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
    """A finite prefix-closed set of integer sequences with payloads.

    Children are ordered by their final coordinate.
    """

    __slots__ = ("nodes", "labels", "_children")

    def __init__(self, nodes: Iterable[Node], labels: Optional[Mapping[Node, object]] = None):
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
        self.labels: Dict[Node, object] = dict(labels or {})
        self._children = children

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

    def max_branching(self) -> int:
        return max((len(kids) for kids in self._children.values()), default=0)


@dataclass(frozen=True)
class StepRejection:
    """A stage violated one of the three enumeration clauses."""

    clause: int  # 1, 2 or 3
    node: Optional[Node] = None
    reason: str = ""


@dataclass(frozen=True)
class MonotoneEnumeration:
    """Stage snapshots T[0], T[1], ... plus the per-stage additions."""

    stages: Tuple[LabeledTree, ...]
    deltas: Tuple[FrozenSet[Node], ...]

    @classmethod
    def initial(cls, root_label: object = None) -> "MonotoneEnumeration":
        tree = LabeledTree([ROOT], {ROOT: root_label} if root_label is not None else {})
        return cls(stages=(tree,), deltas=(frozenset({ROOT}),))

    @property
    def current(self) -> LabeledTree:
        return self.stages[-1]

    def stage_count(self) -> int:
        return len(self.stages)


def step(enum: MonotoneEnumeration,
         additions: Mapping[Node, object]) -> Union[MonotoneEnumeration, StepRejection]:
    """Append the next stage, or reject with the violated clause.

    Every added node must properly extend a leaf of the current tree, with
    any intermediate nodes also among the additions (so the result stays
    prefix-closed).  An empty addition set is an idle stage.  The first
    offending node in `additions` order is rejected.
    """
    tree = enum.current
    added = {tuple(n): lab for n, lab in additions.items()}
    found: Dict[Node, Tuple[Node, Optional[Node]]] = {}
    for node in added:
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
    labels = dict(tree.labels)
    labels.update(added)
    new_tree = LabeledTree(tree.nodes | set(added), labels)
    return MonotoneEnumeration(stages=enum.stages + (new_tree,),
                               deltas=enum.deltas + (frozenset(added),))


def _anchor_and_gap(tree: LabeledTree, added: Mapping[Node, object], node: Node,
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
    for node in sorted(enum.current.nodes):
        if len(node) > b:
            return node
    return None


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


def run_to_finiteness(gen: Iterator[Mapping[Node, object]],
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
        offender = check_bounded(enum, b)
        if offender is not None:
            return PreconditionViolation("bound", offender, f"node longer than bound {b}")
        if enum.current.max_branching() > d:
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


def _bottom_up(tree: LabeledTree, own) -> Ordinal:
    """The root's value, where a node's value is `own(node, kids)` (None
    for nothing) natural-summed with its children's values in order; nodes
    are entered in depth-first pre-order on an explicit stack, not by recursion."""
    kids = tree.children(ROOT)
    stack = [[iter(kids), own(ROOT, kids)]]
    while True:
        kid = next(stack[-1][0], None)
        if kid is not None:
            kids = tree.children(kid)
            stack.append([iter(kids), own(kid, kids)])
            continue
        value = stack.pop()[1]
        if not stack:
            return value
        parent = stack[-1]
        parent[1] = value if parent[1] is None else nat_add(parent[1], value)


def zeta_measure(tree: LabeledTree, ranks: RankAssignment) -> Ordinal:
    """Bottom-up measure: leaves give w^rank, internal nodes the natural
    sum of their children.  Always below w^bound."""
    return _bottom_up(tree, lambda node, kids: None if kids else omega_pow(ranks.get(node)))


@dataclass(frozen=True)
class ZetaCheckResult:
    ok: bool
    stage: Optional[int] = None
    kind: str = ""  # "rank" (precondition) or "decrease"
    node: Optional[Node] = None


def zeta_decrease_check(enum: MonotoneEnumeration, ranks: RankAssignment) -> ZetaCheckResult:
    """Verify the measure strictly drops at every growing stage.

    First enforces the rank precondition (every added node ranked strictly
    below its parent), then recomputes the measure per stage from scratch;
    idle stages are exempt from the decrease requirement.
    """
    for s, delta in enumerate(enum.deltas):
        if s == 0:
            continue
        for node in sorted(delta):
            if compare(ranks.get(node), ranks.get(node[:-1])) != LT:
                return ZetaCheckResult(False, s, "rank", node)
    previous: Optional[Ordinal] = None
    for s, tree in enumerate(enum.stages):
        current = zeta_measure(tree, ranks)
        if s > 0 and enum.deltas[s]:
            if compare(current, previous) != LT:
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

    def own(node: Node, kids: List[Node]) -> Ordinal:
        if len(kids) > 2:
            raise ValueError(f"node {node} has {len(kids)} children; tree must be binary")
        return nat_mul_k(omega_pow(from_int(f0[node] + f1[node])), 2 - len(kids))

    return _bottom_up(tree, own)


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
    pending: Optional[Dict[Node, object]] = None
    expected_stage = 1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        keyword = line.split(maxsplit=1)[0].split("=", 1)[0]
        if keyword == "bound":
            bound = parse_ordinal(_line_fields(keyword, line, lineno)[0])
        elif keyword == "root":
            ranks[ROOT] = parse_ordinal(_line_fields(keyword, line, lineno)[0])
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
            pending = {}
        elif keyword == "add":
            if pending is None:
                raise ValueError(f"line {lineno}: 'add' before any 'stage'")
            node_text, rank_text = _line_fields(keyword, line, lineno)
            node = parse_node(node_text)
            pending[node] = None
            if rank_text is not None:
                ranks[node] = parse_ordinal(rank_text)
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
    lines = []
    if ranks is not None:
        lines.append(f"bound={format_ordinal(ranks.bound)}")
        if ROOT in ranks.rank:
            lines.append(f"root rank={format_ordinal(ranks.rank[ROOT])}")
    for s, delta in enumerate(enum.deltas):
        if s == 0:
            continue
        lines.append(f"stage {s}")
        for node in sorted(delta):
            if ranks is not None and node in ranks.rank:
                lines.append(f"add {format_node(node)} rank={format_ordinal(ranks.rank[node])}")
            else:
                lines.append(f"add {format_node(node)}")
    return "\n".join(lines) + "\n"

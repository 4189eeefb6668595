"""The natural sums as they were computed one `nat_add` per summand, kept
verbatim as the reference for the counting versions in `epsilon0`:
the explicit-stack tree fold behind both ζ-measures, the per-stage
re-measure of `zeta_decrease_check`, the per-event re-sum of
`gamma_combine`, the whole-tree bound and branching checks of
`run_to_finiteness`, and `eps0 enum measure` printing one measure per
stage snapshot."""

from pathlib import Path
from typing import Iterator, List, Mapping, Optional

from epsilon0.descent import DescentTrace, StreamEventLog
from epsilon0.enumeration import (
    ROOT, Finished, FuelExhausted, LabeledTree, MonotoneEnumeration, Node,
    PreconditionViolation, RankAssignment, RunOutcome, StepRejection, ZetaCheckResult,
    check_bounded, parse_enumeration_log, step,
)
from epsilon0.ordinal import (
    LT, Ordinal, compare, format_ordinal, from_int, nat_add, nat_mul_k, omega_pow,
)


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


def ref_zeta_measure(tree: LabeledTree, ranks: RankAssignment) -> Ordinal:
    """Bottom-up measure: leaves give w^rank, internal nodes the natural
    sum of their children.  Always below w^bound."""
    return _bottom_up(tree, lambda node, kids: None if kids else omega_pow(ranks.get(node)))


def ref_zeta_decrease_check(enum: MonotoneEnumeration, ranks: RankAssignment) -> ZetaCheckResult:
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
    for s, tree in enumerate(ref_snapshots(enum)):
        current = ref_zeta_measure(tree, ranks)
        if s > 0 and enum.deltas[s]:
            if compare(current, previous) != LT:
                return ZetaCheckResult(False, s, "decrease")
        previous = current
    return ZetaCheckResult(True)


def ref_zeta_pair_measure(tree: LabeledTree,
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


def ref_gamma_combine(log: StreamEventLog) -> DescentTrace:
    """Merge k partial descents below b into one descent below b * k.

    One output value per event: the natural sum over all k streams of the
    latest value each has emitted (bound if silent so far).
    """
    log.check()
    latest = {}
    values = []
    for ev in log.events:
        latest[ev.stream] = ev.value
        total = nat_mul_k(log.bound, log.k - len(latest))
        for v in latest.values():
            total = nat_add(total, v)
        values.append(total)
    return DescentTrace(bound=nat_mul_k(log.bound, log.k), values=tuple(values))


def ref_run_to_finiteness(gen: Iterator[Mapping[Node, object]],
                          b: int, d: int, fuel: int) -> RunOutcome:
    """The driver that checks bound and branching on the whole tree at
    every stage."""
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
        if max((len(enum.current.children(n)) for n in enum.current.nodes), default=0) > d:
            return PreconditionViolation("branching", None, f"branching exceeds {d}")
    return FuelExhausted(enum)


def ref_snapshots(enum: MonotoneEnumeration) -> List[LabeledTree]:
    """Every stage's tree, each built from scratch from the deltas so far."""
    nodes = set()
    trees = []
    for delta in enum.deltas:
        nodes |= delta
        trees.append(LabeledTree(nodes))
    return trees


def ref_cmd_enum_measure(args) -> int:
    """`eps0 enum measure` as it measured every stage snapshot on its own
    before the decrease check; a drop-in for `epsilon0.cli._cmd_enum`."""
    enum, ranks, _ = parse_enumeration_log(Path(args.file).read_text())
    for s, tree in enumerate(ref_snapshots(enum)):
        print(f"stage={s} zeta={format_ordinal(ref_zeta_measure(tree, ranks))}")
    verdict = ref_zeta_decrease_check(enum, ranks)
    if verdict.ok:
        print("decrease ok")
        return 0
    print(f"violation stage={verdict.stage} kind={verdict.kind}")
    return 1

"""The four benchmark workloads.

Each workload is built by `setup(name, ep, seed)` from a seed alone and
returns a `Workload`: a fixed list of items (one pass) that the harness
runs again and again until its time is up.  An item is a callable that
returns `(emitted_bytes, failures)`; it raises when a call into the
program raises.  The emitted bytes are what the digest gate pins.

Every call into the program goes through a module attribute
(`O.compare`, `D.gamma_combine`, ...), never through a name bound at
set-up time, so that the tracer can wrap those attributes from outside.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

WORKLOADS = ("ordinal-algebra", "descent-enum", "sweep-exhaustive", "solve-sampled")

#: Stages reported by `ramsey.check_failures.<stage>`.
STAGES = ("cohesive", "transitive", "monotone", "final")


@dataclass
class Item:
    kind: str
    count: int                                   # items this call completes
    run: Callable[[], Tuple[bytes, int]]         # -> (emitted bytes, failures)


@dataclass
class Workload:
    name: str
    items: List[Item]
    counters: Dict[str, int] = field(default_factory=dict)

    def bump(self, name: str, by: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + by


def setup(name: str, ep, seed: int) -> Workload:
    """Build the named workload's inputs from `seed`; `ep` holds the
    imported program modules (see run.Program)."""
    builders = {
        "ordinal-algebra": _ordinal_algebra,
        "descent-enum": _descent_enum,
        "sweep-exhaustive": _sweep_exhaustive,
        "solve-sampled": _solve_sampled,
    }
    if name not in builders:
        raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
    return builders[name](ep, seed)


def _shuffled(rng, values: list) -> list:
    out = list(values)
    for i in range(len(out) - 1, 0, -1):
        j = rng.below(i + 1)
        out[i], out[j] = out[j], out[i]
    return out


def _stratified(rng, size: int, count: int) -> List[int]:
    """One seeded index from each of `count` equal strata of range(size),
    so that every seed picks keys of the same spread of sizes."""
    return [lo + rng.below(max(hi - lo, 1)) for lo, hi in
            ((size * r // count, size * (r + 1) // count) for r in range(count))]


def _sign(x: int) -> int:
    return (x > 0) - (x < 0)


# ---------------------------------------------------------------------------
# ordinal-algebra: read-heavy, shallow values, high sharing
# ---------------------------------------------------------------------------

# Sixteen triple rows and the two wide nat_add rows are the slowest
# items, so the tail (the eleventh slowest) falls among the triple rows.
# Their keys are the same for every seed: a triple row's cost depends on
# its key, and drawn keys moved the tail by a tenth from seed to seed.
CMP_ROWS, ADD_ROWS, TRIPLE_ROWS = 24, 24, 16
DEEP, WIDE, WIDE_TERMS, CHUNK = 8, 8, 24, 128


def _ordinal_algebra(ep, seed: int) -> Workload:
    O = ep.ordinal
    rng = ep.generate.SplitMix64(seed)
    indexed = []
    for i in range(10_000):
        try:
            indexed.append((i, O.decode(i)))
        except O.InvalidIndexError:
            continue
    small = [v for _, v in indexed]
    # Towers 100-150 high stay well inside the default recursion limit
    # even with a tracer frame on every recursive call.
    deep = [O.nat_add(O.tower(small[rng.below(len(small))], 100 + rng.below(51)),
                      small[rng.below(64)]) for _ in range(DEEP)]
    wide = []
    for _ in range(WIDE):
        value = O.ZERO
        for _ in range(WIDE_TERMS):
            term = O.omega_pow(small[rng.below(400)])
            value = O.nat_add(value, O.nat_mul_k(term, 1 + rng.below(9)))
        wide.append(value)
    family = small + deep + wide
    stratum = family[::29]
    w = Workload("ordinal-algebra", [])
    state: Dict[str, object] = {}

    def sort_item():
        ordered = sorted(family, key=functools.cmp_to_key(O.compare))
        bad = sum(1 for a, b in zip(ordered, ordered[1:]) if O.compare(a, b) != O.LT)
        state["ordered"] = ordered
        index = {id(v): i for i, v in enumerate(family)}
        return ",".join(str(index[id(v)]) for v in ordered).encode(), bad

    def position_item():
        position = {v: i for i, v in enumerate(state["ordered"])}
        state["position"] = position
        bad = sum(1 for v in family if v not in position) + (len(position) != len(family))
        return str(len(position)).encode(), bad

    def cmp_row(a):
        def run():
            position = state["position"]
            pa = position[a]
            rels, bad = [], 0
            for b in family:
                rel = O.compare(a, b)
                if rel != _sign(pa - position[b]):
                    bad += 1
                rels.append("<=>"[rel + 1])
            return "".join(rels).encode(), int(bad > 0)
        return run

    def add_row(a):
        def run():
            sizes, bad = [], 0
            for b in family:
                s = O.nat_add(a, b)
                if s != O.nat_add(b, a):
                    bad += 1
                sizes.append(len(s.terms))
            return bytes(min(x, 255) for x in sizes), int(bad > 0)
        return run

    def triple_row(a):
        def run():
            bad = checked = 0
            for b in stratum:
                ab = O.nat_add(a, b)
                rel = O.compare(a, b)
                for c in stratum:
                    checked += 1
                    if O.nat_add(ab, c) != O.nat_add(a, O.nat_add(b, c)):
                        bad += 1
                    if rel == O.LT:
                        if O.compare(O.nat_add(a, c), O.nat_add(b, c)) != O.LT:
                            bad += 1
                        if O.compare(O.nat_add(c, a), O.nat_add(c, b)) != O.LT:
                            bad += 1
            return str(checked).encode(), int(bad > 0)
        return run

    def mul_chunk(values):
        def run():
            bad = 0
            for a in values:
                if not a:
                    continue
                shifted = O.nat_mul_omega(a)
                for k in range(1, 11):
                    if O.compare(O.nat_mul_k(a, k), shifted) != O.LT:
                        bad += 1
            return b"", int(bad > 0)
        return run

    def codec_chunk(pairs):
        def run():
            codes, bad = [], 0
            for i, alpha in pairs:
                code = O.encode(alpha)
                if code != i or O.decode(i) != alpha:
                    bad += 1
                codes.append(str(code))
            return ",".join(codes).encode(), int(bad > 0)
        return run

    def text_chunk(values):
        def run():
            texts, bad = [], 0
            for v in values:
                text = O.format_ordinal(v)
                if O.parse_ordinal(text) != v:
                    bad += 1
                texts.append(text)
            return "\n".join(texts).encode(), int(bad > 0)
        return run

    rows: List[Item] = []
    cmp_keys = [small[i] for i in _stratified(rng, len(small), CMP_ROWS - 4)]
    cmp_keys += deep[:2] + wide[:2]
    add_keys = [small[i] for i in _stratified(rng, len(small), ADD_ROWS - 4)]
    add_keys += deep[2:4] + wide[2:4]
    tri_keys = [stratum[len(stratum) * r // TRIPLE_ROWS] for r in range(TRIPLE_ROWS)]
    rows += [Item("compare-row", 1, cmp_row(a)) for a in cmp_keys]
    rows += [Item("nat_add-row", 1, add_row(a)) for a in add_keys]
    rows += [Item("triple-row", 1, triple_row(a)) for a in tri_keys]
    rows += [Item("mul-row", 1, mul_chunk(family[i:i + CHUNK]))
             for i in range(0, len(family), CHUNK)]
    rows += [Item("codec-row", 1, codec_chunk(indexed[i:i + CHUNK]))
             for i in range(0, len(indexed), CHUNK)]
    text_values = _shuffled(rng, family)
    rows += [Item("text-row", 1, text_chunk(text_values[i:i + CHUNK]))
             for i in range(0, len(text_values), CHUNK)]
    # The sort and the position dict come first: every compare row reads them.
    w.items = [Item("sort", 1, sort_item), Item("position", 1, position_item)]
    w.items += _shuffled(rng, rows)
    return w


# ---------------------------------------------------------------------------
# descent-enum: construct-heavy values, low sharing
# ---------------------------------------------------------------------------

LOGS, RANK_SCRIPTS, PAIR_SCRIPTS = 64, 128, 128
LOG_EVENTS, RANK_STAGES, PAIR_STAGES = 24, 8, 24


def _random_ordinal(O, rng, depth: int, width: int):
    if depth == 0:
        return O.from_int(rng.below(4))
    total = O.ZERO
    for _ in range(width):
        term = O.omega_pow(_random_ordinal(O, rng, depth - 1, width))
        total = O.nat_add(total, O.nat_mul_k(term, 1 + rng.below(3)))
    return total


def _below(O, rng, a):
    """A seeded value strictly below a > 0: lower the last term w^e*c by
    one and, when e > 0, append w^e'*m with a finite e' < e.  Values grow
    by at most one term per step, so their cost stays comparable."""
    terms = list(a.terms)
    exp, coeff = terms[-1]
    lowered = O.Ordinal(terms[:-1] + ([(exp, coeff - 1)] if coeff > 1 else []))
    if exp.is_zero():
        return lowered
    smaller = exp.as_int() - 1 if exp.is_finite() else rng.below(4)
    tail = O.nat_mul_k(O.omega_pow(O.from_int(smaller)), 1 + rng.below(5))
    return O.nat_add(lowered, tail)


def _event_log_text(ep, rng, k: int, depth: int) -> Tuple[str, int]:
    O, D = ep.ordinal, ep.descent
    bound = O.nat_add(_random_ordinal(O, rng, depth, 2), O.ONE)
    current = [bound] * k
    events = []
    t = 0
    for _ in range(LOG_EVENTS):
        e = rng.below(k)
        if current[e].is_zero():
            continue
        current[e] = _below(O, rng, current[e])
        events.append(D.StreamEvent(t, e, current[e]))
        t += 1 + rng.below(3)
    log = D.StreamEventLog(k=k, bound=bound, events=tuple(events))
    return D.format_event_log(log), len(events)


def _rank_script(ep, rng):
    """Stages that grow leaves into strictly lower-ranked children."""
    O = ep.ordinal
    root_rank = O.nat_add(_random_ordinal(O, rng, 2, 2), O.OMEGA)
    ranks = {(): root_rank}
    children: Dict[tuple, int] = {(): 0}
    stages = []
    for _ in range(RANK_STAGES):
        additions = {}
        for leaf in sorted(n for n, c in children.items() if c == 0):
            if len(leaf) >= 5 or ranks[leaf].is_zero():
                continue
            for i in range(1 + rng.below(2)):
                child = leaf + (i,)
                additions[child] = None
                ranks[child] = _below(O, rng, ranks[leaf])
        for child in additions:
            children[child] = 0
            children[child[:-1]] += 1
        stages.append(additions)
    bound = O.nat_add(root_rank, O.ONE)
    return stages, ep.enumeration.RankAssignment(ranks, bound)


def _pair_script(rng):
    """Binary growth: each stage turns one leaf into one or two children
    whose two ranks sum to less than the parent's."""
    f0 = {(): 4 + rng.below(5)}
    f1 = {(): 4 + rng.below(5)}
    children: Dict[tuple, int] = {(): 0}
    stages = []
    for _ in range(PAIR_STAGES):
        leaves = sorted(n for n, c in children.items()
                        if c == 0 and len(n) < 6 and f0[n] + f1[n] > 0)
        if not leaves:
            break
        parent = leaves[rng.below(len(leaves))]
        additions = {}
        for side in range(1 + rng.below(2)):
            total = f0[parent] + f1[parent]
            left = total - 1 - rng.below(total)
            child = parent + (side,)
            f0[child] = min(f0[parent], left)
            f1[child] = left - f0[child]
            additions[child] = None
            children[child] = 0
            children[parent] += 1
        stages.append(additions)
    return stages, f0, f1


def _descent_enum(ep, seed: int) -> Workload:
    O, D, E = ep.ordinal, ep.descent, ep.enumeration
    rng = ep.generate.SplitMix64(seed)
    w = Workload("descent-enum", [])

    def log_item(text: str, events: int):
        def run():
            log = D.parse_event_log(text)
            trace = D.gamma_combine(log)
            bad = D.validate_descent(trace) is not None
            bad |= len(trace.values) != events
            bad |= trace.bound != O.nat_mul_k(log.bound, log.k)
            w.bump("descent.events", len(log.events))
            return D.format_descent_trace(trace).encode(), int(bad)
        return run

    def rank_item(stages, ranks):
        def run():
            outcome = E.run_to_finiteness(iter(stages), 6, 3, len(stages) + 1)
            if not isinstance(outcome, E.Finished):
                return repr(outcome).encode(), 1
            enum = outcome.enumeration
            verdict = E.zeta_decrease_check(enum, ranks)
            w.bump("enumeration.nodes", len(enum.current))
            out = f"stages={enum.stage_count()} nodes={len(enum.current)} ok={verdict.ok}"
            return out.encode(), int(not verdict.ok)
        return run

    def pair_item(stages, f0, f1):
        def run():
            outcome = E.run_to_finiteness(iter(stages), 6, 2, len(stages) + 1)
            if not isinstance(outcome, E.Finished):
                return repr(outcome).encode(), 1
            enum = outcome.enumeration
            values = [E.zeta_pair_measure(tree, f0, f1) for tree in enum.stages]
            bad = sum(1 for a, b in zip(values, values[1:]) if O.compare(b, a) != O.LT)
            w.bump("enumeration.nodes", len(enum.current))
            return "\n".join(O.format_ordinal(v) for v in values).encode(), int(bad > 0)
        return run

    # k cycles through 1..8 and the bound's exponent depth through 3..4,
    # so every seed gets the same mix of log shapes.
    items = [Item("log", 1, log_item(*_event_log_text(ep, rng, 1 + i % 8, 3 + i % 2)))
             for i in range(LOGS)]
    items += [Item("rank-script", 1, rank_item(*_rank_script(ep, rng)))
              for _ in range(RANK_SCRIPTS)]
    items += [Item("pair-script", 1, pair_item(*_pair_script(rng)))
              for _ in range(PAIR_SCRIPTS)]
    w.items = _shuffled(rng, items)
    return w


# ---------------------------------------------------------------------------
# sweep-exhaustive: many tiny instances through sweep() and emit()
# ---------------------------------------------------------------------------

#: (kind, n, formats, repeats).  The tournament sweep is repeated so that
#: its path is a sizeable share of the time next to the coloring sweep.
SWEEPS = (
    ("coloring", 6, ("summary", "tsv", "trace"), 1),
    ("tournament", 6, ("summary", "tsv"), 3),
    ("order", 8, ("summary", "tsv"), 1),
)
_SWEEP_STAGE = {"coloring": "final", "tournament": "transitive", "order": "monotone"}


def _sweep_exhaustive(ep, seed: int) -> Workload:
    S, R = ep.sweep, ep.report
    w = Workload("sweep-exhaustive", [])
    counts = {"coloring": 1 << 15, "tournament": 1 << 15, "order": 40320}

    def sweep_item(kind, n, formats):
        def run():
            report = S.sweep(kind, n, "exhaustive", want_traces="trace" in formats)
            out = b"".join(R.emit(report, fmt).encode() for fmt in formats)
            w.bump("ramsey.instances_run", report.count)
            w.bump(f"ramsey.check_failures.{_SWEEP_STAGE[kind]}", report.failures)
            bad = report.failures + abs(report.count - counts[kind])
            return out, min(bad, counts[kind])
        return run

    for kind, n, formats, repeats in SWEEPS:
        w.items += [Item(f"{kind}-sweep", counts[kind], sweep_item(kind, n, formats))
                    for _ in range(repeats)]
    return w


# ---------------------------------------------------------------------------
# solve-sampled: one larger instance at a time
# ---------------------------------------------------------------------------

COLORINGS, TOURNAMENTS, ORDERS, FAMILIES = 48, 15, 16, 8
ORACLE_N = 12


def _solve_sampled(ep, seed: int) -> Workload:
    I, C, Q, V, G, S = (ep.instances, ep.checkers, ep.oracles, ep.solvers,
                        ep.generate, ep.sweep)
    rng = G.SplitMix64(seed)
    w = Workload("solve-sampled", [])

    def fail(stage: str, bad: bool) -> int:
        if bad:
            w.bump(f"ramsey.check_failures.{stage}")
        return int(bad)

    def coloring_item(f, with_oracle: bool):
        def run():
            trace = V.rt22_solve(f)
            check = V.verify_trace(trace, f)
            bad = fail(check.stage or "final", not check.ok)
            bad |= fail("final", not C.is_homogeneous(f, trace.final_set).ok)
            out = trace.to_json()
            if with_oracle:
                small = f.restrict(range(ORACLE_N))
                size = len(V.rt22_solve(small).final_set)
                best, witness = Q.brute_max_homogeneous(small)
                bad |= fail("final", best < size or not C.is_homogeneous(small, witness).ok)
                bad |= fail("final", not Q.has_homogeneous_of_size(small, best))
                out += f" oracle={best}"
            w.bump("ramsey.instances_run")
            return out.encode(), bad
        return run

    def tournament_item(r, with_oracle: bool):
        def run():
            em = V.em_solve(r)
            bad = fail("transitive", not C.is_transitive(r, em.subset).ok)
            out = ",".join(map(str, em.subset))
            if with_oracle:
                best, witness = Q.brute_max_transitive(r)
                bad |= fail("transitive", best < len(em.subset)
                            or not C.is_transitive(r, witness).ok)
                bad |= fail("transitive",
                            not Q.has_transitive_of_size(r, S.transitive_bound(r.n)))
                out += f" oracle={best}"
            w.bump("ramsey.instances_run")
            return out.encode(), bad
        return run

    def order_item(order):
        def run():
            ads = V.ads_solve(order)
            seq = ads.sequence
            up = ads.direction == "ascending"
            monotone = all(order.less(x, y) == up for x, y in zip(seq, seq[1:]))
            bad = fail("monotone", not monotone or len(seq) < S.ascdesc_bound(order.n))
            w.bump("ramsey.instances_run")
            return f"{ads.direction} {','.join(map(str, seq))}".encode(), bad
        return run

    def family_item(n: int, instance_seed: int):
        def run():
            family = G.make_family(n, instance_seed)
            coh = V.coh_solve(family, n)
            bad = fail("cohesive", not S.verify_cohesive(family, coh))
            w.bump("ramsey.instances_run")
            out = (f"{','.join(map(str, coh.chosen))} {''.join(map(str, coh.sides))} "
                   f"{','.join(map(str, coh.thresholds))}")
            return out.encode(), bad
        return run

    # Sizes are spread evenly, not drawn, so every seed gets the same mix.
    items = []
    for i in range(COLORINGS):
        n = 16 + 32 * i // (COLORINGS - 1)
        f = I.parse_coloring(I.format_coloring(G.make_coloring(n, rng.next64())))
        items.append(Item("coloring", 1, coloring_item(f, i % 4 == 0)))
    for i in range(TOURNAMENTS):
        r = G.make_tournament(12 + i % 5, rng.next64())
        r = I.parse_tournament(I.format_tournament(r))
        items.append(Item("tournament", 1, tournament_item(r, r.n <= ORACLE_N)))
    for _ in range(ORDERS):
        order = I.parse_order(I.format_order(G.make_order(256, rng.next64())))
        items.append(Item("order", 1, order_item(order)))
    items += [Item("family", 1, family_item(64, rng.next64())) for _ in range(FAMILIES)]
    w.items = _shuffled(rng, items)
    return w

"""Acceptance suite.

One test per criterion; each prints a single pass/fail line (visible with
`pytest -s` or in the captured output) and enforces its stated tolerance
and runtime budget.  Everything here is deterministic: fixed seeds, fixed
enumeration orders, no wall-clock content in any compared artifact.
"""

import itertools
import json
import time
from dataclasses import replace
from functools import lru_cache

import numpy as np

from epsilon0.descent import (
    StreamEvent, StreamEventLog, gamma_combine, validate_descent,
)
from epsilon0.enumeration import (
    Finished, MonotoneEnumeration, RankAssignment, StepRejection,
    run_to_finiteness, step, zeta_decrease_check, zeta_pair_measure,
)
from epsilon0.generate import SplitMix64, make_coloring
from epsilon0.ordinal import (
    GT, LT, ZERO, compare, decode, encode, from_int, iter_valid_indexes,
    nat_add, nat_mul_k, nat_mul_omega, omega_pow, parse_ordinal,
)
from epsilon0.ramsey import (
    PairColoring, Tournament, brute_max_homogeneous, brute_max_transitive,
    em_solve, is_homogeneous, is_transitive, rt22_solve, verify_trace,
)
from epsilon0.ramsey.instances import pair_count, pair_index
from epsilon0.ramsey.oracles import is_transitive_mask
from epsilon0.ramsey.solvers import em_solve_masks, default_window
from epsilon0.report import emit
from epsilon0.sweep import (
    _CHUNK, _out_mask_array, _tournament_chunk, exhaustive_triple_ok,
    sweep, transitive_bound,
)

o = parse_ordinal

RESULT_LINES = []


def report_line(name, ok, started, budget):
    elapsed = time.monotonic() - started
    line = f"[{'PASS' if ok else 'FAIL'}] {name} ({elapsed:.1f}s, budget {budget:.0f}s)"
    RESULT_LINES.append(line)
    print(line)
    assert ok, line
    assert elapsed < budget, line


# ---------------------------------------------------------------------------
# Criterion 1: ordinal algebra on every index below 10^4
# ---------------------------------------------------------------------------

def test_criterion_1_ordinal_algebra():
    started = time.monotonic()
    family = [alpha for _, alpha in iter_valid_indexes(10_000)]
    assert len(family) > 1000

    # Total order: sort once, then every pair must agree with positions
    # (agreement with a fixed linear arrangement gives antisymmetry,
    # totality and transitivity at once).
    import functools
    ordered = sorted(family, key=functools.cmp_to_key(compare))
    position = {alpha: i for i, alpha in enumerate(ordered)}
    assert len(position) == len(family)
    ok = True
    for a in family:
        pa = position[a]
        for b in family:
            rel = compare(a, b)
            want = (pa > position[b]) - (pa < position[b])
            if rel != want:
                ok = False
                break
        if not ok:
            break

    # Commutativity on all pairs.
    for i, a in enumerate(family):
        for b in family[i:]:
            if nat_add(a, b) != nat_add(b, a):
                ok = False
                break
        if not ok:
            break

    # Associativity and strict monotonicity on a deterministic stratified
    # subfamily (every 29th element of the full family; full triples over
    # 1100+ elements would need ~10^9 sums).
    stratum = family[::29]
    for a in stratum:
        for b in stratum:
            ab = nat_add(a, b)
            rel = compare(a, b)
            for c in stratum:
                if nat_add(ab, c) != nat_add(a, nat_add(b, c)):
                    ok = False
                if rel == LT:
                    if compare(nat_add(a, c), nat_add(b, c)) != LT:
                        ok = False
                    if compare(nat_add(c, a), nat_add(c, b)) != LT:
                        ok = False

    # nat_mul_k stays below nat_mul_omega for k = 1..10.
    for a in family:
        if a == ZERO:
            continue
        shifted = nat_mul_omega(a)
        for k in range(1, 11):
            if compare(nat_mul_k(a, k), shifted) != LT:
                ok = False

    # encode/decode roundtrip over the whole family.
    for i, alpha in iter_valid_indexes(10_000):
        if encode(alpha) != i or decode(i) != alpha:
            ok = False

    report_line("criterion 1: ordinal algebra (index < 10^4)", ok, started, 10)


# ---------------------------------------------------------------------------
# Criterion 2: the stream combiner against the stateless replayer
# ---------------------------------------------------------------------------

def _brute_replay(log):
    values = []
    for ev in log.events:
        total = None
        for e in range(log.k):
            last = log.bound
            for other in log.events:
                if other.time <= ev.time and other.stream == e:
                    last = other.value
            total = last if total is None else nat_add(total, last)
        values.append(total)
    return values


def _exhaustive_logs(bound, pool, k, max_events):
    below = [v for v in pool if compare(v, bound) == LT]
    for length in range(max_events + 1):
        for streams in itertools.product(range(k), repeat=length):
            def assign(pos, last):
                if pos == length:
                    yield []
                    return
                e = streams[pos]
                for v in below:
                    prev = last.get(e)
                    if prev is not None and compare(v, prev) != LT:
                        continue
                    for rest in assign(pos + 1, {**last, e: v}):
                        yield [StreamEvent(pos, e, v)] + rest
            for events in assign(0, {}):
                yield StreamEventLog(k=k, bound=bound, events=tuple(events))


def _random_log(rng, max_k=5, max_events=50):
    def random_ordinal(depth):
        if depth == 0:
            return from_int(rng.below(4))
        total = ZERO
        for _ in range(rng.below(3)):
            total = nat_add(total, nat_mul_k(omega_pow(random_ordinal(depth - 1)),
                                             rng.below(3) + 1))
        return total

    def shrink(a):
        terms = list(a.terms)
        exp, coeff = terms[-1]
        if exp == ZERO:
            if coeff > 1:
                return type(a)(tuple(terms[:-1]) + ((ZERO, coeff - 1),))
            return type(a)(tuple(terms[:-1])) if len(terms) > 1 else ZERO
        lowered = terms[:-1] + ([(exp, coeff - 1)] if coeff > 1 else [])
        return nat_add(type(a)(tuple(lowered)), from_int(rng.below(7)))

    k = rng.below(max_k) + 1
    bound = nat_add(random_ordinal(3), from_int(1))
    current = [bound] * k
    events = []
    t = 0
    for _ in range(rng.below(max_events + 1)):
        e = rng.below(k)
        if current[e] == ZERO:
            continue
        value = shrink(current[e])
        events.append(StreamEvent(t, e, value))
        current[e] = value
        t += rng.below(3) + 1
    return StreamEventLog(k=k, bound=bound, events=tuple(events))


def test_criterion_2_gamma_combiner():
    started = time.monotonic()
    pool = [nat_add(nat_mul_k(o("w"), a), from_int(b)) if a else from_int(b)
            for a in range(3) for b in range(4)]
    ok = True
    checked = 0
    for bound in (from_int(2), o("w"), o("w + 2"), o("w*2"), o("w*2 + 1"), o("w*3")):
        for k in (1, 2):
            for log in _exhaustive_logs(bound, pool, k, 4):
                trace = gamma_combine(log)
                if list(trace.values) != _brute_replay(log):
                    ok = False
                if trace.bound != nat_mul_k(bound, k):
                    ok = False
                if validate_descent(trace) is not None:
                    ok = False
                checked += 1
    assert checked > 50_000, checked

    rng = SplitMix64(31337)
    for _ in range(10_000):
        log = _random_log(rng)
        trace = gamma_combine(log)
        if trace.bound != nat_mul_k(log.bound, log.k):
            ok = False
        if len(trace.values) != len(log.events):
            ok = False
        if validate_descent(trace) is not None:
            ok = False
    report_line("criterion 2: stream combiner vs brute replayer", ok, started, 30)


# ---------------------------------------------------------------------------
# Criterion 3: termination measures
# ---------------------------------------------------------------------------

def _rank_below(r, rng):
    terms = list(r.terms)
    exp, coeff = terms[-1]
    if exp == ZERO:
        if coeff > 1:
            return type(r)(tuple(terms[:-1]) + ((ZERO, coeff - 1),))
        return type(r)(tuple(terms[:-1])) if len(terms) > 1 else ZERO
    lowered = terms[:-1] + ([(exp, coeff - 1)] if coeff > 1 else [])
    return nat_add(type(r)(tuple(lowered)), from_int(rng.below(7)))


def test_criterion_3_zeta_measures():
    started = time.monotonic()
    ok = True

    rng = SplitMix64(555)
    for _ in range(1000):
        enum = MonotoneEnumeration.initial()
        ranks = {(): o("w*2 + 7")}
        for _ in range(rng.below(8)):
            additions = {}
            for leaf in enum.current.leaves():
                if len(leaf) >= 6 or ranks[leaf] == ZERO:
                    continue
                for i in range(rng.below(4)):
                    child = leaf + (i,)
                    additions[child] = None
                    ranks[child] = _rank_below(ranks[leaf], rng)
            result = step(enum, additions)
            assert isinstance(result, MonotoneEnumeration)
            enum = result
        verdict = zeta_decrease_check(enum, RankAssignment(ranks, o("w*3")))
        if not verdict.ok:
            ok = False

    # Two-rank growth: every added child strictly shrinks the measure and
    # satisfies the slot inequality w^(parent ranks) > w^(child ranks) * 2.
    rng = SplitMix64(777)
    for _ in range(1000):
        enum = MonotoneEnumeration.initial()
        f0 = {(): rng.below(5) + 4}
        f1 = {(): rng.below(5) + 4}
        previous = zeta_pair_measure(enum.current, f0, f1)
        for _ in range(rng.below(8)):
            leaves = sorted(n for n in enum.current.nodes
                            if len(enum.current.children(n)) < 2 and len(n) < 6)
            if not leaves:
                break
            parent = leaves[rng.below(len(leaves))]
            side = len(enum.current.children(parent))
            rank = (f0 if side == 0 else f1)[parent]
            if rank == 0:
                continue
            child = parent + (side,)
            result = step(enum, {child: None})
            if isinstance(result, StepRejection):
                continue
            enum = result
            drop = rng.below(rank) + 1
            if side == 0:
                f0[child], f1[child] = f0[parent] - drop, f1[parent]
            else:
                f0[child], f1[child] = f0[parent], f1[parent] - drop
            parent_slot = omega_pow(from_int(f0[parent] + f1[parent]))
            child_slot = omega_pow(from_int(f0[child] + f1[child]))
            if compare(parent_slot, nat_mul_k(child_slot, 2)) != GT:
                ok = False
            current = zeta_pair_measure(enum.current, f0, f1)
            if compare(current, previous) != LT:
                ok = False
            previous = current

    report_line("criterion 3: zeta measures decrease", ok, started, 30)


# ---------------------------------------------------------------------------
# Criterion 4: bounded monotone enumerations halt within the static bound
# ---------------------------------------------------------------------------

def _full_gen(b, d):
    level = [()]
    for _ in range(b):
        nxt = []
        for node in level:
            nxt.extend(node + (i,) for i in range(d))
        yield {n: None for n in nxt}
        level = nxt


def _chain_gen(b):
    node = ()
    for _ in range(b):
        node = node + (0,)
        yield {node: None}


def _random_gen(b, d, rng):
    leaves = [()]
    while leaves:
        stage = {}
        nxt = []
        for leaf in leaves:
            if len(leaf) >= b:
                continue
            for i in range(rng.below(d + 1)):
                child = leaf + (i,)
                stage[child] = None
                nxt.append(child)
        if not stage:
            return
        yield stage
        leaves = nxt


def _adversaries():
    """20 stage scripts whose final stage re-extends a non-terminal node
    (or re-enumerates an existing one); each must be rejected with
    clause 3 at exactly that stage."""
    scripts = []
    for i in range(10):
        # grow a chain of length i+1, then sprout a second child under a
        # node that already has one
        stages = [{(0,) * (j + 1): None} for j in range(i + 1)]
        stages.append({(0,) * max(i, 1) + (1,) if i else (1,): None, })
        offender = (0,) * max(i, 1) + (1,) if i else (1,)
        # for i = 0 the chain is (0,); adding (1,) under the root is legal,
        # so instead re-add the existing node
        if i == 0:
            stages[-1] = {(0,): None}
            offender = (0,)
        scripts.append((stages, offender))
    for i in range(10):
        # grow two levels, then extend a depth-1 node that became internal
        stages = [{(0,): None, (1,): None}, {(0, 0): None}]
        stages.extend({(0, 0) + (0,) * (j + 1): None} for j in range(i % 3))
        offender = (0, i % 4 + 1)
        stages.append({offender: None})
        scripts.append((stages, offender))
    return scripts


def test_criterion_4_bounded_enumeration():
    started = time.monotonic()
    ok = True
    rng = SplitMix64(2024)
    for b in range(1, 5):
        for d in range(1, 5):
            limit = (d + 1) ** (b + 1)
            outcomes = [run_to_finiteness(_full_gen(b, d), b, d, fuel=1000),
                        run_to_finiteness(_chain_gen(b), b, d, fuel=1000)]
            outcomes.extend(run_to_finiteness(_random_gen(b, d, rng), b, d, fuel=1000)
                            for _ in range(5))
            for outcome in outcomes:
                if not isinstance(outcome, Finished):
                    ok = False
                elif len(outcome.enumeration.current) > limit:
                    ok = False

    scripts = _adversaries()
    assert len(scripts) == 20
    for stages, offender in scripts:
        outcome = run_to_finiteness(iter(stages), 10, 10, fuel=100)
        if not (isinstance(outcome, StepRejection) and outcome.clause == 3
                and outcome.node == offender):
            ok = False

    report_line("criterion 4: bounded enumerations finish in bound", ok, started, 5)


# ---------------------------------------------------------------------------
# Criterion 5: exhaustive coloring sweeps
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _coloring_sweep_n6():
    """All 2^15 colorings of [6]^2: solve, check homogeneity, verify the
    trace.  Shared by criteria 5, 7 and 8."""
    homogeneous = 0
    verified = 0
    sizes = np.zeros(7, dtype=np.int64)
    for code in range(1 << pair_count(6)):
        f = PairColoring(6, code)
        trace = rt22_solve(f)
        if is_homogeneous(f, trace.final_set).ok:
            homogeneous += 1
        if verify_trace(trace, f).ok:
            verified += 1
        sizes[len(trace.final_set)] += 1
    return homogeneous, verified, tuple(int(x) for x in sizes)


def _mono_triple_exists_all_codes(n):
    """Vectorized: for every coloring code, is some triple one-colored?"""
    total = 1 << pair_count(n)
    codes = np.arange(total, dtype=np.uint32)
    found = np.zeros(total, dtype=bool)
    for a, b, c in itertools.combinations(range(n), 3):
        b1 = ((codes >> pair_index(a, b, n)) & 1).astype(np.uint8)
        b2 = ((codes >> pair_index(a, c, n)) & 1).astype(np.uint8)
        b3 = ((codes >> pair_index(b, c, n)) & 1).astype(np.uint8)
        mono = (b1 & b2 & b3) | ((1 - b1) & (1 - b2) & (1 - b3))
        found |= mono == 1
    return found


def test_criterion_5_ramsey_sweeps():
    started = time.monotonic()
    ok = True
    total6 = 1 << pair_count(6)

    homogeneous, verified, sizes = _coloring_sweep_n6()
    if homogeneous != total6:
        ok = False
    if sum(sizes[:2]) != 0:  # no empty or singleton outputs at n = 6
        ok = False

    # n = 5 exhaustively: brute maximum >= 2, and exactly 2 on the pentagon.
    pentagon = PairColoring.from_function(5, lambda x, y: abs(x - y) in (1, 4))
    for code in range(1 << pair_count(5)):
        if brute_max_homogeneous(PairColoring(5, code))[0] < 2:
            ok = False
    if brute_max_homogeneous(pentagon)[0] != 2:
        ok = False

    # R(3,3) = 6 reproduced: every 6-coloring has a one-colored triple,
    # and the pentagon shows 5 vertices are not enough.
    found = _mono_triple_exists_all_codes(6)
    if not bool(found.all()):
        ok = False
    # dual route: the vectorized check against the brute oracle on a stride
    for code in range(0, total6, 257):
        if (brute_max_homogeneous(PairColoring(6, code))[0] >= 3) != bool(found[code]):
            ok = False

    report_line("criterion 5: exhaustive coloring sweeps (n=5,6)", ok, started, 120)


# ---------------------------------------------------------------------------
# Criterion 6: exhaustive tournaments up to n = 7
# ---------------------------------------------------------------------------

def test_criterion_6_erdos_moser():
    started = time.monotonic()
    ok = True

    # Small n: run the public solver and the exact oracle on every code.
    for n in range(1, 6):
        bound = transitive_bound(n)
        for code in range(1 << pair_count(n)):
            r = Tournament.from_bits(n, code)
            result = em_solve(r)
            if not is_transitive(r, result.subset).ok:
                ok = False
            if brute_max_transitive(r)[0] < bound:
                ok = False

    # n = 6 and n = 7: mask-level solver plus the vectorized bound check.
    # The out-masks come per chunk from the sweep kernel's builder; on
    # every code the scalar result must be transitive and equal the
    # kernel's.
    for n in (6, 7):
        w = default_window(n)
        triple_ok = exhaustive_triple_ok(n)
        if not bool(triple_ok.all()):
            ok = False  # every tournament on >= 4 vertices has a transitive triple
        total = 1 << pair_count(n)
        for lo in range(0, total, _CHUNK):
            codes = np.arange(lo, min(lo + _CHUNK, total), dtype=np.uint32)
            kernel_chosen, _, _ = _tournament_chunk(n, codes, w)
            for out, want in zip(_out_mask_array(n, codes).T.tolist(),
                                 kernel_chosen.tolist()):
                chosen, _, _ = em_solve_masks(n, out, w)
                if chosen != want or not is_transitive_mask(out, chosen):
                    ok = False
                    break
            if not ok:
                break

        # dual routes on deterministic samples:
        step_size = max(1, (1 << pair_count(n)) // 512)
        for code in range(0, 1 << pair_count(n), step_size):
            r = Tournament.from_bits(n, code)
            # (a) the mask path agrees with the public solver
            if em_solve(r).subset != tuple(
                    x for x in range(n)
                    if (em_solve_masks(n, r.out, w)[0] >> x) & 1):
                ok = False
            # (b) the score test agrees with the cubic checker
            subset = em_solve(r).subset
            mask = 0
            for x in subset:
                mask |= 1 << x
            if is_transitive_mask(r.out, mask) != is_transitive(r, subset).ok:
                ok = False
            # (c) the vectorized triple search agrees with the exact oracle
            if bool(triple_ok[code]) != (brute_max_transitive(r)[0] >= 3):
                ok = False

    report_line("criterion 6: Erdos-Moser sweeps (n<=7)", ok, started, 300)


# ---------------------------------------------------------------------------
# Criterion 7: trace integrity
# ---------------------------------------------------------------------------

def test_criterion_7_trace_integrity():
    started = time.monotonic()
    ok = True

    _, verified, _ = _coloring_sweep_n6()
    if verified != 1 << pair_count(6):
        ok = False

    # Ten hand-mutated traces, each rejected at the intended stage.
    f = make_coloring(9, seed=2718)
    base = rt22_solve(f)
    assert verify_trace(base, f).ok
    assert len(base.monotone_set) >= 2
    outside = [x for x in range(9) if x not in base.cohesive_set]
    assert outside, "seed 2718 must leave spare vertices"
    inside = base.cohesive_set
    mutations = [
        (replace(base, cohesive_set=(inside[1], inside[0]) + inside[2:]), "cohesive"),
        (replace(base, cohesive_sides=base.cohesive_sides[:-1]), "cohesive"),
        (replace(base, cohesive_thresholds=(0,) * 9,
                 cohesive_sides=tuple(1 - s for s in base.cohesive_sides)), "cohesive"),
        (replace(base, transitive_set=tuple(sorted(set(base.transitive_set) | {outside[0]}))),
         "transitive"),
        (replace(base, monotone_set=tuple(sorted(set(base.monotone_set) | {outside[0]})),
                 final_set=tuple(sorted(set(base.monotone_set) | {outside[0]}))), "monotone"),
        (replace(base, monotone_direction="sideways"), "monotone"),
        (replace(base, monotone_direction=(
            "descending" if base.monotone_direction == "ascending" else "ascending")),
         "monotone"),
        (replace(base, final_set=base.final_set[:-1]), "final"),
        (replace(base, final_set=base.final_set + (outside[0],)), "final"),
        (replace(base, final_color=1 - base.final_color), "final"),
    ]
    assert len(mutations) == 10
    for mutated, stage in mutations:
        outcome = verify_trace(mutated, f)
        if outcome.ok or outcome.stage != stage:
            ok = False

    report_line("criterion 7: trace integrity", ok, started, 60)


# ---------------------------------------------------------------------------
# Criterion 8: byte-determinism of the reports
# ---------------------------------------------------------------------------

def _acceptance_report():
    """A reduced, fully deterministic acceptance artifact: small sweeps in
    every format plus the headline counters of the big sweeps."""
    parts = []
    for kind, n, mode, kwargs in (
        ("coloring", 5, "exhaustive", {}),
        ("tournament", 5, "exhaustive", {}),
        ("order", 5, "exhaustive", {}),
        ("family", 8, "sample", {"count": 64, "seed": 11}),
    ):
        report = sweep(kind, n, mode, **kwargs)
        parts.append(emit(report, "summary"))
        parts.append(emit(report, "tsv"))
    trace_report = sweep("coloring", 4, "sample", count=16, seed=5, want_traces=True)
    parts.append(emit(trace_report, "trace"))
    homogeneous, verified, sizes = _coloring_sweep_n6()
    parts.append(json.dumps({"n6_homogeneous": homogeneous,
                             "n6_verified": verified,
                             "n6_sizes": list(sizes)}, sort_keys=True))
    return "\n".join(parts)


def test_criterion_8_determinism():
    started = time.monotonic()
    first = _acceptance_report()
    second = _acceptance_report()
    ok = first == second and len(first) > 1000
    report_line("criterion 8: byte-identical reports", ok, started, 120)


def test_zz_print_summary(capsys):
    with capsys.disabled():
        print()
        for line in RESULT_LINES:
            print(line)

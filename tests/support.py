"""Helpers that more than one test module uses, imported by bare name like
the `reference_*` modules: the in-process `eps0` runner, the outcome of a
call as a value to compare, and the instances, stage generators and
checks that several modules share.  `tests/test_module_separations.py`
keeps them written once: no two test modules define the same helper."""

import io
import itertools
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

import reference_report
from epsilon0.cli import main
from epsilon0.descent import StreamEvent, StreamEventLog
from epsilon0.ordinal import (
    LT, ZERO, InvalidIndexError, OrdinalOverflowError, compare, decode, from_int, nat_add,
    nat_mul_k, omega_pow,
)
from epsilon0.ramsey import PairColoring, Tournament
from epsilon0.ramsey.instances import pair_count
from epsilon0.report import FORMATS, emit


def run_cli(*argv):
    """`eps0 argv...` in this process, each argument passed through `str`:
    (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def outcome(call, *args):
    """call(*args), or the type, message and `position` (None when it has
    none) of the exception it raised."""
    try:
        return call(*args)
    except Exception as exc:  # every exception is part of the comparison
        return type(exc), str(exc), getattr(exc, "position", None)


def iter_valid_indexes(limit):
    """(index, ordinal) for every index below limit that decodes."""
    for i in range(limit):
        try:
            yield i, decode(i)
        except InvalidIndexError:
            continue


def rank_below(r, rng):
    """A strictly smaller ordinal: decrement a trailing finite part, or
    step below a trailing limit term and pad with a small finite part."""
    terms = list(r.terms)
    exp, coeff = terms[-1]
    if exp == ZERO:
        if coeff > 1:
            return type(r)(tuple(terms[:-1]) + ((ZERO, coeff - 1),))
        return type(r)(tuple(terms[:-1])) if len(terms) > 1 else ZERO
    lowered = terms[:-1] + ([(exp, coeff - 1)] if coeff > 1 else [])
    return nat_add(type(r)(tuple(lowered)), from_int(rng.below(7)))


def parses_or_raises_value_error(parse, text):
    """parse(text), passing when it returns or raises ValueError or
    OrdinalOverflowError (the ordinal layer's documented ArithmeticError)."""
    try:
        parse(text)
    except (ValueError, OrdinalOverflowError):
        pass


def sum_of_terms(pairs):
    """The natural sum of w^exp * coeff over the (exp, coeff) pairs."""
    total = ZERO
    for exp, coeff in pairs:
        total = nat_add(total, nat_mul_k(omega_pow(exp), coeff))
    return total


def random_ordinal(rng, depth):
    """A seeded natural sum of up to two w-powers per level, depth levels deep."""
    if depth == 0:
        return from_int(rng.below(4))
    total = ZERO
    for _ in range(rng.below(3)):
        total = nat_add(total, nat_mul_k(omega_pow(random_ordinal(rng, depth - 1)),
                                         rng.below(3) + 1))
    return total


def brute_replay(log):
    """Stateless oracle for `gamma_combine`: at each event time recompute
    every stream's last value by scanning the whole log, then natural-sum them."""
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


def exhaustive_logs(bound, pool, k, max_events):
    """All well-formed logs of k streams with values from the pool, at
    consecutive times, up to max_events events."""
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


def full_tree_generator(b, d):
    """The stages of a complete d-ary tree grown one level per stage to depth b."""
    level = [()]
    for _ in range(b):
        nxt = []
        for node in level:
            nxt.extend(node + (i,) for i in range(d))
        yield {n: None for n in nxt}
        level = nxt


def chain_generator(b):
    """The stages of a chain of b nodes, one node per stage."""
    node = ()
    for _ in range(b):
        node = node + (0,)
        yield {node: None}


def random_generator(b, d, rng):
    """Seeded stages: every leaf shorter than b gets up to d children, until
    a stage adds none."""
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


def seeded_codes(n, count, seed):
    """count seeded pair codes over n vertices, as uint32."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, 1 << pair_count(n), size=count, dtype=np.uint32)


def pentagon():
    return PairColoring.from_function(5, lambda x, y: abs(x - y) in (1, 4))


def three_cycle():
    # 0 -> 1 -> 2 -> 0
    return Tournament(3, (0b010, 0b100, 0b001))


def assert_emit_equals_the_reference(report, formats=FORMATS):
    for fmt in formats:
        assert emit(report, fmt) == reference_report.emit(report, fmt), fmt

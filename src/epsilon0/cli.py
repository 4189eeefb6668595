"""Command-line front end.

One binary with verb-style subcommands (`ord`, `descent`, `enum`,
`ramsey`, `sweep`, `generate`).  All output on stdout is byte-
deterministic for a fixed invocation; wall-clock timing goes to stderr.
The exit code is nonzero exactly when a checker failed or a precondition
was rejected.
"""

from __future__ import annotations

import argparse
import sys
import time
from decimal import Decimal
from pathlib import Path
from typing import List, Optional

from . import descent as descent_mod
from . import enumeration as enum_mod
from .generate import KINDS, generate
from .ordinal import (
    compare,
    decode,
    encode,
    format_ordinal,
    nat_add,
    nat_mul_k,
    nat_mul_omega,
    omega_pow,
    parse_index,
    parse_ordinal,
    std_add,
    tower,
)
from .ramsey.checkers import is_transitive
from .ramsey.instances import (
    _parse_int,
    format_coloring,
    format_family,
    format_order,
    format_tournament,
    parse_coloring,
    parse_family,
    parse_order,
    parse_tournament,
)
from .ramsey.oracles import brute_max_homogeneous, brute_max_transitive
from .ramsey.solvers import ads_solve, coh_solve, em_solve, rt22_solve, verify_trace
from .report import FORMATS, emit
from .sweep import sweep, verify_cohesive

OK, FAIL = 0, 1


def _read(args) -> str:
    # argparse before Python 3.12 stores [] for a file given as "--" after "--"
    if args.file is None or args.file == []:
        raise ValueError(f"{args.command} {args.op} needs an instance file")
    return Path(args.file).read_text()


# ---------------------------------------------------------------------------
# ord
# ---------------------------------------------------------------------------

_TAKES_B = ("compare", "add", "nat-add", "nat-mul-k", "tower")


def _cmd_ord(args) -> int:
    # argparse before Python 3.12 stores [] for an A given as "--" after "--"
    op, text, b = args.op, args.a or "", args.b
    if op not in _TAKES_B and b is not None:
        raise ValueError(f"ord {op} takes no B")
    if op == "decode":
        print(format_ordinal(decode(parse_index(text))))
        return OK
    a = parse_ordinal(text)
    if op in _TAKES_B and b is None:
        raise ValueError(f"ord {op} needs B")
    if op == "eval":
        print(format_ordinal(a))
    elif op == "compare":
        print({-1: "LT", 0: "EQ", 1: "GT"}[compare(a, parse_ordinal(b))])
    elif op == "add":
        print(format_ordinal(std_add(a, parse_ordinal(b))))
    elif op == "nat-add":
        print(format_ordinal(nat_add(a, parse_ordinal(b))))
    elif op == "nat-mul-k":
        print(format_ordinal(nat_mul_k(a, _parse_int(b))))
    elif op == "nat-mul-omega":
        print(format_ordinal(nat_mul_omega(a)))
    elif op == "omega-pow":
        print(format_ordinal(omega_pow(a)))
    elif op == "tower":
        print(format_ordinal(tower(a, _parse_int(b))))
    else:  # encode
        # Decimal prints codes past the interpreter's int-to-str digit
        # limit; encode bounds them by MAX_CODE_BITS.
        print(Decimal(encode(a)))
    return OK


# ---------------------------------------------------------------------------
# descent
# ---------------------------------------------------------------------------

def _cmd_descent(args) -> int:
    if args.op == "combine":
        log = descent_mod.parse_event_log(_read(args))
        trace = descent_mod.gamma_combine(log)
        sys.stdout.write(descent_mod.format_descent_trace(trace))
        violation = descent_mod.validate_descent(trace)
        if violation is not None:
            print(f"invalid: index={violation.index} reason={violation.reason}")
            return FAIL
        return OK
    trace = descent_mod.parse_descent_trace(_read(args))
    violation = descent_mod.validate_descent(trace)
    if violation is None:
        print(f"ok length={len(trace)}")
        return OK
    print(f"violation index={violation.index} reason={violation.reason}")
    return FAIL


# ---------------------------------------------------------------------------
# enum
# ---------------------------------------------------------------------------

def _builtin_generator(style: str, b: int, d: int, seed: int):
    """Deterministic stage generators for `enum run`."""
    from .generate import SplitMix64

    if style == "full":
        # Complete d-ary tree grown one level per stage.
        def gen():
            level = [()]
            for _ in range(b):
                nxt = []
                for node in level:
                    nxt.extend(node + (i,) for i in range(d))
                yield {n: None for n in nxt}
                level = nxt
        return gen()
    if style == "chain":
        def gen():
            node = ()
            for _ in range(b):
                node = node + (0,)
                yield {node: None}
        return gen()
    if style == "random":
        rng = SplitMix64(seed)
        def gen():
            leaves = [()]
            while leaves:
                stage = {}
                new_leaves = []
                for leaf in leaves:
                    if len(leaf) >= b:
                        continue
                    kids = rng.below(d + 1)
                    if kids == 0 and rng.bit():
                        new_leaves.append(leaf)
                        continue
                    for i in range(kids):
                        child = leaf + (i,)
                        stage[child] = None
                        new_leaves.append(child)
                if not stage:
                    return
                yield stage
                leaves = new_leaves
        return gen()
    raise ValueError(f"unknown style {style!r}")


def _cmd_enum(args) -> int:
    if args.op == "check":
        enum, ranks, _ = enum_mod.parse_enumeration_log(_read(args))
        offender = enum_mod.check_bounded(enum, args.bound) if args.bound is not None else None
        print(f"stages={enum.stage_count() - 1} nodes={len(enum.current)}")
        if offender is not None:
            print(f"bound-violation node={enum_mod.format_node(offender)}")
            return FAIL
        print("ok")
        return OK
    if args.op == "measure":
        enum, ranks, bound = enum_mod.parse_enumeration_log(_read(args))
        for s, tree in enumerate(enum.stages):
            print(f"stage={s} zeta={format_ordinal(enum_mod.zeta_measure(tree, ranks))}")
        verdict = enum_mod.zeta_decrease_check(enum, ranks)
        if verdict.ok:
            print("decrease ok")
            return OK
        print(f"violation stage={verdict.stage} kind={verdict.kind}")
        return FAIL
    # run
    if args.file is not None:
        raise ValueError("enum run takes no instance file")
    gen = _builtin_generator(args.style, args.depth, args.branching, args.seed)
    outcome = enum_mod.run_to_finiteness(gen, args.depth, args.branching, args.fuel)
    if isinstance(outcome, enum_mod.Finished):
        tree = outcome.enumeration.current
        limit = (args.branching + 1) ** (args.depth + 1)
        print(f"finished nodes={len(tree)} bound={limit}")
        return OK
    if isinstance(outcome, enum_mod.FuelExhausted):
        print(f"fuel-exhausted nodes={len(outcome.enumeration.current)}")
        return FAIL
    print(f"rejected: {outcome}")
    return FAIL


# ---------------------------------------------------------------------------
# ramsey
# ---------------------------------------------------------------------------

def _cmd_ramsey(args) -> int:
    if args.op == "sweep":
        if args.file is not None:
            raise ValueError("ramsey sweep takes no instance file")
        if args.n is None:
            raise ValueError("ramsey sweep needs --n")
        return _cmd_sweep(args)
    if args.op == "solve":
        coloring = parse_coloring(_read(args))
        trace = rt22_solve(coloring, args.window)
        if args.format == "trace":
            print(trace.to_json())
        else:
            print(f"n={trace.n} g0={len(trace.cohesive_set)} g1={len(trace.transitive_set)} "
                  f"size={len(trace.final_set)} color={trace.final_color} "
                  f"direction={trace.monotone_direction}")
        check = verify_trace(trace, coloring)
        if not check.ok:
            print(f"invalid: stage={check.stage} {check.detail}")
            return FAIL
        return OK
    if args.op == "em":
        tournament = parse_tournament(_read(args))
        result = em_solve(tournament, args.window)
        print(f"n={tournament.n} size={len(result.subset)} "
              f"set={','.join(map(str, result.subset))}")
        return OK if is_transitive(tournament, result.subset).ok else FAIL
    if args.op == "ads":
        order = parse_order(_read(args))
        result = ads_solve(order)
        print(f"n={order.n} direction={result.direction} size={len(result.sequence)} "
              f"set={','.join(map(str, result.sequence))}")
        return OK
    if args.op == "coh":
        family = parse_family(_read(args))
        target = args.target if args.target is not None else family.n
        result = coh_solve(family, target)
        print(f"n={family.n} m={len(family.sets)} size={len(result.chosen)} "
              f"set={','.join(map(str, result.chosen))} "
              f"sides={''.join(map(str, result.sides))} "
              f"thresholds={','.join(map(str, result.thresholds))}")
        return OK if verify_cohesive(family, result) else FAIL
    # brute
    text = _read(args)
    if args.instance == "coloring":
        size, witness = brute_max_homogeneous(parse_coloring(text))
    else:
        size, witness = brute_max_transitive(parse_tournament(text))
    print(f"max={size} witness={','.join(map(str, sorted(witness)))}")
    return OK


# ---------------------------------------------------------------------------
# sweep / generate
# ---------------------------------------------------------------------------

def _cmd_sweep(args) -> int:
    mode = "exhaustive" if args.exhaustive else "sample"
    started = time.monotonic()
    report = sweep(args.kind, args.n, mode, count=args.count, seed=args.seed,
                   window=args.window, target=args.target, max_rows=args.max_rows,
                   want_traces=args.format == "trace")
    report.wall_clock = time.monotonic() - started
    sys.stdout.write(emit(report, args.format))
    print(f"wall_clock={report.wall_clock:.3f}s", file=sys.stderr)
    return OK if report.failures == 0 else FAIL


_FORMATTERS = {"coloring": format_coloring, "tournament": format_tournament,
               "order": format_order, "family": format_family}


def _cmd_generate(args) -> int:
    text = _FORMATTERS[args.kind](generate(args.kind, args.n, args.seed))
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    return OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="eps0", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_ord = sub.add_parser("ord", help="ordinal calculator")
    p_ord.add_argument("op", choices=["eval", "compare", "add", "nat-add", "nat-mul-k",
                                      "nat-mul-omega", "omega-pow", "tower", "encode", "decode"])
    p_ord.add_argument("a")
    p_ord.add_argument("b", nargs="?")
    p_ord.set_defaults(func=_cmd_ord)

    p_descent = sub.add_parser("descent", help="descent traces and the stream combiner")
    p_descent.add_argument("op", choices=["combine", "validate"])
    p_descent.add_argument("file")
    p_descent.set_defaults(func=_cmd_descent)

    p_enum = sub.add_parser("enum", help="monotone enumerations")
    p_enum.add_argument("op", choices=["check", "measure", "run"])
    p_enum.add_argument("file", nargs="?")
    p_enum.add_argument("--bound", type=int, default=None)
    p_enum.add_argument("--depth", type=int, default=3)
    p_enum.add_argument("--branching", type=int, default=2)
    p_enum.add_argument("--fuel", type=int, default=1000)
    p_enum.add_argument("--style", choices=["full", "chain", "random"], default="full")
    p_enum.add_argument("--seed", type=int, default=0)
    p_enum.set_defaults(func=_cmd_enum)

    p_ramsey = sub.add_parser("ramsey", help="pair-coloring solvers")
    p_ramsey.add_argument("op", choices=["solve", "em", "ads", "coh", "brute", "sweep"])
    p_ramsey.add_argument("file", nargs="?")
    p_ramsey.add_argument("--window", type=int, default=None)
    p_ramsey.add_argument("--target", type=int, default=None)
    p_ramsey.add_argument("--seed", type=int, default=0)
    p_ramsey.add_argument("--format", choices=["trace", "summary", "tsv"], default="summary")
    p_ramsey.add_argument("--instance", choices=["coloring", "tournament"],
                          default="coloring", help="instance kind for `brute`")
    p_ramsey.add_argument("--kind", choices=list(KINDS), default="coloring",
                          help="instance kind for `sweep`")
    p_ramsey.add_argument("--n", type=int, default=None, help="size for `sweep`")
    p_ramsey.add_argument("--exhaustive", action="store_true")
    p_ramsey.add_argument("--count", type=int, default=0)
    p_ramsey.add_argument("--max-rows", type=int, default=100_000)
    p_ramsey.set_defaults(func=_cmd_ramsey)

    p_sweep = sub.add_parser("sweep", help="run a solver over an instance family")
    p_sweep.add_argument("--kind", choices=list(KINDS), required=True)
    p_sweep.add_argument("--n", type=int, required=True)
    group = p_sweep.add_mutually_exclusive_group(required=True)
    group.add_argument("--exhaustive", action="store_true")
    group.add_argument("--count", type=int, default=0)
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument("--window", type=int, default=None)
    p_sweep.add_argument("--target", type=int, default=None)
    p_sweep.add_argument("--format", choices=list(FORMATS), default="summary")
    p_sweep.add_argument("--max-rows", type=int, default=100_000)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_generate = sub.add_parser("generate", help="emit a deterministic instance")
    p_generate.add_argument("--kind", choices=list(KINDS), required=True)
    p_generate.add_argument("--n", type=int, required=True)
    p_generate.add_argument("--seed", type=int, required=True)
    p_generate.add_argument("-o", "--output", default=None)
    p_generate.set_defaults(func=_cmd_generate)

    # every `type=int` option is read by the file rule; a usage error still says `int`
    for p in sub.choices.values():
        p.register("type", int, _parse_int)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Run one command: its exit code, or 1 with `error: <message>` on
    stderr for a rejected input (ValueError, ArithmeticError, OSError) or
    an input too large for memory (`error: out of memory`).  Usage errors
    leave through argparse with exit code 2."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ArithmeticError, OSError, MemoryError) as exc:
        print(f"error: {'out of memory' if isinstance(exc, MemoryError) else exc}",
              file=sys.stderr)
        return FAIL


if __name__ == "__main__":
    sys.exit(main())

"""Every `eps0` verb prints the same stdout under two hash seeds.

One corpus of argument lists runs through `epsilon0.cli.main` in one
subprocess per `PYTHONHASHSEED` (0 and 4242), and each call's exit code,
stdout length and stdout digest must agree between the two.  The corpus
covers:

- every `ord` op, and `compare`, `nat-add`, `add` and `eval` on deep
  towers, whose stdout must also be what `tests/reference_ordinal.py`
  computes;
- `descent combine|validate` on seeded event logs and their traces, and
  `descent combine` on a log of spaced and non-canonical terms, whose
  stdout must also be what `tests/reference_parser.py` reads;
- `enum check|measure|run` on seeded enumeration logs and every style;
- every `ramsey` op on generated instance files;
- `sweep` of every kind, exhaustive and sampled, in every format;
- `generate` of every kind.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import epsilon0
import reference_ordinal as ref
import reference_parser
from epsilon0.descent import (
    StreamEvent, StreamEventLog, format_descent_trace, format_event_log, gamma_combine,
)
from epsilon0.generate import KINDS, generate
from epsilon0.ordinal import (
    MAX_DEPTH, _SHALLOW, format_ordinal, from_int, nat_add, nat_mul_omega, tower,
)
from epsilon0.ramsey.instances import (
    format_coloring, format_family, format_order, format_tournament,
)
from epsilon0.report import FORMATS
from test_ordinal_order import SMALL, rebuilt
from test_text_memo import LOGS, event_log, rank_script

SCRIPT = """
import hashlib, io, json, sys
from contextlib import redirect_stderr, redirect_stdout
from epsilon0.cli import main
for argv in json.loads(sys.stdin.read()):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(argv)
    text = out.getvalue()
    print(json.dumps([code, len(text), hashlib.sha256(text.encode()).hexdigest()]))
"""

ORD_VALUES = ["0", "3", "w", "w^(w + 1)*2 + w^(2)*5 + 7", "w^(w^(w))"]

SWEEPS = ["--kind coloring --n 4 --exhaustive", "--kind tournament --n 5 --exhaustive",
          "--kind order --n 5 --exhaustive", "--kind coloring --n 6 --count 30 --seed 9",
          "--kind tournament --n 9 --count 30 --seed 9", "--kind order --n 12 --count 30 --seed 9",
          "--kind family --n 8 --count 30 --seed 9",
          "--kind tournament --n 4 --exhaustive --max-rows 7"]

FORMATTERS = {"coloring": format_coloring, "tournament": format_tournament,
              "order": format_order, "family": format_family}


def expected(text):
    return [0, len(text), hashlib.sha256(text.encode()).hexdigest()]


def ord_corpus():
    """Every op on a few values, and the deep-tower pairs with the
    reference's stdout: (argvs, {index: expected line})."""
    argvs = []
    for a in ORD_VALUES:
        argvs += [["ord", op, a] for op in ("eval", "nat-mul-omega", "omega-pow", "encode")]
        argvs += [["ord", "nat-mul-k", a, "3"], ["ord", "tower", a, "2"]]
        argvs += [["ord", op, a, b] for op in ("compare", "add", "nat-add") for b in ORD_VALUES]
    argvs += [["ord", "decode", str(i)] for i in (0, 1, 5, 12, 195, 3762, 199976)]
    operands = []
    for h in (_SHALLOW + 1, 100, MAX_DEPTH - 2):
        a, b = tower(from_int(2), h), tower(from_int(3), h)
        operands += [a, b, rebuilt(a), nat_add(a, SMALL[300]), nat_mul_omega(nat_add(b, a))]
    known = {}
    for a, b in ((a, b) for a in operands[::2] for b in operands[1::2]):
        ta, tb = format_ordinal(a), format_ordinal(b)
        for argv, text in (
                (["ord", "compare", ta, tb], {-1: "LT", 0: "EQ", 1: "GT"}[ref.compare(a, b)]),
                (["ord", "nat-add", ta, tb], format_ordinal(ref.nat_add(a, b))),
                (["ord", "add", ta, tb], format_ordinal(ref.std_add(a, b))),
                (["ord", "eval", f"{tb} + {ta}"], format_ordinal(ref.std_add(b, a)))):
            known[len(argvs)] = expected(text + "\n")
            argvs.append(argv)
    return argvs, known


#: A log whose lines write one exponent with other spacing and in sums
#: that merge or absorb terms: a document memo keyed by both text and value.
SPACED_LOG = [
    "k=2 bound=w^(w^(2) + w)*3 + w^(w^(2) + w) + 5",
    "t=0 e=0 v=w^( w^(2)+w )*2 + 1 + w^(2)",
    "t=1 e=1 v=w^(w^(2) + w)*3 + w^(2)*4",
    "t=2 e=0 v=w^(w^(2)+w) + w^(w^(2) + w) + w*3",
    "t=3 e=1 v=  w^(w^(2) + w)*3+w*7  ",
    "t=4 e=0 v=w^(w^(2) + w) + w ^ (2)*9",
]


def spaced_log_case(tmp_path):
    """`descent combine` on SPACED_LOG and its stdout, from the values the
    reference parser reads line by line: (argv, expected)."""
    path = tmp_path / "spaced.txt"
    path.write_text("\n".join(SPACED_LOG) + "\n")
    k, bound = SPACED_LOG[0].split(" ", 1)
    events = []
    for line in SPACED_LOG[1:]:
        t, e, v = line.split(" ", 2)
        events.append(StreamEvent(int(t[2:]), int(e[2:]), reference_parser.parse_ordinal(v[2:])))
    log = StreamEventLog(k=int(k[2:]), bound=reference_parser.parse_ordinal(bound[6:]),
                         events=tuple(events))
    return ["descent", "combine", str(path)], expected(format_descent_trace(gamma_combine(log)))


def document_corpus(tmp_path):
    argvs = []
    for seed, k, depth in LOGS[:8]:
        log = event_log(seed, k, depth)
        path = tmp_path / f"log{seed}.txt"
        path.write_text(format_event_log(log))
        argvs.append(["descent", "combine", str(path)])
        trace = tmp_path / f"trace{seed}.txt"
        trace.write_text(format_descent_trace(gamma_combine(log)))
        argvs.append(["descent", "validate", str(trace)])
    for seed in range(6):
        path = tmp_path / f"enum{seed}.txt"
        path.write_text(rank_script(seed)[0])
        argvs += [["enum", "measure", str(path)], ["enum", "check", str(path)],
                  ["enum", "check", str(path), "--bound", "2"]]
    argvs += [["enum", "run", "--style", style, "--depth", "3", "--branching", "2",
               "--seed", str(seed)] for style in ("full", "chain", "random") for seed in (1, 7)]
    return argvs


def ramsey_corpus(tmp_path):
    argvs = []
    for n, seed in ((1, 3), (7, 5), (12, 8)):
        path = {}
        for kind in KINDS:
            path[kind] = str(tmp_path / f"{kind}{n}.txt")
            Path(path[kind]).write_text(FORMATTERS[kind](generate(kind, n, seed)))
        argvs += [["ramsey", "solve", path["coloring"], "--format", fmt]
                  for fmt in ("summary", "trace")]
        argvs += [["ramsey", "solve", path["coloring"], "--window", "2"],
                  ["ramsey", "em", path["tournament"]], ["ramsey", "ads", path["order"]],
                  ["ramsey", "coh", path["family"]],
                  ["ramsey", "coh", path["family"], "--target", str(n // 2)],
                  ["ramsey", "brute", path["coloring"]],
                  ["ramsey", "brute", path["tournament"], "--instance", "tournament"]]
    argvs += [["ramsey", "sweep", "--kind", kind, "--n", "4", "--exhaustive", "--format", fmt]
              for kind in ("coloring", "order") for fmt in FORMATS]
    return argvs


def test_every_verb_prints_the_same_under_two_hash_seeds(tmp_path):
    argvs, known = ord_corpus()
    argv, known[len(argvs)] = spaced_log_case(tmp_path)
    argvs.append(argv)
    argvs += document_corpus(tmp_path) + ramsey_corpus(tmp_path)
    argvs += [["sweep", *args.split(), "--format", fmt] for args in SWEEPS for fmt in FORMATS]
    argvs += [["generate", "--kind", kind, "--n", str(n), "--seed", "11"]
              for kind in KINDS for n in (1, 2, 9)]
    src = str(Path(epsilon0.__file__).resolve().parents[1])
    outputs = []
    for hash_seed in ("0", "4242"):
        done = subprocess.run([sys.executable, "-c", SCRIPT], input=json.dumps(argvs),
                              capture_output=True, text=True, timeout=600,
                              env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hash_seed))
        assert done.returncode == 0, done.stderr
        outputs.append([json.loads(line) for line in done.stdout.splitlines()])
    assert outputs[0] == outputs[1]
    assert len(outputs[0]) == len(argvs)
    for i, want in known.items():
        assert outputs[0][i] == want, argvs[i]
    for argv, (code, length, _) in zip(argvs, outputs[0]):
        sweep = "sweep" in argv
        assert code == 0 or not sweep, argv
        # only coloring sweeps write traces
        assert length > 0 or sweep and "trace" in argv and "coloring" not in argv, argv

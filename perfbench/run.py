#!/usr/bin/env python3
"""Benchmark of the epsilon0 library.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from `src/` of
that checkout and from nowhere else.  NAME is one of the four workloads
in workloads.py, or `all`, which runs every workload one after another,
each in its own fresh process.

S defaults to `run_seconds` of BENCHMARK.json.  With `--trace 0` the
timed phase runs passes over the workload's items until S seconds have
gone by (the first pass always whole), and the end-to-end metrics are
printed; each call's time is its trimmed mean CPU time over the
passes (see `Tally`).  `setup_s` is the median of SETUPS set-ups: this process's own and the
rest each in a fresh process, spread evenly over the timed phase.  With
`--trace 1` untraced and traced passes alternate for S seconds and the
per-layer metrics are printed (see tracer.py); the raw spans go to
`.perfbench/` in the checkout.

Every item's emitted bytes are digested.  Each pass must reproduce the
first pass byte for byte, and the first pass must match the digest
pinned in digests.json for this workload and seed, when one is pinned.
An item fails when its checker fails, when it raises, or when its bytes
differ; the last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import stats
import workloads
from tracer import LAYERS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUPS = 10

#: module key -> module name; the keys are the names tracer.LAYERS uses.
MODULES = {
    "ordinal": "epsilon0.ordinal",
    "descent": "epsilon0.descent",
    "enumeration": "epsilon0.enumeration",
    "instances": "epsilon0.ramsey.instances",
    "checkers": "epsilon0.ramsey.checkers",
    "oracles": "epsilon0.ramsey.oracles",
    "solvers": "epsilon0.ramsey.solvers",
    "generate": "epsilon0.generate",
    "sweep": "epsilon0.sweep",
    "report": "epsilon0.report",
}

COUNTERS = ("descent.events", "enumeration.nodes", "ramsey.instances_run") + tuple(
    f"ramsey.check_failures.{stage}" for stage in workloads.STAGES)
CALLS = ("ordinal.compare", "ordinal.nat_add", "ordinal.text", "descent.gamma_combine",
         "enumeration.step", "ramsey.oracles")


class Program:
    """The program's modules, freshly imported."""

    def __init__(self):
        for name in [n for n in sys.modules if n == "epsilon0" or n.startswith("epsilon0.")]:
            del sys.modules[name]
        importlib.import_module("epsilon0")
        for key, module in MODULES.items():
            setattr(self, key, importlib.import_module(module))
        if not Path(self.ordinal.__file__).resolve().is_relative_to(SRC):
            raise ImportError(f"epsilon0 was imported from {self.ordinal.__file__}, not {SRC}")

    @staticmethod
    def program_modules():
        return [m for n, m in sys.modules.items() if n == "epsilon0" or n.startswith("epsilon0.")]


class Gate:
    """Digest gate over the bytes each item emits."""

    def __init__(self, pinned: Optional[str]):
        self.pinned = pinned
        self.first: Optional[List[bytes]] = None
        self._current: List[bytes] = []

    def check(self, index: int, out: bytes) -> bool:
        digest = hashlib.sha256(out).digest()
        if self.first is None:
            self._current.append(digest)
            return True
        return digest == self.first[index]

    def end_pass(self) -> None:
        if self.first is None:
            self.first, self._current = self._current, []

    def digest(self) -> str:
        return hashlib.sha256(b"".join(self.first or [])).hexdigest()[:16]

    def pinned_ok(self) -> bool:
        return self.pinned is None or self.digest() == self.pinned


def call_time(values: List[float]) -> float:
    """The mean of repeated timings of the same call, without the slowest
    tenth of them (rounded down)."""
    kept = sorted(values)[:len(values) - len(values) // 10]
    return sum(kept) / len(kept)


class Tally:
    """Items attempted and failed, and every call's time in every pass.

    Every pass makes the same calls, and a call's time is its `call_time`
    over the passes.  Times are the process's CPU time: the program is
    single-threaded and does no I/O while timed, so on a machine of its
    own that is its wall-clock time, and on a shared VM it leaves out the
    spells in which the host runs another tenant on this vCPU.  A
    neighbour on the sibling hardware thread still makes the same short
    call take up to 1.8 times as long, and comes and goes many times a
    second: one timing of a call of a few milliseconds lands on either
    speed, and its median, minimum or 90th percentile over a run flips
    between the two from run to run.  The mean over the passes weighs the
    two speeds by the share of the run each held, as the time of a long
    call does on its own; dropping the slowest tenth keeps rare outliers
    out of it.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.times: Dict[int, List[float]] = {}
        self.counts: Dict[int, int] = {}
        self.reported_error = False

    def add(self, index: int, count: int, failures: int, seconds: float) -> None:
        self.attempted += count
        self.failed += min(failures, count)
        self.times.setdefault(index, []).append(seconds)
        self.counts[index] = count

    def call_s(self) -> Dict[int, float]:
        """Each call's time over the passes."""
        return {i: call_time(t) for i, t in self.times.items()}

    def latency_ms(self) -> List[float]:
        """Per call: its time over the items it completes."""
        return [1000.0 * s / self.counts[i] for i, s in self.call_s().items()]

    def items_per_s(self) -> float:
        """Items of one pass over the sum of the calls' times."""
        return sum(self.counts.values()) / sum(self.call_s().values())


def run_pass(w: workloads.Workload, gate: Gate, tally: Tally,
             tracer: Optional[Tracer] = None,
             before_item: Optional[Callable[[], None]] = None,
             deadline: Optional[float] = None) -> None:
    """One pass over the items, cut short at `deadline` if one is given;
    `before_item` runs before each, untimed."""
    clock = time.process_time
    for index, item in enumerate(w.items):
        if deadline is not None and time.perf_counter() >= deadline:
            break
        if before_item is not None:
            before_item()
        if tracer is not None:
            tracer.item += 1
        start = clock()
        try:
            out, failures = item.run()
        except Exception:
            # An item that raises is a failed item; the run goes on.
            if not tally.reported_error:
                traceback.print_exc(file=sys.stderr)
                tally.reported_error = True
            out, failures = b"\0raised", item.count
        end = clock()
        if not gate.check(index, out):
            failures = item.count
        tally.add(index, item.count, failures, end - start)
    gate.end_pass()


def pinned_digest(workload: str, seed: int) -> Optional[str]:
    pins = json.loads((HERE / "digests.json").read_text())
    table = pins.get(workload, {})
    return table.get("any", table.get(str(seed)))


def set_up(workload: str, seed: int) -> Tuple[Program, workloads.Workload, float]:
    """Import the program and build the inputs; returns both and the
    wall-clock time taken (numpy's import starts threads, so CPU time
    would count more than the wait)."""
    start = time.perf_counter()
    ep = Program()
    w = workloads.setup(workload, ep, seed)
    setup_s = time.perf_counter() - start
    gc.collect()
    return ep, w, setup_s


#: One set-up in a fresh interpreter; prints its time.  argv: perfbench
#: directory, program source, workload, seed.
SETUP_CHILD = """
import sys
sys.path[:0] = sys.argv[1:3]
import run
print(run.set_up(sys.argv[3], int(sys.argv[4]))[2])
"""


def cold_setup_s(workload: str, seed: int) -> float:
    """The time of one set-up in a fresh process, so that it includes the
    first import of epsilon0 and of everything it imports (numpy too)."""
    proc = subprocess.run([sys.executable, "-c", SETUP_CHILD, str(HERE), str(SRC),
                           workload, str(seed)],
                          cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True, timeout=120)
    return float(proc.stdout.split()[-1])


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def make_stamp(args) -> Dict[str, object]:
    numpy = sys.modules.get("numpy")
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__ if numpy else "not loaded",
        "git_sha": git_sha(),
    }


def untraced(args, w, setup_s: float, gate: Gate, tally: Tally) -> Dict[str, Tuple[float, str]]:
    """Passes until the time is up.  Between items, at even intervals, the
    set-up is timed again in a fresh process, so that `setup_s` (the
    median of SETUPS set-ups) samples the whole run as the calls do."""
    setups = [setup_s]
    start = time.perf_counter()
    deadline = start + args.seconds

    def before_item() -> None:
        if (len(setups) < SETUPS
                and time.perf_counter() - start >= len(setups) * args.seconds / SETUPS):
            setups.append(cold_setup_s(args.workload, args.seed))

    passes = 0
    while passes == 0 or time.perf_counter() < deadline:
        run_pass(w, gate, tally, before_item=before_item, deadline=deadline if passes else None)
        passes += 1
    latency = tally.latency_ms()
    tail_ms, pct, beyond = stats.tail(latency)
    print(f"# {args.workload}: {passes} passes; item latency over {len(latency)} calls, "
          f"tail is p{pct:.2f} with {beyond} calls beyond")
    print(f"# {args.workload}: set-up times (s) {' '.join(f'{t:.4f}' for t in setups)}")
    return {
        "setup_s": (statistics.median(setups), "s"),
        "items_per_s": (tally.items_per_s(), "1/s"),
        "item_p50_ms": (statistics.median(latency), "ms"),
        "item_tail_ms": (tail_ms, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def traced(args, ep, w, gate: Gate, tally: Tally) -> Dict[str, Tuple[float, str]]:
    tracer = Tracer()
    plain_walls, traced_walls, layer_self = [], [], {name: [] for name in LAYERS}
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        run_pass(w, gate, tally)
        plain_walls.append(time.perf_counter() - t0)
        tracer.reset()
        w.counters.clear()
        tracer.install(ep)
        try:
            t0 = time.perf_counter()
            run_pass(w, gate, tally, tracer)
            traced_walls.append(time.perf_counter() - t0)
        finally:
            tracer.uninstall()
        calls = tracer.totals()
        counters = dict(w.counters)
        for name, (self_s, _) in calls.items():
            layer_self[name].append(self_s)
        if time.perf_counter() - start >= args.seconds:
            break
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    spans = out_dir / f"spans-{args.workload}-seed{args.seed}.tsv"
    tracer.write_spans(spans)
    print(f"# {args.workload}: {len(traced_walls)} traced passes; spans in {spans.relative_to(ROOT)}")
    metrics: Dict[str, Tuple[float, str]] = {}
    for name in LAYERS:
        metrics[f"{name}.self_s"] = (statistics.median(layer_self[name]), "s")
    for name in CALLS:
        metrics[f"{name}.calls"] = (calls[name][1], "count")
    for name in COUNTERS:
        metrics[name] = (counters.get(name, 0), "count")
    overhead = statistics.median(traced_walls) - statistics.median(plain_walls)
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics


def run_one(args) -> int:
    ep, w, setup_s = set_up(args.workload, args.seed)
    gate = Gate(pinned_digest(args.workload, args.seed))
    tally = Tally()
    if args.trace:
        metrics = traced(args, ep, w, gate, tally)
    else:
        metrics = untraced(args, w, setup_s, gate, tally)
    if not gate.pinned_ok():
        print(f"# {args.workload}: digest {gate.digest()} differs from the pinned "
              f"{gate.pinned}", file=sys.stderr)
        tally.failed = tally.attempted
    pin_note = "pinned" if gate.pinned else "not pinned for this seed"
    print(f"# stamp {json.dumps(make_stamp(args), sort_keys=True)}")
    print(f"# {args.workload} digest {gate.digest()} ({pin_note})")
    for name, (value, unit) in metrics.items():
        shown = f"{value:14d}" if isinstance(value, int) else f"{value:14.6f}"
        print(f"{args.workload:17} {name:40} {shown} {unit}")
    print(f"{args.workload:17} {'failed_ratio':40} {tally.failed / tally.attempted:14.6f} "
          f"({tally.failed}/{tally.attempted})")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own fresh process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=list(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "epsilon0" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())

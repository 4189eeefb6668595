#!/usr/bin/env python3
"""Compare the benchmark results of a parent and a change.

    python3 perfbench/compare.py pairs PARENT_DIR CHANGE_DIR [--workload NAME ...]
            [--out FILE]
    python3 perfbench/compare.py record DIR [--seeds 1-10] [--workload NAME ...]
            [--trace 0|1] [--out FILE]
    python3 perfbench/compare.py verdict FILE

Each `pairs` or `record` run writes its results afresh, as JSON lines, to
FILE (by default under .perfbench/ in the current directory).

`pairs` runs the benchmark of each checkout (its own perfbench/run.py,
from its root) in ten alternating pairs on seeds 1 to 10: the parent runs
first in even pairs and the change in odd ones, and both runs of a pair
use the same seed.  It then prints the verdict table.  `record` runs one checkout over a
range of seeds.  `verdict` re-reads saved results; for runs of one
checkout only it prints each metric's median and spread.

For every end-to-end metric of BENCHMARK.json and every workload the
table has one row: `win`, `same`, `regression` or `unresolved`, by the
rule in stats.verdict.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

import stats

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_benchmark(root: Path, workload: str, seed: int, trace: int) -> Dict:
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {root} exited with {proc.returncode}")
    stamp = {}
    for line in lines:
        if line.startswith("# stamp "):
            stamp = json.loads(line[len("# stamp "):])
    return {"stamp": stamp, "result": json.loads(lines[-1])}


def append(out: Path, record: Dict) -> None:
    with out.open("a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")


def seed_range(text: str) -> List[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def verdict_table(records: List[Dict]) -> List[Dict]:
    rows = []
    for workload in WORKLOADS:
        for metric in SPEC["end_to_end"]:
            name = metric["name"]
            sides: Dict[str, Dict[int, float]] = {"parent": {}, "change": {}}
            failed = {"parent": 0, "change": 0}
            for rec in records:
                if rec["workload"] == workload and rec["side"] in sides:
                    sides[rec["side"]][rec["pair"]] = rec["result"]["metrics"][name]["value"]
                    failed[rec["side"]] += rec["result"]["failed"]
            pairs = sorted(set(sides["parent"]) & set(sides["change"]))
            if len(pairs) < stats.PAIRS:
                continue
            label, detail = stats.verdict([sides["parent"][p] for p in pairs],
                                          [sides["change"][p] for p in pairs],
                                          metric["better"], metric["bound"],
                                          failed["parent"], failed["change"])
            rows.append({"workload": workload, "metric": name, "unit": metric["unit"],
                         "verdict": label, **detail})
    return rows


def print_spreads(records: List[Dict]) -> None:
    """Median and spread of each metric over runs of one side."""
    print(f"{'workload':17} {'metric':14} {'runs':>4} {'median':>12} {'spread':>7} {'bound':>6}")
    for workload in WORKLOADS:
        for metric in SPEC["end_to_end"]:
            values = [r["result"]["metrics"][metric["name"]]["value"] for r in records
                      if r["workload"] == workload]
            if len(values) >= 2:
                print(f"{workload:17} {metric['name']:14} {len(values):>4} "
                      f"{stats.quartiles(values)[1]:12.6g} {stats.spread(values):7.3f} "
                      f"{metric['bound']:6.2f}")


def print_table(rows: List[Dict]) -> None:
    print(f"{'workload':17} {'metric':14} {'parent':>12} {'change':>12} {'wins':>6} "
          f"{'p-spread':>9} {'c-spread':>9} {'bound':>6} {'failed p/c':>11}  verdict")
    for r in rows:
        print(f"{r['workload']:17} {r['metric']:14} {r['parent_median']:12.6g} "
              f"{r['change_median']:12.6g} {r['wins']:>3}/{r['pairs']:<2} "
              f"{r['parent_spread']:9.3f} {r['change_spread']:9.3f} {r['bound']:6.2f} "
              f"{r['parent_failed']:>5}/{r['change_failed']:<5}  {r['verdict']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    p_pairs = sub.add_parser("pairs")
    p_pairs.add_argument("parent", type=Path)
    p_pairs.add_argument("change", type=Path)
    p_pairs.add_argument("--workload", action="append", choices=WORKLOADS)
    p_pairs.add_argument("--out", type=Path, default=Path(".perfbench/compare-results.jsonl"))
    p_record = sub.add_parser("record")
    p_record.add_argument("root", type=Path)
    p_record.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    p_record.add_argument("--workload", action="append", choices=WORKLOADS)
    p_record.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p_record.add_argument("--out", type=Path, default=Path(".perfbench/results.jsonl"))
    p_verdict = sub.add_parser("verdict")
    p_verdict.add_argument("results", type=Path)
    args = parser.parse_args(argv)

    if args.cmd in ("record", "pairs"):
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text("")

    if args.cmd == "record":
        for workload in args.workload or WORKLOADS:
            for seed in args.seeds:
                rec = run_benchmark(args.root, workload, seed, args.trace)
                append(args.out, {"side": "record", "pair": seed, "workload": workload, **rec})
                print(f"{workload} seed {seed}: {json.dumps(rec['result']['metrics'])}", flush=True)
        return 0

    if args.cmd == "pairs":
        roots = {"parent": args.parent, "change": args.change}
        for pair, order in enumerate(stats.alternating_order(stats.PAIRS)):
            for workload in args.workload or WORKLOADS:
                for side in order:
                    rec = run_benchmark(roots[side], workload, 1 + pair, 0)
                    append(args.out, {"side": side, "pair": pair, "workload": workload, **rec})
                    print(f"pair {pair} {side} {workload} done", file=sys.stderr, flush=True)
        path = args.out
    else:
        path = args.results
    records = [json.loads(line) for line in path.read_text().splitlines() if line.strip()]
    failed = [r for r in records if not r["result"]["correct"]]
    for r in failed:
        print(f"# {r['side']} {r['workload']} pair {r['pair']}: "
              f"{r['result']['failed']}/{r['result']['attempted']} items failed")
    rows = verdict_table(records)
    if rows:
        print_table(rows)
    else:
        print_spreads(records)
    return 0


if __name__ == "__main__":
    sys.exit(main())

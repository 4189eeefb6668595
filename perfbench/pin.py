#!/usr/bin/env python3
"""Pin the digests of the bytes each workload emits.

    python3 perfbench/pin.py [--seeds 0-99] [--workload NAME ...]

Runs one untimed pass of each workload per seed (one pass for
sweep-exhaustive, which ignores its seed) and writes the digests to
perfbench/digests.json.  Refuses to pin a pass in which any item failed.
Run it only on a commit whose outputs are known to be right.
"""

from __future__ import annotations

import argparse
import json
import sys

import run
import workloads
from compare import seed_range

SEEDLESS = ("sweep-exhaustive",)


def first_pass_digest(workload: str, seed: int) -> str:
    ep = run.Program()
    w = workloads.setup(workload, ep, seed)
    gate, tally = run.Gate(None), run.Tally()
    run.run_pass(w, gate, tally)
    if tally.failed:
        raise SystemExit(f"{workload} seed {seed}: {tally.failed} items failed; not pinned")
    return gate.digest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("0-99"))
    parser.add_argument("--workload", action="append", choices=workloads.WORKLOADS)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(run.SRC))
    path = run.HERE / "digests.json"
    pins = json.loads(path.read_text())
    for workload in args.workload or workloads.WORKLOADS:
        if workload in SEEDLESS:
            table = {"any": first_pass_digest(workload, 0)}
        else:
            table = {str(seed): first_pass_digest(workload, seed) for seed in args.seeds}
        pins[workload] = table
        path.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
        print(f"pinned {workload}: {len(table)} digests", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

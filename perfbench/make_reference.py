"""Record the reference values that the benchmark's checks compare against.

Run from the root of a checkout at the commit whose outputs are the
reference:

    python3 perfbench/make_reference.py --seeds 0-99,1234,2024-2026,4242,12345,31337,65535,99999

It adds to ``perfbench/reference.json``, for each checked workload and
seed, the per-trial values that ``workloads.reference_values`` extracts.
Seeds already in the file are recomputed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import workloads
from run import OUT_DIR, load_program


def parse_seeds(text: str):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, help="e.g. 0-99,123")
    args = parser.parse_args(argv)
    root = os.getcwd()
    cli = load_program(root)
    if cli is None:
        return 2
    out = os.path.join(root, OUT_DIR, "reference")
    table = {name: {} for name in workloads.REFERENCED}
    if os.path.exists(workloads.REFERENCE_PATH):
        with open(workloads.REFERENCE_PATH) as fh:
            table.update(json.load(fh))
    for name in workloads.REFERENCED:
        workload = workloads.WORKLOADS[name]
        for seed in parse_seeds(args.seeds):
            shutil.rmtree(out, ignore_errors=True)
            cfg = cli.parse_config(None, workload.config_overrides(
                seed, out, smoke=False, jobs=2,
                trials=workload.checked_trials))
            result = cli.run_experiment(cfg)
            table[name][str(seed)] = workloads.reference_values(name, result, out)
            print(f"{name} seed {seed}: {table[name][str(seed)]}", flush=True)
            _write(table)
    shutil.rmtree(out, ignore_errors=True)
    return 0


def _write(table) -> None:
    # One line per seed keeps the file short and its diffs readable.
    blocks = []
    for name, seeds in table.items():
        lines = ",\n".join(f"  {json.dumps(seed)}: {json.dumps(seeds[seed])}"
                           for seed in sorted(seeds, key=int))
        blocks.append(f" {json.dumps(name)}: {{\n{lines}\n }}")
    with open(workloads.REFERENCE_PATH, "w") as fh:
        fh.write("{\n" + ",\n".join(blocks) + "\n}\n")


if __name__ == "__main__":
    sys.exit(main())

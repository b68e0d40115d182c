"""Record the reference outputs that every benchmark run is checked against.

    python3 perfbench/record.py [--workload NAME] [--seeds 0 1 2]

Runs each workload once per seed from this checkout and writes
``refs/<workload>.json``.  Values that do not depend on the seed must agree
across the recorded seeds to the workload's tolerance, or nothing is written.
Re-record only when a change is meant to alter the outputs, and say why.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import refcheck
import run
import workloads

DEFAULT_SEEDS = {"point-twisted-3d": list(range(16))}


def record(workload: workloads.Workload, seeds: list[int]) -> None:
    work = run.ROOT / ".perfbench" / f"record-{workload.name}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config = work / "config.json"
    config.write_text(json.dumps(workload.config, indent=2) + "\n")
    flats = {}
    for seed in seeds:
        out = work / f"out-{seed}"
        args = ["run", workload.name, "--config", str(config), "--seed", str(seed), "--out", str(out)]
        wall, _, code = run.launch(args, run.child_env(), work / f"out-{seed}.log", 600.0)
        flats[seed] = workloads.collect(workload, out, code)
        print(f"{workload.name} seed {seed}: exit {code}, {wall:.2f} s", flush=True)
    keys = workloads.per_seed_keys(flats[seeds[0]])
    invariant = {k: v for k, v in flats[seeds[0]].items() if k not in keys}
    for seed in seeds[1:]:
        problems = refcheck.compare(flats[seed], invariant, workload.rtol, ignore=keys)
        if problems:
            sys.exit(f"{workload.name}: seed {seed} disagrees with seed {seeds[0]}:\n  " + "\n  ".join(problems))
    per_seed = {seed: {k: flats[seed][k] for k in keys} for seed in seeds} if keys else {}
    path = run.BENCH_DIR / "refs" / f"{workload.name}.json"
    refcheck.write_reference(path, workload.rtol, invariant, per_seed)
    shutil.rmtree(work)
    print(f"wrote {path.relative_to(run.ROOT)}: {len(invariant)} invariant keys, {len(keys)} per-seed keys")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), action="append")
    parser.add_argument("--seeds", type=int, nargs="+")
    args = parser.parse_args()
    for name in args.workload or sorted(workloads.WORKLOADS):
        record(workloads.WORKLOADS[name], args.seeds or DEFAULT_SEEDS.get(name, [0, 1, 2]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

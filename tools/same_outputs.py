#!/usr/bin/env python3
"""List every CLI output that differs between a git ref and this checkout.

    python3 tools/same_outputs.py REF

REF's committed files are exported (``git archive``) to a temporary
directory; the other side is the checkout this script sits in, uncommitted
edits included.  Both sides run one fixed matrix: every verb on a small flat,
warped and twisted config, ``flow`` with ``eigenmode:1`` on the warped one,
and the warped ``sweep`` with ``--jobs 2``.  They then run the benchmark's
own configs and CLI arguments, read from this checkout's
``perfbench/workloads.py``: ``sweep-warped-2d`` (``sweep --jobs 2
--no-cache``), ``flow-flat-2d`` (``flow --no-cache``) and
``point-twisted-3d``, which the benchmark runs in process and this script
runs as ``verify``.  Each run is a fresh interpreter with the side's ``src``
on PYTHONPATH and the BLAS/OpenMP threads pinned to 1.

A run matches when its exit code, its stdout and stderr (its output
directory written as ``OUT``) and every file it writes agree byte for byte.
``run_manifest.json`` is left out: it records the time of the run.  The
script prints each run's peak resident memory on both sides (``ru_maxrss``
of ``os.wait4``, which covers the sweep workers the run reaped; never a
difference), then each difference, removes the exported tree and exits 1 if
any run differs, else 0.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import WORKLOADS  # noqa: E402
THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
VERBS = ("build", "eig", "split", "flow", "verify", "sweep")
WARPED = {
    "family": {"kind": "warped-torus", "epsilon": 0.1, "delta": 0.3},
    "resolution": {"nodes_per_unit": 64},
    "sweep": {"epsilons": [0.2, 0.1, 0.05]},
}
CONFIGS = {
    "flat": {"family": {"kind": "flat-product-torus"}, "resolution": {"nodes_per_unit": 64}},
    "warped": WARPED,
    "twisted": {
        "family": {"kind": "twisted-3-torus", "epsilon": 0.25, "twist": math.pi / 2},
        "resolution": {"nodes_per_unit": 64},
        "ball": {"radius": 0.3},
    },
    "warped-eigenmode": {**WARPED, "flow": {"field": "eigenmode:1"}},
}
# (run name, config name, CLI arguments before --config)
RUNS = [(f"{verb}-{name}", name, (verb,)) for name in ("flat", "warped", "twisted") for verb in VERBS] + [
    ("flow-eigenmode1-warped", "warped-eigenmode", ("flow",)),
    ("sweep-jobs2-warped", "warped", ("sweep", "--jobs", "2")),
]
# (run name, config name, CLI arguments before --config) of each benchmark
# workload; kept out of RUNS, so tools/verb_coverage.py does not trace them
BENCH_RUNS = [(f"bench-{w.name}", f"bench-{w.name}", (w.verb or "verify", *w.cli_args)) for w in WORKLOADS.values()]
BENCH_CONFIGS = {f"bench-{w.name}": w.config for w in WORKLOADS.values()}
RUN_TIMEOUT_S = 900


def export(ref: str, dest: Path) -> None:
    """The committed files of ``ref`` under ``dest``."""
    commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", f"{ref}^{{commit}}"],
                            capture_output=True, text=True)
    if commit.returncode != 0:
        sys.exit(f"same_outputs: {ref!r} is not a commit: {commit.stderr.strip()}")
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", commit.stdout.strip()],
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        # the extraction filters came in Python 3.10.12 and 3.11.4; the
        # archive is this repository's own
        archive.extractall(dest, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))


def run_cli(argv: list[str], cwd: Path, env: dict) -> tuple[int, str, str, float]:
    """``(exit code, stdout, stderr, peak RSS in MB)`` of one CLI process.

    The process is reaped with ``os.wait4``: its ``ru_maxrss`` is the largest
    of the process and the children it reaped (the sweep's pool workers).
    A run past ``RUN_TIMEOUT_S`` is killed."""
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        deadline = time.monotonic() + RUN_TIMEOUT_S
        while not (reaped := os.wait4(proc.pid, os.WNOHANG))[0]:
            if time.monotonic() > deadline:
                os.kill(proc.pid, signal.SIGKILL)   # not proc.kill(): its poll() would reap the run
            time.sleep(0.02)
        # reaped here, so Popen must not wait for it again
        proc.returncode = os.waitstatus_to_exitcode(reaped[1])
        streams = []
        for f in (out, err):
            f.seek(0)
            streams.append(f.read().decode())
        return proc.returncode, *streams, reaped[2].ru_maxrss / 1024


def run_side(tree: Path, work: Path, configs: Path) -> dict:
    """``{run name: (exit code, stdout, stderr, {path: bytes}, peak MB)}`` for one tree."""
    env = {**os.environ, **THREAD_PINS, "PYTHONPATH": str(tree / "src")}
    results = {}
    for name, config, args in RUNS + BENCH_RUNS:
        out = work / name
        code, stdout, stderr, peak_mb = run_cli(
            [sys.executable, "-m", "collapselab.cli", *args, "--config", str(configs / f"{config}.json"),
             "--out", str(out)], work, env)
        files = {str(f.relative_to(out)): f.read_bytes() for f in sorted(out.rglob("*"))
                 if f.is_file() and f.name != "run_manifest.json"}
        results[name] = (code, stdout.replace(str(out), "OUT"), stderr.replace(str(out), "OUT"), files, peak_mb)
        print(f"  {name}: exit {code}, {len(files)} files, peak {peak_mb:.1f} MB", flush=True)
    return results


def differences(ref: dict, new: dict) -> list[str]:
    found = []
    for name, _, _ in RUNS + BENCH_RUNS:
        (code_a, out_a, err_a, files_a, _), (code_b, out_b, err_b, files_b, _) = ref[name], new[name]
        if code_a != code_b:
            found.append(f"{name}: exit code {code_a} (ref) != {code_b} (checkout)")
        for stream, a, b in (("stdout", out_a, out_b), ("stderr", err_a, err_b)):
            if a != b:
                found.append(f"{name}: {stream} differs\n    ref:      {a.strip()!r}\n    checkout: {b.strip()!r}")
        for path in sorted(files_a.keys() | files_b.keys()):
            if path not in files_b:
                found.append(f"{name}: {path} written only by ref")
            elif path not in files_a:
                found.append(f"{name}: {path} written only by the checkout")
            elif files_a[path] != files_b[path]:
                found.append(f"{name}: {path} differs")
    return found


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ref", help="git commit-ish to compare this checkout against")
    args = parser.parse_args()
    tmp = Path(tempfile.mkdtemp(prefix="same_outputs-"))
    try:
        configs = tmp / "configs"
        configs.mkdir()
        for name, cfg in {**CONFIGS, **BENCH_CONFIGS}.items():
            (configs / f"{name}.json").write_text(json.dumps(cfg))
        export(args.ref, tmp / "ref-tree")
        results = {}
        for side, tree in (("ref", tmp / "ref-tree"), ("checkout", ROOT)):
            print(f"{side} ({tree}):", flush=True)
            (tmp / side).mkdir()
            results[side] = run_side(tree, tmp / side, configs)
        found = differences(results["ref"], results["checkout"])
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print("peak RSS, ref -> checkout:")
    for name, _, _ in RUNS + BENCH_RUNS:
        print(f"  {name}: {results['ref'][name][4]:.1f} -> {results['checkout'][name][4]:.1f} MB")
    for line in found:
        print(line)
    print(f"{len(RUNS) + len(BENCH_RUNS)} runs, {len(found)} differences against {args.ref}")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""List every CLI output that differs between a git ref and this checkout.

    python3 tools/same_outputs.py REF

REF's committed files are exported (``git archive``) to a temporary
directory; the other side is the checkout this script sits in, uncommitted
edits included.  Both sides run one fixed matrix: every verb on a small flat,
warped and twisted config, ``flow`` with ``eigenmode:1`` on the warped one,
and the warped ``sweep`` with ``--jobs 2``.  Each run is a fresh interpreter
with the side's ``src`` on PYTHONPATH and the BLAS/OpenMP threads pinned
to 1.

A run matches when its exit code, its stdout and stderr (its output
directory written as ``OUT``) and every file it writes agree byte for byte.
``run_manifest.json`` is left out: it records the time of the run.  The
script prints each difference, removes the exported tree and exits 1 if any
run differs, else 0.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
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
        archive.extractall(dest, filter="data")


def run_side(tree: Path, work: Path, configs: Path) -> dict:
    """``{run name: (exit code, stdout, stderr, {path: bytes})}`` for one tree."""
    env = {**os.environ, **THREAD_PINS, "PYTHONPATH": str(tree / "src")}
    results = {}
    for name, config, args in RUNS:
        out = work / name
        proc = subprocess.run(
            [sys.executable, "-m", "collapselab.cli", *args, "--config", str(configs / f"{config}.json"),
             "--out", str(out)],
            cwd=work, env=env, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
        )
        files = {str(f.relative_to(out)): f.read_bytes() for f in sorted(out.rglob("*"))
                 if f.is_file() and f.name != "run_manifest.json"}
        results[name] = (proc.returncode, proc.stdout.replace(str(out), "OUT"),
                         proc.stderr.replace(str(out), "OUT"), files)
        print(f"  {name}: exit {proc.returncode}, {len(files)} files", flush=True)
    return results


def differences(ref: dict, new: dict) -> list[str]:
    found = []
    for name, _, _ in RUNS:
        (code_a, out_a, err_a, files_a), (code_b, out_b, err_b, files_b) = ref[name], new[name]
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
        for name, cfg in CONFIGS.items():
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
    for line in found:
        print(line)
    print(f"{len(RUNS)} runs, {len(found)} differences against {args.ref}")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())

"""One benchmark process: run a workload once, or time its set-up.

    python3 perfbench/child.py run <workload> --config CFG --seed N --out DIR
    python3 perfbench/child.py setup <workload> --config CFG

``run.py`` starts this script in a fresh interpreter for every sample, with
``src`` on PYTHONPATH.  With PERFBENCH_TRACE_DIR set, the tracer is installed
at import time rather than under the ``__main__`` guard: sweep workers started
with ``spawn`` re-import the main script, and this is how they get traced too.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import tracing
import workloads

if os.environ.get(tracing.TRACE_DIR_ENV):
    TRACER = tracing.install_from_env()


def run_point(config: Path, seed: int, out: Path) -> int:
    """estimates.run_point at the configured point, with its measured values in point.json."""
    from collapselab.cli import load_config
    from collapselab.estimates import c1_sup_bound, default_resolution_rule, run_point
    from collapselab.spectral import RESIDUAL_TOL

    cfg = load_config(config)
    fam = cfg.family
    r = cfg.ball["radius"]
    point = run_point(
        kind=fam["kind"],
        epsilon=fam["epsilon"],
        delta=fam["delta"],
        twist=fam["twist"],
        resolution_rule=default_resolution_rule(
            cfg.resolution["nodes_per_unit"], cfg.resolution["min_fiber_nodes"]
        ),
        ball_center=cfg.ball_center(),
        r=r,
        theta_max=cfg.eig["theta_max"],
        eig_count=cfg.eig["count"],
        seed=seed,
    )
    M = point["manifold"]
    cutoff = point["cutoff"]
    record = {
        "resolution": list(M.grid.shape),
        "epsilonHat": point["eps_hat"],
        "certificate": point["cert"].to_json_dict(),
        "C_ctf": cutoff.c_ctf,
        "C_ctfMeasured": cutoff.c_ctf_measured,
        "cutoffRadii": [cutoff.inner_radius, cutoff.outer_radius],
        "C0": point["C0"],
        "lambdaRic": point["lambda_ric"],
        "ballVolume": point["ball"].volume(),
        "pairs": [
            {
                "theta": p.theta,
                "cluster": p.cluster,
                "residualOk": p.residual <= RESIDUAL_TOL * (1.0 + abs(p.theta)),
                "K": c1_sup_bound(M, p.u, point["ball2"].members, r),
            }
            for p in point["pairs"]
        ],
    }
    out.mkdir(parents=True, exist_ok=True)
    (out / "point.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return 0


def run(workload: workloads.Workload, config: Path, seed: int, out: Path) -> int:
    if workload.verb is None:
        return run_point(config, seed, out)
    from collapselab import cli

    argv = [workload.verb, "--config", str(config), "--out", str(out), "--seed", str(seed), *workload.cli_args]
    return cli.main(argv)


def setup(workload: workloads.Workload, config: Path) -> int:
    """Import the CLI, load the config and build every family member the workload uses."""
    from collapselab.cli import load_config
    from collapselab.manifold import build_family

    cfg = load_config(config)
    for spec in workloads.family_specs(workload, cfg):
        build_family(spec)
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=["run", "setup"])
    parser.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--config", type=Path, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    workload = workloads.WORKLOADS[args.workload]
    if args.mode == "setup":
        return setup(workload, args.config)
    return run(workload, args.config, args.seed, args.out)


if __name__ == "__main__":
    sys.exit(main())

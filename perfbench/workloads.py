"""The benchmark's workloads and how their outputs are read back.

Every workload runs in a fresh interpreter (``child.py``) with the BLAS/OpenMP
thread count pinned to 1; load comes from that one process and, for the sweep,
at most two workers.  ``collect`` turns a run's output directory into a flat
``{key: value}`` map that ``refcheck`` compares against the recorded
references.  Values are floats, lists of floats, or exact values (bools,
ints, strings).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# Tolerances of the solver and flow gates: eigenvalues, epsilon-hat,
# certificates, K, RHS and C_ctf agree to 1e-10; trajectories and fiber
# reports to 1e-12.
SOLVER_RTOL = 1e-10
FLOW_RTOL = 1e-12


@dataclass(frozen=True)
class Workload:
    name: str
    verb: str | None         # CLI verb; None runs estimates.run_point in-process
    config: dict             # collapselab JSON config
    cli_args: tuple[str, ...]
    rtol: float
    # Python iterations per calibration chunk (calibrate.chunk): few for the
    # solver-bound workloads, many for the per-point Python loops of the flow,
    # so that the calibration's speed follows the workload's on a shared host.
    calibration_loops: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sweep-warped-2d",
            verb="sweep",
            config={
                "family": {"kind": "warped-torus", "epsilon": 0.1, "delta": 0.3},
                "resolution": {"nodes_per_unit": 512},
                "sweep": {"epsilons": [0.2, 0.1, 0.05]},
            },
            cli_args=("--jobs", "2", "--no-cache"),
            rtol=SOLVER_RTOL,
            calibration_loops=2000,
        ),
        Workload(
            name="point-twisted-3d",
            verb=None,
            config={
                "family": {"kind": "twisted-3-torus", "epsilon": 0.25, "twist": math.pi / 2},
                "resolution": {"nodes_per_unit": 80, "min_fiber_nodes": 16},
                "ball": {"radius": 0.3},
                "eig": {"count": 6, "theta_max": 50.0},
            },
            cli_args=(),
            rtol=SOLVER_RTOL,
            calibration_loops=2000,
        ),
        Workload(
            name="flow-flat-2d",
            verb="flow",
            config={},
            cli_args=("--no-cache",),
            rtol=FLOW_RTOL,
            calibration_loops=30000,
        ),
    )
}


def family_specs(workload: Workload, cfg) -> list:
    """Every family member a workload builds, from its loaded config."""
    if workload.verb == "sweep":
        return [cfg.family_spec(eps) for eps in cfg.sweep["epsilons"]]
    return [cfg.family_spec()]


# ---------------------------------------------------------------------------
# reading outputs back
# ---------------------------------------------------------------------------


def _flatten(obj, prefix: str, out: dict) -> None:
    if isinstance(obj, dict):
        for key, value in obj.items():
            _flatten(value, f"{prefix}/{key}", out)
    elif isinstance(obj, list) and obj and all(isinstance(v, (dict, list)) for v in obj):
        for i, value in enumerate(obj):
            _flatten(value, f"{prefix}/{i}", out)
    else:
        out[prefix] = obj


def _csv_columns(path: Path, prefix: str, out: dict) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    for j, name in enumerate(header):
        column = [row[j] for row in body]
        if name == "pass":
            out[f"{prefix}/{name}"] = [cell == "1" for cell in column]
        else:
            out[f"{prefix}/{name}"] = [float(cell) for cell in column]


def collect(workload: Workload, result_dir: Path, exit_code: int) -> dict:
    """Flat map of every checked output of one run."""
    out: dict = {"exitCode": exit_code}
    if workload.verb == "sweep":
        _csv_columns(result_dir / "sweep.csv", "sweep.csv", out)
        _csv_columns(result_dir / "plot_data.csv", "plot_data.csv", out)
        for path in sorted((result_dir / "points").glob("*/reports.json")):
            _flatten(json.loads(path.read_text()), f"points/{path.parent.name}", out)
    elif workload.verb == "flow":
        _csv_columns(result_dir / "trajectory.csv", "trajectory.csv", out)
        _flatten(json.loads((result_dir / "fiber_bound_report.json").read_text()), "fiber_bound_report", out)
    else:
        _flatten(json.loads((result_dir / "point.json").read_text()), "point", out)
    return out


def per_seed_keys(flat: dict) -> list[str]:
    """Keys whose value depends on the eigenvector picked inside a degenerate cluster.

    Only the point workload records a vector-dependent value per eigenpair
    (``K``); the warped sweep's spectrum below theta_max has no degenerate
    cluster.
    """
    clusters = []
    while f"point/pairs/{len(clusters)}/cluster" in flat:
        clusters.append(flat[f"point/pairs/{len(clusters)}/cluster"])
    keys = []
    for i, cluster in enumerate(clusters):
        if clusters.count(cluster) > 1:
            keys.append(f"point/pairs/{i}/K")
    return keys

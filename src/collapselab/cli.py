"""Configuration-driven experiment runner.

Verbs: ``build | eig | split | flow | verify | sweep``, each reading one JSON
config file (nested keys, unknown keys rejected with their dotted path) and
writing deterministic outputs into the ``--out`` directory: identical config and
seed give byte-identical CSV/JSON, timestamps live only in the run manifest.
Every CSV file is written by ``_write_csv`` (floats as ``.17g``) and every
JSON file by ``_write_json`` (strict: infinity is ``"inf"``, a NaN exits 1).
The config holds every pipeline input (``--seed`` overrides its seed); the
flags say only where and how a run executes.  ``eig`` and ``flow eigenmode:N``
keep each solve's pairs in one ``<out>/cache/eig_<key>.npy`` file, which
``--no-cache`` neither reads nor writes.

Every verb takes its pipeline inputs from ``ExperimentConfig.point_args``:
``split`` and ``flow`` run a point's chart stage (``classify_regular`` of the
harmonic coordinates) and its ball stage (``certify_ball``) as ``run_point``
does, ``eig`` and ``flow eigenmode:N`` solve for the pairs ``verify`` reports
on, and a sweep runs the same argument sets at each of its epsilons, so a
sweep point is exactly the ``verify`` run at that epsilon.

Exit codes: 0 all checks pass, 2 some estimate report failed, 1 execution or
configuration error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import re
import sys
from dataclasses import asdict, dataclass, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .estimates import (
    certify_ball,
    checked_fibers,
    default_ball_center,
    default_resolution_rule,
    nearest_node,
    point_reports,
    point_spec,
    run_point,
    sweep,
)
from .flow import fiber_apriori_check, flow_rate_bound, integrate_flow, tangential_projection
from .manifold import FAMILIES, MIN_FIBER_NODES, FamilySpec, build_family
from .spectral import cached_eigenpairs, eigenpairs
from .splitting import classify_regular, harmonic_coordinates

__all__ = ["main", "ExperimentConfig", "load_config"]


_DEFAULTS = {
    "family": {"kind": "flat-product-torus", "epsilon": 0.1, "delta": 0.0, "twist": 0.0},
    "resolution": {"nodes_per_unit": 128, "min_fiber_nodes": 16},
    "ball": {"center": None, "radius": None},
    "eig": {"count": 6, "theta_max": 50.0},
    "sweep": {"epsilons": [0.2, 0.1, 0.05]},
    "flow": {"field": "fiber-sine", "start": None, "time_over_k": 10.0, "dt_factor": 1e-4},
    "thresholds": {"lambda_min_rel": 1e-6},
    "seed": 0,
}

# config fields that must hold a positive finite number, and integer fields with their least value: a
# chart axis needs 2 nodes, and FamilySpec rejects a fiber axis of fewer than MIN_FIBER_NODES nodes
_POSITIVE = [("family", "epsilon"), ("ball", "radius"), ("eig", "theta_max"), ("flow", "time_over_k"),
             ("flow", "dt_factor")]
_INTEGERS = {"eig.count": 1, "resolution.nodes_per_unit": 2, "resolution.min_fiber_nodes": MIN_FIBER_NODES,
             "seed": 0}


@dataclass(frozen=True)
class ExperimentConfig:
    family: dict
    resolution: dict
    ball: dict
    eig: dict
    sweep: dict
    flow: dict
    thresholds: dict
    seed: int

    # -- derived pieces ------------------------------------------------------

    def point_args(self, epsilon: float | None = None) -> dict:
        """``run_point`` keyword arguments at ``epsilon`` (the family's own by
        default); the one place a config becomes pipeline inputs.  ``split``
        and ``flow`` read only the chart and ball inputs among them."""
        fam = self.family
        return {
            "kind": fam["kind"],
            "epsilon": fam["epsilon"] if epsilon is None else float(epsilon),
            "delta": fam["delta"],
            "twist": fam["twist"],
            "resolution_rule": default_resolution_rule(
                self.resolution["nodes_per_unit"], self.resolution["min_fiber_nodes"]
            ),
            "ball_center": self.ball_center(),
            "r": self.ball["radius"],
            "theta_max": self.eig["theta_max"],
            "eig_count": self.eig["count"],
            "seed": self.seed,
            "lambda_threshold_rel": self.thresholds["lambda_min_rel"],
        }

    def family_spec(self, epsilon: float | None = None) -> FamilySpec:
        a = self.point_args(epsilon)
        return point_spec(a["kind"], a["epsilon"], a["delta"], a["twist"], a["resolution_rule"])

    def ball_center(self) -> tuple[float, ...]:
        if self.ball["center"] is not None:
            return tuple(float(c) for c in self.ball["center"])
        return default_ball_center(self.family["kind"])


def _merge_checked(defaults: dict, given: dict, path: str = "") -> dict:
    out = {}
    for key, dval in defaults.items():
        if key in given:
            gval = given[key]
            if isinstance(dval, dict):
                if not isinstance(gval, dict):
                    raise ValueError(f"config field {path}{key} must be a mapping")
                out[key] = _merge_checked(dval, gval, f"{path}{key}.")
            else:
                out[key] = gval
        else:
            out[key] = _merge_checked(dval, {}, f"{path}{key}.") if isinstance(dval, dict) else dval
    unknown = set(given) - set(defaults)
    if unknown:
        name = sorted(unknown)[0]
        raise ValueError(f"unknown config key: {path}{name}")
    return out


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse and validate a JSON config; unknown keys are rejected by name."""
    try:
        raw = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"config parse error in {path} at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ValueError(f"config root in {path} must be a JSON object")
    merged = _merge_checked(_DEFAULTS, raw)
    family = FAMILIES[merged["family"]["kind"]]
    if merged["ball"]["radius"] is None:
        merged["ball"]["radius"] = family.ball_radius
    cfg = ExperimentConfig(**merged)
    for section, name in _POSITIVE + [("thresholds", key) for key in cfg.thresholds]:
        value = merged[section][name]
        if not _finite(value, above=0):
            raise ValueError(f"config field {section}.{name} must be a positive finite number, got {value!r}")
    for name in ("delta", "twist"):    # the kind's own parameter, which may be zero or negative
        if not _finite(merged["family"][name]):
            raise ValueError(f"config field family.{name} must be a finite number, got {merged['family'][name]!r}")
    for key, least in _INTEGERS.items():
        section, _, name = key.rpartition(".")
        value = merged[section][name] if section else merged[name]
        if isinstance(value, bool) or not isinstance(value, int) or value < least:
            wanted = {0: "a non-negative integer", 1: "a positive integer"}.get(least, f"a positive integer >= {least}")
            raise ValueError(f"config field {key} must be {wanted}, got {value!r}")
    for section, name in (("ball", "center"), ("flow", "start")):
        point = merged[section][name]
        if point is not None and (not isinstance(point, list) or len(point) != family.dim
                                  or not all(map(_finite, point))):
            raise ValueError(f"config field {section}.{name} must list {family.dim} coordinates, each a finite "
                             f"number, got {point!r}")
    epsilons = cfg.sweep["epsilons"]
    if not (isinstance(epsilons, list) and all(_finite(eps, above=0) for eps in epsilons)):
        raise ValueError(f"config field sweep.epsilons must list positive finite numbers, got {epsilons!r}")
    for key, values in (("family.epsilon", [cfg.family["epsilon"]]), ("sweep.epsilons", epsilons)):
        if any(eps > 1 for eps in values):   # FamilySpec's range of the collapse parameter
            raise ValueError(f"config field {key} must lie in (0, 1], got {max(values)!r}")
    field = cfg.flow["field"]
    if not (isinstance(field, str) and re.fullmatch("fiber-sine|eigenmode:[0-9]+", field)):
        raise ValueError(f"config field flow.field must be 'fiber-sine' or 'eigenmode:N' with N a non-negative "
                         f"integer, got {field!r}")
    seen: dict[str, float] = {}
    for eps in cfg.sweep["epsilons"]:
        name = _point_dir(float(eps))
        if name in seen:
            raise ValueError(
                f"config field sweep.epsilons holds {seen[name]!r} and {eps!r}, which share the "
                f"output directory points/{name}; they must differ in their first 6 significant digits"
            )
        seen[name] = eps
    return cfg


def _finite(value, above: float = -math.inf) -> bool:
    """Whether a config value is a finite number greater than ``above``: bool
    is an int subclass, and JSON's 1e400 parses as inf."""
    return not isinstance(value, bool) and isinstance(value, (int, float)) and above < value < math.inf


def _point_dir(eps: float) -> str:
    """The directory under ``points/`` that holds a sweep point's reports."""
    return f"eps_{eps:g}"


# ---------------------------------------------------------------------------
# output files
# ---------------------------------------------------------------------------


def _write_csv(path: Path, header, rows) -> Path:
    """A CSV file of the named columns: floats as ``.17g`` (infinity as
    ``inf``), bools as ``1``/``0`` and ints as they are."""
    def cell(v) -> str:
        if isinstance(v, (bool, np.bool_)):
            return "1" if v else "0"
        return f"{v:.17g}" if isinstance(v, (float, np.floating)) else str(v)

    path.write_text("".join(",".join(map(cell, row)) + "\n" for row in [header, *rows]))
    return path


def _jsonable(obj):
    """``obj`` with NumPy scalars and arrays as Python values and an infinity
    as the string ``"inf"`` (``"-inf"``), the spelling strict JSON allows."""
    if isinstance(obj, (np.ndarray, np.generic)):
        obj = obj.tolist()
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return str(obj) if isinstance(obj, float) and math.isinf(obj) else obj


def _write_json(path: Path, obj) -> Path:
    """``obj`` as strict JSON with sorted keys and a two-space indent.  A NaN
    raises ValueError, and the file is not written."""
    try:
        text = json.dumps(_jsonable(obj), indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise ValueError(f"{path.name} would not be strict JSON: {exc}") from exc
    path.write_text(text + "\n")
    return path


def _write_manifest(cfg: ExperimentConfig, out: Path, paths) -> None:
    """``run_manifest.json``: the config hash, the version, the time and the
    sha256 of each written file under ``out`` (``None`` entries are skipped)."""
    files = [
        {"path": str(path.relative_to(out)), "sha256": hashlib.sha256(path.read_bytes()).hexdigest()}
        for path in paths
        if path is not None
    ]
    canonical = json.dumps(asdict(cfg), sort_keys=True, separators=(",", ":"))
    payload = {
        "configHash": hashlib.sha256(canonical.encode()).hexdigest(),
        "artifactVersion": __version__,
        "createdAt": datetime.now(timezone.utc).isoformat(),
        "files": sorted(files, key=lambda f: f["path"]),
    }
    _write_json(out / "run_manifest.json", payload)


# ---------------------------------------------------------------------------
# shared pipeline pieces
# ---------------------------------------------------------------------------


def _solve_args(cfg: ExperimentConfig, epsilon: float | None = None) -> dict:
    """``point_args`` of a verb that solves for eigenpairs, whose count must
    leave two of the chart's nodes over (``spectral.eigenpairs``)."""
    a = cfg.point_args(epsilon)
    shape = a["resolution_rule"](a["kind"], a["epsilon"])
    if a["eig_count"] > math.prod(shape) - 2:
        raise ValueError(f"config field eig.count must be at most {math.prod(shape) - 2} on the "
                         f"{shape} grid at epsilon {a['epsilon']:g}, got {a['eig_count']!r}")
    return a


def _eigenpairs_cached(cfg: ExperimentConfig, M, out: Path, cache: bool):
    """The eigenpairs ``run_point`` solves for at the config's point, and the
    file under ``out/cache`` they were read from or written to (None with the
    cache off)."""
    a = _solve_args(cfg)
    solve = (M, a["eig_count"], a["theta_max"], a["seed"])
    return cached_eigenpairs(out / "cache", *solve) if cache else (eigenpairs(*solve), None)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_build(cfg: ExperimentConfig, out: Path) -> int:
    spec = cfg.family_spec()
    M = build_family(spec)
    summary = {
        **asdict(spec),
        "nodes": int(np.prod(spec.resolution)),
        "totalVolume": M.total_volume(),
        "dim": M.dim,
    }
    print(json.dumps(summary, indent=2, sort_keys=True))
    _write_manifest(cfg, out, [])
    return 0


def cmd_eig(cfg: ExperimentConfig, out: Path, cache: bool = True) -> int:
    M = build_family(cfg.family_spec())
    pairs, cache_path = _eigenpairs_cached(cfg, M, out, cache)
    csv_path = _write_csv(out / "eigenvalues.csv", ["index", "theta", "residual", "cluster"],
                          [(i, p.theta, p.residual, p.cluster) for i, p in enumerate(pairs)])
    print(f"wrote {len(pairs)} eigenpairs to {csv_path}")
    _write_manifest(cfg, out, [csv_path, cache_path])
    return 0


def cmd_split(cfg: ExperimentConfig, out: Path) -> int:
    a = cfg.point_args()
    mask = classify_regular(harmonic_coordinates(build_family(cfg.family_spec())), a["lambda_threshold_rel"])
    _, cert = certify_ball(mask, a["ball_center"], a["r"])
    path = _write_json(out / "certificate.json", cert.to_json_dict())
    print(path.read_text(), end="")
    _write_manifest(cfg, out, [path])
    return 0


def _flow_field(cfg: ExperimentConfig, mask, out: Path, cache: bool):
    """The tangential field of the configured function on the regular mask,
    and the eigen cache file it read or wrote (None for a closed-form function
    or with the cache off)."""
    M = mask.phi.manifold
    sel = cfg.flow["field"]
    cache_path = None
    if sel == "fiber-sine":
        pos = M.positions()
        u = np.sin(2 * np.pi * pos[..., M.dim - 1])
    else:   # eigenmode:N, as load_config admits no other value
        idx = int(sel.split(":", 1)[1])
        pairs, cache_path = _eigenpairs_cached(cfg, M, out, cache)
        if idx >= len(pairs):
            raise ValueError(f"flow.field eigenmode index {idx} out of range: {len(pairs)} pairs have theta <= "
                             f"eig.theta_max = {cfg.eig['theta_max']:g}; lower flow.field or raise eig.theta_max")
        u = pairs[idx].u
    return tangential_projection(u, mask), cache_path


# flow refuses a K at most this fraction of sup|u| (a constant mode's K is
# round-off), and more steps than the cap (eigenmode:1 of the default config
# takes 290,571 steps, about 15 s)
FLOW_K_ROUND_OFF = 1e-10
FLOW_MAX_STEPS = 1_000_000


def cmd_flow(cfg: ExperimentConfig, out: Path, cache: bool = True) -> int:
    a = cfg.point_args()
    mask = classify_regular(harmonic_coordinates(build_family(cfg.family_spec())), a["lambda_threshold_rel"])
    ball, cert = certify_ball(mask, a["ball_center"], a["r"])
    M = mask.phi.manifold
    field, cache_path = _flow_field(cfg, mask, out, cache)
    start = "ball.center" if cfg.flow["start"] is None else "flow.start"
    x0 = ball.center if cfg.flow["start"] is None else nearest_node(M, cfg.flow["start"])
    traces = checked_fibers(mask, [mask.phi.node_value(x0)])
    if not traces:
        raise ValueError(f"the fiber through the flow's start node {x0} is not a traced regular fiber inside the "
                         f"regular mask; move {start} or lower thresholds.lambda_min_rel")
    report = fiber_apriori_check(traces[0], field, cert.epsilon_hat, ball.radius)
    sup_u = float(np.max(np.abs(field.u)))
    if not report.K > FLOW_K_ROUND_OFF * sup_u:     # the flow time T = flow.time_over_k / K has no scale
        raise ValueError(f"config field flow.field selects a function whose K = {report.K:.3g} is round-off against "
                         f"sup|u| = {sup_u:.3g} (a constant mode); choose another flow.field")
    T = cfg.flow["time_over_k"] / report.K
    rate = flow_rate_bound(report)
    # the configured step, cut to the stability gate dt * rate <= 0.1
    dt = min(cfg.flow["dt_factor"] * M.family.epsilon, 0.1 / rate)
    if T / dt > FLOW_MAX_STEPS:
        raise ValueError(f"config fields flow.time_over_k and flow.dt_factor ask for {T / dt:.4g} flow steps, above "
                         f"the cap of {FLOW_MAX_STEPS:,}; lower flow.time_over_k or raise flow.dt_factor")
    traj = integrate_flow(field, x0, T, dt, stability_rate=rate)
    csv_path = _write_csv(out / "trajectory.csv", ["t", *"xyz"[:M.dim], "u", "tangential_speed_sq", "drift"],
                          zip(traj.times, *traj.positions.T, traj.u_values, traj.speed_sq, traj.drift))
    rep_path = _write_json(out / "fiber_bound_report.json", report.to_json_dict())
    print(
        f"flow from node {x0}: dt {dt:.6g}, {len(traj.times)} samples, max drift {traj.drift.max():.3e}, "
        f"a priori pass={report.passed}"
    )
    _write_manifest(cfg, out, [csv_path, rep_path, cache_path])
    return 0 if report.passed else 2


def cmd_verify(cfg: ExperimentConfig, out: Path) -> int:
    rows, reports = point_reports(run_point(**_solve_args(cfg)))
    path = _write_json(out / "estimate_reports.json", [rep.to_json_dict() for rep in reports])
    for rep in reports:
        print(f"{rep.name}: lhs={rep.lhs:.6g} rhs={rep.rhs:.6g} pass={rep.passed}")
    _write_manifest(cfg, out, [path])
    return 0 if all(row.passed for row in rows) else 2


def cmd_sweep(cfg: ExperimentConfig, out: Path, jobs: int = 1) -> int:
    result = sweep([_solve_args(cfg, eps) for eps in cfg.sweep["epsilons"]], jobs)
    written = [
        _write_csv(out / "sweep.csv", ["epsilon", "epsilonHat", "psi", "theta", "K", "lhs", "rhs", "margin", "pass"],
                   [(row.epsilon, row.epsilon_hat, row.psi, row.theta, row.K, row.lhs, row.rhs, row.margin,
                     row.passed) for row in result.rows]),
        _write_csv(out / "plot_data.csv", ["epsilonHat", "lhs", "rhs"],
                   [(row.epsilon_hat, row.lhs, row.rhs) for row in result.rows]),
    ]
    for eps, reps in zip(sorted(cfg.sweep["epsilons"]), result.reports):
        pdir = out / "points" / _point_dir(eps)
        pdir.mkdir(parents=True, exist_ok=True)
        written.append(_write_json(pdir / "reports.json", [rep.to_json_dict() for rep in reps]))
    written.append(_write_json(out / "sweep_summary.json", {
        "exponent": result.exponent,
        "ratioSpread": result.ratio_spread,
        "degenerate": result.degenerate,
        "allPassed": result.all_passed,
    }))
    _write_manifest(cfg, out, written)
    print(
        f"sweep: {len(result.rows)} rows, all_passed={result.all_passed}, "
        f"degenerate={result.degenerate}, ratio_spread={result.ratio_spread}"
    )
    return 0 if result.all_passed else 2


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="collapselab", description=__doc__)
    parser.add_argument("verb", choices=["build", "eig", "split", "flow", "verify", "sweep"])
    parser.add_argument("--config", required=True, help="path to the JSON experiment config")
    parser.add_argument("--out", default="out", help="output directory (default: out)")
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for sweep points, at least 1 (default 1: serial); at most one per "
        "point is started, and points run most grid nodes first either way",
    )
    parser.add_argument("--seed", type=int, default=None, help="override config seed, at least 0")
    parser.add_argument("--no-cache", action="store_true", help="solve eigenpairs afresh; no <out>/cache/eig_*.npy")
    args = parser.parse_args(argv)
    try:
        if args.jobs < 1:
            raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
        if args.seed is not None and args.seed < 0:
            raise ValueError(f"--seed must be at least 0, got {args.seed}")
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        handler = {
            "build": cmd_build,
            "eig": lambda cfg, out: cmd_eig(cfg, out, cache=not args.no_cache),
            "split": cmd_split,
            "flow": lambda cfg, out: cmd_flow(cfg, out, cache=not args.no_cache),
            "verify": cmd_verify,
            "sweep": lambda cfg, out: cmd_sweep(cfg, out, jobs=args.jobs),
        }
        return handler[args.verb](cfg, out)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

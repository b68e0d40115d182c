"""Configuration-driven experiment runner.

Verbs: ``build | eig | split | flow | verify | sweep``, each reading one JSON
config file (nested keys, unknown keys rejected with their dotted path) and
writing deterministic outputs into the output directory: identical config and
seed give byte-identical CSV/JSON, timestamps live only in the run manifest.

Exit codes: 0 all checks pass, 2 some estimate report failed, 1 execution or
configuration error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .estimates import (
    default_ball_center,
    default_resolution_rule,
    point_reports,
    reports_to_json,
    run_point,
    sweep,
)
from .flow import fiber_apriori_check, flow_rate_bound, integrate_flow, tangential_projection
from .manifold import FamilySpec, build_family, extract_fiber
from .spectral import eigenpairs, load_eigen_cache, save_eigen_cache

__all__ = ["main", "ExperimentConfig", "RunManifest", "load_config"]


_DEFAULTS = {
    "family": {"kind": "flat-product-torus", "epsilon": 0.1, "delta": 0.0, "twist": 0.0},
    "resolution": {"nodes_per_unit": 128, "min_fiber_nodes": 16},
    "ball": {"center": None, "radius": 0.25},
    "eig": {"count": 6, "theta_max": None},
    "sweep": {"epsilons": [0.2, 0.1, 0.05], "theta_max": 50.0},
    "flow": {"field": "fiber-sine", "start": None, "time_over_k": 10.0, "dt_factor": 1e-4},
    "thresholds": {"lambda_min_rel": 1e-6},
    "output_dir": "out",
    "cache": True,
    "seed": 0,
}


@dataclass(frozen=True)
class ExperimentConfig:
    family: dict
    resolution: dict
    ball: dict
    eig: dict
    sweep: dict
    flow: dict
    thresholds: dict
    output_dir: str
    cache: bool
    seed: int

    def to_dict(self) -> dict:
        return asdict(self)

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()

    # -- derived pieces ------------------------------------------------------

    def family_spec(self, epsilon: float | None = None) -> FamilySpec:
        fam = self.family
        eps = fam["epsilon"] if epsilon is None else epsilon
        rule = default_resolution_rule(
            self.resolution["nodes_per_unit"], self.resolution["min_fiber_nodes"]
        )
        return FamilySpec(
            kind=fam["kind"],
            epsilon=eps,
            delta=fam.get("delta", 0.0),
            twist=fam.get("twist", 0.0),
            resolution=rule(fam["kind"], eps),
        )

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
            out[key] = {k: v for k, v in dval.items()} if isinstance(dval, dict) else dval
            if isinstance(dval, dict):
                out[key] = _merge_checked(dval, {}, f"{path}{key}.")
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
    cfg = ExperimentConfig(**merged)
    for name, value in cfg.thresholds.items():
        if not (isinstance(value, (int, float)) and value > 0):
            raise ValueError(f"config field thresholds.{name} must be positive")
    return cfg


# ---------------------------------------------------------------------------
# run manifest
# ---------------------------------------------------------------------------


@dataclass
class RunManifest:
    config_hash: str
    artifact_version: str
    created_at: str
    files: list = field(default_factory=list)

    def add(self, path: Path, root: Path) -> None:
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        self.files.append({"path": str(path.relative_to(root)), "sha256": digest})

    def write(self, root: Path) -> None:
        payload = {
            "configHash": self.config_hash,
            "artifactVersion": self.artifact_version,
            "createdAt": self.created_at,
            "files": sorted(self.files, key=lambda f: f["path"]),
        }
        (root / "run_manifest.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _new_manifest(cfg: ExperimentConfig) -> RunManifest:
    return RunManifest(
        config_hash=cfg.config_hash(),
        artifact_version=__version__,
        created_at=datetime.now(timezone.utc).isoformat(),
    )


# ---------------------------------------------------------------------------
# shared pipeline pieces
# ---------------------------------------------------------------------------


def _point(cfg: ExperimentConfig, epsilon: float | None = None, pairs=None):
    fam = cfg.family
    rule = default_resolution_rule(
        cfg.resolution["nodes_per_unit"], cfg.resolution["min_fiber_nodes"]
    )
    eps = fam["epsilon"] if epsilon is None else epsilon
    return run_point(
        kind=fam["kind"],
        epsilon=eps,
        delta=fam.get("delta", 0.0),
        twist=fam.get("twist", 0.0),
        resolution_rule=rule,
        ball_center=cfg.ball_center(),
        r=cfg.ball["radius"],
        theta_max=cfg.sweep["theta_max"] if cfg.eig["theta_max"] is None else cfg.eig["theta_max"],
        eig_count=cfg.eig["count"],
        seed=cfg.seed,
        lambda_threshold_rel=cfg.thresholds["lambda_min_rel"],
        pairs=pairs,
    )


def _eig_cache_key(cfg: ExperimentConfig, spec: FamilySpec) -> str:
    payload = json.dumps(
        {
            "kind": spec.kind,
            "epsilon": spec.epsilon,
            "delta": spec.delta,
            "twist": spec.twist,
            "resolution": list(spec.resolution),
            "count": cfg.eig["count"],
            "theta_max": cfg.eig["theta_max"],
            "seed": cfg.seed,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _eigenpairs_cached(cfg: ExperimentConfig, M, out: Path):
    spec = M.family
    cache_dir = out / "cache"
    key = _eig_cache_key(cfg, spec)
    path = cache_dir / f"eig_{key}.eigc"
    if cfg.cache:
        cached = load_eigen_cache(path, M)
        if cached is not None:
            return cached, path
    if cfg.eig["theta_max"] is not None:
        pairs = eigenpairs(M, cfg.eig["count"], theta_max=cfg.eig["theta_max"], seed=cfg.seed)
    else:
        pairs = eigenpairs(M, cfg.eig["count"], seed=cfg.seed)
    if cfg.cache:
        cache_dir.mkdir(parents=True, exist_ok=True)
        save_eigen_cache(path, M, pairs)
    return pairs, (path if cfg.cache else None)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_build(cfg: ExperimentConfig, out: Path) -> int:
    spec = cfg.family_spec()
    M = build_family(spec)
    summary = {
        "kind": spec.kind,
        "epsilon": spec.epsilon,
        "delta": spec.delta,
        "twist": spec.twist,
        "resolution": list(spec.resolution),
        "nodes": int(np.prod(spec.resolution)),
        "totalVolume": M.total_volume(),
        "dim": M.dim,
    }
    print(json.dumps(summary, indent=2, sort_keys=True))
    _new_manifest(cfg).write(out)
    return 0


def cmd_eig(cfg: ExperimentConfig, out: Path) -> int:
    M = build_family(cfg.family_spec())
    pairs, cache_path = _eigenpairs_cached(cfg, M, out)
    lines = ["index,theta,residual,cluster"]
    for i, p in enumerate(pairs):
        lines.append(f"{i},{p.theta:.17g},{p.residual:.17g},{p.cluster}")
    csv_path = out / "eigenvalues.csv"
    csv_path.write_text("\n".join(lines) + "\n")
    print(f"wrote {len(pairs)} eigenpairs to {csv_path}")
    manifest = _new_manifest(cfg)
    manifest.add(csv_path, out)
    if cache_path is not None and cache_path.exists():
        manifest.add(cache_path, out)
    manifest.write(out)
    return 0


def cmd_split(cfg: ExperimentConfig, out: Path) -> int:
    point = _point(cfg, pairs=[])
    cert = point["cert"]
    path = out / "certificate.json"
    path.write_text(json.dumps(cert.to_json_dict(), indent=2, sort_keys=True) + "\n")
    print(json.dumps(cert.to_json_dict(), indent=2, sort_keys=True))
    manifest = _new_manifest(cfg)
    manifest.add(path, out)
    manifest.write(out)
    return 0


def _flow_field(cfg: ExperimentConfig, point):
    M = point["manifold"]
    sel = cfg.flow["field"]
    if sel == "fiber-sine":
        pos = M.positions()
        u = np.sin(2 * np.pi * pos[..., M.dim - 1])
    elif isinstance(sel, str) and sel.startswith("eigenmode:"):
        idx = int(sel.split(":", 1)[1])
        pairs, _ = _eigenpairs_cached(cfg, M, Path(cfg.output_dir))
        if idx >= len(pairs):
            raise ValueError(f"flow.field eigenmode index {idx} out of range ({len(pairs)} pairs)")
        u = pairs[idx].u
    else:
        raise ValueError(f"flow.field must be 'fiber-sine' or 'eigenmode:N', got {sel!r}")
    return tangential_projection(M, u, point["phi"], point["stats"], point["mask"])


def cmd_flow(cfg: ExperimentConfig, out: Path) -> int:
    point = _point(cfg, pairs=[])
    M = point["manifold"]
    field = _flow_field(cfg, point)
    grid = M.grid
    if cfg.flow["start"] is not None:
        start_chart = np.asarray(cfg.flow["start"], dtype=float)
    else:
        start_chart = np.asarray(M.positions()[point["ball"].center], dtype=float)
    h = np.asarray(grid.spacings)
    x0 = tuple(int(i) % n for i, n in zip(np.round(start_chart / h).astype(int), grid.shape))
    level = field.phi.evaluate(M.positions()[x0][None, :])[0]
    trace = extract_fiber(field.phi, level)
    report = fiber_apriori_check(trace, field, point["eps_hat"], cfg.ball["radius"])
    T = cfg.flow["time_over_k"] / report.K
    rate = flow_rate_bound(report)
    # the configured step, cut to the stability gate dt * rate <= 0.1
    dt = min(cfg.flow["dt_factor"] * cfg.family["epsilon"], 0.1 / rate)
    traj = integrate_flow(field, x0, T, dt, stability_rate=rate)
    csv_path = out / "trajectory.csv"
    traj.to_csv(csv_path)
    rep_path = out / "fiber_bound_report.json"
    rep_path.write_text(json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n")
    print(
        f"flow from node {x0}: dt {dt:.6g}, {len(traj.times)} samples, max drift {traj.drift.max():.3e}, "
        f"a priori pass={report.passed}"
    )
    manifest = _new_manifest(cfg)
    manifest.add(csv_path, out)
    manifest.add(rep_path, out)
    manifest.write(out)
    return 0 if report.passed else 2


def cmd_verify(cfg: ExperimentConfig, out: Path) -> int:
    rows, reports = point_reports(_point(cfg), cfg.ball["radius"])
    path = out / "estimate_reports.json"
    reports_to_json(reports, path)
    ok = all(r.passed for r in reports) and all(row.passed for row in rows)
    for rep in reports:
        print(f"{rep.name}: lhs={rep.lhs:.6g} rhs={rep.rhs:.6g} pass={rep.passed}")
    manifest = _new_manifest(cfg)
    manifest.add(path, out)
    manifest.write(out)
    return 0 if ok else 2


def _sweep_result(cfg: ExperimentConfig, jobs: int):
    fam = cfg.family
    return sweep(
        kind=fam["kind"],
        epsilons=cfg.sweep["epsilons"],
        theta_max=cfg.sweep["theta_max"],
        r=cfg.ball["radius"],
        delta=fam.get("delta", 0.0),
        twist=fam.get("twist", 0.0),
        ball_center=cfg.ball_center(),
        eig_count=cfg.eig["count"],
        seed=cfg.seed,
        nodes_per_unit=cfg.resolution["nodes_per_unit"],
        min_fiber_nodes=cfg.resolution["min_fiber_nodes"],
        lambda_threshold_rel=cfg.thresholds["lambda_min_rel"],
        jobs=jobs,
    )


def cmd_sweep(cfg: ExperimentConfig, out: Path, jobs: int = 1) -> int:
    result = _sweep_result(cfg, jobs)
    csv_path = out / "sweep.csv"
    result.to_csv(csv_path)
    plot_path = out / "plot_data.csv"
    lines = ["epsilonHat,lhs,rhs"]
    for row in result.rows:
        lines.append(f"{row.epsilon_hat:.17g},{row.lhs:.17g},{row.rhs:.17g}")
    plot_path.write_text("\n".join(lines) + "\n")
    manifest = _new_manifest(cfg)
    by_eps: dict[float, list] = {}
    for rep in result.reports:
        by_eps.setdefault(float(rep.extras["epsilon"]), []).append(rep)
    points_dir = out / "points"
    for eps, reps in sorted(by_eps.items()):
        pdir = points_dir / f"eps_{eps:g}"
        pdir.mkdir(parents=True, exist_ok=True)
        rpath = pdir / "reports.json"
        reports_to_json(reps, rpath)
        manifest.add(rpath, out)
    manifest.add(csv_path, out)
    manifest.add(plot_path, out)
    manifest.write(out)
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
    parser.add_argument("--out", default=None, help="output directory (default from config)")
    parser.add_argument("--jobs", type=int, default=1, help="parallel sweep points")
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    parser.add_argument("--no-cache", action="store_true", help="disable the eigenpair cache")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None or args.no_cache:
            d = cfg.to_dict()
            if args.seed is not None:
                d["seed"] = args.seed
            if args.no_cache:
                d["cache"] = False
            cfg = ExperimentConfig(**d)
        out = Path(args.out if args.out is not None else cfg.output_dir)
        out.mkdir(parents=True, exist_ok=True)
        handler = {
            "build": cmd_build,
            "eig": cmd_eig,
            "split": cmd_split,
            "flow": cmd_flow,
            "verify": cmd_verify,
        }
        if args.verb == "sweep":
            return cmd_sweep(cfg, out, jobs=args.jobs)
        return handler[args.verb](cfg, out)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

import dataclasses
import hashlib
import json
import math
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

import collapselab.cli as cli
import collapselab.manifold as manifold
import collapselab.spectral as spectral
from collapselab import build_family
from collapselab.cli import load_config, main
from collapselab.estimates import run_point
from collapselab.manifold import FAMILIES
from collapselab.splitting import harmonic_coordinates

# a small warped sweep: 64 x 16 grids, three points, a few eigenpairs each
SMALL_WARPED = {
    "family": {"kind": "warped-torus", "epsilon": 0.1, "delta": 0.3},
    "resolution": {"nodes_per_unit": 64},
    "sweep": {"epsilons": [0.2, 0.1, 0.05]},
}


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def sweep_outputs(out):
    files = ["sweep.csv", "plot_data.csv", "sweep_summary.json"] + sorted(
        str(p.relative_to(out)) for p in out.glob("points/*/reports.json")
    )
    return {name: (out / name).read_bytes() for name in files}


@pytest.mark.parametrize("key", ["level_tol", "dt_factor"])
def test_removed_threshold_keys_rejected(tmp_path, key):
    path = write_config(tmp_path, {"thresholds": {key: 1e-8}})
    with pytest.raises(ValueError, match=f"unknown config key: thresholds.{key}"):
        load_config(path)


@pytest.mark.parametrize("value", ["true", "1e400", "Infinity", "NaN"])
def test_threshold_values_must_be_positive_finite_numbers(tmp_path, value):
    # true is an int to Python and 1e400 parses as inf: both used to be accepted
    path = tmp_path / "config.json"
    path.write_text('{"thresholds": {"lambda_min_rel": %s}}' % value)
    with pytest.raises(ValueError, match="thresholds.lambda_min_rel must be a positive finite number"):
        load_config(path)
    assert main(["verify", "--config", str(path), "--out", str(tmp_path / "out")]) == 1


@pytest.mark.parametrize("key", ["sweep.theta_max", "cache", "output_dir"])
def test_removed_setting_keys_rejected(tmp_path, capsys, key):
    # each had a second source: eig.theta_max, --no-cache and --out
    section, _, name = key.rpartition(".")
    path = write_config(tmp_path, {section: {name: 1}} if section else {name: 1})
    assert main(["build", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert f"unknown config key: {key}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "section,key,value",
    [
        ("flow", "dt_factor", 0),          # used to die with ZeroDivisionError
        ("flow", "time_over_k", -1),       # used to exit 0 with one sample
        ("family", "epsilon", "0.1"),      # used to die with TypeError
        ("ball", "radius", float("nan")),
    ],
)
def test_numeric_values_must_be_positive_finite_numbers(tmp_path, capsys, section, key, value):
    path = write_config(tmp_path, {section: {key: value}})
    assert main(["flow", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert f"config field {section}.{key} must be a positive finite number" in capsys.readouterr().err


@pytest.mark.parametrize(
    "given,key,wanted",
    [
        ({"eig": {"count": 0}}, "eig.count", "a positive integer"),          # used to write 3 pairs
        ({"eig": {"count": True}}, "eig.count", "a positive integer"),
        ({"resolution": {"nodes_per_unit": 64.5}}, "resolution.nodes_per_unit", "a positive integer"),
        ({"resolution": {"nodes_per_unit": "64"}}, "resolution.nodes_per_unit", "a positive integer"),
        ({"resolution": {"min_fiber_nodes": -16}}, "resolution.min_fiber_nodes", "a positive integer"),
        ({"seed": "3"}, "seed", "a non-negative integer"),
        ({"seed": -1}, "seed", "a non-negative integer"),
        ({"eig": {"theta_max": "50"}}, "eig.theta_max", "a positive finite number"),
        ({"eig": {"theta_max": 0}}, "eig.theta_max", "a positive finite number"),
        # 8 used to exit with "fiber under-resolved: axis 1 has 13 nodes", naming no
        # config field, and at 256 nodes per unit to act exactly like 16
        ({"resolution": {"min_fiber_nodes": 1}}, "resolution.min_fiber_nodes", "a positive integer >= 16"),
        ({"resolution": {"min_fiber_nodes": 8}}, "resolution.min_fiber_nodes", "a positive integer >= 16"),
        ({"resolution": {"min_fiber_nodes": 15}}, "resolution.min_fiber_nodes", "a positive integer >= 16"),
        # 1 used to exit with "need at least 2 nodes per axis", naming no config field
        ({"resolution": {"nodes_per_unit": 1}}, "resolution.nodes_per_unit", "a positive integer >= 2"),
    ],
)
def test_integer_fields_and_theta_max_are_checked(tmp_path, capsys, given, key, wanted):
    # the string values used to die with a TypeError traceback
    path = write_config(tmp_path, given)
    assert main(["eig", "--config", str(path), "--out", str(tmp_path / "out"), "--no-cache"]) == 1
    assert f"config field {key} must be {wanted}" in capsys.readouterr().err
    assert not (tmp_path / "out" / "eigenvalues.csv").exists()


@pytest.mark.parametrize("verb,extra", [("eig", {}), ("verify", {}), ("sweep", {}),
                                        ("flow", {"flow": {"field": "eigenmode:1"}})])
def test_an_eig_count_the_grid_cannot_hold_is_a_config_error(tmp_path, capsys, verb, extra):
    # 3000 used to exit with "count must lie in [1, 2046]", naming no config
    # field; the sweep's grid at epsilon 0.2, 128 x 26, holds it
    path = write_config(tmp_path, {"eig": {"count": 3000}, **extra})
    assert main([verb, "--config", str(path), "--out", str(tmp_path / "out"), "--no-cache"]) == 1
    err = capsys.readouterr().err
    assert "config field eig.count must be at most 2046 on the (128, 16) grid at epsilon 0.1, got 3000" in err
    assert not any((tmp_path / "out").iterdir())


def test_the_chart_minimum_is_an_accepted_fiber_floor(tmp_path):
    cfg = load_config(write_config(tmp_path, {"resolution": {"min_fiber_nodes": manifold.MIN_FIBER_NODES}}))
    assert cfg.family_spec().resolution == (128, 16)


def test_a_seed_of_zero_is_accepted(tmp_path):
    cfg = load_config(write_config(tmp_path, {"seed": 0, "eig": {"count": 1}}))
    assert (cfg.seed, cfg.eig["count"]) == (0, 1)


@pytest.mark.parametrize("section,key", [("ball", "center"), ("flow", "start")])
@pytest.mark.parametrize(
    "point", [[0.5], [0.5, 0.5, 0.5], 0.5, [float("inf"), 0.0], [float("nan"), 0.0], [False, 0.0], [0.5, "0"]]
)
def test_a_point_needs_one_coordinate_per_chart_axis(tmp_path, capsys, section, key, point):
    # [0.5] used to broadcast to node (64, 8), the point (0.5, 0.5), and exit 0;
    # a ball.center of [1e400, 0] let split exit 0 on a garbage node, and a
    # flow.start of [NaN, 0] made flow exit 0 from node (0, 0)
    path = write_config(tmp_path, {section: {key: point}})
    assert main(["flow", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert f"config field {section}.{key} must list 2 coordinates" in capsys.readouterr().err


@pytest.mark.parametrize(
    "epsilons",
    [
        0.1,            # used to die with a TypeError traceback
        [0.2, "x"],     # used to fail with "could not convert string to float", naming no key
        [0.2, True],
        [0.2, float("inf")],
        [0.2, -0.1],
    ],
)
def test_sweep_epsilons_must_be_positive_finite_numbers(tmp_path, capsys, epsilons):
    path = write_config(tmp_path, {"sweep": {"epsilons": epsilons}})
    assert main(["split", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert "config field sweep.epsilons must list positive finite numbers" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "verb, given, message",
    [
        ("build", {"family": {"epsilon": 1.5}}, "config field family.epsilon must lie in (0, 1], got 1.5"),
        ("sweep", {"sweep": {"epsilons": [0.2, 0.1, 1.5]}},
         "config field sweep.epsilons must lie in (0, 1], got 1.5"),
        ("sweep", {"sweep": {"epsilons": [0.2, 0.1]}},
         "config field sweep.epsilons must list at least 3 values, got 2"),
    ],
    ids=["family.epsilon", "sweep.epsilons-range", "sweep.epsilons-count"],
)
def test_collapse_parameters_are_checked_by_their_key(tmp_path, capsys, verb, given, message):
    # each used to stop with a message that named no config key: the family's
    # "collapse parameter epsilon must lie in (0, 1]" and the sweep's "needs at
    # least 3 epsilon values"
    path = write_config(tmp_path, given)
    assert main([verb, "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("field", ["eigenmode:-1", "eigenmode:abc", "eigenmode:", "eigenmode:1.0", "fiber", 3, None])
def test_flow_field_is_checked_when_the_config_loads(tmp_path, capsys, field):
    # eigenmode:-1 used to flow the last pair and exit 0, and eigenmode:abc
    # to fail after the harmonic solve with a message that named no key
    path = write_config(tmp_path, {**FAMILY_CONFIGS["flat"], "flow": {"field": field}})
    assert main(["flow", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert "config field flow.field must be 'fiber-sine' or 'eigenmode:N'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_an_eigenmode_past_the_pairs_fails_at_run_time(tmp_path, capsys):
    # the number of pairs depends on eig.theta_max, so only the run can tell
    path = write_config(tmp_path, {**FAMILY_CONFIGS["flat"], "flow": {"field": "eigenmode:40"}})
    assert load_config(path).flow["field"] == "eigenmode:40"
    assert main(["flow", "--config", str(path), "--out", str(tmp_path / "out"), "--no-cache"]) == 1
    err = capsys.readouterr().err
    assert "flow.field eigenmode index 40 out of range: 3 pairs have theta <= eig.theta_max = 50;" in err
    assert "lower flow.field or raise eig.theta_max" in err


@pytest.mark.parametrize("seed", ["-1", "-7"])
def test_a_negative_seed_flag_is_an_error(tmp_path, capsys, seed):
    # verify --seed -1 used to print only NumPy's "expected non-negative integer"
    path = write_config(tmp_path, SMALL_WARPED)
    assert main(["verify", "--config", str(path), "--out", str(tmp_path / "out"), "--seed", seed]) == 1
    assert f"--seed must be at least 0, got {seed}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_one_helper_builds_the_chart_of_every_point(tmp_path, monkeypatch):
    # the certified point and ExperimentConfig.family_spec each used to build their own FamilySpec
    import collapselab.estimates as estimates_module

    built = []
    build = estimates_module.point_spec
    for module in (estimates_module, cli):
        monkeypatch.setattr(module, "point_spec", lambda *args: built.append(args) or build(*args))
    path = write_config(tmp_path, SMALL_WARPED)
    cfg = load_config(path)
    spec = cfg.family_spec()
    assert run_point(**cfg.point_args())["manifold"].family == spec
    assert main(["split", "--config", str(path), "--out", str(tmp_path / "split")]) == 0
    assert [args[:4] for args in built] == [("warped-torus", 0.1, 0.3, 0.0)] * 3


def test_an_empty_regular_ball_is_a_config_error(tmp_path, capsys):
    # lambda_min_rel = 1e6 marks every node singular: the headline average
    # over the regular part of B(p, r) has no nodes and must not read NaN
    path = write_config(tmp_path, {**SMALL_WARPED, "thresholds": {"lambda_min_rel": 1e6}})
    assert main(["verify", "--config", str(path), "--out", str(tmp_path / "verify")]) == 1
    err = capsys.readouterr().err
    assert "regular mask leaves B(p, r) empty" in err and "lower thresholds.lambda_min_rel" in err


def test_sweep_writes_its_scaling_statistics(tmp_path, monkeypatch):
    results = []
    sweep = cli.sweep
    monkeypatch.setattr(cli, "sweep", lambda *args: results.append(sweep(*args)) or results[-1])
    out = tmp_path / "sweep"
    code = main(["sweep", "--config", str(write_config(tmp_path, SMALL_WARPED)), "--out", str(out)])
    result, = results
    summary = json.loads((out / "sweep_summary.json").read_text())
    assert summary == {
        "exponent": result.exponent,
        "ratioSpread": result.ratio_spread,
        "degenerate": result.degenerate,
        "allPassed": result.all_passed,
    }
    assert code == (0 if result.all_passed else 2)
    files = json.loads((out / "run_manifest.json").read_text())["files"]
    listed = [f["path"] for f in files]
    assert listed == sorted(sweep_outputs(out))
    for f in files:
        assert f["sha256"] == hashlib.sha256((out / f["path"]).read_bytes()).hexdigest()


def test_sweep_outputs_identical_across_jobs(tmp_path):
    cfg = write_config(tmp_path, SMALL_WARPED)
    serial, parallel = tmp_path / "serial", tmp_path / "parallel"
    code_serial = main(["sweep", "--config", str(cfg), "--out", str(serial), "--jobs", "1"])
    code_parallel = main(
        ["sweep", "--config", str(cfg), "--out", str(parallel), "--jobs", "2", "--no-cache"]
    )
    assert code_serial in (0, 2)
    assert code_serial == code_parallel
    got_serial, got_parallel = sweep_outputs(serial), sweep_outputs(parallel)
    assert len(got_serial) == 3 + 3
    assert got_serial == got_parallel


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_is_a_config_error(tmp_path, capsys, jobs):
    # both used to run the sweep serially
    path = write_config(tmp_path, SMALL_WARPED)
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "sweep"), "--jobs", jobs]) == 1
    assert f"--jobs must be at least 1, got {jobs}" in capsys.readouterr().err


def test_sweep_epsilons_sharing_a_point_directory_are_a_config_error(tmp_path, capsys):
    # 0.1000001 also formats as eps_0.1: the run used to exit 0 with only its
    # reports in points/eps_0.1 and that path twice in the manifest
    cfg = {"resolution": {"nodes_per_unit": 64}, "sweep": {"epsilons": [0.2, 0.1, 0.1000001]}}
    path = write_config(tmp_path, cfg)
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "sweep")]) == 1
    err = capsys.readouterr().err
    assert "sweep.epsilons holds 0.1 and 0.1000001" in err and "points/eps_0.1" in err
    assert not (tmp_path / "sweep" / "points").exists()


def swept_and_verified(tmp_path, cfg):
    """The reports of the epsilon = 0.1 sweep point and of verify, as bytes."""
    path = write_config(tmp_path, cfg)
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "sweep")]) in (0, 2)
    assert main(["verify", "--config", str(path), "--out", str(tmp_path / "verify")]) in (0, 2)
    return (
        (tmp_path / "sweep" / "points" / "eps_0.1" / "reports.json").read_bytes(),
        (tmp_path / "verify" / "estimate_reports.json").read_bytes(),
    )


def test_sweep_uses_config_regularity_threshold(tmp_path):
    # lambda_min_rel = 1.2 marks the rim of the working ball, where the warp
    # is wider than ~0.91, as singular (the traced fibers stay regular); the
    # sweep point at epsilon = 0.1 must report exactly what verify reports
    swept, verified = swept_and_verified(tmp_path, {**SMALL_WARPED, "thresholds": {"lambda_min_rel": 1.2}})
    assert swept == verified
    excluded = [
        rep["extras"]["excludedVolumeFraction"]
        for rep in json.loads(verified)
        if rep["name"] == "main-theorem-tangential-l2"
    ]
    assert excluded and all(0.0 < frac < 1.0 for frac in excluded)


def test_sweep_point_uses_config_eig_theta_max(tmp_path):
    # eig.theta_max = 40 drops the mode at theta ~ 41.01 that the default
    # theta_max of 50 keeps; the sweep point must drop it as verify does
    swept, verified = swept_and_verified(tmp_path, {**SMALL_WARPED, "eig": {"theta_max": 40.0}})
    assert swept == verified
    assert max(rep["extras"]["theta"] for rep in json.loads(swept)) < 40.0


def comparable(args):
    """``point_args`` with its resolution rule as the partial's function and
    bound values: partials compare by identity."""
    rule = args["resolution_rule"]
    return {**args, "resolution_rule": (rule.func, rule.args, rule.keywords)}


POINT_KEYS = [
    ("family", "kind", "warped-torus"),
    ("family", "epsilon", 0.2),
    ("family", "delta", 0.3),
    ("family", "twist", 0.5),
    ("resolution", "nodes_per_unit", 64),
    ("resolution", "min_fiber_nodes", 20),
    ("ball", "center", [0.5, 0.0]),
    ("ball", "radius", 0.2),
    ("eig", "count", 4),
    ("eig", "theta_max", 40.0),
    ("thresholds", "lambda_min_rel", 1e-3),
    (None, "seed", 1),
]


def test_point_args_at_another_epsilon_differ_only_in_epsilon(tmp_path):
    cfg = load_config(write_config(tmp_path, SMALL_WARPED))
    base, other = cfg.point_args(), cfg.point_args(0.05)
    assert other["epsilon"] == 0.05 and base["epsilon"] == 0.1
    assert comparable({**other, "epsilon": 0.1}) == comparable(base)
    assert cfg.family_spec(0.05).resolution == base["resolution_rule"](base["kind"], 0.05)
    pickle.dumps(base)   # sweep workers receive the argument sets


@pytest.mark.parametrize("section,key,value", POINT_KEYS, ids=lambda v: str(v))
def test_every_pipeline_key_reaches_point_args(tmp_path, section, key, value):
    base = comparable(load_config(write_config(tmp_path, {})).point_args())
    changed = {key: value} if section is None else {section: {key: value}}
    assert comparable(load_config(write_config(tmp_path, changed)).point_args()) != base


def test_flow_writes_its_eigen_cache_under_out(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = {**FAMILY_CONFIGS["flat"], "flow": {"field": "eigenmode:1", "time_over_k": 0.1}}
    path = write_config(tmp_path, cfg)
    assert main(["flow", "--config", str(path), "--out", "flowrun"]) == 0
    assert not (tmp_path / "out").exists()
    listed = [f["path"] for f in json.loads((tmp_path / "flowrun" / "run_manifest.json").read_text())["files"]]
    cached = [name for name in listed if name.startswith("cache/eig_") and name.endswith(".npy")]
    assert len(cached) == 1 and (tmp_path / "flowrun" / cached[0]).is_file()


def test_a_version_1_eigen_cache_is_recomputed(tmp_path, monkeypatch):
    # files of earlier versions hold pairs of other factors (version 1: the
    # former shifted solve): the version is part of the key, so such a file is
    # never looked up, and the pairs are solved again rather than served
    path = write_config(tmp_path, SMALL_WARPED)
    out = tmp_path / "eig"
    monkeypatch.setattr(spectral, "_VERSION", 1)
    assert main(["eig", "--config", str(path), "--out", str(out)]) == 0
    stale, = (out / "cache").glob("eig_*.npy")
    values = (out / "eigenvalues.csv").read_bytes()
    monkeypatch.undo()
    solves = []
    solve = spectral.eigenpairs
    monkeypatch.setattr(spectral, "eigenpairs", lambda *args, **kwargs: solves.append(1) or solve(*args, **kwargs))
    for _ in range(2):     # solved once, then a hit runs no solve
        assert main(["eig", "--config", str(path), "--out", str(out)]) == 0
        assert solves == [1]
        assert (out / "eigenvalues.csv").read_bytes() == values
    listed = [f["path"] for f in json.loads((out / "run_manifest.json").read_text())["files"]]
    current = [name for name in listed if name.startswith("cache/")]
    assert len(current) == 1 and current[0] != str(stale.relative_to(out))
    assert sorted((out / "cache").iterdir()) == sorted([stale, out / current[0]])


def count_fiber_checks(monkeypatch):
    import collapselab.estimates as estimates_module

    checked = []
    check = estimates_module.fiber_apriori_check

    def counting(*args, **kwargs):
        report = check(*args, **kwargs)
        checked.append(report)
        return report

    monkeypatch.setattr(estimates_module, "fiber_apriori_check", counting)
    return checked


def test_epsilon_hat_and_the_flow_fiber_use_the_mask_threshold(tmp_path, monkeypatch):
    # lambda_min_rel = 1.2 calls the rim of the working ball singular: the
    # collapse scale counts only the fibers regular under that threshold, and
    # flow traces its fiber against it; both used a fixed 1e-6 of the median
    # Jacobian eigenvalue, and epsilon-hat read 0.09431 instead of 0.08851
    thresholds = []
    trace = manifold.extract_fiber

    def recording(mask, level):
        thresholds.append(mask.threshold)
        return trace(mask, level)

    monkeypatch.setattr(manifold, "extract_fiber", recording)
    path = write_config(tmp_path, {**SMALL_WARPED, "thresholds": {"lambda_min_rel": 1.2}})
    assert main(["split", "--config", str(path), "--out", str(tmp_path / "split")]) == 0
    eps_hat = json.loads((tmp_path / "split" / "certificate.json").read_text())["epsilonHat"]
    assert eps_hat == pytest.approx(0.08851, abs=1e-5)
    assert main(["flow", "--config", str(path), "--out", str(tmp_path / "flow")]) == 0
    eigs = harmonic_coordinates(build_family(load_config(path).family_spec())).eigh()[0]
    assert len(thresholds) > 2 and set(thresholds) == {1.2 * float(np.nanmedian(eigs[..., -1]))}


def test_fibers_follow_the_configured_mask(tmp_path, monkeypatch):
    # lambda_min_rel = 1.5 cuts the mask into the working ball: fibers whose
    # stencils leave it are skipped like irregular traces, the rest are checked
    checked = count_fiber_checks(monkeypatch)
    cfg = {**SMALL_WARPED, "thresholds": {"lambda_min_rel": 1.5}}
    path = write_config(tmp_path, cfg)
    assert main(["verify", "--config", str(path), "--out", str(tmp_path / "verify")]) == 0
    assert checked
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "sweep")]) in (0, 2)
    swept = (tmp_path / "sweep" / "points" / "eps_0.1" / "reports.json").read_bytes()
    assert swept == (tmp_path / "verify" / "estimate_reports.json").read_bytes()


def test_a_headline_rhs_below_its_lhs_fails_verify(tmp_path, monkeypatch):
    # negative control: with the main theorem's RHS scaled to half its LHS
    # wherever that LHS is positive, the headline check must fail in the
    # reports and in the exit code; the exact constant mode has LHS 0
    import collapselab.estimates as estimates_module

    path = write_config(tmp_path, SMALL_WARPED)
    assert main(["verify", "--config", str(path), "--out", str(tmp_path / "honest")]) == 0
    report = estimates_module.main_theorem_report

    def shrunk(*args, **kwargs):
        rep = report(*args, **kwargs)
        return dataclasses.replace(rep, rhs=0.5 * rep.lhs) if rep.lhs > 0 else rep

    monkeypatch.setattr(estimates_module, "main_theorem_report", shrunk)
    assert main(["verify", "--config", str(path), "--out", str(tmp_path / "verify")]) == 2
    reports = json.loads((tmp_path / "verify" / "estimate_reports.json").read_text())
    headline = [rep for rep in reports if rep["name"] == "main-theorem-tangential-l2"]
    constant = [rep for rep in headline if rep["extras"]["theta"] == 0.0]
    positive = [rep for rep in headline if rep["lhs"] > 0]
    assert len(constant) == 1 and constant[0]["lhs"] == 0.0
    assert len(positive) == len(headline) - 1 >= 1
    assert all(rep["pass"] is False and rep["rhs"] < rep["lhs"] for rep in positive)


@pytest.mark.parametrize("verb", ["split", "flow"])
def test_split_stops_after_the_certificate(tmp_path, monkeypatch, verb):
    # split writes the certificate alone and flow traces a closed-form field:
    # neither builds eigenpairs, the cutoff, the curvature bound or C0, so
    # none of their failures can stop them
    import collapselab.estimates as estimates_module

    def unreached(*args, **kwargs):
        raise AssertionError(f"{verb} ran a stage past the certificate")

    for name in ("eigenpairs", "build_cutoff", "ricci_lower_bound", "phi_c0_bound"):
        monkeypatch.setattr(estimates_module, name, unreached)
    path = write_config(tmp_path, SMALL_WARPED)
    assert main([verb, "--config", str(path), "--out", str(tmp_path / verb)]) == 0
    if verb == "split":
        cert = json.loads((tmp_path / "split" / "certificate.json").read_text())
        assert cert["rangeOk"] is True and cert["psi"] > 0


def strict_json(path):
    """``path`` parsed as JSON proper: ``Infinity``, ``-Infinity`` and ``NaN`` are errors."""

    def reject(token):
        raise ValueError(f"{path.name}: {token} is not JSON")

    return json.loads(path.read_text(), parse_constant=reject)


def test_report_files_are_strict_json(tmp_path):
    # the exact constant mode has LHS 0, so its headline margin is infinite;
    # certificate.json, fiber_bound_report.json and sweep_summary.json used to
    # be written without the strict check
    path = write_config(tmp_path, SMALL_WARPED)
    for verb in ("build", "eig", "split", "flow", "verify", "sweep"):
        assert main([verb, "--config", str(path), "--out", str(tmp_path / verb)]) in (0, 2)
    written = sorted(tmp_path.glob("*/**/*.json"))
    assert {f.name for f in written} == {"run_manifest.json", "certificate.json", "fiber_bound_report.json",
                                         "estimate_reports.json", "reports.json", "sweep_summary.json"}
    for f in written:
        strict_json(f)
    files = [tmp_path / "verify" / "estimate_reports.json", *sorted((tmp_path / "sweep").glob("points/*/reports.json"))]
    assert len(files) == 4
    margins = [rep["margin"] for f in files for rep in strict_json(f) if rep["lhs"] == 0.0]
    assert margins and all(margin == "inf" for margin in margins)


def test_a_nan_in_the_certificate_is_an_error(tmp_path, monkeypatch, capsys):
    # split used to write "gramDev": NaN, which is not JSON, and exit 0
    import collapselab.estimates as estimates_module

    certify = estimates_module.certify
    monkeypatch.setattr(estimates_module, "certify",
                        lambda *args: dataclasses.replace(certify(*args), gram_dev=float("nan")))
    path = write_config(tmp_path, SMALL_WARPED)
    assert main(["split", "--config", str(path), "--out", str(tmp_path / "split")]) == 1
    assert "certificate.json would not be strict JSON" in capsys.readouterr().err
    assert not (tmp_path / "split" / "certificate.json").exists()


def test_verify_twisted_torus_checks_two_component_fibers(tmp_path, monkeypatch):
    checked = count_fiber_checks(monkeypatch)
    cfg = {
        "family": {"kind": "twisted-3-torus", "epsilon": 0.25, "twist": 1.5707963267948966},
        "resolution": {"nodes_per_unit": 64},
        "ball": {"radius": 0.3},
    }
    path = write_config(tmp_path, cfg)
    assert main(["verify", "--config", str(path), "--out", str(tmp_path / "verify")]) == 0
    assert checked and all(len(rep.level) == 2 for rep in checked)
    reports = json.loads((tmp_path / "verify" / "estimate_reports.json").read_text())
    assert {rep["name"] for rep in reports} == {
        "hessian-l1-average",
        "interior-l2-tangential",
        "main-theorem-tangential-l2",
    }


def test_twisted_torus_runs_with_its_default_ball_radius(tmp_path, capsys):
    twisted = {
        "family": {"kind": "twisted-3-torus", "epsilon": 0.25, "twist": 1.5707963267948966},
        "resolution": {"nodes_per_unit": 64},
    }
    path = write_config(tmp_path, twisted)
    assert load_config(path).ball["radius"] == 0.3
    for verb in ("verify", "flow"):
        assert main([verb, "--config", str(path), "--out", str(tmp_path / verb)]) == 0
    # a ball of 0.25 measures eps_hat = 1/4, where the cutoff radii meet
    path = write_config(tmp_path, {**twisted, "ball": {"radius": 0.25}}, "small_ball.json")
    assert main(["verify", "--config", str(path), "--out", str(tmp_path / "small")]) == 1
    assert "use a larger ball radius (ball.radius)" in capsys.readouterr().err


def test_a_ball_that_reaches_the_cut_locus_names_its_config_key(tmp_path, capsys):
    # half the unit base period, 0.5, is where B(p, r) touches the chart cut locus
    path = write_config(tmp_path, {**SMALL_WARPED, "ball": {"radius": 0.6}})
    assert main(["split", "--config", str(path), "--out", str(tmp_path / "split")]) == 1
    err = capsys.readouterr().err
    assert "touches the chart cut locus" in err
    assert err.rstrip().endswith("use a smaller ball radius (ball.radius)")


@pytest.mark.parametrize("family", ["flat", "warped"])
def test_flow_writes_an_evenly_sampled_trajectory_inside_its_fiber(tmp_path, family):
    cfg = {"family": {"kind": "flat-product-torus"}} if family == "flat" else SMALL_WARPED
    path = write_config(tmp_path, cfg)
    assert main(["flow", "--config", str(path), "--out", str(tmp_path / "flow")]) == 0
    assert (tmp_path / "flow" / "trajectory.csv").read_text().splitlines()[0] == "t,x,y,u,tangential_speed_sq,drift"
    data = np.loadtxt(tmp_path / "flow" / "trajectory.csv", delimiter=",", skiprows=1)
    t, positions, drift = data[:, 0], data[:, 1:3], data[:, -1]
    assert len(t) > 100 and t[0] == 0.0
    assert np.allclose(np.diff(t), t[1], rtol=1e-9, atol=0.0)
    # the drift column is the level residual of the harmonic coordinates
    # recomputed at the recorded positions
    phi = harmonic_coordinates(build_family(load_config(path).family_spec()))
    level = phi.evaluate(positions[:1])[0]
    recomputed = np.max(np.abs(phi.level_residual(positions, level)), axis=-1)
    assert np.array_equal(drift, recomputed)
    assert drift.max() <= 1e-10


FAMILY_CONFIGS = {
    "flat": {"family": {"kind": "flat-product-torus"}, "resolution": {"nodes_per_unit": 64}},
    "warped": SMALL_WARPED,
    "twisted": {
        "family": {"kind": "twisted-3-torus", "epsilon": 0.25, "twist": 1.5707963267948966},
        "resolution": {"nodes_per_unit": 64},
        "ball": {"radius": 0.3},
    },
}


def test_every_built_in_kind_has_an_end_to_end_config():
    # a new kind in the table must join test_every_verb_runs_on_every_family
    assert sorted(cfg["family"]["kind"] for cfg in FAMILY_CONFIGS.values()) == sorted(FAMILIES)


@pytest.mark.parametrize("family", sorted(FAMILY_CONFIGS))
@pytest.mark.parametrize("verb", ["build", "eig", "split", "flow", "verify", "sweep"])
def test_every_verb_runs_on_every_family(tmp_path, capsys, verb, family):
    # the same config and seed write the same bytes: every file but the
    # manifest (which records the time), the eigen cache included, and the
    # same stdout up to the output directory
    path = write_config(tmp_path, FAMILY_CONFIGS[family])
    runs = []
    for out in (tmp_path / "first", tmp_path / "second"):
        code = main([verb, "--config", str(path), "--out", str(out)])
        files = {str(f.relative_to(out)): f.read_bytes() for f in sorted(out.rglob("*"))
                 if f.is_file() and f.name != "run_manifest.json"}
        runs.append((code, files, capsys.readouterr().out.replace(str(out), "OUT")))
    assert runs[0][0] in (0, 2)
    assert runs[0] == runs[1]


def test_eig_and_flow_solve_for_the_pairs_verify_reports_on(tmp_path, monkeypatch):
    # eig must write verify's pairs, and eigenmode:1 must be verify's pair 1
    cfg = {**FAMILY_CONFIGS["flat"], "flow": {"field": "eigenmode:1", "time_over_k": 0.1}}
    path = write_config(tmp_path, cfg)
    pairs = run_point(**load_config(path).point_args())["pairs"]
    assert main(["eig", "--config", str(path), "--out", str(tmp_path / "eig")]) == 0
    thetas = np.loadtxt(tmp_path / "eig" / "eigenvalues.csv", delimiter=",", skiprows=1, ndmin=2)[:, 1]
    assert thetas.tolist() == [pair.theta for pair in pairs]
    fields = []
    project = cli.tangential_projection
    monkeypatch.setattr(cli, "tangential_projection", lambda u, *args: fields.append(u) or project(u, *args))
    for extra in ([], ["--no-cache"]):   # read from eig's cache, then solved again
        assert main(["flow", "--config", str(path), "--out", str(tmp_path / "eig"), *extra]) == 0
    assert len(fields) == 2
    assert all(u.tobytes() == pairs[1].u.tobytes() for u in fields)


def test_a_parameter_the_kind_does_not_read_is_a_config_error(tmp_path, capsys):
    cfg = {"family": {"kind": "flat-product-torus", "twist": 0.5}, "resolution": {"nodes_per_unit": 64}}
    path = write_config(tmp_path, cfg)
    assert main(["build", "--config", str(path), "--out", str(tmp_path / "build")]) == 1
    assert "flat-product-torus does not read family.twist" in capsys.readouterr().err


def test_a_warp_that_reaches_zero_is_a_config_error(tmp_path, capsys):
    # at delta = 1.5, build used to exit 0 with totalVolume 0.1177 instead of epsilon
    cfg = {"family": {"kind": "warped-torus", "epsilon": 0.1, "delta": 1.5}, "resolution": {"nodes_per_unit": 64}}
    path = write_config(tmp_path, cfg)
    assert main(["build", "--config", str(path), "--out", str(tmp_path / "build")]) == 1
    assert "family.delta must lie in (-1, 1)" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# runs that used to hang or end in a traceback
# ---------------------------------------------------------------------------

SRC = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))

# the verbs in a fresh interpreter: each config's exit code and error output,
# one JSON line per run, or "raised" and the traceback of an exception that
# escaped main
RUNNER = """
import contextlib, io, json, sys, traceback
from collapselab.cli import main

for i, (verb, cfg) in enumerate(json.loads(sys.argv[1])):
    path = f"{sys.argv[2]}/config_{i}.json"
    with open(path, "w") as f:
        json.dump(cfg, f)
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main([verb, "--config", path, "--out", f"{sys.argv[2]}/out_{i}"])
    except Exception:
        code, err = "raised", io.StringIO(traceback.format_exc())
    print(json.dumps([code, err.getvalue()]), flush=True)
"""


def run_isolated(tmp_path, runs, timeout):
    """``(exit code, error output)`` of each ``(verb, config)`` run in one
    fresh interpreter, which is killed after ``timeout`` seconds, so that a run
    that never ends fails the test instead of hanging it."""
    env = dict(os.environ, PYTHONPATH=SRC)
    try:
        proc = subprocess.run([sys.executable, "-c", RUNNER, json.dumps(runs), str(tmp_path)], env=env,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        done = len((exc.stdout or "").splitlines())
        pytest.fail(f"run {done} of {len(runs)}, {runs[done]}, did not end within {timeout} s")
    assert proc.returncode == 0, proc.stderr
    return [tuple(json.loads(line)) for line in proc.stdout.splitlines()]


def test_a_flow_of_the_constant_mode_is_a_config_error(tmp_path):
    # eigenmode:0 on the default flat config has K = 1.98e-12 against
    # sup|u| = 1: T = 5.1e12 would have taken about 5e17 steps at dt = 1e-5
    (code, err), = run_isolated(tmp_path, [("flow", {"flow": {"field": "eigenmode:0"}})], timeout=60)
    assert code == 1
    assert "config field flow.field selects a function whose K = 1.98e-12 is round-off" in err
    assert not (tmp_path / "out_0" / "trajectory.csv").exists()


def test_a_flow_with_k_zero_is_a_config_error(tmp_path, capsys, monkeypatch):
    # T = time_over_k / K used to raise ZeroDivisionError
    check = cli.fiber_apriori_check
    monkeypatch.setattr(cli, "fiber_apriori_check", lambda *args: dataclasses.replace(check(*args), K=0.0))
    path = write_config(tmp_path, FAMILY_CONFIGS["flat"])
    assert main(["flow", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert "config field flow.field selects a function whose K = 0 is round-off" in capsys.readouterr().err


def refuse_steps(monkeypatch):
    """The step counts ``T / dt`` that ``flow`` asks ``integrate_flow`` for,
    which stops the run there."""
    asked = []

    def stop(field, x0, T, dt, stability_rate):
        asked.append(T / dt)
        raise RuntimeError("stopped before the first step")

    monkeypatch.setattr(cli, "integrate_flow", stop)
    return asked


def test_a_flow_past_the_step_cap_is_refused_before_its_first_step(tmp_path, capsys, monkeypatch):
    asked = refuse_steps(monkeypatch)
    path = write_config(tmp_path, {**FAMILY_CONFIGS["flat"], "flow": {"time_over_k": 1e6}})
    assert main(["flow", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "config fields flow.time_over_k and flow.dt_factor ask for" in err and "above the cap of 1,000,000" in err
    assert asked == []


@pytest.mark.parametrize("field,least", [("fiber-sine", 4_000), ("eigenmode:1", 290_000)])
def test_the_step_cap_admits_the_default_flows(tmp_path, monkeypatch, field, least):
    # the default config's flows: 4,106 steps for fiber-sine, and 290,571 for eigenmode:1
    asked = refuse_steps(monkeypatch)
    path = write_config(tmp_path, {"flow": {"field": field}})
    assert main(["flow", "--config", str(path), "--out", str(tmp_path / "out"), "--no-cache"]) == 1
    (steps,) = asked
    assert least < steps <= cli.FLOW_MAX_STEPS


def test_a_c0_out_of_range_names_its_config_keys(tmp_path, capsys):
    # at delta = 0.6 the harmonic coordinate's gradient reaches about 2, so
    # C0 >= 1: the error named no key
    cfg = {"family": {"kind": "warped-torus", "epsilon": 0.2, "delta": 0.6}, "resolution": {"nodes_per_unit": 32}}
    path = write_config(tmp_path, cfg)
    assert main(["verify", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "C0 = 1.04897 must lie in [0, 1); lower family.delta or ball.radius" in err


CONFIG_KEYS = [f"{section}.{name}" for section, leaves in cli._DEFAULTS.items() if isinstance(leaves, dict)
               for name in leaves]


def random_run(rng):
    """A random verb on a random config: a kind with its own parameter, 8-32
    nodes per unit in 2-D and 8-12 in 3-D, and each other leaf drawn or left
    at its default.  Flows run at most half a K time unit, so the runs stay
    short."""
    kind = str(rng.choice(sorted(FAMILIES)))
    fam = FAMILIES[kind]
    cfg = {
        "family": {"kind": kind, "epsilon": float(rng.choice([0.05, 0.1, 0.2, 0.3]))},
        "resolution": {"nodes_per_unit": int(rng.integers(8, 33) if fam.dim == 2 else rng.integers(8, 13))},
        "flow": {"time_over_k": float(10 ** rng.uniform(-2, -0.3))},
    }
    if fam.parameter == "delta":
        cfg["family"]["delta"] = float(rng.uniform(-0.95, 0.95))
    elif fam.parameter == "twist":
        cfg["family"]["twist"] = float(rng.uniform(0, 2 * math.pi))
    point = lambda: [float(c) for c in rng.uniform(0, 1, fam.dim)]
    leaves = {
        ("ball", "radius"): lambda: float(rng.uniform(0.05, 0.45)),
        ("ball", "center"): point,
        ("eig", "count"): lambda: int(rng.integers(1, 9)),
        ("eig", "theta_max"): lambda: float(rng.uniform(1, 100)),
        ("flow", "field"): lambda: str(rng.choice(["fiber-sine", "eigenmode:0", "eigenmode:1", "eigenmode:3"])),
        ("flow", "start"): point,
        ("flow", "dt_factor"): lambda: float(10 ** rng.uniform(-4, -2)),
        ("thresholds", "lambda_min_rel"): lambda: float(10 ** rng.uniform(-8, 0.3)),
        ("sweep", "epsilons"): lambda: sorted(float(e) for e in rng.choice([0.05, 0.1, 0.15, 0.2, 0.3], 3,
                                                                           replace=False)),
    }
    for (section, name), draw in leaves.items():
        if rng.random() < 0.4:
            cfg.setdefault(section, {})[name] = draw()
    return str(rng.choice(["build", "eig", "split", "flow", "verify", "sweep"])), cfg


def test_random_configs_run_or_stop_with_a_config_error(tmp_path):
    # 27 seeded random runs and five that used to fail: the constant mode's
    # endless flow, the C0 error with no key, a flat sweep whose level within
    # round-off of a seam node found no crossing, and two flows whose start
    # fiber (from flow.start, then from ball.center) leaves the regular set;
    # 9 s in all on 2 vCPUs
    irregular_start = {"family": {"kind": "warped-torus", "epsilon": 0.2, "delta": 0.3},
                       "resolution": {"nodes_per_unit": 32}, "thresholds": {"lambda_min_rel": 0.8},
                       "flow": {"time_over_k": 0.05}}
    runs = [random_run(np.random.default_rng(seed)) for seed in range(27)] + [
        ("flow", {"resolution": {"nodes_per_unit": 16}, "flow": {"field": "eigenmode:0"}}),
        ("verify", {"family": {"kind": "warped-torus", "epsilon": 0.2, "delta": 0.6},
                    "resolution": {"nodes_per_unit": 32}}),
        ("sweep", {"family": {"kind": "flat-product-torus", "epsilon": 0.05}, "resolution": {"nodes_per_unit": 10},
                   "ball": {"radius": 0.31}}),
        ("flow", {**irregular_start, "flow": {"time_over_k": 0.05, "start": [0.25, 0.0]}}),
        ("flow", {**irregular_start, "ball": {"center": [0.25, 0.0]}}),
    ]
    outcomes = run_isolated(tmp_path, runs, timeout=90)
    assert len(outcomes) == len(runs)
    for run, (code, err) in zip(runs, outcomes):
        assert code in (0, 2) or (code == 1 and any(key in err for key in CONFIG_KEYS)), (run, code, err)
    assert [code for code, _ in outcomes[-5:]] == [1, 1, 0, 1, 1]
    assert "flow.start" in outcomes[-2][1] and "ball.center" in outcomes[-1][1]

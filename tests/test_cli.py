import json

import pytest

from collapselab.cli import load_config, main

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
    files = ["sweep.csv", "plot_data.csv"] + sorted(
        str(p.relative_to(out)) for p in out.glob("points/*/reports.json")
    )
    return {name: (out / name).read_bytes() for name in files}


@pytest.mark.parametrize("key", ["level_tol", "dt_factor"])
def test_removed_threshold_keys_rejected(tmp_path, key):
    path = write_config(tmp_path, {"thresholds": {key: 1e-8}})
    with pytest.raises(ValueError, match=f"unknown config key: thresholds.{key}"):
        load_config(path)


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
    assert len(got_serial) == 2 + 3
    assert got_serial == got_parallel


def test_sweep_uses_config_regularity_threshold(tmp_path):
    # lambda_min_rel = 1.2 marks the rim of the working ball, where the warp
    # is wider than ~0.91, as singular (the traced fibers stay regular); the
    # sweep point at epsilon = 0.1 must report exactly what verify reports
    cfg = {**SMALL_WARPED, "thresholds": {"lambda_min_rel": 1.2}}
    path = write_config(tmp_path, cfg)
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "sweep")]) in (0, 2)
    assert main(["verify", "--config", str(path), "--out", str(tmp_path / "verify")]) in (0, 2)
    swept = (tmp_path / "sweep" / "points" / "eps_0.1" / "reports.json").read_bytes()
    verified = (tmp_path / "verify" / "estimate_reports.json").read_bytes()
    assert swept == verified
    excluded = [
        rep["extras"]["excludedVolumeFraction"]
        for rep in json.loads(verified)
        if rep["name"] == "main-theorem-tangential-l2"
    ]
    assert excluded and all(0.0 < frac < 1.0 for frac in excluded)


def count_fiber_checks(monkeypatch):
    import collapselab.flow as flow_module

    checked = []
    check = flow_module.fiber_apriori_check

    def counting(*args, **kwargs):
        report = check(*args, **kwargs)
        checked.append(report)
        return report

    monkeypatch.setattr(flow_module, "fiber_apriori_check", counting)
    return checked


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


FAMILIES = {
    "flat": {"family": {"kind": "flat-product-torus"}, "resolution": {"nodes_per_unit": 64}},
    "warped": SMALL_WARPED,
    "twisted": {
        "family": {"kind": "twisted-3-torus", "epsilon": 0.25, "twist": 1.5707963267948966},
        "resolution": {"nodes_per_unit": 64},
        "ball": {"radius": 0.3},
    },
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("verb", ["build", "eig", "split", "flow", "verify"])
def test_every_verb_runs_on_every_family(tmp_path, verb, family):
    path = write_config(tmp_path, FAMILIES[family])
    assert main([verb, "--config", str(path), "--out", str(tmp_path / "out")]) in (0, 2)

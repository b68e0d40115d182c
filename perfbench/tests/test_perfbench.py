"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests

They run the flow-flat-2d workload (about 5 s a run) three times.
"""

import json
import os
import subprocess
import sys
import time

import pytest

import calibrate
import compare
import refcheck
import run
import tracing
import workloads

FLOW = workloads.WORKLOADS["flow-flat-2d"]


def _flow_run(tmp, label, traced):
    """One flow-flat-2d run: its flat outputs and, when traced, its per-layer metrics."""
    config = tmp / "config.json"
    config.write_text(json.dumps(FLOW.config))
    extra = {tracing.TRACE_DIR_ENV: str(tmp / f"trace-{label}"), tracing.RUN_ID_ENV: label} if traced else {}
    env = run.child_env(**extra)
    out = tmp / f"out-{label}"
    args = ["run", FLOW.name, "--config", str(config), "--seed", "0", "--out", str(out)]
    _, _, code = run.launch(args, env, tmp / f"{label}.log", 120.0)
    layers = tracing.layer_metrics(tracing.read_spans(tmp / f"trace-{label}")) if traced else None
    return workloads.collect(FLOW, out, code), layers


@pytest.fixture(scope="module")
def flow_runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("flow")
    return {label: _flow_run(tmp, label, traced) for label, traced in
            (("plain", False), ("traced-a", True), ("traced-b", True))}


def test_plain_run_matches_reference(flow_runs):
    ref, unchecked = refcheck.load_reference(run.BENCH_DIR / "refs" / "flow-flat-2d.json", 0)
    assert refcheck.compare(flow_runs["plain"][0], ref, FLOW.rtol, unchecked) == []


def test_traced_run_gives_the_same_outputs(flow_runs):
    plain, _ = flow_runs["plain"]
    traced, _ = flow_runs["traced-a"]
    assert traced == plain


def test_traced_counts_repeat(flow_runs):
    units = {m["name"]: m["unit"] for m in json.loads((run.ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    a, b = flow_runs["traced-a"][1], flow_runs["traced-b"][1]
    counts = sorted(name for name in a if units[name] == "count")
    assert [a[n] for n in counts] == [b[n] for n in counts]
    assert a["operators.interp_scalar.calls"] > 10_000
    assert a["flow.integrate_flow.steps"] == 4106
    assert a["splitting.spsolve.calls"] == 0 and a["spectral.eigsh.calls"] == 0


@pytest.mark.parametrize(
    "key, change",
    [
        ("fiber_bound_report/K", lambda v: v * (1 + 1e-9)),
        ("trajectory.csv/x", lambda v: v[:-1] + [v[-1] + 1e-9]),
        ("fiber_bound_report/pass", lambda v: not v),
        ("exitCode", lambda v: 2),
    ],
)
def test_reference_perturbed_beyond_tolerance_fails(flow_runs, key, change):
    ref, _ = refcheck.load_reference(run.BENCH_DIR / "refs" / "flow-flat-2d.json", 0)
    ref[key] = change(ref[key])
    problems = refcheck.compare(flow_runs["plain"][0], ref, FLOW.rtol)
    assert len(problems) == 1 and problems[0].startswith(key)


def test_perturbation_within_tolerance_passes(flow_runs):
    ref, _ = refcheck.load_reference(run.BENCH_DIR / "refs" / "flow-flat-2d.json", 0)
    ref["fiber_bound_report/K"] *= 1 + 1e-13
    assert refcheck.compare(flow_runs["plain"][0], ref, FLOW.rtol) == []


def test_round_off_lhs_is_checked_against_rhs():
    ref = {"r/lhs": 1e-14, "r/rhs": 1e4, "r/margin": 1e18}
    assert refcheck.compare({"r/lhs": 3e-14, "r/rhs": 1e4, "r/margin": 3e17}, ref, 1e-10) == []
    assert refcheck.compare({"r/lhs": 1e-5, "r/rhs": 1e4, "r/margin": 1e9}, ref, 1e-10) != []


def test_perturbed_reference_counts_the_run_as_failed():
    runner = run.Runner(FLOW, seed=0, trace=False)
    runner.ref["fiber_bound_report/lhs"] *= 1.01
    try:
        sample = runner.workload_sample(0, traced=False)
    finally:
        runner.calibrator.stop()
    assert any(p.startswith("fiber_bound_report/lhs") for p in sample.problems)
    assert run.end_to_end([sample], [sample])["pass_ratio"] == 0.0


WORKER_SCRIPT = """
import os, sys
from concurrent.futures import ProcessPoolExecutor
import multiprocessing
sys.path[:0] = [{bench!r}, {src!r}]
import tracing
if os.environ.get(tracing.TRACE_DIR_ENV):
    tracing.install_from_env()
from collapselab import estimates

if __name__ == "__main__":
    kinds = ["flat-product-torus", "warped-torus", "twisted-3-torus", "warped-torus"]
    ctx = multiprocessing.get_context(sys.argv[1])
    with ProcessPoolExecutor(max_workers=2, mp_context=ctx) as pool:
        list(pool.map(estimates.default_ball_center, kinds))
    print(os.getpid())
"""


@pytest.mark.parametrize("method", ["fork", "spawn"])
def test_sweep_workers_are_traced(tmp_path, method):
    script = tmp_path / "pool.py"
    script.write_text(WORKER_SCRIPT.format(bench=str(run.BENCH_DIR), src=str(run.ROOT / "src")))
    env = dict(os.environ, **{tracing.TRACE_DIR_ENV: str(tmp_path / "trace"), tracing.RUN_ID_ENV: "pool"})
    proc = subprocess.run([sys.executable, str(script), method], env=env, check=True, timeout=120,
                          capture_output=True, text=True)
    main_pid = int(proc.stdout.split()[-1])
    spans = tracing.read_spans(tmp_path / "trace")
    calls = [s for s in spans if s["name"] == "estimates.default_ball_center"]
    assert len(calls) == 4
    assert {s["run"] for s in spans} == {"pool"}
    assert main_pid not in {s["pid"] for s in calls}


def test_results_from_different_environments_are_not_compared(tmp_path):
    env = run.environment()
    result = {"workload": FLOW.name, "trace": 0, "environment": env,
              "metrics": {"wall_s": {"value": 5.0, "unit": "s"}}}
    other = dict(result, environment=dict(env, nproc=env["nproc"] + 1))
    paths = []
    for i, r in enumerate((result, result, other)):
        paths.append(tmp_path / f"r{i}.json")
        paths[-1].write_text(json.dumps(r))
    assert compare.main(["--base", str(paths[0]), "--new", str(paths[1])]) == 0
    assert compare.main(["--base", str(paths[0]), "--new", str(paths[2])]) == 2


def test_calibration_counts_partial_chunks():
    calibrator = calibrate.Calibrator(loops=100)
    try:
        while len(calibrator.ends) < 4:
            time.sleep(0.05)
        ends = calibrator.ends
        assert calibrator.chunks_between(ends[1], ends[3]) == pytest.approx(2.0)
        assert calibrator.chunks_between(ends[1], (ends[1] + ends[2]) / 2) == pytest.approx(0.5)
        nominal_s = calibrate.SOLVES_REF_S + 100 * calibrate.LOOP_REF_S
        assert calibrator.reference_s(ends[1], ends[2]) == pytest.approx(nominal_s * calibrate.SAMPLE_SHARE_RATIO)
    finally:
        calibrator.stop()

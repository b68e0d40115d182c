"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout of collapselab; nothing is installed.
Every sample is a fresh process (``child.py``) timed from start to exit.
The run pins itself, and so every sample, to one CPU.  With ``--trace 0`` it
alternates set-up samples and workload samples until ``--seconds`` are
spent, while a calibration thread (``calibrate.py``) shares the CPU with each
sample, and reports the end-to-end metrics of BENCHMARK.json, with times in
reference seconds.  With ``--trace 1`` it alternates untraced and traced
samples and reports the per-layer metrics, including the tracing overhead.
Every sample's outputs are checked against ``refs/<workload>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record of
the run, with the environment it ran in, goes to
``.perfbench/results/<workload>-seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import workloads

# pinned before NumPy loads: the calibration runs in this process too
os.environ.update(workloads.THREAD_PINS)

import calibrate  # noqa: E402
import refcheck  # noqa: E402
import tracing  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CHILD = BENCH_DIR / "child.py"
# A run must end within 180 s; a sample still running this long after
# run.py started is killed and counted as failed.
RUN_BUDGET_S = 165.0


@dataclass
class Sample:
    kind: str                 # "setup", "plain" or "traced"
    wall_s: float
    ref_s: float | None       # seconds at the reference speed (calibrate.Calibrator.reference_s)
    peak_rss_mb: float
    exit_code: int
    problems: list = field(default_factory=list)
    layers: dict | None = None


def _killpg(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def launch(args: list[str], env: dict, log: Path, timeout_s: float) -> tuple[float, float, int]:
    """Run child.py; wall seconds, peak RSS (MB) of it and its reaped workers, exit code."""
    start = time.perf_counter()
    with open(log, "wb") as fh:
        proc = subprocess.Popen(
            [sys.executable, str(CHILD), *args],
            cwd=ROOT, env=env, stdout=fh, stderr=subprocess.STDOUT, process_group=0,
        )
    timer = threading.Timer(timeout_s, _killpg, (proc.pid,))
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        _killpg(proc.pid)
        os.waitpid(proc.pid, 0)
        raise
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    _killpg(proc.pid)  # workers the child left behind
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def child_env(**extra: str) -> dict:
    """Environment of a workload process: the source tree on the path, BLAS threads pinned, tracing off."""
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path, **workloads.THREAD_PINS)
    for var in (tracing.TRACE_DIR_ENV, tracing.RUN_ID_ENV):
        env.pop(var, None)
    env.update(extra)
    return env


def environment() -> dict:
    """What the numbers depend on besides the code; results from different ones do not compare."""
    import platform

    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threadPins": workloads.THREAD_PINS,
    }


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


class Runner:
    def __init__(self, workload: workloads.Workload, seed: int, trace: bool):
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.started = time.perf_counter()
        self.work = ROOT / ".perfbench" / f"{workload.name}-seed{seed}-trace{int(trace)}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.config = self.work / "config.json"
        self.config.write_text(json.dumps(workload.config, indent=2) + "\n")
        self.ref, self.unchecked = refcheck.load_reference(BENCH_DIR / "refs" / f"{workload.name}.json", seed)
        self.span_summary: dict = {}
        self.calibrator = None if trace else calibrate.Calibrator(workload.calibration_loops)

    def _ref_s(self, start: float) -> float | None:
        """Reference seconds of the sample that ran from ``start`` until now."""
        if self.calibrator is None:
            return None
        return self.calibrator.reference_s(start, time.perf_counter())

    def _timeout(self) -> float:
        return max(5.0, RUN_BUDGET_S - (time.perf_counter() - self.started))

    def setup_sample(self, i: int) -> Sample:
        args = ["setup", self.workload.name, "--config", str(self.config)]
        start = time.perf_counter()
        wall, rss, code = launch(args, child_env(), self.work / f"setup-{i}.log", self._timeout())
        problems = [] if code == 0 else [f"set-up exited with {code}; see {self.work / f'setup-{i}.log'}"]
        return Sample("setup", wall, self._ref_s(start), rss, code, problems)

    def workload_sample(self, i: int, traced: bool) -> Sample:
        out = self.work / f"out-{i}"
        trace_dir = self.work / f"trace-{i}"
        extra = {tracing.TRACE_DIR_ENV: str(trace_dir), tracing.RUN_ID_ENV: f"{self.work.name}-{i}"} if traced else {}
        args = ["run", self.workload.name, "--config", str(self.config), "--seed", str(self.seed), "--out", str(out)]
        log = self.work / f"out-{i}.log"
        start = time.perf_counter()
        wall, rss, code = launch(args, child_env(**extra), log, self._timeout())
        sample = Sample("traced" if traced else "plain", wall, self._ref_s(start), rss, code)
        try:
            outputs = workloads.collect(self.workload, out, code)
            sample.problems = refcheck.compare(outputs, self.ref, self.workload.rtol, self.unchecked)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            sample.problems = [f"outputs unreadable ({type(exc).__name__}: {exc}); exit code {code}, see {log}"]
        if traced:
            spans = tracing.read_spans(trace_dir)
            sample.layers = tracing.layer_metrics(spans)
            self.span_summary = tracing.SpanIndex(spans).summary()
            shutil.rmtree(trace_dir, ignore_errors=True)
        if not sample.problems:
            shutil.rmtree(out, ignore_errors=True)
        return sample

    def measure(self, seconds: float) -> tuple[list[Sample], list[Sample]]:
        """Set-up and workload samples until ``seconds`` are spent.

        Untraced, a set-up sample precedes each workload sample, so that both
        medians cover the same stretch of time; a failing set-up stops the
        run.  Traced, untraced and traced workload samples alternate.
        """
        cycle = [False, True] if self.trace else [False]
        setups: list[Sample] = []
        samples: list[Sample] = []
        t0 = time.perf_counter()
        while True:
            if not self.trace:
                setups.append(self.setup_sample(len(setups)))
                if setups[-1].problems:
                    return setups, samples
            samples.append(self.workload_sample(len(samples), cycle[len(samples) % len(cycle)]))
            if len({s.kind for s in samples}) < len(cycle):
                continue
            # stop when the next round would likely end past the window
            next_kind = "traced" if cycle[len(samples) % len(cycle)] else "plain"
            expected = statistics.median(s.wall_s for s in samples if s.kind == next_kind)
            if setups:
                expected += statistics.median(s.wall_s for s in setups)
            if time.perf_counter() - t0 + expected > seconds:
                return setups, samples


def end_to_end(setups: list[Sample], samples: list[Sample]) -> dict[str, float]:
    """Median workload and set-up times in reference seconds, peak RSS, pass ratio."""
    plain = [s for s in samples if s.kind == "plain"]
    return {
        "wall_s": statistics.median(s.ref_s for s in plain),
        "setup_s": statistics.median(s.ref_s for s in setups),
        "peak_rss_mb": max(s.peak_rss_mb for s in plain),
        "pass_ratio": sum(1 for s in samples if not s.problems) / len(samples),
    }


def per_layer(samples: list[Sample], units: dict[str, str]) -> dict[str, float]:
    """Counts from the first traced sample, times as medians over the traced samples."""
    traced = [s.layers for s in samples if s.kind == "traced"]
    out = {}
    for name, value in traced[0].items():
        out[name] = value if units.get(name) == "count" else statistics.median(t[name] for t in traced)
    out["trace.overhead_s"] = statistics.median(s.wall_s for s in samples if s.kind == "traced") - statistics.median(
        s.wall_s for s in samples if s.kind == "plain"
    )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    # a terminated run stops the sample it is waiting for (see launch)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "collapselab" / "__init__.py").is_file():
        print(f"error: no collapselab source under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}

    env = environment()
    # one CPU for this process, its calibration thread and every sample
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workload = workloads.WORKLOADS[args.workload]
    runner = Runner(workload, args.seed, bool(args.trace))
    try:
        setups, samples = runner.measure(args.seconds)
    finally:
        if runner.calibrator is not None:
            runner.calibrator.stop()
    broken_setup = [p for s in setups for p in s.problems]
    if broken_setup:
        print("error: " + "; ".join(broken_setup), file=sys.stderr)
        return 1
    metrics = per_layer(samples, units) if args.trace else end_to_end(setups, samples)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")

    failed = sum(1 for s in samples if s.problems)
    print(f"perfbench {workload.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for kind_name, group in (("setup", setups), ("plain", samples), ("traced", samples)):
        walls = [s.wall_s for s in group if s.kind == kind_name]
        if walls:
            q1, med, q3 = _quartiles(walls)
            print(f"  {kind_name:7s} wall s: median {med:.4f}  q1 {q1:.4f}  q3 {q3:.4f}  n={len(walls)}")
        refs = [s.ref_s for s in group if s.kind == kind_name and s.ref_s is not None]
        if refs:
            q1, med, q3 = _quartiles(refs)
            print(f"  {kind_name:7s} ref s:  median {med:.4f}  q1 {q1:.4f}  q3 {q3:.4f}  n={len(refs)}")
    print(f"  fail_ratio: {failed}/{len(samples)}")
    for s in samples:
        for problem in s.problems[:5]:
            print(f"  FAIL ({s.kind}): {problem}")
    for name in sorted(metrics):
        print(f"  {name} = {metrics[name]:.6g} {units[name]}")
    print(f"  environment: {json.dumps(env, sort_keys=True)}")

    result_dir = ROOT / ".perfbench" / "results"
    result_dir.mkdir(parents=True, exist_ok=True)
    result_path = result_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in sorted(metrics.items())},
        "failRatio": failed / len(samples),
        "samples": [asdict(s) for s in setups + samples],
    }
    if args.trace:
        record["spans"] = runner.span_summary
    result_path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"  result: {result_path.relative_to(ROOT)}")
    if not failed:
        shutil.rmtree(runner.work, ignore_errors=True)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in sorted(metrics)},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

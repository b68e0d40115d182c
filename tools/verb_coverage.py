#!/usr/bin/env python3
"""List every line of a collapselab function body that no CLI run executes.

    python3 tools/verb_coverage.py

Runs the fixed matrix of ``tools/same_outputs.py`` (``RUNS`` on its
``CONFIGS``) against this checkout's ``src``, all in this one interpreter
under the standard library's ``trace`` line counter, with the BLAS/OpenMP
threads pinned to 1.  collapselab is first imported inside the first traced
run, so a function that runs at import time counts as reached.

The lines that could run are taken from the code objects of the functions
in ``src/collapselab/*.py`` (nested functions, lambdas and comprehensions
included) through ``co_lines()``; module and class bodies, which run at
import, are left out, and so is each function's prologue (its ``def`` line).
A line that holds code of a lambda or comprehension and of its enclosing
statement counts as reached when that statement runs.  The workers that
``sweep --jobs 2`` forks are traced in their own processes and not counted;
the serial sweeps run the same point code.

Each unreached line is printed as ``path:line qualname: source``.  The
script removes its output directories and exits 0.
"""

from __future__ import annotations

import argparse
import contextlib
import dis
import inspect
import io
import json
import os
import shutil
import sys
import tempfile
import trace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import same_outputs  # noqa: E402

ROOT = same_outputs.ROOT
PACKAGE = ROOT / "src" / "collapselab"


def function_lines(path: Path) -> dict[int, str]:
    """``{line: qualname}`` of every line that holds code of a function body in ``path``."""
    lines: dict[int, str] = {}

    def walk(code) -> None:
        for const in code.co_consts:
            if not inspect.iscode(const):
                continue
            if const.co_flags & inspect.CO_OPTIMIZED:       # a function, not a class body
                ops = const.co_code
                # the prologue ends with RESUME: a line whose code all lies before it is the def line
                body = next(off + 2 for off in range(0, len(ops), 2) if ops[off] == dis.opmap["RESUME"])
                for _, end, line in const.co_lines():
                    if line is not None and end > body:
                        lines.setdefault(line, const.co_qualname)
            walk(const)

    walk(compile(path.read_text(), str(path), "exec"))
    return lines


def run_cli(argv: list[str]) -> int:
    from collapselab.cli import main

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 1


def main() -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    os.environ.update(same_outputs.THREAD_PINS)
    sys.path.insert(0, str(ROOT / "src"))
    tracer = trace.Trace(count=1, trace=0, ignoredirs=[sys.prefix, sys.exec_prefix])
    tmp = Path(tempfile.mkdtemp(prefix="verb_coverage-"))
    try:
        for name, cfg in same_outputs.CONFIGS.items():
            (tmp / f"{name}.json").write_text(json.dumps(cfg))
        for name, config, args in same_outputs.RUNS:
            argv = [*args, "--config", str(tmp / f"{config}.json"), "--out", str(tmp / "out" / name)]
            code = tracer.runfunc(run_cli, argv)
            print(f"  {name}: exit {code}", flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    reached = {(Path(f).resolve(), line) for f, line in tracer.results().counts}
    missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text().splitlines()
        for line, qualname in sorted(function_lines(path).items()):
            if (path.resolve(), line) not in reached:
                missed += 1
                print(f"{path.relative_to(ROOT)}:{line} {qualname}: {source[line - 1].strip()}")
    print(f"{len(same_outputs.RUNS)} runs, {missed} function-body lines not reached")
    return 0


if __name__ == "__main__":
    sys.exit(main())

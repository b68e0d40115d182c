"""Compare benchmark results of two versions of the code.

    python3 perfbench/compare.py --base A1.json A2.json ... --new B1.json B2.json ...

Each file is a result that ``run.py`` wrote under ``.perfbench/results/``
(copy them aside between versions).  Results are grouped by workload and
trace mode.  For each metric the medians of both sides are printed with the
change as a share of the base median; an end-to-end metric that got worse by
more than its bound in BENCHMARK.json is marked WORSE.  Results recorded in
different environments are not compared: the script exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def environment_problems(results: list[dict]) -> list[str]:
    """How each result's environment differs from the first one's."""
    first = results[0]["environment"]
    problems = []
    for result in results[1:]:
        env = result["environment"]
        for key in sorted(set(first) | set(env)):
            if first.get(key) != env.get(key):
                problems.append(f"{result['_path']}: {key} = {env.get(key)!r}, but {first.get(key)!r} elsewhere")
    return problems


def compare(base: list[dict], new: list[dict], spec: dict) -> list[str]:
    specs = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    groups: dict[tuple, dict[str, list]] = defaultdict(lambda: {"base": [], "new": []})
    for side, results in (("base", base), ("new", new)):
        for result in results:
            groups[(result["workload"], result["trace"])][side].append(result)
    lines = []
    for (workload, trace), sides in sorted(groups.items()):
        if not sides["base"] or not sides["new"]:
            lines.append(f"{workload} trace={trace}: only on one side, not compared")
            continue
        lines.append(f"{workload} trace={trace} (base n={len(sides['base'])}, new n={len(sides['new'])})")
        for name in sorted(sides["base"][0]["metrics"]):
            b = statistics.median(r["metrics"][name]["value"] for r in sides["base"])
            n = statistics.median(r["metrics"][name]["value"] for r in sides["new"])
            meta = specs.get(name, {})
            change = (n - b) / b if b else float("nan")
            worse = change if meta.get("better", "lower") == "lower" else -change
            flag = "WORSE" if "bound" in meta and worse > meta["bound"] else ""
            lines.append(f"  {name:45s} {b:12.6g} -> {n:12.6g}  {change:+8.2%}  {flag}".rstrip())
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", type=Path, required=True)
    parser.add_argument("--new", nargs="+", type=Path, required=True)
    args = parser.parse_args(argv)
    sides = {}
    for side in ("base", "new"):
        sides[side] = []
        for path in getattr(args, side):
            result = json.loads(path.read_text())
            result["_path"] = str(path)
            sides[side].append(result)
    problems = environment_problems(sides["base"] + sides["new"])
    if problems:
        print("refusing to compare results from different environments:", file=sys.stderr)
        for problem in problems:
            print(f"  {problem}", file=sys.stderr)
        return 2
    print("\n".join(compare(sides["base"], sides["new"], json.loads(BENCHMARK.read_text()))))
    return 0


if __name__ == "__main__":
    sys.exit(main())

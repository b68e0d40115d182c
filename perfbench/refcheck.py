"""Numerical comparison of a run's outputs against the recorded references.

A float (or list of floats) passes when ``|out - ref| <= rtol * max(|ref|, 1)``
elementwise; the unit floor covers values that sit at round-off, such as the
zero eigenvalue and the derivatives of the constant eigenfunction.  A report
LHS uses ``max(|ref|, |RHS|)`` instead: the warped main-theorem LHS is about
1e-14 and changes with the seed, so only its size against the RHS is checked.
Margins are ``RHS / LHS`` and are checked through those two.  Everything else
(pass flags, exit codes, counts, strings) must match exactly.

A reference file holds the seed-invariant values under ``invariant`` and,
for each recorded seed, the values that depend on the eigenvector picked
inside a degenerate eigenvalue cluster under ``perSeed``.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np


def _is_float_data(value) -> bool:
    if isinstance(value, float):
        return True
    return isinstance(value, list) and bool(value) and all(isinstance(v, float) for v in value)


def _rhs_of(key: str, ref: dict):
    """The RHS of the report that a LHS key belongs to."""
    parts = key.split("/")[:-1]
    while parts:
        candidate = "/".join(parts + ["rhs"])
        if candidate in ref:
            return ref[candidate]
        parts.pop()
    return None


def compare(out: dict, ref: dict, rtol: float, ignore=()) -> list[str]:
    """Problems found comparing one run's flat outputs with the reference."""
    problems = []
    ignore = set(ignore)
    for key in sorted((set(ref) | set(out)) - ignore):
        if key not in out:
            problems.append(f"{key}: missing from the outputs")
            continue
        if key not in ref:
            problems.append(f"{key}: not in the reference")
            continue
        leaf = key.rsplit("/", 1)[-1]
        if leaf == "margin":
            continue
        expected, got = ref[key], out[key]
        if not _is_float_data(expected):
            if got != expected:
                problems.append(f"{key}: {got!r} != reference {expected!r}")
            continue
        b = np.asarray(expected, dtype=float)
        try:
            a = np.asarray(got, dtype=float)
        except (TypeError, ValueError):
            problems.append(f"{key}: {got!r} is not numeric")
            continue
        if a.shape != b.shape:
            problems.append(f"{key}: shape {a.shape} != reference {b.shape}")
            continue
        floor = 1.0
        if leaf.startswith("lhs"):
            rhs = _rhs_of(key, ref)
            floor = np.abs(np.asarray(rhs, dtype=float)) if rhs is not None else 1.0
        scale = np.maximum(np.abs(b), floor)
        bad = ~(np.abs(a - b) <= rtol * scale)
        if bad.any():
            with np.errstate(divide="ignore", invalid="ignore"):
                err = np.abs(a - b) / scale
            i = int(np.flatnonzero(bad.ravel())[0])
            where = f"[{i}]" if b.ndim else ""
            problems.append(
                f"{key}{where}: {a.flat[i]!r} vs reference {b.flat[i]!r} "
                f"(scaled error {err.flat[i]:.3g} > {rtol:g}; {int(bad.sum())} of {b.size} values)"
            )
    return problems


# ---------------------------------------------------------------------------
# reference files
# ---------------------------------------------------------------------------


def load_reference(path: str | Path, seed: int) -> tuple[dict, set[str]]:
    """Reference values for one seed, and the keys left unchecked for it.

    Seed-dependent keys are checked only for seeds recorded in the file.
    """
    data = json.loads(Path(path).read_text())
    ref = dict(data["invariant"])
    per_seed = data["perSeed"].get(str(seed))
    if per_seed is not None:
        ref.update(per_seed)
        return ref, set()
    return ref, set(data["perSeedKeys"])


def write_reference(path: str | Path, rtol: float, invariant: dict, per_seed: dict[int, dict]) -> None:
    """One key per line, so that a changed reference shows as a readable diff."""

    def block(d: dict, indent: str) -> str:
        lines = [f"{indent}{json.dumps(k)}: {json.dumps(d[k])}" for k in sorted(d)]
        return "{\n" + ",\n".join(lines) + "\n" + indent[:-2] + "}"

    keys = sorted({k for values in per_seed.values() for k in values})
    seeds = ",\n".join(f'    "{s}": ' + block(per_seed[s], "      ") for s in sorted(per_seed))
    text = (
        "{\n"
        f'  "rtol": {json.dumps(rtol)},\n'
        f'  "perSeedKeys": {json.dumps(keys)},\n'
        f'  "perSeed": {{\n{seeds}\n  }},\n'
        f'  "invariant": {block(invariant, "    ")}\n'
        "}\n"
    )
    json.loads(text)
    Path(path).write_text(text)

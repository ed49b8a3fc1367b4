"""The correctness gate each operation must pass.

An operation passes when its process exited with status 0 and, for every
experiment it ran, the emitted report says ``all_ok``, holds the expected
number of runs with the expected statuses, and carries headline numbers
equal to the reference values stored in reference.json for the seeds used.
Emitted trees must also be byte-identical across the operations of one
benchmark run; that check needs several operations and lives in run.py.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from collections import Counter
from typing import Optional

# Headline floats must match to this relative tolerance: loose enough for a
# change of summation order, far tighter than any real change of result.
REL_TOL = 1e-9


def read_report(path: str) -> dict:
    """Parse an emitted report.json. Python's parser accepts the bare
    ``Infinity`` tokens that Thm2Divergence reports contain."""
    with open(path) as fh:
        return json.load(fh)


def headline(report: dict) -> dict:
    """The numbers of a report that the paper's claims rest on."""
    exp = report["experiment"]
    concl = report["conclusions"]
    if exp == "Fig3":
        return {f"tail_mean_grad_norm:{r['run_id']}": r["tail_mean_grad_norm"] for r in report["runs"]}
    if exp == "LemmaSuite":
        out = {"total_violations": concl["total_violations"]}
        for r in report["runs"]:
            out[f"checked:{r['run_id']}:bounded_update"] = r["bounded_update"]["checked"]
            out[f"checked:{r['run_id']}:u_gap"] = r["u_gap"]["checked"]
        return out
    if exp == "Thm2Divergence":
        return {"total_growth_checks": concl["total_growth_checks"]}
    if exp == "Thm2Slow":
        return {"slow_horizon": concl["slow_horizon"]}
    if exp == "AdamVsGd":
        return {"adam_crossing_epoch": concl["adam_crossing_epoch"]}
    raise ValueError(f"no headline numbers defined for {exp!r}")


def summarize(report: dict) -> dict:
    return {
        "all_ok": bool(report["conclusions"].get("all_ok", False)),
        "runs": len(report["runs"]),
        "statuses": dict(sorted(Counter(r["status"] for r in report["runs"]).items())),
        "headline": headline(report),
    }


def expected_for(reference: dict, experiment: str, seeds: list[int]) -> dict:
    """Combine the per-seed reference summaries of ``experiment`` for an
    operation that ran ``seeds``. Experiments whose results do not depend
    on the seed are stored once, under "*"."""
    per_seed = reference[experiment]
    if "*" in per_seed:
        return per_seed["*"]
    runs = 0
    statuses: Counter = Counter()
    head: dict = {}
    for s in seeds:
        entry = per_seed[str(s)]
        runs += entry["runs"]
        statuses.update(entry["statuses"])
        for key, value in entry["headline"].items():
            if key in head:
                raise ValueError(f"headline {key!r} is not separable by seed")
            head[key] = value
    return {"all_ok": True, "runs": runs, "statuses": dict(sorted(statuses.items())), "headline": head}


def _same(got, want) -> bool:
    if isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        return math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0)
    return got == want and type(got) is type(want)


def check_op(returncode: int, summaries: dict[str, Optional[dict]], expected: dict[str, dict]) -> list[str]:
    """Problems found with one operation; empty when it passes."""
    problems = []
    if returncode != 0:
        problems.append(f"exit status {returncode}")
    for exp, want in expected.items():
        got = summaries.get(exp)
        if got is None:
            problems.append(f"{exp}: no report")
            continue
        if not got["all_ok"]:
            problems.append(f"{exp}: all_ok is false")
        for key in ("runs", "statuses"):
            if got[key] != want[key]:
                problems.append(f"{exp}: {key} {got[key]} != expected {want[key]}")
        if set(got["headline"]) != set(want["headline"]):
            problems.append(f"{exp}: headline keys differ from the reference")
        for key in sorted(set(got["headline"]) & set(want["headline"])):
            if not _same(got["headline"][key], want["headline"][key]):
                problems.append(
                    f"{exp}: {key} = {got['headline'][key]!r}, reference {want['headline'][key]!r}"
                )
    return problems


def tree_digest(root: str) -> tuple[int, str]:
    """(total bytes, sha256) of the files under ``root``, hashed in sorted
    path order together with their relative paths."""
    files = []
    for dirpath, _, names in os.walk(root):
        for name in names:
            full = os.path.join(dirpath, name)
            files.append((os.path.relpath(full, root).replace(os.sep, "/"), full))
    h = hashlib.sha256()
    total = 0
    for rel, full in sorted(files):
        with open(full, "rb") as fh:
            data = fh.read()
        total += len(data)
        h.update(rel.encode() + b"\0" + str(len(data)).encode() + b"\0")
        h.update(data)
    return total, h.hexdigest()

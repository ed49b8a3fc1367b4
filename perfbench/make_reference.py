"""Regenerate perfbench/reference.json, the correctness gate's reference
values, from the adamlab sources in this checkout:

    PYTHONPATH=src python3 perfbench/make_reference.py

For every seed of ``workloads.SEED_POOL`` it runs each seeded experiment of
the workloads with that seed alone and stores the run count, status counts,
``all_ok`` and headline numbers of the report. Experiments that use no
random stream (gradient descent only) are run for two seeds, checked to
agree, and stored once under "*". Run this only when a change of results is
intended; the gate exists to catch unintended ones.
"""

from __future__ import annotations

import json
import os
import sys

import gate
import workloads
from adamlab import harness

SEED_FREE = ("Thm2Divergence", "Thm2Slow")


def summary_for(command: str, overrides: dict, seed: int) -> dict:
    experiment = workloads.SUBCOMMAND_EXPERIMENT[command]
    config = harness.merge_config(harness.default_config_for(experiment), {**overrides, "seeds": [seed]})
    report = json.loads(json.dumps(harness.run_experiment(config).report))
    return gate.summarize(report)


def main() -> int:
    reference: dict = {}
    for workload in workloads.WORKLOADS:
        for command, overrides in workloads.configs(workload, 0):
            experiment = workloads.SUBCOMMAND_EXPERIMENT[command]
            if experiment in SEED_FREE:
                first, second = (summary_for(command, overrides, s) for s in workloads.SEED_POOL[:2])
                if first != second:
                    raise SystemExit(f"{experiment} depends on the seed; store it per seed")
                reference[experiment] = {"*": first}
                continue
            reference[experiment] = {}
            for seed in workloads.SEED_POOL:
                entry = summary_for(command, overrides, seed)
                reference[experiment][str(seed)] = entry
                if not entry["all_ok"]:
                    print(f"{experiment} seed {seed}: all_ok is false", file=sys.stderr)
            print(f"{experiment}: {len(workloads.SEED_POOL)} seeds", file=sys.stderr)
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
    with open(path, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True, allow_nan=False)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

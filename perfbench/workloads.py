"""The benchmark's workloads and the configs generated for them.

Each workload is a list of (CLI subcommand, config overrides) pairs, run in
order by one operation. The workload seed picks each experiment's ``seeds``
list from ``SEED_POOL``; the program sees only the generated configs.
Reference values for the correctness gate are stored for every pool seed
(see make_reference.py), so any workload seed can be checked.
"""

from __future__ import annotations

import random

# Experiment seeds the workload seed draws from. reference.json holds the
# gate's reference values for each of them.
SEED_POOL = tuple(range(1, 33))

FIG3_SEEDS_PER_OP = 3  # the Fig3 default runs 3 seeds per beta2

SUBCOMMAND_EXPERIMENT = {
    "fig3": "Fig3",
    "lemmas": "LemmaSuite",
    "thm2-diverge": "Thm2Divergence",
    "thm2-slow": "Thm2Slow",
    "compare": "AdamVsGd",
}

THM2_SLOW_SCALE = 100_000  # T and options.steps of thm2-slow in gd_threshold

WORKLOADS = ("fig3_sweep", "lemma_audit", "gd_threshold")


def experiment_seeds(workload: str, seed: int) -> list[int]:
    """The experiment seeds a workload seed selects, sorted."""
    rng = random.Random(f"{workload}:{seed}")
    count = FIG3_SEEDS_PER_OP if workload == "fig3_sweep" else 1
    return sorted(rng.sample(SEED_POOL, count))


def configs(workload: str, seed: int) -> list[tuple[str, dict]]:
    """(subcommand, config overrides) for each experiment of one operation."""
    seeds = experiment_seeds(workload, seed)
    if workload == "fig3_sweep":
        return [("fig3", {"seeds": seeds})]
    if workload == "lemma_audit":
        return [("lemmas", {"seeds": seeds})]
    if workload == "gd_threshold":
        slow = {"seeds": seeds, "T": THM2_SLOW_SCALE, "options": {"steps": THM2_SLOW_SCALE}}
        return [
            ("thm2-diverge", {"seeds": seeds}),
            ("thm2-slow", slow),
            ("compare", {"seeds": seeds}),
        ]
    raise ValueError(f"unknown workload {workload!r}")

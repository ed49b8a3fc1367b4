"""Golden emitted bytes for reduced-size configs of every experiment.

The digests were recorded from the scalar engine before its hot path was
rewritten; the two JSON plot-table entries were recorded from the per-row
plot-table writer before plot tables became columns. Fig3, Fig3Json and
LemmaSuite were re-recorded when the counterexample's two squares
``(x - 1.0) ** 2`` and ``(x - c) ** 2`` became products ``t * t``, so that
a NumPy row kernel, which squares by multiplying, can evaluate ``f_value``
bit for bit: libm ``pow`` is not correctly rounded, while a product is one
IEEE operation. Only ``f_value`` cells of ``trajectory.csv`` moved (17, 2
and 19 rows), each by at most 2e-16; no report or summary changed.
CustomClippedGd was recorded from the GD runner whose loop appended every
column of its tables, before those tables were derived after the run. Any
change to the arithmetic, the permutation stream or the emission format
moves at least one of them; such a change must say which bytes changed and
why, and record the new digests here.
"""

import hashlib
import json
import os
import sys

import pytest

from adamlab import cli
from adamlab.harness import REGISTRY, default_config_for, emit, merge_config, run_experiment
from adamlab.landscapes import lowerbound_objective, quadratic_sum, to_spec

CONFIGS = {
    "Fig3": {"T": 1000},
    "LemmaSuite": {"T": 60},
    "Thm2Divergence": {},
    "Thm2Slow": {"options": {"steps": 1000}},
    "AdamVsGd": {"options": {"gd_steps": 1000, "adam": {
        "beta1": 0.9, "beta2": 0.999, "eta1": 0.5, "xi": 1e-8, "epochs": 1000,
        "schedule": "Diminishing", "init_mode": "PaperTheory",
    }}},
    "Custom": {
        "objective": to_spec(
            quadratic_sum([1.0, 3.0, 0.5], [[1.0, -2.0], [0.0, 4.0], [-3.0, 1.5]])
        ),
        "seeds": [1, 2],
        "T": 25,
        "options": {"algo": "adam", "x0": [5.0, -5.0], "record_steps": True},
    },
    # Adam overflows the exponential branch and ends NonFinite mid-epoch
    "CustomNonFinite": {
        "experiment": "Custom",
        "objective": to_spec(lowerbound_objective(1.0, 1.0, 0.01)),
        "seeds": [3],
        "T": 10,
        "options": {
            "algo": "adam",
            "x0": [3.0, 2.0],
            "record_steps": True,
            "require_completed": False,
            "adam": {"eta1": 1000.0, "schedule": "Constant"},
        },
    },
    # clipped GD with step records: the exponential arm's gradient is
    # clipped to norm 1 until the iterate reaches the quadratic band
    "CustomClippedGd": {
        "experiment": "Custom",
        "objective": to_spec(lowerbound_objective(1.0, 1.0, 0.01)),
        "seeds": [1],
        "T": 200,
        "options": {
            "algo": "clipped_gd",
            "x0": [3.0, 2.0],
            "record_steps": True,
            "gd": {"eta1": 0.5, "schedule": "Diminishing", "clip_threshold": 1.0},
        },
    },
    # plot tables written as JSON row lists
    "Fig3Json": {"experiment": "Fig3", "T": 50, "format": "json"},
    "Thm2DivergenceJson": {"experiment": "Thm2Divergence", "format": "json"},
}

GOLDEN = {
    "AdamVsGd": "eef96fcfe511ec18cec26ff3d7c1f7652b070c0783a1ca5f11e6d628dff5e016",
    "Custom": "fe2328e917607398b6a2061ded071342dfecb021bd32282ae5ef0ff515a0bedc",
    "CustomClippedGd": "4a0c76da66339118fd3e45c82bc538d2301b119f7cbb7b1260048c620ac9355c",
    "CustomNonFinite": "938d31cb5c71db76856e49d3be4bed66e6b09d52a5e32ba1bf2322a4452b6599",
    "Fig3": "ebef03175873279a3be6215f61b97154ecbd13c7361e398eb79a6a46387140b7",
    "Fig3Json": "efe8ca765feae81a04a0aebe6f9042d31704c9a2392b201b10eb540362b39bcd",
    "LemmaSuite": "1256d5ef37756284ceb46ba6faa9c13c14ad7a6309570f7f576e06255f2b60f2",
    "Thm2Divergence": "5e667ff5e4ce50d0967dcce028c9ae5cb192b76375a8368a9ad51917730b445d",
    "Thm2DivergenceJson": "6eb98a418fc32e3df7477f3321d5eadc1ecbacd12f55f4429d44f7c0a357186c",
    "Thm2Slow": "ede254cedfc8e0b35d73677e32860241808a6bb688b1421e628be7849a3c2f87",
}


def tree_digest(root):
    """One sha256 over the sorted relative paths and bytes of every file.
    The interpreter version echoed into report.json is masked, so the
    digest does not depend on the Python that runs the test."""
    version = f'"python": "{sys.version_info.major}.{sys.version_info.minor}"'.encode()
    h = hashlib.sha256()
    for dirpath, _, files in sorted(os.walk(root)):
        for name in sorted(files):
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                data = fh.read()
            if name == "report.json":
                data = data.replace(version, b'"python": "*"')
            h.update(os.path.relpath(path, root).encode() + b"\0")
            h.update(hashlib.sha256(data).digest())
    return h.hexdigest()


def emit_tree(label, out_dir):
    overrides = CONFIGS[label]
    config = merge_config(default_config_for(overrides.get("experiment", label)), overrides)
    emit(run_experiment(config), out_dir)


@pytest.mark.parametrize("label", sorted(CONFIGS))
def test_emitted_tree_matches_golden_digest(label, tmp_path):
    emit_tree(label, str(tmp_path))
    assert tree_digest(tmp_path) == GOLDEN[label]


@pytest.mark.parametrize("label", sorted(CONFIGS))
def test_cli_emits_golden_tree(label, tmp_path):
    # the CLI is the one entry point: --config keys reach the same bytes
    overrides = CONFIGS[label]
    experiment = overrides.get("experiment", label)
    command = REGISTRY[experiment].command
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(overrides))
    out = tmp_path / "out"
    code = cli.main([command, "--config", str(config_path), "--out", str(out)])
    assert tree_digest(out) == GOLDEN[label]
    # some reduced runs fail an experiment-level assertion: exit 1, not 2
    report = json.loads((out / experiment / "report.json").read_text())
    assert code == (0 if report["conclusions"]["all_ok"] else 1)

import copy
import json
import os

import pytest

import gate
from adamlab import harness

# short runs do not reach the beta2 ordering Fig3 asserts, so use one beta2
TINY_FIG3 = {"seeds": [1, 2], "T": 30, "options": {"beta2_grid": [0.9]}}


def run_tiny(experiment, overrides, out):
    config = harness.merge_config(harness.default_config_for(experiment), overrides)
    result = harness.run_experiment(config)
    harness.emit(result, str(out), config.format)
    return gate.read_report(os.path.join(str(out), experiment, "report.json")), result


@pytest.fixture(scope="module")
def fig3(tmp_path_factory):
    report, result = run_tiny("Fig3", TINY_FIG3, tmp_path_factory.mktemp("fig3"))
    summary = gate.summarize(report)
    # the reference is the summary of the same run, taken before emission
    reference = gate.summarize(json.loads(json.dumps(result.report)))
    return summary, reference


def test_unchanged_operation_passes(fig3):
    summary, reference = fig3
    assert summary["all_ok"]
    assert summary["runs"] == 2 and summary["statuses"] == {"Completed": 2}
    assert gate.check_op(0, {"Fig3": summary}, {"Fig3": reference}) == []


def test_perturbed_headline_number_fails(fig3):
    summary, reference = fig3
    bad = copy.deepcopy(summary)
    key = sorted(bad["headline"])[0]
    bad["headline"][key] *= 1 + 1e-6
    problems = gate.check_op(0, {"Fig3": bad}, {"Fig3": reference})
    assert len(problems) == 1 and key in problems[0]


def test_nonzero_exit_status_fails(fig3):
    summary, reference = fig3
    assert gate.check_op(1, {"Fig3": summary}, {"Fig3": reference}) == ["exit status 1"]


def test_missing_report_wrong_status_and_false_all_ok_fail(fig3):
    summary, reference = fig3
    assert gate.check_op(0, {"Fig3": None}, {"Fig3": reference}) == ["Fig3: no report"]
    bad = copy.deepcopy(summary)
    bad["all_ok"] = False
    bad["statuses"] = {"Completed": 1, "Diverged": 1}
    problems = gate.check_op(0, {"Fig3": bad}, {"Fig3": reference})
    assert any("all_ok" in p for p in problems) and any("statuses" in p for p in problems)


def test_integer_headlines_must_match_exactly():
    want = {"all_ok": True, "runs": 1, "statuses": {}, "headline": {"slow_horizon": 96550, "x": None}}
    got = copy.deepcopy(want)
    assert gate.check_op(0, {"E": got}, {"E": want}) == []
    got["headline"]["slow_horizon"] = 96551
    assert gate.check_op(0, {"E": got}, {"E": want}) != []
    got["headline"]["slow_horizon"] = 96550.0
    assert gate.check_op(0, {"E": got}, {"E": want}) != []


def test_expected_for_combines_seeds():
    reference = {
        "Fig3": {
            "1": {"all_ok": True, "runs": 3, "statuses": {"Completed": 3}, "headline": {"t:s1": 0.5}},
            "2": {"all_ok": True, "runs": 3, "statuses": {"Completed": 3}, "headline": {"t:s2": 0.25}},
        },
        "Thm2Slow": {"*": {"all_ok": True, "runs": 3, "statuses": {"Completed": 3}, "headline": {}}},
    }
    both = gate.expected_for(reference, "Fig3", [1, 2])
    assert both["runs"] == 6 and both["statuses"] == {"Completed": 6}
    assert both["headline"] == {"t:s1": 0.5, "t:s2": 0.25}
    assert gate.expected_for(reference, "Thm2Slow", [9]) is reference["Thm2Slow"]["*"]


def test_tiny_fig3_matches_its_reference_by_seed(fig3, tmp_path):
    summary, _ = fig3
    reference = {"Fig3": {}}
    for seed in TINY_FIG3["seeds"]:
        report, _ = run_tiny("Fig3", {**TINY_FIG3, "seeds": [seed]}, tmp_path / str(seed))
        reference["Fig3"][str(seed)] = gate.summarize(report)
    expected = gate.expected_for(reference, "Fig3", TINY_FIG3["seeds"])
    assert gate.check_op(0, {"Fig3": summary}, {"Fig3": expected}) == []


def test_divergence_report_with_bare_infinity_is_read(tmp_path):
    report, _ = run_tiny("Thm2Divergence", {"options": {"steps": 50}}, tmp_path)
    with open(tmp_path / "Thm2Divergence" / "report.json") as fh:
        assert "Infinity" in fh.read()
    summary = gate.summarize(report)
    assert summary["all_ok"] and summary["statuses"] == {"Diverged": 3}
    assert summary["headline"]["total_growth_checks"] > 0


def test_tree_digest_counts_bytes_and_sees_changes(tmp_path):
    (tmp_path / "d").mkdir()
    (tmp_path / "d" / "a.txt").write_bytes(b"abc")
    (tmp_path / "b.txt").write_bytes(b"hello")
    size, digest = gate.tree_digest(str(tmp_path))
    assert size == 8
    assert gate.tree_digest(str(tmp_path)) == (size, digest)
    (tmp_path / "b.txt").write_bytes(b"hellO")
    assert gate.tree_digest(str(tmp_path))[1] != digest

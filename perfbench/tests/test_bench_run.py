"""run.py on operations that fail: the result line still comes, with
correct false, rather than the run giving up as if it could not start."""

import json
import os

import run
import workloads


def test_crashing_program_gives_incorrect_result(monkeypatch, capsys):
    # a config naming another experiment than its subcommand makes
    # cli.load_config raise, so the operation exits on an exception
    bad = [("fig3", {"seeds": [1], "experiment": "Thm2Slow"})]
    monkeypatch.setattr(workloads, "configs", lambda workload, seed: bad)
    code = run.main(["--workload", "fig3_sweep", "--seed", "1", "--seconds", "1", "--trace", "0"])
    assert code == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result == {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}


def test_layer_metrics_scale_to_reference_seconds_by_unit():
    assert run.to_reference(2.0, "s", 0.5) == 1.0
    assert run.to_reference(10.0, "us", 0.5) == 5.0
    assert run.to_reference(100.0, "B/s", 0.5) == 200.0
    assert run.to_reference(100.0, "1/s", 0.5) == 200.0
    assert run.to_reference(7, "count", 0.5) == 7
    assert run.to_reference(0.3, "ratio", 0.5) == 0.3


def test_run_pins_to_one_cpu_and_restores(monkeypatch, capsys):
    before = os.sched_getaffinity(0)
    seen = []
    real_run_op = run.run_op

    def spy(*args, **kwargs):
        seen.append(os.sched_getaffinity(0))
        return real_run_op(*args, **kwargs)

    bad = [("fig3", {"seeds": [1], "experiment": "Thm2Slow"})]
    monkeypatch.setattr(workloads, "configs", lambda workload, seed: bad)
    monkeypatch.setattr(run, "run_op", spy)
    run.main(["--workload", "fig3_sweep", "--seed", "1", "--seconds", "1", "--trace", "0"])
    assert seen == [{min(before)}]
    assert os.sched_getaffinity(0) == before

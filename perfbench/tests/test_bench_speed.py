import time

import pytest

import speed


def test_rate_uses_the_stretch_that_covers_the_interval():
    # (monotonic time, chunks done, thread CPU seconds): 100 chunks per CPU
    # second up to t=2, then 50
    series = [(0.0, 0, 0.0), (1.0, 50, 0.5), (2.0, 100, 1.0), (3.0, 125, 1.5), (4.0, 150, 2.0)]
    assert speed.rate(series, 0.0, 2.0) == 100.0
    assert speed.rate(series, 2.0, 4.0) == 50.0
    # an interval inside one step takes the step around it
    assert speed.rate(series, 2.2, 2.8) == 50.0
    # [0.5, 2.5] is covered by [0, 3]: 125 chunks in 1.5 CPU seconds
    assert speed.rate(series, 0.5, 2.5) == pytest.approx(125 / 1.5)


def test_rate_needs_a_chunk():
    with pytest.raises(ValueError):
        speed.rate([(0.0, 0, 0.0)], 0.0, 1.0)


def test_reference_seconds_scale_with_speed():
    assert speed.reference_seconds(2.0, speed.REFERENCE_RATE) == 2.0
    # a machine twice as fast as the reference did the work of 4 reference seconds
    assert speed.reference_seconds(2.0, 2 * speed.REFERENCE_RATE) == 4.0


def test_calibrator_runs_until_stopped():
    calibrator = speed.Calibrator(speed.Chunk()).start()
    t0 = time.monotonic()
    time.sleep(0.05)
    t1 = time.monotonic()
    calibrator.stop()
    assert calibrator.series[-1][1] > 0
    assert calibrator.rate(t0, t1) > 0


def test_chunk_fills_its_rings_and_then_recycles_them():
    chunk = speed.Chunk()
    for _ in range(speed.Chunk.KEEP // speed.Chunk.STEPS):
        chunk()
    assert None not in chunk.records and chunk.k == speed.Chunk.KEEP
    first = chunk.records[0]
    chunk()
    assert chunk.records[0] is not first and chunk.records[0].k == speed.Chunk.KEEP

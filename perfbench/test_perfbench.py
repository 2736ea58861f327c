"""Tests of the benchmark's own code (no program run needed):

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import itertools
import os
import sys
from types import SimpleNamespace

import pytest

# harness imports the program, which lives in src/ next to perfbench/.
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from calib import Calibrator, calibrate  # noqa: E402
from digests import DigestCheck, rows_digest, text_key  # noqa: E402
from harness import Round  # noqa: E402
from spans import NO_PARENT, SpanRecorder, covered_time, self_times, time_excluding  # noqa: E402
from summary import TooFewSamples, class_geomean_of_medians, percentile  # noqa: E402


class FakeClock:
    """A clock that returns the queued instants, one per call."""

    def __init__(self, instants):
        self._instants = iter(instants)

    def __call__(self) -> float:
        return next(self._instants)


# -- calibration ------------------------------------------------------------------


def test_calibrate_rescales_by_mean_kernel_time():
    # Kernel 0.4 ms here vs 0.2 ms on the reference host: the host runs at
    # half speed, so 10 s of wall counts as 5 reference seconds.
    assert calibrate(10.0, 0.4e-3, 0.4e-3, ref_s=0.2e-3) == pytest.approx(5.0)
    # The before/after samples are averaged.
    assert calibrate(6.0, 0.1e-3, 0.3e-3, ref_s=0.2e-3) == pytest.approx(6.0)
    assert calibrate(0.0, 0.1e-3, 0.1e-3) == 0.0


@pytest.mark.parametrize("raw, before, after", [(-1.0, 1.0, 1.0), (1.0, 0.0, 1.0), (1.0, 1.0, -2.0)])
def test_calibrate_rejects_impossible_timings(raw, before, after):
    with pytest.raises(ValueError):
        calibrate(raw, before, after)


def test_calibrator_times_the_unit_between_kernel_samples():
    # Each kernel sample is the median of 5 timed runs (two clock reads each).
    def kernel_reads(start, duration):
        return [start, start + duration] * 5

    reads = (
        kernel_reads(1.0, 0.002)  # before sample = 2 ms
        + [10.0]  # unit start
        + [14.0]  # unit end -> raw 4 s
        + kernel_reads(20.0, 0.006)  # after sample = 6 ms
    )
    cal = Calibrator(ref_s=0.002, clock=FakeClock(reads))
    cal.begin()
    raw, calibrated = cal.end()
    assert raw == pytest.approx(4.0)
    assert calibrated == pytest.approx(4.0 * 0.002 / 0.004)
    assert cal.samples == pytest.approx([0.002, 0.006])


# -- percentiles ------------------------------------------------------------------


def test_p95_refuses_with_fewer_than_ten_samples_beyond_it():
    with pytest.raises(TooFewSamples):
        percentile([float(i) for i in range(199)], 0.95)
    values = [float(i) for i in range(200)]
    # Nearest rank 190 -> value 189, with 10 samples beyond it.
    assert percentile(values, 0.95) == 189.0
    assert percentile(list(reversed(values)), 0.95) == 189.0


def test_geomean_of_class_medians():
    samples = {"a": [1.0, 2.0, 100.0], "b": [8.0]}
    assert class_geomean_of_medians(samples) == pytest.approx(4.0)


# -- spans ------------------------------------------------------------------------


def _nested_recorder() -> SpanRecorder:
    # outer [0, 10]
    #   child [1, 4]
    #     grandchild [2, 3]
    #   storage [5, 7]
    # sibling [11, 12]
    recorder = SpanRecorder(clock=FakeClock([0, 1, 2, 3, 4, 5, 7, 10, 11, 12]))
    outer = recorder.open("outer")
    child = recorder.open("child")
    grandchild = recorder.open("grandchild")
    recorder.close(grandchild)
    recorder.close(child)
    storage = recorder.open("storage.decode")
    recorder.close(storage)
    recorder.close(outer)
    sibling = recorder.open("sibling")
    recorder.close(sibling)
    return recorder


def test_self_time_subtracts_the_time_child_spans_cover():
    recorder = _nested_recorder()
    assert recorder.parents == [NO_PARENT, 0, 1, 0, NO_PARENT]
    spans = (recorder.names, recorder.starts, recorder.ends, recorder.parents)
    totals = self_times(*spans)
    assert totals == {
        "outer": 10 - 3 - 2,
        "child": 3 - 1,
        "grandchild": 1,
        "storage.decode": 2,
        "sibling": 1,
    }
    # Self times partition the covered time.
    assert sum(totals.values()) == covered_time(*spans[1:]) == 11
    assert self_times(*spans, first=4) == {"sibling": 1}
    assert self_times(*spans, stop=1) == {"outer": 5}


def test_time_excluding_drops_only_the_excluded_descendants():
    recorder = _nested_recorder()
    spans = (recorder.names, recorder.starts, recorder.ends, recorder.parents)
    assert time_excluding(*spans, "outer", "storage.") == 10 - 2
    assert time_excluding(*spans, "outer", "storage.", first=1) == 0


class Target:
    def work(self, value, query_id=None):
        return value * 2


def test_wrap_records_spans_with_query_ids_and_uninstall_restores():
    original = Target.__dict__["work"]
    recorder = SpanRecorder(clock=FakeClock(itertools.count()))
    recorder.wrap(__name__, "Target.work", "target.work", query_arg="query_id")
    assert Target().work(3, query_id="q-1") == 6
    assert Target().work(4) == 8
    recorder.uninstall()
    assert Target.__dict__["work"] is original
    assert recorder.names == ["target.work", "target.work"]
    assert recorder.queries == ["q-1", None]
    assert recorder.query_id is None


# -- digests ----------------------------------------------------------------------


def test_digest_check_catches_a_corrupted_row():
    sql = "SELECT a, b FROM t"
    rows = [(1, "x", 0.5), (2, "y", None), (3, "z", 1e-9)]
    check = DigestCheck({text_key(sql): rows_digest(rows)})
    assert check.check(sql, list(reversed(rows)))  # row order does not matter
    corrupted = [rows[0], (2, "y", 0.0), rows[2]]
    assert not check.check(sql, corrupted)
    assert not check.check(sql, rows[:2])  # a lost row
    assert not check.check("SELECT 1", rows)  # no expectation at all
    assert len(check.mismatches) == 3


def test_digest_ignores_float_noise_below_ten_significant_digits():
    assert rows_digest([(0.1 + 0.2,)]) == rows_digest([(0.3,)])
    assert rows_digest([(1234567.891,)]) != rows_digest([(1234567.892,)])


def _record(status: str, rows: list[tuple]) -> SimpleNamespace:
    return SimpleNamespace(status=SimpleNamespace(value=status), result_rows=lambda: rows)


def test_a_query_that_did_not_finish_is_a_round_error():
    sql = "SELECT a FROM t"
    rows = [(1,), (2,)]
    check = DigestCheck({text_key(sql): rows_digest(rows)})
    result = Round()
    result.verify(check, sql, _record("finished", rows))
    assert (result.succeeded, result.errors) == (1, [])
    result.verify(check, sql, _record("failed", rows))
    result.verify(check, sql, _record("pending", rows))
    result.verify(check, sql, _record("finished", [(1,), (3,)]))
    assert result.succeeded == 1
    assert [error.split(":")[0] for error in result.errors] == [
        "query failed",
        "query pending",
        f"digest {rows_digest([(1,), (3,)])} != {rows_digest(rows)}",
    ]
    assert check.mismatches == []

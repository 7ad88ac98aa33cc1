"""Watchdog primitives: stall detection semantics and the named-check
panel.

The stall detector's suppression rules are the contract that matters:
a detector that cries wolf on a paused queue or a sleep-heavy
workload would train operators to ignore ``degraded``.
"""

import pytest

from repro.obs.watchdog import StallDetector, WatchdogPanel


class TestStallDetector:
    def test_trips_only_after_stall_after_of_true_silence(self):
        detector = StallDetector(stall_after=5.0)
        assert detector.observe(100.0, depth=3, progress=7, idle=2) is None
        assert detector.observe(104.0, depth=3, progress=7, idle=2) is None
        reason = detector.observe(105.5, depth=3, progress=7, idle=2)
        assert reason is not None and "queue stalled" in reason
        assert detector.stalled_for == pytest.approx(5.5)

    def test_empty_queue_suppresses(self):
        """A paused-but-empty queue is not a stall."""
        detector = StallDetector(stall_after=5.0)
        detector.observe(100.0, depth=0, progress=7, idle=2)
        # Hours of depth-0 silence, then work appears: the timer must
        # have been resetting all along.
        detector.observe(7200.0, depth=0, progress=7, idle=2)
        assert detector.observe(7201.0, depth=3, progress=7, idle=2) is None
        assert detector.stalled_for == 0.0

    def test_all_executors_busy_suppresses(self):
        """Sleep-heavy workload: queue deep, zero idle — backpressure,
        not a stall."""
        detector = StallDetector(stall_after=5.0)
        for t in (100.0, 110.0, 120.0):
            assert detector.observe(t, depth=50, progress=7, idle=0) is None
        assert detector.stalled_for == 0.0

    def test_progress_movement_suppresses(self):
        detector = StallDetector(stall_after=5.0)
        for i, t in enumerate((100.0, 110.0, 120.0)):
            assert detector.observe(t, depth=50, progress=7 + i, idle=2) is None

    def test_recovery_resets_the_timer(self):
        detector = StallDetector(stall_after=5.0)
        detector.observe(100.0, depth=3, progress=7, idle=2)
        assert detector.observe(106.0, depth=3, progress=7, idle=2) is not None
        # One dispatch happens: healthy again, timer restarts.
        assert detector.observe(107.0, depth=3, progress=8, idle=2) is None
        assert detector.stalled_for == 0.0
        assert detector.observe(111.0, depth=3, progress=8, idle=2) is None

    def test_reset_forgets_everything(self):
        detector = StallDetector(stall_after=5.0)
        detector.observe(100.0, depth=3, progress=7, idle=2)
        detector.observe(106.0, depth=3, progress=7, idle=2)
        detector.reset()
        assert detector.stalled_for == 0.0
        assert detector.observe(200.0, depth=3, progress=7, idle=2) is None

    def test_stall_after_must_be_positive(self):
        with pytest.raises(ValueError):
            StallDetector(stall_after=0)


class TestWatchdogPanel:
    def test_reasons_collects_only_degraded_checks(self):
        panel = WatchdogPanel()
        panel.add("healthy", lambda: None)
        panel.add("stalled", lambda: "queue stalled: 3 queued")
        assert panel.names() == ["healthy", "stalled"]
        assert panel.reasons() == ["queue stalled: 3 queued"]

    def test_raising_check_reads_as_degraded_not_healthy(self):
        panel = WatchdogPanel()

        def broken():
            raise RuntimeError("probe exploded")

        panel.add("broken", broken)
        reasons = panel.reasons()
        assert len(reasons) == 1
        assert "watchdog 'broken' failed" in reasons[0]
        assert "probe exploded" in reasons[0]

    def test_empty_panel_is_healthy(self):
        assert WatchdogPanel().reasons() == []

import signal
import time

import speed


def _busy(seconds):
    end = time.thread_time() + seconds
    while time.thread_time() < end:
        pass


def test_probe_samples_while_computing_and_leaves_its_own_time_out():
    probe = speed.Probe()
    try:
        probe.restart()
        c0 = time.thread_time()
        _busy(10 * speed.INTERVAL_S)
        total = time.thread_time() - c0
        assert len(probe._scales) >= 5  # the window's first sample and timer ticks
        assert 0 < probe.spent_s < total
        assert probe.scale() > 0
    finally:
        probe.stop()
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)


def test_a_new_window_forgets_the_last_one():
    probe = speed.Probe()
    try:
        _busy(3 * speed.INTERVAL_S)
        probe.restart()
        assert probe.spent_s == 0.0 and len(probe._scales) == 1
    finally:
        probe.stop()

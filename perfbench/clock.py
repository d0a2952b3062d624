"""Wall time scaled to the speed of an idle reference core.

On a shared host, other tenants slow this core by up to about 2x, in spells
of seconds to minutes, and the slowdown hits all interpreter-bound code
about equally.  So a short fixed calibration loop (Python calls on small
numpy arrays, like drsplit's, but calling no drsplit code) is timed before
and after every timed unit of work, and the unit's wall time is multiplied
by ``REFERENCE_S`` over the mean of the two calibration times.  Units of
work that last seconds are also calibrated while they run, from a timer
signal, and the time spent calibrating is taken out of their wall time.  On
an idle reference core the factor is 1, so scaled and wall times agree; a
change to drsplit moves only the wall time, not the calibration.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
from time import perf_counter, perf_counter_ns

import numpy as np

# the calibration loop's time on an idle core of the reference machine
# (x86_64, Python 3.11.7, numpy 2.4.6)
REFERENCE_S = 4.0e-4
LOOP_REPEATS = 5
SAMPLE_S = 0.1


def _loop() -> float:
    x = np.array([3.0, -4.0])
    m = np.array([[0.9, 0.1], [0.1, 0.9]])
    s = 0.0
    for _ in range(100):
        y = np.maximum(m @ x, 0.0)
        s += float(np.linalg.norm(y - x))
        x = x + 0.001
    return s


def calibration_s() -> float:
    """Median time of a few calibration loops."""
    times = []
    for _ in range(LOOP_REPEATS):
        t0 = perf_counter()
        _loop()
        times.append(perf_counter() - t0)
    return statistics.median(times)


class Clock:
    """Scale factors for consecutive units of work.

    Call ``scale()`` right after each unit: it calibrates, and returns the
    factor for the unit that ran since the previous calibration.
    """

    def __init__(self):
        self._last = calibration_s()
        self.factors = []

    def scale(self, after=None) -> float:
        """``after`` is a calibration time taken right after the unit, if
        the caller has one."""
        now = calibration_s() if after is None else after
        return self._factor([self._last, now], now)

    def _factor(self, samples, last) -> float:
        factor = REFERENCE_S / statistics.mean(samples)
        self._last = last
        self.factors.append(factor)
        return factor

    @contextlib.contextmanager
    def sampling(self):
        """Calibrate every SAMPLE_S seconds while the block runs.  On exit
        the yielded dict holds ``paused``, the seconds spent calibrating
        inside the block, ``intervals``, their (start, end) in
        perf_counter_ns, and ``factor``, from every calibration taken."""
        samples = [self._last]
        result = {"paused": 0.0, "intervals": []}

        def calibrate(signum, frame):
            t0 = perf_counter_ns()
            samples.append(calibration_s())
            t1 = perf_counter_ns()
            result["intervals"].append((t0, t1))
            result["paused"] += (t1 - t0) / 1e9

        previous = signal.signal(signal.SIGALRM, calibrate)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        try:
            yield result
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        now = calibration_s()
        result["factor"] = self._factor(samples + [now], now)

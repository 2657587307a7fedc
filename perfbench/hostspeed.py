"""Host-speed calibration for the end-to-end timings.

The benchmark runs on a few vCPUs of a shared host.  The other tenants slow
this process by up to 2x, and not for a moment: for stretches of seconds
to minutes, so a whole 30-second run can fall into one.  Every code path
slows alike (small FFTs, elementwise numpy, the interpreter loop), and
process CPU time rises with wall time, so the cause is contention for the
physical core and its caches, not time the process was descheduled.  A
median over a run therefore moves with how much of the run fell into a
slow stretch, by far more than any bound worth checking.

So the timed run measures the host's speed next to the work it times: a
fixed kernel, independent of the package, is timed right before every step
and every set-up, and that step's or set-up's time is scaled by
``REFERENCE_S / kernel time``.  The metrics then read as the time the work
takes when the kernel takes ``REFERENCE_S``, about its time between steps
on a calm host.  A change to the package changes the work, not the kernel,
so it shows in full.
"""

from __future__ import annotations

import time

import numpy as np

# A fixed scale: about the kernel's time between the workloads' steps on a
# calm host, 2 vCPUs of an Intel Xeon (family 6, model 143) KVM guest with
# numpy 2.4.6, where it measured 0.60-0.65 ms (0.49-0.53 ms when timed back
# to back, with nothing run in between).
REFERENCE_S = 6.0e-4

ROUNDS = 10

_FIELD = np.random.default_rng(0).random((32, 32))


def _round() -> float:
    spectrum = np.fft.rfft2(_FIELD)
    total = float(np.sum(np.fft.irfft2(spectrum, s=_FIELD.shape) * _FIELD))
    for i in range(200):
        total += i
    return total


def kernel_s() -> float:
    """Seconds ROUNDS rounds of the kernel take now, after one untimed round.

    The untimed round brings the kernel's data back into the caches, so the
    timing does not depend on how much the preceding work evicted.
    """
    _round()
    start = time.perf_counter()
    for _ in range(ROUNDS):
        _round()
    return time.perf_counter() - start

"""A fixed host-speed probe, owned by the benchmark and independent of fockmin.

The VM this benchmark was built on has slow phases that last from seconds to
minutes, in which the same code runs up to 70 % slower (CPU time included).
A run's median cannot hide a phase that covers the whole run.  So the run
times this probe between sweeps and scales each sweep by the probe's speed
at that moment: an adjusted time is `seconds * PROBE_REF_S / probe_seconds`,
the sweep's time on a host where the probe takes `PROBE_REF_S`.

On a quiet host the probe does about 18 ms of the three kinds of work
fockmin does: exact rationals with factorial-sized numerators, small numpy
arrays, and plain interpreter loops.  Because it never calls fockmin, a faster fockmin makes
adjusted times smaller, as it should.
"""

import math
import time
from fractions import Fraction

import numpy as np

# About the median probe time in quiet phases of the 2-vCPU VM the benchmark
# was built on (Python 3.11.7, numpy 2.4.6), so that adjusted times there read
# close to quiet wall times.  It only sets the scale.
PROBE_REF_S = 0.018

_J = 40
_INDEX = np.arange(2401) % 49
_STATE = np.linspace(0.0, 1.0, 49) + 0.5j


def probe_seconds() -> float:
    start = time.perf_counter()
    base = Fraction(math.factorial(_J), 2 ** (_J + 1))
    row = [base + Fraction(math.factorial(k) * math.factorial(_J - k), 8) for k in range(_J)]
    for a in row:
        sum(a - b for b in row)
    for _ in range(300):
        v = _STATE[_INDEX] * _STATE[_INDEX[::-1]]
        np.bincount(_INDEX, weights=v.real, minlength=49)
        float(np.sum(v.real**2 + v.imag**2))
    total = 0
    for i in range(100_000):
        total += i * i % 7
    return time.perf_counter() - start

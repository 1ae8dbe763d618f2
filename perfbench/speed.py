"""Host speed probe: fixed work timed before and after every op.

The guest's execution speed drifts by 20 % and more within a minute,
because the host's cores are shared (README, "Measurements"), and the
ops of a pass slow down and speed up together.  The probe does the same
work on every call, in the kinds of code the ops spend their time in:
small numpy calls in an interpreted loop (adaptive quadrature,
coverings), plain interpreted arithmetic, FFTs (window transforms, the
voice transform), and dense complex rows built and multiplied (frame
rows).  It does not call alphamod, so a change to alphamod cannot move
it.  An op that took t seconds while the probes around it took p on
average is reported as t * REF_S / p: its time at the probe's reference
speed.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# the probe's median time over the runs of README "Measurements"
REF_S = 0.137

_X = np.linspace(-1.0, 1.0, 15)
_SIGNAL = np.exp(1j * np.linspace(0.0, 50.0, 1 << 14))
_T = np.linspace(-8.0, 8.0, 2048)
_V = np.exp(1j * _T)
_FREQS = np.linspace(0.0, 3.0, 512)


def _small_numpy_calls():
    acc = 0.0
    for i in range(6000):
        acc += float(np.sum(np.exp(-(i % 7) * _X * _X)))


def _interpreted():
    acc = 0
    for i in range(300000):
        acc += i * i % 7


def _ffts():
    for _ in range(120):
        np.fft.fft(_SIGNAL)


def _dense_rows():
    rows = np.exp(2j * np.pi * np.outer(_FREQS, _T))     # 16 MiB
    rows @ _V


def probe() -> float:
    """Seconds the fixed work takes now."""
    t0 = perf_counter()
    _small_numpy_calls()
    _interpreted()
    _ffts()
    _dense_rows()
    return perf_counter() - t0

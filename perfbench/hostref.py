"""Host-speed reference: a fixed piece of numpy and Python work, timed.

On a shared host the same floodem call runs up to 25% slower for stretches
of seconds to minutes. The benchmark times this kernel right before and
right after every timed call, in the same process, and reports each call's
time scaled by ``REF_S`` over the kernel's time around it: seconds at the
reference host's speed. The kernel does not use floodem, so a change to
floodem cannot move it. It mixes what floodem's verbs do: numpy work on
arrays of 16,384 rows (the 128x128 scene), small-array numpy calls and a
plain Python loop.
"""

from __future__ import annotations

import time

import numpy as np

# Median seconds of one ``reference()`` call on the reference host of README.md.
REF_S = 0.012

_X = np.linspace(-3.0, 3.0, 3 * 16384).reshape(-1, 3)
_M = np.array([[1.0, 0.2, 0.1], [0.2, 1.0, 0.3], [0.1, 0.3, 1.0]])
_SMALL = np.linspace(0.0, 1.0, 64)


def reference() -> float:
    """Run the kernel once; returns its wall seconds."""
    start = time.perf_counter()
    for _ in range(12):
        y = _X @ _M
        z = np.exp(-0.5 * np.einsum("ij,ij->i", y, y))
        float(np.log(z + 1e-12).sum())
        np.sort(z)
    small = _SMALL
    for _ in range(600):
        small = np.maximum(small * 0.5, small[::-1])
    acc: dict[int, float] = {}
    for i in range(16000):
        acc[i & 255] = acc.get(i & 255, 0.0) + i * 0.5
    return time.perf_counter() - start

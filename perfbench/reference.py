"""A fixed reference kernel that measures the host's current speed.

The cores of a shared sandbox switch between a fast and a slow mode about
1.6x apart, in stretches of seconds to many minutes, so the same code reads
tokens per second up to 1.35x apart between runs ten minutes apart. The
benchmark times this kernel after every request and reports throughput and
set-up time at the speed of a host on which the kernel takes REF_MS:

    reported tok/s = measured tok/s * (mean kernel ms in the run) / REF_MS

The kernel does not call the library, so a change to the library moves the
reported figure exactly as much as the measured one. It is the kind of work
that dominates decoding, and much of training at `toy` size: many numpy
calls on small arrays from a Python loop, bound by the interpreter and
numpy's per-call dispatch. (A kernel that also ran a 512 x 512 softmax
tracked the workloads worse: memory-bound work slows differently.)
"""

import time

import numpy as np

REF_MS = 2.5  # about the kernel's time on a 2-core sandbox of 2.1 GHz Xeon

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((64, 64))
_V = _rng.standard_normal(64)


def time_ms() -> float:
    """Milliseconds one run of the kernel takes now."""
    start = time.perf_counter()
    x = _V
    for _ in range(300):
        y = _A @ x
        x = y / np.sqrt((y * y).mean() + 1e-6)
    return (time.perf_counter() - start) * 1e3

"""A fixed reference kernel that measures how fast the host runs right now.

The benchmark's host is a few cores of a shared machine whose speed drifts
by tens of percent over seconds and minutes, with the process never waiting
(CPU time equals wall time). Timing the workload alone therefore measures
the host as much as ``hcl``. The benchmark runs this kernel before and after
every timed call and reports each call's time scaled by how long the kernel
took around it::

    normalised = measured * NOMINAL_S / reference

``NOMINAL_S`` is a fixed scale, so a normalised time reads as the seconds
the call would take on a host that runs the kernel in ``NOMINAL_S``
seconds. The kernel never imports ``hcl``, so a change to the package leaves
it alone and moves only the normalised time of the calls.

The kernel mixes the kinds of work the workloads do, each on one thread: an
interpreted Python loop (per-step glue), many small numpy operations (the
noise sweep's tiny batches) and a row log-sum-exp over a 513 x 513 array
(the contrastive kernel at ``scene``'s n). Its only matrix product is too
small for BLAS to split across threads, so the BLAS thread setting does not
change its time.
"""

from __future__ import annotations

import time

import numpy as np

NOMINAL_S = 0.1

_rng = np.random.default_rng(0)
_X = _rng.standard_normal((64, 48))
_W = _rng.standard_normal((48, 32)) / 7.0
_S = _rng.standard_normal((513, 513))


def _interpreted(n: int) -> int:
    total = 0
    for i in range(n):
        total += i * i
    return total


def _small_arrays(n: int) -> float:
    total = 0.0
    for _ in range(n):
        h = np.maximum(_X @ _W, 0.0)
        e = np.exp(h - h.max(axis=1, keepdims=True))
        total += float((e / e.sum(axis=1, keepdims=True)).sum())
    return total


def _row_logsumexp(n: int) -> float:
    total = 0.0
    for _ in range(n):
        m = _S.max(axis=1, keepdims=True)
        total += float(np.log(np.exp(_S - m).sum(axis=1)).sum())
    return total


def reference_seconds() -> float:
    """Wall seconds of one pass of the kernel."""
    t0 = time.perf_counter()
    _interpreted(500_000)
    _small_arrays(1_300)
    _row_logsumexp(10)
    return time.perf_counter() - t0


def warm_up(passes: int = 3) -> None:
    for _ in range(passes):
        reference_seconds()

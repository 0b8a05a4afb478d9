"""The host's speed, from a fixed reference unit of work timed while measuring.

The benchmark runs on shared virtual machines whose CPU speed shifts by
up to 2x within a second and drifts over hours, with no steal time to
show for it.  The reference unit does the kinds of work the daemon does
(JSON, dicts and strings in the interpreter, small NumPy arrays) on
fixed data, using nothing from the program under test, so its time moves
only with the host.  The load generator times one unit every
``SAMPLE_EVERY_S`` seconds while it waits on the daemon (see
:func:`perfbench.client.open_loop`), on each of its CPUs in turn, as the
two virtual CPUs can run at different speeds and the daemon's work
lands on both; a figure measured there is also reported at the
reference speed, scaled by :func:`speed`.
"""

from __future__ import annotations

import itertools
import json
import os
import statistics
import time

import numpy as np

#: Milliseconds of one :func:`unit` timed by the load generator while the
#: daemon is saturated, typical of a 2-core x86 VM (Xeon, Python 3.11,
#: NumPy 2.4): the scale normalized figures are in.
REFERENCE_MS = 0.6
#: Seconds between two samples taken by the load generator.
SAMPLE_EVERY_S = 0.01
#: Units per stand-alone probe (:func:`probe_ms`).
PROBE_UNITS = 25

_rng = np.random.default_rng(20140513)
_DOC = {
    "mesh": 8,
    "apps": [
        {"name": f"app-{k}", "cache_rates": _rng.random(16).tolist(), "mem_rates": _rng.random(16).tolist()}
        for k in range(4)
    ],
}
_MATS = [_rng.random((8, 8)) for _ in range(4)]


def unit() -> float:
    """One reference unit of work; returns a checksum so nothing is skipped."""
    acc = 0.0
    for _ in range(2):
        doc = json.loads(json.dumps(_DOC))
        rows = sorted(doc["apps"], key=lambda a: a["name"], reverse=True)
        acc += sum(sum(a["cache_rates"]) for a in rows)
        keys = {f"{a['name']}:{i}": v for a in rows for i, v in enumerate(a["mem_rates"])}
        acc += len(keys)
        for m in _MATS:
            d = np.abs(np.subtract.outer(m.sum(1), m.sum(0)))
            acc += float(np.argsort(d, axis=None)[:4].sum()) + float((m @ m).trace())
    return acc


def unit_ms() -> float:
    """The time of one reference unit, in milliseconds."""
    t0 = time.perf_counter()
    unit()
    return (time.perf_counter() - t0) * 1e3


def sampler():
    """A callable that times one unit on the next of this process's CPUs."""
    cpus = sorted(os.sched_getaffinity(0))
    turn = itertools.cycle(cpus)

    def sample() -> float:
        os.sched_setaffinity(0, {next(turn)})
        try:
            return unit_ms()
        finally:
            os.sched_setaffinity(0, cpus)

    return sample


def probe_ms() -> list:
    """``PROBE_UNITS`` unit times in a row, taken just before and after work
    that runs in this process (``sim-batch``'s calls), so nothing samples it."""
    return [unit_ms() for _ in range(PROBE_UNITS)]


def speed(samples) -> float:
    """The host's speed over ``samples`` (unit times, ms), relative to the reference.

    The mean after dropping the slowest tenth: the host's slow stretches
    slow the measured work for as long as they last, so they count by
    their share of the samples; the slowest samples are the generator
    being preempted, which the daemon's work is not.
    """
    kept = sorted(samples)[: max(1, len(samples) - len(samples) // 10)]
    return REFERENCE_MS / statistics.fmean(kept)

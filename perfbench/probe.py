"""Host-speed probe for the energia benchmark.

The host's speed moves by 10-40% within seconds on a shared 2-core
sandbox, more than aggregation inside a 20 s run takes out.  So a fixed
pure-Python probe (no energia code) is timed next to every measured
interval, and the interval is reported in reference-host seconds: its wall
time times ``PROBE_NOMINAL_S`` over the mean of the probes just before and
after it.  ``PROBE_NOMINAL_S`` is about the probe's time on an unloaded
2-core Xeon sandbox, so reference-host seconds read close to wall-clock
seconds there.  A change to energia moves the interval and not the probe.

This module imports nothing but ``time``, so a fresh interpreter can load
it before timing ``import energia.cli``.
"""

import time

PROBE_NOMINAL_S = 0.004
_PROBE_INTS = range(0, 600, 3)


def host_probe():
    """Seconds for a fixed dict-counting loop shaped like energia's hot paths."""
    start = time.perf_counter()
    counts = {}
    for a in _PROBE_INTS:
        for b in _PROBE_INTS:
            counts[a + b] = counts.get(a + b, 0) + 1
    return time.perf_counter() - start


def scaled(wall, before, after):
    """``wall`` seconds in reference-host seconds, given the probes around it."""
    return wall * PROBE_NOMINAL_S * 2 / (before + after)

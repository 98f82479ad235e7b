"""Analytic performance models and measurement utilities.

* :mod:`~repro.perf.model` — arithmetic intensity, cache-complexity
  and memory-traffic formulas (the quantities behind Figure 12), and a
  closed-form roofline;
* :mod:`~repro.perf.wallclock` — wall-clock measurement of real
  (NumPy) schedule execution, and the bench scripts' shared harness.
"""

from repro.perf.model import (
    arithmetic_intensity,
    naive_traffic_bytes,
    timetile_traffic_bytes,
    roofline_time_s,
    machine_balance,
)
from repro.perf.wallclock import time_schedule

__all__ = [
    "arithmetic_intensity",
    "naive_traffic_bytes",
    "timetile_traffic_bytes",
    "roofline_time_s",
    "machine_balance",
    "time_schedule",
]

"""Zero-overhead observability for the Multi-NoC fabric.

Three coordinated parts (see ``docs/telemetry.md``):

* :mod:`repro.telemetry.hub` — the :class:`TelemetryHub` probe layer,
  attached per fabric instance by shadowing a handful of methods, so
  telemetry-off runs execute the identical unhooked code path;
* :mod:`repro.telemetry.samplers` — periodic time-series collection
  (power-state occupancy, buffer occupancy, congestion status,
  injection queues) with ASCII rendering;
* :mod:`repro.telemetry.trace` — Chrome trace-event (Perfetto) export
  and its schema validator (also available as
  ``python -m repro.telemetry validate``).

Enable with ``REPRO_TELEMETRY=1`` or ``catnap-experiments
--telemetry``; artifacts land under ``results/telemetry/`` by default.
"""

from repro.telemetry.hub import TelemetryHub
from repro.telemetry.samplers import TimeSeriesSampler
from repro.telemetry.trace import build_chrome_trace, validate_trace

__all__ = [
    "TelemetryHub",
    "TimeSeriesSampler",
    "build_chrome_trace",
    "validate_trace",
]

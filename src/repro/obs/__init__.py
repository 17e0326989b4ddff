"""``repro.obs`` — structured tracing and the typed metrics registry.

Two always-importable, cheap-by-default facilities:

* :mod:`repro.obs.metrics` — the process-wide registry of counters,
  gauges, and histograms every layer reports into (always on; a few
  dict operations per event);
* :mod:`repro.obs.trace` — the span/event tracer behind the
  ``REPRO_TRACE`` knob (off by default: no-op spans, no allocation),
  exporting merged sweeps as Chrome/Perfetto ``trace_event`` JSON.

:mod:`repro.obs.stats` renders both as the ``repro stats`` summary
tables.
"""

from repro.obs import metrics, trace
from repro.obs.metrics import (counter, gauge, histogram, registry,
                               reset_metrics)
from repro.obs.trace import (drain, emit_span, enabled, export_trace,
                             full_enabled, inject, instant, reset_trace,
                             span, validate_trace)

__all__ = ["counter", "drain", "emit_span", "enabled", "export_trace",
           "full_enabled", "gauge", "histogram", "inject", "instant",
           "metrics", "registry", "reset_metrics", "reset_trace", "span",
           "trace", "validate_trace"]

"""Observability: metrics, span timelines, trace export, self-profiling.

The layer every perf/robustness change measures itself against:

- :mod:`repro.obs.metrics` — :class:`MetricsRegistry` with counters,
  gauges and fixed-bucket histograms, exposed as Prometheus text;
- :mod:`repro.obs.spans` — :class:`SpanBuilder` folding flat trace
  records into per-result / per-RPC span timelines with leak detection;
- :mod:`repro.obs.export` — Chrome trace-event JSON (Perfetto /
  ``chrome://tracing``), JSONL, and plain-text run summaries;
- :mod:`repro.obs.probes` — standard queue-depth gauges plus the
  wall-clock engine :class:`SelfProfiler`.
"""

from ..lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    ".export": ("chrome_trace_json", "run_summary", "trace_to_jsonl",
                "write_chrome_trace"),
    ".metrics": ("Counter", "Gauge", "Histogram", "MetricsRegistry"),
    ".probes": ("SelfProfiler", "attach_standard_probes"),
    ".spans": ("Instant", "Span", "SpanBuilder"),
})

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "Instant",
    "SpanBuilder",
    "chrome_trace_json",
    "write_chrome_trace",
    "trace_to_jsonl",
    "run_summary",
    "SelfProfiler",
    "attach_standard_probes",
]

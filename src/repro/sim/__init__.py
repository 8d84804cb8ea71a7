"""Deterministic discrete-event simulation kernel.

Public surface:

- :class:`Simulator` — the event loop and clock;
- :class:`Event`, :class:`Timeout`, :class:`AllOf`, :class:`AnyOf` — waitables;
- :class:`Process`, :class:`Interrupted` — generator-based processes;
- :class:`RngRegistry`, :class:`RandomStream` — named deterministic random
  streams;
- :class:`Tracer` — structured trace recording.
"""

from ..lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    ".engine": ("PRIORITY_HIGH", "PRIORITY_LOW", "PRIORITY_NORMAL",
                "SimulationError", "Simulator", "TimerHandle"),
    ".events": ("AllOf", "AnyOf", "Event", "EventAlreadyTriggered",
                "Timeout"),
    ".process": ("Interrupted", "Process"),
    ".rng": ("RandomStream", "RngRegistry", "backoff_delay", "jittered"),
    ".trace": ("TraceRecord", "Tracer"),
})

__all__ = [
    "Simulator",
    "SimulationError",
    "TimerHandle",
    "PRIORITY_HIGH",
    "PRIORITY_LOW",
    "PRIORITY_NORMAL",
    "Event",
    "EventAlreadyTriggered",
    "Timeout",
    "AllOf",
    "AnyOf",
    "Process",
    "Interrupted",
    "RandomStream",
    "RngRegistry",
    "backoff_delay",
    "jittered",
    "Tracer",
    "TraceRecord",
]

"""Deterministic discrete-event simulation kernel.

Public surface:

- :class:`Simulator` — the event loop and clock;
- :class:`Event`, :class:`Timeout`, :class:`AllOf`, :class:`AnyOf` — waitables;
- :class:`Process`, :class:`Interrupted` — generator-based processes;
- :class:`RngRegistry` — named deterministic random streams;
- :class:`Tracer` — structured trace recording.
"""

from .engine import (
    PRIORITY_HIGH,
    PRIORITY_LOW,
    PRIORITY_NORMAL,
    SimulationError,
    Simulator,
    TimerHandle,
)
from .events import AllOf, AnyOf, Event, EventAlreadyTriggered, Timeout
from .process import Interrupted, Process
from .rng import RngRegistry, backoff_delay, jittered
from .trace import TraceRecord, Tracer

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
    "RngRegistry",
    "backoff_delay",
    "jittered",
    "Tracer",
    "TraceRecord",
]

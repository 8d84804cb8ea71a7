"""Volunteer host modelling: availability, churn, departures."""

from .availability import AvailabilityModel, ChurnController
from .traces import AvailabilityTrace, diurnal_trace

__all__ = [
    "AvailabilityModel",
    "ChurnController",
    "AvailabilityTrace",
    "diurnal_trace",
]

"""Discrete-event simulation substrate.

The engine (:mod:`repro.sim.core`) keeps virtual time in microseconds.
Resources, deterministic RNG streams, and measurement helpers live in
sibling modules and are re-exported here.
"""

from .core import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Process,
    Timeout,
)
from .randomness import RandomStreams, derive_seed
from .resources import Container, Resource, Store
from .stats import (
    Cdf,
    CounterSet,
    LatencyRecorder,
    TimeSeries,
    harmonic_mean,
    percentile,
)

__all__ = [
    "Environment",
    "Event",
    "Process",
    "Timeout",
    "AnyOf",
    "AllOf",
    "Resource",
    "Store",
    "Container",
    "RandomStreams",
    "derive_seed",
    "LatencyRecorder",
    "TimeSeries",
    "CounterSet",
    "Cdf",
    "percentile",
    "harmonic_mean",
]

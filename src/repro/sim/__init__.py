"""Discrete-event simulation engine (simpy substitute, offline-friendly).

Provides the process-oriented core the DHL operational simulator and the
distributed-ML simulator are built on: an event loop with virtual time,
generator-based processes, timeouts, interrupts, condition events and
shared-resource primitives.
"""

from .engine import (
    AllOf,
    AnyOf,
    Condition,
    Environment,
    Event,
    Interrupt,
    PENDING,
    Process,
    Timeout,
)
from .resources import Container, PriorityRequest, PriorityResource, Request, Resource, Store
from ..obs.metrics import TimeWeightedValue, UtilisationMonitor

__all__ = [
    "AllOf",
    "AnyOf",
    "Condition",
    "Container",
    "Environment",
    "Event",
    "Interrupt",
    "PENDING",
    "PriorityRequest",
    "PriorityResource",
    "Process",
    "Request",
    "Resource",
    "Store",
    "TimeWeightedValue",
    "Timeout",
    "UtilisationMonitor",
]

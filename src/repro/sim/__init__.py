"""Discrete-event fluid simulator for the cluster."""

from repro.sim.events import Event, EventKind
from repro.sim.fluid import FlowTable
from repro.sim.engine import Engine, EngineConfig

__all__ = [
    "Event",
    "EventKind",
    "FlowTable",
    "Engine",
    "EngineConfig",
]

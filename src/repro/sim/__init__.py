"""Discrete-event simulation kernel for the Plexus reproduction.

Public surface::

    from repro.sim import Engine, Event, Timeout, Process, DetachedProcess
    from repro.sim import Interrupt
    from repro.sim import Resource, Store, Signal
    from repro.sim import SchedulerCore, PartitionEngine, PartitionedSimulation
"""

from .engine import (
    AllOf,
    AnyOf,
    DetachedProcess,
    Engine,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Timeout,
)
from .partition import (
    Partition,
    PartitionEngine,
    PartitionedSimulation,
    sim_parallel_enabled,
)
from .resources import Resource, ResourceRequest, Signal, Store
from .scheduler import SchedulerCore
from .timers import TimerHandle, TimerWheel

__all__ = [
    "AllOf",
    "AnyOf",
    "DetachedProcess",
    "Engine",
    "Event",
    "Interrupt",
    "Partition",
    "PartitionEngine",
    "PartitionedSimulation",
    "Process",
    "Resource",
    "ResourceRequest",
    "Signal",
    "SchedulerCore",
    "SimulationError",
    "Store",
    "Timeout",
    "TimerHandle",
    "TimerWheel",
    "sim_parallel_enabled",
]

"""Deterministic simulated runtime for checked specifications."""

from .engine import (
    ERROR,
    GUARD_REJECTED,
    SUCCESS,
    LivelockError,
    Runtime,
)
from .scenario import (
    Halt,
    InjectEvent,
    Scenario,
    ScenarioError,
    SendMessage,
    SetMetric,
    Stimulus,
    parse_scenario,
)
from .state import EventOccurrence, RuntimeState, Trace

__all__ = [
    "ERROR",
    "GUARD_REJECTED",
    "SUCCESS",
    "EventOccurrence",
    "Halt",
    "InjectEvent",
    "LivelockError",
    "Runtime",
    "RuntimeState",
    "Scenario",
    "ScenarioError",
    "SendMessage",
    "SetMetric",
    "Stimulus",
    "Trace",
    "parse_scenario",
]

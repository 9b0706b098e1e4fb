"""Deterministic simulated runtime for checked specifications."""

from .engine import (
    ERROR,
    GUARD_REJECTED,
    SUCCESS,
    DepthLimitError,
    LivelockError,
    RunConfig,
    Runtime,
    run,
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
from .state import (
    Activation,
    Cause,
    EventOccurrence,
    Injected,
    RuntimeState,
    Trace,
    TraceRecord,
    Triggered,
)

__all__ = [
    "ERROR",
    "GUARD_REJECTED",
    "SUCCESS",
    "Activation",
    "Cause",
    "DepthLimitError",
    "EventOccurrence",
    "Halt",
    "Injected",
    "InjectEvent",
    "LivelockError",
    "RunConfig",
    "Runtime",
    "RuntimeState",
    "Scenario",
    "ScenarioError",
    "SendMessage",
    "SetMetric",
    "Stimulus",
    "Trace",
    "TraceRecord",
    "Triggered",
    "parse_scenario",
    "run",
]

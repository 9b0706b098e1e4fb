"""Runtime state, event occurrences, and the execution trace."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from ..names import Key, qual

# Trace record kinds. These exact strings appear in trace files.
EVENT_RAISED = "EventRaised"
EVENT_SUPPRESSED = "EventSuppressed"
FLUENT_INITIATED = "FluentInitiated"
FLUENT_TERMINATED = "FluentTerminated"
MAPPING_FIRED = "MappingFired"
ACTION_STARTED = "ActionStarted"
ACTION_SUCCEEDED = "ActionSucceeded"
ACTION_FAILED = "ActionFailed"
METRIC_ASSIGNED = "MetricAssigned"
MESSAGE_SENT = "MessageSent"
MESSAGE_RECEIVED = "MessageReceived"
ENSURES_VIOLATED = "EnsuresViolated"

RECORD_KINDS = (
    EVENT_RAISED,
    EVENT_SUPPRESSED,
    FLUENT_INITIATED,
    FLUENT_TERMINATED,
    MAPPING_FIRED,
    ACTION_STARTED,
    ACTION_SUCCEEDED,
    ACTION_FAILED,
    METRIC_ASSIGNED,
    MESSAGE_SENT,
    MESSAGE_RECEIVED,
    ENSURES_VIOLATED,
)


@dataclass(frozen=True)
class Activation:
    """An occurrence prompted by an ACTIVATION clause."""

    kind: str  # SENT | RECEIVED | CHANGED | ELAPSED
    source: str  # qualified message/metric name, or the period for ELAPSED

    def render(self) -> str:
        return f"activation {self.kind} {self.source}"


@dataclass(frozen=True)
class Triggered:
    action: Key
    on_error: bool = False

    def render(self) -> str:
        path = "error-triggered" if self.on_error else "triggered"
        return f"{path} by {qual(self.action)}"


@dataclass(frozen=True)
class Injected:
    note: str = "injected"

    def render(self) -> str:
        return self.note


Cause = Activation | Triggered | Injected


@dataclass(frozen=True)
class EventOccurrence:
    event: Key
    cause: Cause
    tick: int


@dataclass(frozen=True)
class TraceRecord:
    seq: int
    tick: int
    kind: str
    subject: str
    detail: str

    def render(self) -> str:
        return f"{self.seq}\t{self.tick}\t{self.kind}\t{self.subject}\t{self.detail}"


class Trace:
    """Append-only, totally ordered record of one run."""

    def __init__(self) -> None:
        self.records: list[TraceRecord] = []
        self.aborted: str | None = None

    def append(self, tick: int, kind: str, subject: str, detail: str = "") -> None:
        self.records.append(TraceRecord(len(self.records), tick, kind, subject, detail))

    def to_text(self) -> str:
        lines = [record.render() for record in self.records]
        if self.aborted is not None:
            lines.append(f"# aborted: {self.aborted}")
        return "\n".join(lines) + "\n" if lines else ""

    def find(self, kind: str, subject: str | None = None) -> list[TraceRecord]:
        return [
            r
            for r in self.records
            if r.kind == kind and (subject is None or r.subject == subject)
        ]

    def summary(self) -> dict[str, int]:
        counts = {
            "records": len(self.records),
            "ticks": self.records[-1].tick if self.records else 0,
            "events_raised": 0,
            "events_suppressed": 0,
            "fluents_initiated": 0,
            "fluents_terminated": 0,
        }
        for record in self.records:
            if record.kind == EVENT_RAISED:
                counts["events_raised"] += 1
            elif record.kind == EVENT_SUPPRESSED:
                counts["events_suppressed"] += 1
            elif record.kind == FLUENT_INITIATED:
                counts["fluents_initiated"] += 1
            elif record.kind == FLUENT_TERMINATED:
                counts["fluents_terminated"] += 1
        return counts


@dataclass
class RuntimeState:
    """Mutable state of one running system.

    ``channels`` maps each channel to its FIFO queue of (message key, sender
    element) pairs; queue length never exceeds the declared capacity.
    ``timers`` holds the next firing tick for each ELAPSED activation slot,
    parallel to the engine's slot table. ``last_event`` is the most recently
    raised (not suppressed) event, used for event atoms in verification.
    """

    tick: int
    fluents: dict[Key, bool]
    metrics: dict[Key, object]
    channels: dict[Key, list[tuple[Key, str]]]
    pending: deque[EventOccurrence]
    timers: list[int]
    last_event: Key | None = None

    def copy(self) -> "RuntimeState":
        return RuntimeState(
            tick=self.tick,
            fluents=dict(self.fluents),
            metrics=dict(self.metrics),
            channels={key: list(queue) for key, queue in self.channels.items()},
            pending=deque(self.pending),
            timers=list(self.timers),
            last_event=self.last_event,
        )

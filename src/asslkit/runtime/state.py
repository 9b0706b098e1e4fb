"""Runtime state and the execution trace.

The pending queue holds ``EventOccurrence``s, ``(event, cause)`` pairs the
program interned when it was built; only an injected stimulus makes a new
one. Trace records are ``NamedTuple``s, one per recorded step, built with
``tuple.__new__``, which skips the Python-level ``__new__``. A record holds
text the program rendered before the run (names, fixed details, causes);
only metric values are rendered while running. ``Trace.to_text`` formats
each record with a single f-string.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

# Occurrences live next to the program that interns them; they are exported
# from here and from ``asslkit.runtime`` too.
from ..program import EventOccurrence, Key

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


class TraceRecord(NamedTuple):
    seq: int
    tick: int
    kind: str
    subject: str
    detail: str

    def render(self) -> str:
        return f"{self.seq}\t{self.tick}\t{self.kind}\t{self.subject}\t{self.detail}"


_new = tuple.__new__


class Trace:
    """Append-only, totally ordered record of one run."""

    def __init__(self) -> None:
        self.records: list[TraceRecord] = []
        self.aborted: str | None = None

    def append(self, tick: int, kind: str, subject: str, detail: str = "") -> None:
        records = self.records
        records.append(_new(TraceRecord, (len(records), tick, kind, subject, detail)))

    def to_text(self) -> str:
        lines = [
            f"{seq}\t{tick}\t{kind}\t{subject}\t{detail}\n"
            for seq, tick, kind, subject, detail in self.records
        ]
        if self.aborted is not None:
            lines.append(f"# aborted: {self.aborted}\n")
        return "".join(lines)

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

    ``channels`` maps each channel to its FIFO queue of message keys; queue
    length never exceeds the declared capacity.
    ``timers`` holds the next firing tick for each ELAPSED activation slot,
    parallel to the engine's slot table. ``last_event`` is the most recently
    raised (not suppressed) event, used for event atoms in verification.
    """

    tick: int
    fluents: dict[Key, bool]
    metrics: dict[Key, object]
    channels: dict[Key, list[Key]]
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

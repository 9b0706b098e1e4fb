"""Runtime state and the execution trace.

The pending queue holds ``EventOccurrence``s, ``(event, cause)`` pairs the
program interned when it was built; only an injected stimulus makes a new
one. A trace stores one plain tuple ``(tick, kind, subject, detail)`` per
recorded step in ``Trace.rows``; a record's seq is its index there. CPython's
cyclic garbage collector stops tracking a tuple once it sees that the tuple
holds only untracked values such as ints and strings, but it does so only
for an exact ``tuple``, not for a subclass such as a ``NamedTuple``. So a
plain row drops out of the collector at its first collection, where a
``NamedTuple`` record would be walked again by every collection of its
generation for the rest of the run. ``Trace.records`` is a view of
``TraceRecord``s, built on each access from the rows, for callers that want
named fields; nothing in the toolchain itself reads it. A row holds text the
program rendered before the run (names, fixed details, causes); only assigned
metric values and the ``by <element> over <channel>`` detail of a delivered
message are rendered while running. ``Trace.to_text`` formats each row with
a single f-string.
"""

from __future__ import annotations

from collections import Counter, deque
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


class TraceRecord(NamedTuple):
    seq: int
    tick: int
    kind: str
    subject: str
    detail: str


class Trace:
    """Append-only, totally ordered record of one run; ``rows`` is its only store."""

    def __init__(self) -> None:
        self.rows: list[tuple[int, str, str, str]] = []
        self.aborted: str | None = None

    def append(self, tick: int, kind: str, subject: str, detail: str = "") -> None:
        self.rows.append((tick, kind, subject, detail))

    @property
    def records(self) -> list[TraceRecord]:
        """A new list of ``TraceRecord``s, one per row, on every access."""
        return [TraceRecord(seq, *row) for seq, row in enumerate(self.rows)]

    def to_text(self) -> str:
        lines = [
            f"{seq}\t{tick}\t{kind}\t{subject}\t{detail}\n"
            for seq, (tick, kind, subject, detail) in enumerate(self.rows)
        ]
        if self.aborted is not None:
            lines.append(f"# aborted: {self.aborted}\n")
        return "".join(lines)

    def find(self, kind: str, subject: str | None = None) -> list[TraceRecord]:
        return [
            TraceRecord(seq, *row)
            for seq, row in enumerate(self.rows)
            if row[1] == kind and (subject is None or row[2] == subject)
        ]

    def summary(self) -> dict[str, int]:
        rows = self.rows
        kinds = Counter(row[1] for row in rows)
        return {
            "records": len(rows),
            "ticks": rows[-1][0] if rows else 0,
            "events_raised": kinds[EVENT_RAISED],
            "events_suppressed": kinds[EVENT_SUPPRESSED],
            "fluents_initiated": kinds[FLUENT_INITIATED],
            "fluents_terminated": kinds[FLUENT_TERMINATED],
        }


@dataclass(slots=True)
class RuntimeState:
    """Mutable state of one running system.

    ``fluents``, ``metrics`` and ``channels`` are lists indexed by the slots
    of the spec's ``Program``: a fluent's flag, a metric's value, and a
    channel's FIFO queue of message keys, never longer than its capacity.
    ``timers`` holds the next firing tick of each ELAPSED activation,
    parallel to ``Program.timer_slots``. The state holds no record of the
    last raised event: ``Runtime.step`` returns it, and only the verifier
    stores it.

    The class has ``__slots__``, so a state is six attribute slots and no
    instance dict. The verifier stores no ``RuntimeState`` and copies none:
    for each successor it computes, it builds one from a state vector for
    one move, with the vector's tuples as its parts. A part given as a
    tuple is copied into a list when the runtime first writes it (see
    ``asslkit.runtime.engine``), so the parts a move does not write stay
    the vector's own.
    """

    tick: int
    fluents: list[bool]
    metrics: list[object]
    channels: list[list[Key]]
    pending: deque[EventOccurrence]
    timers: list[int]

    def copy(self) -> "RuntimeState":
        """An independent copy with list parts, whether this state's parts
        are lists or a state vector's tuples."""
        return RuntimeState(
            tick=self.tick,
            fluents=list(self.fluents),
            metrics=list(self.metrics),
            channels=[list(queue) for queue in self.channels],
            pending=deque(self.pending),
            timers=list(self.timers),
        )

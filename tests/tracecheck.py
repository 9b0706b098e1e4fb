"""Trace-level invariant checkers shared by runtime and acceptance tests."""

from __future__ import annotations

from types import SimpleNamespace

from asslkit.checker import CheckedSpec
from asslkit.names import qual
from asslkit.nodes import ActionDecl
from asslkit.runtime import Runtime, Trace
from asslkit.runtime.state import (
    ACTION_STARTED,
    EVENT_RAISED,
    FLUENT_INITIATED,
    FLUENT_TERMINATED,
    MAPPING_FIRED,
    MESSAGE_RECEIVED,
    MESSAGE_SENT,
    METRIC_ASSIGNED,
)
from oracles import reference_eval_expr


def rows_of(trace: Trace, kind: str, subject: str | None = None) -> list[tuple]:
    """The trace's rows of one kind (and subject), each as ``(seq, tick, kind,
    subject, detail)``: a row's seq is its index in ``Trace.rows``."""
    return [
        (seq, *row)
        for seq, row in enumerate(trace.rows)
        if row[1] == kind and (subject is None or row[2] == subject)
    ]


def check_alternation(trace: Trace) -> list[str]:
    """Strict FluentInitiated/FluentTerminated alternation per fluent."""
    active: dict[str, bool] = {}
    problems = []
    for seq, (_tick, kind, subject, _detail) in enumerate(trace.rows):
        if kind == FLUENT_INITIATED:
            if active.get(subject, False):
                problems.append(f"double initiation of {subject} at seq {seq}")
            active[subject] = True
        elif kind == FLUENT_TERMINATED:
            if not active.get(subject, False):
                problems.append(f"termination of inactive {subject} at seq {seq}")
            active[subject] = False
    return problems


def check_queue_bounds(spec: CheckedSpec, trace: Trace) -> list[str]:
    """Running sent-minus-received per channel never exceeds its capacity."""
    capacities = {qual(key): decl.capacity for key, decl in spec.symbols.channels.items()}
    in_flight: dict[str, int] = {}
    problems = []
    for seq, (_tick, kind, _subject, detail) in enumerate(trace.rows):
        if kind == MESSAGE_SENT and "dropped" not in detail:
            channel = detail.split()[1]
            in_flight[channel] = in_flight.get(channel, 0) + 1
            if in_flight[channel] > capacities.get(channel, 10**9):
                problems.append(f"channel {channel} over capacity at seq {seq}")
        elif kind == MESSAGE_RECEIVED:
            channel = detail.split()[-1]
            in_flight[channel] = in_flight.get(channel, 0) - 1
    return problems


def check_guard_soundness(spec: CheckedSpec, trace: Trace) -> list[str]:
    """Replay metric and fluent history; action guards must hold at start.

    Action guards cannot reference call bindings (the checker rejects that),
    so the trace history fully determines their value. The replayed state
    maps each ``(tier, name)`` key to its value, read at its slot in the
    runtime's initial state.
    """
    program = spec.program
    initial = Runtime(spec, record=False).init()
    state = SimpleNamespace(
        metrics={key: initial.metrics[program.metric_slot[key]] for key in program.metric_keys},
        fluents={key: initial.fluents[program.fluent_slot[key]] for key in program.fluent_keys},
    )
    problems = []
    for seq, (_tick, kind, subject, detail) in enumerate(trace.rows):
        if kind == METRIC_ASSIGNED:
            tier, name = subject.split(".", 1)
            decl = spec.symbols.lookup(tier, "metrics", name)
            new_text = detail.split(" -> ")[1]
            from asslkit.runtime.scenario import parse_value

            state.metrics[(tier, name)] = parse_value(new_text, decl.value_type)
        elif kind == FLUENT_INITIATED:
            tier, name = subject.split(".", 1)
            state.fluents[(tier, name)] = True
        elif kind == FLUENT_TERMINATED:
            tier, name = subject.split(".", 1)
            state.fluents[(tier, name)] = False
        elif kind == ACTION_STARTED:
            tier, name = subject.split(".", 1)
            action = spec.symbols.lookup(tier, "actions", name)
            assert isinstance(action, ActionDecl)
            if action.guard is not None and not reference_eval_expr(action.guard, state, tier):
                problems.append(f"action {subject} started with a false guard at seq {seq}")
    return problems


def check_mapping_edges(spec: CheckedSpec, trace: Trace) -> list[str]:
    """Between firings of one mapping, some condition fluent was terminated.

    Mapping subjects encode their policy and index, so the condition list can
    be recovered from the specification.
    """
    conditions: dict[str, tuple[str, ...]] = {}
    for tier in spec.tree.tiers():
        for policy in tier.policies:
            for index, mapping in enumerate(policy.mappings):
                subject = f"{tier.name}.{policy.name}.mapping[{index}]"
                conditions[subject] = tuple(
                    f"{tier.name}.{ref.name}" for ref in mapping.conditions
                )
    last_fired: dict[str, int] = {}
    terminations = rows_of(trace, FLUENT_TERMINATED)
    problems = []
    for seq, _tick, _kind, subject, _detail in rows_of(trace, MAPPING_FIRED):
        previous = last_fired.get(subject)
        if previous is not None:
            window = {
                fluent for at, _t, _k, fluent, _d in terminations if previous < at < seq
            }
            if not window.intersection(conditions[subject]):
                problems.append(
                    f"{subject} re-fired at seq {seq} with no"
                    " condition fluent terminated since its previous firing"
                )
        last_fired[subject] = seq
    return problems


def check_causality(trace: Trace) -> list[str]:
    """Every raised event's cause names a subject already seen (or a stimulus)."""
    seen_subjects: set[str] = set()
    problems = []
    for seq, (_tick, kind, subject, detail) in enumerate(trace.rows):
        if kind == EVENT_RAISED:
            if detail.startswith(("triggered by ", "error-triggered by ")):
                source = detail.split(" by ", 1)[1]
                if source not in seen_subjects:
                    problems.append(f"event {subject} caused by unseen {source} at seq {seq}")
            elif detail.startswith("activation "):
                parts = detail.split()
                if parts[1] in ("CHANGED", "SENT", "RECEIVED") and parts[2] not in seen_subjects:
                    problems.append(
                        f"event {subject} activated by unseen {parts[2]} at seq {seq}"
                    )
        seen_subjects.add(subject)
    return problems

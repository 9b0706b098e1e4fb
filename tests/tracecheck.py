"""Trace-level invariant checkers shared by runtime and acceptance tests."""

from __future__ import annotations

from types import SimpleNamespace

from asslkit.checker import CheckedSpec
from asslkit.names import qual
from asslkit.nodes import ActionDecl
from asslkit.runtime import Runtime, Trace
from asslkit.runtime.state import (
    ACTION_STARTED,
    FLUENT_INITIATED,
    FLUENT_TERMINATED,
    MESSAGE_RECEIVED,
    MESSAGE_SENT,
    METRIC_ASSIGNED,
)
from oracles import reference_eval_expr


def check_alternation(trace: Trace) -> list[str]:
    """Strict FluentInitiated/FluentTerminated alternation per fluent."""
    active: dict[str, bool] = {}
    problems = []
    for record in trace.records:
        if record.kind == FLUENT_INITIATED:
            if active.get(record.subject, False):
                problems.append(f"double initiation of {record.subject} at seq {record.seq}")
            active[record.subject] = True
        elif record.kind == FLUENT_TERMINATED:
            if not active.get(record.subject, False):
                problems.append(f"termination of inactive {record.subject} at seq {record.seq}")
            active[record.subject] = False
    return problems


def check_queue_bounds(spec: CheckedSpec, trace: Trace) -> list[str]:
    """Running sent-minus-received per channel never exceeds its capacity."""
    capacities = {qual(key): decl.capacity for key, decl in spec.symbols.channels.items()}
    in_flight: dict[str, int] = {}
    problems = []
    for record in trace.records:
        if record.kind == MESSAGE_SENT and "dropped" not in record.detail:
            channel = record.detail.split()[1]
            in_flight[channel] = in_flight.get(channel, 0) + 1
            if in_flight[channel] > capacities.get(channel, 10**9):
                problems.append(f"channel {channel} over capacity at seq {record.seq}")
        elif record.kind == MESSAGE_RECEIVED:
            channel = record.detail.split()[-1]
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
    for record in trace.records:
        if record.kind == METRIC_ASSIGNED:
            tier, name = record.subject.split(".", 1)
            decl = spec.symbols.lookup(tier, "metrics", name)
            new_text = record.detail.split(" -> ")[1]
            from asslkit.runtime.scenario import parse_value

            state.metrics[(tier, name)] = parse_value(new_text, decl.value_type)
        elif record.kind == FLUENT_INITIATED:
            tier, name = record.subject.split(".", 1)
            state.fluents[(tier, name)] = True
        elif record.kind == FLUENT_TERMINATED:
            tier, name = record.subject.split(".", 1)
            state.fluents[(tier, name)] = False
        elif record.kind == ACTION_STARTED:
            tier, name = record.subject.split(".", 1)
            action = spec.symbols.lookup(tier, "actions", name)
            assert isinstance(action, ActionDecl)
            if action.guard is not None and not reference_eval_expr(action.guard, state, tier):
                problems.append(
                    f"action {record.subject} started with a false guard at seq {record.seq}"
                )
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
    terminations: list[tuple[int, str]] = [
        (r.seq, r.subject) for r in trace.records if r.kind == FLUENT_TERMINATED
    ]
    problems = []
    for record in trace.records:
        if record.kind != "MappingFired":
            continue
        previous = last_fired.get(record.subject)
        if previous is not None:
            window = {
                subject for seq, subject in terminations if previous < seq < record.seq
            }
            if not window.intersection(conditions[record.subject]):
                problems.append(
                    f"{record.subject} re-fired at seq {record.seq} with no"
                    " condition fluent terminated since its previous firing"
                )
        last_fired[record.subject] = record.seq
    return problems


def check_causality(trace: Trace) -> list[str]:
    """Every raised event's cause names a subject already seen (or a stimulus)."""
    seen_subjects: set[str] = set()
    problems = []
    for record in trace.records:
        if record.kind == "EventRaised":
            detail = record.detail
            if detail.startswith(("triggered by ", "error-triggered by ")):
                source = detail.split(" by ", 1)[1]
                if source not in seen_subjects:
                    problems.append(
                        f"event {record.subject} caused by unseen {source} at seq {record.seq}"
                    )
            elif detail.startswith("activation "):
                parts = detail.split()
                if parts[1] in ("CHANGED", "SENT", "RECEIVED") and parts[2] not in seen_subjects:
                    problems.append(
                        f"event {record.subject} activated by unseen {parts[2]}"
                        f" at seq {record.seq}"
                    )
        seen_subjects.add(record.subject)
    return problems

"""Independent oracles the verifier is checked against.

``brute_force_lts`` enumerates the reachable graph with its own depth-first
bookkeeping, keyed by state vectors rather than discovery ids, so it shares
no exploration machinery with the breadth-first ``build_lts`` it
cross-checks. It also projects states onto vectors itself, by key lookup,
instead of through ``Layout.vector``, which reads the runtime's dicts in
slot order.
``exhaustive_check`` evaluates a temporal property by enumerating every
maximal path (stopping each branch at its first lasso or dead end) and
applying the shape's semantics directly to the path.
``reference_advance_tick`` is the clock step as a full scan: a shuffle of
all elements on every tick, and every element visiting every channel and
every timer slot it owns.
"""

from __future__ import annotations

import random

from asslkit.names import qual
from asslkit.runtime.engine import RunConfig, Runtime
from asslkit.runtime.state import MESSAGE_RECEIVED, Activation, EventOccurrence
from asslkit.verifier import Lts, TemporalProperty, Tick, eval_prop
from asslkit.verifier.lts import Layout, StateVector
from asslkit.verifier.props import (
    F_SHAPE,
    G_SHAPE,
    NEXT_SHAPE,
    RESPONSE_SHAPE,
    UNTIL_SHAPE,
)


def brute_force_lts(spec, env, state_cap: int = 5000):
    """(states, edges, labelings, initial) keyed by state vectors."""
    runtime = Runtime(spec, seed=0, config=RunConfig(interleave="declared"), record=False)
    layout = Layout(runtime)
    init_state = runtime.init()
    init_vec = project(layout, init_state)

    states: dict[StateVector, object] = {}
    edges: set[tuple[StateVector, str, StateVector]] = set()
    stack = [(init_vec, init_state)]
    while stack:
        vec, state = stack.pop()
        if vec in states:
            continue
        states[vec] = state
        if state.pending:
            nxt = state.copy()
            event = runtime.step(nxt)
            nxt_vec = project(layout, nxt)
            edges.add((vec, f"proc {qual(event)}", nxt_vec))
            stack.append((nxt_vec, nxt))
        else:
            for stimulus in env:
                nxt = state.copy()
                if isinstance(stimulus, Tick):
                    runtime.advance_tick(nxt)
                else:
                    runtime.apply_stimulus(nxt, stimulus)
                nxt_vec = project(layout, nxt)
                edges.add((vec, stimulus.render(), nxt_vec))
                stack.append((nxt_vec, nxt))
        assert len(states) <= state_cap, "oracle exploration exceeded its cap"

    labelings = {vec: _label(layout, vec) for vec in states}
    return set(states), edges, labelings, init_vec


def reference_advance_tick(runtime: Runtime, state) -> None:
    """``Runtime.advance_tick`` by scanning every element x channel each tick."""
    state.tick += 1
    state.last_event = None
    order = list(runtime.elements)
    if runtime.config.interleave == "seeded" and len(order) > 1:
        random.Random(runtime.seed * 1_000_003 + state.tick).shuffle(order)
    for elem in order:
        for channel in runtime.channel_keys:
            queue = state.channels[channel]
            if not queue:
                continue
            remaining = []
            for message, sender in queue:
                if runtime.message_decls[message].receiver != elem:
                    remaining.append((message, sender))
                    continue
                if runtime.trace is not None:
                    runtime.trace.append(
                        state.tick, MESSAGE_RECEIVED, qual(message),
                        f"by {elem} over {qual(channel)}",
                    )
                for event in runtime.received_subs.get(message, ()):
                    state.pending.append(
                        EventOccurrence(event, Activation("RECEIVED", qual(message)), state.tick)
                    )
            state.channels[channel] = remaining
    for elem in order:
        for slot in runtime.timers_by_element[elem]:
            if state.timers[slot] <= state.tick:
                event, period = runtime.timer_slots[slot]
                state.pending.append(
                    EventOccurrence(event, Activation("ELAPSED", str(period)), state.tick)
                )
                state.timers[slot] = state.tick + period


def project(layout: Layout, state) -> StateVector:
    """The state vector of ``state``, looked up key by key."""
    return StateVector(
        fluents=tuple(state.fluents[key] for key in layout.fluent_keys),
        metrics=tuple(state.metrics[key] for key in layout.metric_keys),
        channels=tuple(
            tuple(message for message, _sender in state.channels[key])
            for key in layout.channel_keys
        ),
        pending=tuple(occ.event for occ in state.pending),
        timers=tuple(t - state.tick for t in state.timers),
        last_event=state.last_event,
    )


def _label(layout: Layout, vec: StateVector) -> frozenset[str]:
    from asslkit.nodes import render_value, type_of_value

    props = {
        f"fluent:{qual(key)}"
        for key, active in zip(layout.fluent_keys, vec.fluents)
        if active
    }
    for key, value in zip(layout.metric_keys, vec.metrics):
        props.add(f"metric:{qual(key)}={render_value(value, type_of_value(value))}")
    if vec.last_event is not None:
        props.add(f"event:{qual(vec.last_event)}")
    return frozenset(props)


def lts_as_sets(lts: Lts):
    """Project a built Lts onto vector-keyed sets for oracle comparison."""
    states = set(lts.states)
    edges = {
        (lts.states[src], label, lts.states[dst]) for src, label, dst in lts.edges
    }
    labelings = {
        lts.states[i]: lts.labeling(i) for i in range(lts.state_count)
    }
    return states, edges, labelings, lts.states[lts.initial]


# --------------------------------------------------------------------------
# Exhaustive path semantics


def all_maximal_paths(lts: Lts, cap: int = 200_000):
    """Every maximal path as (state ids, loop_start or None for dead ends)."""
    paths = []
    initial = lts.initial

    def successors(state):
        return [dst for _label, dst in lts.successors(state)]

    stack = [(initial, [initial], {initial: 0})]
    while stack:
        node, path, on_path = stack.pop()
        succ = successors(node)
        if not succ:
            paths.append((list(path), None))
            continue
        for dst in succ:
            if dst in on_path:
                paths.append((list(path), on_path[dst]))
            else:
                stack.append((dst, path + [dst], {**on_path, dst: len(path)}))
        assert len(paths) <= cap, "path enumeration exceeded its cap"
    return paths


def exhaustive_check(lts: Lts, prop: TemporalProperty) -> str:
    """'Holds' or 'Violated' by direct evaluation over every maximal path."""
    assert not lts.truncated, "the path oracle needs a complete graph"

    def p_at(state_id: int) -> bool:
        return eval_prop(prop.p, lts.states[state_id], lts.layout)

    def q_at(state_id: int) -> bool:
        assert prop.q is not None
        return eval_prop(prop.q, lts.states[state_id], lts.layout)

    for path, loop_start in all_maximal_paths(lts):
        if _path_violates(prop, path, loop_start, p_at, q_at):
            return "Violated"
    return "Holds"


def _path_violates(prop, path, loop_start, p_at, q_at) -> bool:
    n = len(path)
    infinite = loop_start is not None
    if prop.shape == G_SHAPE:
        return any(not p_at(s) for s in path)
    if prop.shape == F_SHAPE:
        return not any(p_at(s) for s in path)
    if prop.shape == RESPONSE_SHAPE:
        for i in range(n):
            if not p_at(path[i]):
                continue
            future = path[i:]
            if infinite and i >= loop_start:
                future = path[i:] + path[loop_start:]
            elif infinite:
                future = path[i:]
            if not any(q_at(s) for s in future):
                return True
        return False
    if prop.shape == NEXT_SHAPE:
        for i in range(n):
            if not p_at(path[i]):
                continue
            if i + 1 < n:
                nxt = path[i + 1]
            elif infinite:
                nxt = path[loop_start]
            else:
                return True  # no next state
            if not q_at(nxt):
                return True
        return False
    assert prop.shape == UNTIL_SHAPE
    for i in range(n):
        if q_at(path[i]):
            return False  # satisfied: p held at all j < i or we bailed earlier
        if not p_at(path[i]):
            return True
    # q never held along the whole (possibly infinite) path
    return True

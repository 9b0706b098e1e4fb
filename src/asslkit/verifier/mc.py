"""Checking temporal properties over a bounded LTS.

Each shape's negation is an obligation read against the graph, as in the
automata-theoretic approach (Vardi & Wolper, LICS 1986), with one row of
``_OBLIGATIONS`` per shape:

    shape         anchors       stay     bad       one step
    G p           every state   -        !p        no
    F p           state 0       !p       -         no
    G (p -> F q)  the p states  !q       -         no
    G (p -> X q)  the p states  -        !q        yes
    p U q         state 0       p & !q   !p & !q   no

An obligation starts at an anchor and lasts while the path stays in the
region ``stay``. Reaching a ``bad`` state breaks it, and so does staying in
the region for good: a cycle inside it (a lasso) or a genuine dead end in
it. A one-step obligation breaks at the anchor's own dead end or on an edge
from the anchor into ``bad``.

``check`` looks for the finite witnesses first, anchor by anchor in id
order: a ``bad`` anchor, else the first edge into ``bad`` that a BFS inside
the region from the anchor meets. Then for the infinite ones, one SCC pass
over the part of the region that the anchors reach (``_cycles_and_escapes``)
flags the states on a cycle inside it and the states that reach, inside it,
a cyclic state or a dead end; a BFS inside the region from the first
escaping anchor finds the target. Regions are ``list[bool]`` by state id,
worked out once per observation (see ``Lts.observations``).

On a truncated LTS a would-be Holds verdict downgrades to Inconclusive,
because the cut frontier could still hide a violation; Violated verdicts
stand, since every witness found in a sub-graph exists in the full graph
(states whose expansion was cut are never treated as dead ends). Raising
bounds can therefore only resolve Inconclusive, never flip a verdict.

Every counterexample replays in the runtime: stimulus edges exist only at
quiescent states, so the stem maps directly onto a scenario, and processing
edges are the runtime's own deterministic drain steps. A path into an
event-cascade livelock also replays step by step, but not as a scenario run:
the drain never ends, so ``asslkit run`` aborts it. Since ``proc`` edges are
deterministic, a counterexample whose violating state is followed by a chain
of ``proc`` successors that repeats a state before reaching a quiescent one
is one of these; its kind is ``livelock`` and ``explain`` says so.

Stems are read from the edges: ``build_lts`` numbers states in breadth-first
order and keeps adjacency label ordered, so the edge that discovered a state
is its first in-edge from the lower-numbered states. Following those edges
back gives the shortest, lexicographically least path to the anchor; past
the anchor, a stem is shortest inside the region, not in the whole graph.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, replace
from typing import NamedTuple

from ..checker import CheckedSpec
from ..names import qual
from ..runtime.engine import Runtime
from ..runtime.scenario import Halt, Scenario, Stimulus, Tick, parse_stimulus
from .lts import Layout, Lts, StateVector
from .props import (
    F_SHAPE,
    G_SHAPE,
    NEXT_SHAPE,
    RESPONSE_SHAPE,
    UNTIL_SHAPE,
    TemporalProperty,
    eval_prop,
)

HOLDS = "Holds"
VIOLATED = "Violated"
INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class Counterexample:
    """A finite path, optionally closed by a loop (a lasso).

    ``stem`` and ``loop`` are (edge label, target state) pairs; the stem
    starts at the initial state and ends where the failing obligation is
    evaluated, ``violating_state``; for lassos that is the loop entry.
    """

    kind: str  # "safety" | "lasso" | "deadend" | "next" | "livelock"
    stem: tuple[tuple[str, int], ...]
    loop: tuple[tuple[str, int], ...]
    failing_atom: str
    # For a livelock, the ``proc`` steps from ``violating_state`` up to the
    # first repeated state; empty otherwise.
    livelock: tuple[tuple[str, int], ...] = ()

    @property
    def violating_state(self) -> int:
        return self.stem[-1][1] if self.stem else 0


@dataclass(frozen=True)
class Verdict:
    result: str
    prop: TemporalProperty
    counterexample: Counterexample | None = None
    note: str = ""


class _Obligation(NamedTuple):
    """One shape's negation, read as the module text says."""

    # from the observation id of each state and the truth of p per observation
    anchors: Callable[[list[int], list[bool]], Sequence[int]]
    # from the truth of p and q at a state (q is p for the one-operand shapes)
    stay: Callable[[bool, bool], bool] | None
    bad: Callable[[bool, bool], bool] | None
    one_step: bool
    # failing-atom texts of a witness at an anchor, on an edge into ``bad``
    # and for good; ``{p}`` and ``{q}`` are rendered for the witness found
    texts: tuple[str, str, str]


def _p_states(ids: list[int], p: list[bool]) -> Sequence[int]:
    return [state for state, obs in enumerate(ids) if p[obs]]


_OBLIGATIONS = {
    G_SHAPE: _Obligation(
        lambda ids, p: range(len(ids)), None, lambda p, q: not p, False,
        ("{p} is false", "", ""),
    ),
    F_SHAPE: _Obligation(
        lambda ids, p: [0], lambda p, q: not p, None, False,
        ("", "", "{p} never holds on this path"),
    ),
    RESPONSE_SHAPE: _Obligation(
        _p_states, lambda p, q: not q, None, False,
        ("", "", "{p} holds but {q} never follows"),
    ),
    NEXT_SHAPE: _Obligation(
        _p_states, None, lambda p, q: not q, True,
        ("{p} holds at a state with no successor", "{q} is false at the next state", ""),
    ),
    UNTIL_SHAPE: _Obligation(
        lambda ids, p: [0], lambda p, q: p and not q, lambda p, q: not p and not q, False,
        (
            "neither {p} nor {q} holds initially",
            "{p} fails before {q} held",
            "{q} never holds while {p} persists",
        ),
    ),
}


def check(lts: Lts, prop: TemporalProperty) -> Verdict:
    """Deterministic verdict for one property over one LTS, from the first
    witness against its obligation in the order the module text gives."""
    row = _OBLIGATIONS[prop.shape]
    ids, observed = lts.observations
    p = [eval_prop(prop.p, vec, event, lts.program) for vec, event in observed]
    q = p if prop.q is None else [eval_prop(prop.q, vec, event, lts.program) for vec, event in observed]

    def per_state(rule: Callable[[bool, bool], bool]) -> list[bool]:
        per_observation = [rule(x, y) for x, y in zip(p, q)]
        return [per_observation[obs] for obs in ids]

    def violated(kind: str, stem, loop, text: str) -> Verdict:
        atom = text.format(p=prop.p.render(), q=prop.q.render() if prop.q else "")
        cex = Counterexample(kind, stem, loop, atom)
        cycle = _livelock_cycle(lts, cex.violating_state)
        if cycle:
            cex = replace(cex, kind="livelock", livelock=cycle)
        return Verdict(VIOLATED, prop, cex)

    anchors = row.anchors(ids, p)
    stay = per_state(row.stay) if row.stay else None
    bad = per_state(row.bad) if row.bad else None
    at_anchor, on_edge, for_good = row.texts
    if bad is not None:
        for anchor in anchors:
            if row.one_step:
                if is_dead_end(lts, anchor):
                    return violated("deadend", path_to(lts, anchor), (), at_anchor)
                parent, order = {}, [anchor]
            elif bad[anchor]:
                return violated("safety", path_to(lts, anchor), (), at_anchor)
            elif stay is not None and stay[anchor]:
                parent, order = region_bfs(lts, anchor, stay)
            else:
                continue
            for src in order:
                for label, dst in lts.succ[src]:
                    if bad[dst]:
                        stem = path_to(lts, anchor) + _path(parent, anchor, src)
                        kind = "next" if row.one_step else "safety"
                        return violated(kind, stem + ((label, dst),), (), on_edge)
    if stay is not None:
        roots = [anchor for anchor in anchors if stay[anchor]]
        cyclic, escape = _cycles_and_escapes(lts, stay, roots)
        for anchor in roots:
            if not escape[anchor]:
                continue
            parent, order = region_bfs(lts, anchor, stay)
            target = next(s for s in order if cyclic[s] or is_dead_end(lts, s))
            stem = path_to(lts, anchor) + _path(parent, anchor, target)
            if not cyclic[target]:
                return violated("deadend", stem, (), for_good)
            return violated("lasso", stem, loop_from(lts, target, stay), for_good)
    if lts.truncated:
        return Verdict(
            INCONCLUSIVE, prop, note="state space truncated by bounds; raise them to decide"
        )
    return Verdict(HOLDS, prop)


def _livelock_cycle(lts: Lts, state: int) -> tuple[tuple[str, int], ...]:
    """The ``proc`` steps from ``state`` up to the first repeated state.

    Empty when the chain of ``proc`` successors reaches a quiescent state,
    or a state whose expansion the bounds cut, before any state repeats.
    """
    steps: list[tuple[str, int]] = []
    seen = {state}
    while lts.states[state].pending:
        successors = lts.succ[state]
        if not successors:
            return ()
        ((label, state),) = successors  # a non-quiescent state only processes
        steps.append((label, state))
        if state in seen:
            return tuple(steps)
        seen.add(state)
    return ()


def path_to(lts: Lts, target: int) -> tuple[tuple[str, int], ...]:
    """The BFS-tree path from the initial state to ``target``. It scans
    the edges of states ``0`` to ``target - 1`` in order and keeps each
    state's first in-edge, the one that discovered it; once ``target``
    has its edge, so have all of its ancestors, which are numbered lower."""
    parent: dict[int, tuple[int, str]] = {}
    succ = lts.succ
    for src in range(target):
        for label, dst in succ[src]:
            if dst not in parent:
                parent[dst] = (src, label)
        if target in parent:
            break
    return _path(parent, 0, target)


def is_dead_end(lts: Lts, state: int) -> bool:
    return state not in lts.cut and not lts.succ[state]


def region_bfs(lts: Lts, start: int, region: list[bool]) -> tuple[dict[int, tuple[int, str]], list[int]]:
    """BFS from ``start``, a state of ``region``, restricted to the
    region; returns parents and visit order."""
    parent: dict[int, tuple[int, str]] = {}
    order = [start]
    for src in order:  # ``order`` grows as it is read, a FIFO queue
        for label, dst in lts.succ[src]:
            if region[dst] and dst != start and dst not in parent:
                parent[dst] = (src, label)
                order.append(dst)
    return parent, order


def loop_from(lts: Lts, entry: int, region: list[bool]) -> tuple[tuple[str, int], ...]:
    """Shortest cycle through ``entry`` inside ``region``, as edge steps."""
    parent, _order = region_bfs(lts, entry, region)
    # find the least-labeled edge closing the cycle back to entry
    best: tuple[tuple[str, int], ...] | None = None
    for src in [entry] + sorted(parent):
        for label, dst in lts.succ[src]:
            if dst != entry:
                continue
            candidate = _path(parent, entry, src) + ((label, entry),)
            if best is None or len(candidate) < len(best):
                best = candidate
            break  # successors are label-sorted; first closing edge is least
    assert best is not None, "loop_from called on a non-cyclic entry"
    return best


def _path(
    parent: dict[int, tuple[int, str]], anchor: int, target: int
) -> tuple[tuple[str, int], ...]:
    """Edge steps from ``anchor`` to ``target``, following the (parent, edge
    label) entries of a BFS rooted at ``anchor`` back from ``target``."""
    steps: list[tuple[str, int]] = []
    state = target
    while state != anchor:
        src, label = parent[state]
        steps.append((label, state))
        state = src
    steps.reverse()
    return tuple(steps)


def _cycles_and_escapes(lts: Lts, region: list[bool], roots: list[int]) -> tuple[list[bool], list[bool]]:
    """Two flags per state id: ``cyclic``, the state lies on a cycle inside
    ``region``; ``escape``, it reaches, inside the region, a cyclic state or
    a genuine dead end (not cut, no successors). Both are False for the
    states that no root in the region reaches inside it.

    One iterative Tarjan pass from the roots, in order. Components finish
    in reverse topological order, so when one is popped, every component it
    leads to is already flagged. Until then a state's ``escape`` entry says
    whether it is a dead end or has an edge into a flagged state; the popped
    component escapes if it is cyclic or any member's entry is set.
    """
    succ, cut = lts.succ, lts.cut
    count = len(region)
    index = [0] * count  # visit number from 1; 0 while unvisited
    low = [0] * count
    on_stack = [False] * count
    cyclic = [False] * count
    escape = [False] * count
    stack: list[int] = []
    visits = 0
    for root in roots:
        if not region[root] or index[root]:
            continue
        # (state, its in-region successors or None before the first visit,
        # index of the next successor to look at)
        work: list[tuple[int, list[int] | None, int]] = [(root, None, 0)]
        while work:
            state, successors, at = work.pop()
            if successors is None:
                visits += 1
                index[state] = low[state] = visits
                stack.append(state)
                on_stack[state] = True
                successors = [dst for _label, dst in succ[state] if region[dst]]
                escape[state] = state not in cut and not succ[state]
            else:  # back from the successor at ``at - 1``
                child = successors[at - 1]
                low[state] = min(low[state], low[child])
                escape[state] = escape[state] or escape[child]
            for i in range(at, len(successors)):
                dst = successors[i]
                if not index[dst]:
                    work.append((state, successors, i + 1))
                    work.append((dst, None, 0))
                    break
                if on_stack[dst]:
                    low[state] = min(low[state], index[dst])
                elif escape[dst]:
                    escape[state] = True
            else:
                if low[state] == index[state]:
                    component: list[int] = []
                    while True:
                        member = stack.pop()
                        on_stack[member] = False
                        component.append(member)
                        if member == state:
                            break
                    loops = len(component) > 1 or state in successors
                    escapes = loops or any(escape[member] for member in component)
                    for member in component:
                        cyclic[member] = loops
                        escape[member] = escapes
    return cyclic, escape


# --------------------------------------------------------------------------
# Rendering and replay


def explain(spec: CheckedSpec, lts: Lts, verdict: Verdict) -> tuple[str, Scenario]:
    """Human-readable step list plus a scenario reproducing the violation.

    Stimulus edges become scenario steps, one tick apart where the path
    advanced the clock; processing edges are the runtime's own drain and need
    no steps. The scenario halts right after the stem, at its last tick (the
    loop entry for lassos). ``spec`` is not read; callers pass it by position.
    """
    if verdict.result != VIOLATED or verdict.counterexample is None:
        raise ValueError("explain needs a Violated verdict")
    cex = verdict.counterexample

    lines = [f"property: {verdict.prop.text}"]
    lines.append(f"violation: {cex.failing_atom}")
    lines.append(f"initial state: {_state_line(lts, 0)}")
    for i, (label, state) in enumerate(cex.stem, start=1):
        lines.append(f"  step {i}: {label} -> {_state_line(lts, state)}")
    if cex.loop:
        lines.append("loop (repeats forever):")
        for label, state in cex.loop:
            lines.append(f"  ..... {label} -> {_state_line(lts, state)}")
    if cex.kind == "livelock":
        lines.append(
            f"livelock: the drain from s{cex.violating_state} never becomes quiescent,"
            " so a run of this path aborts; it repeats:"
        )
        for label, state in cex.livelock:
            lines.append(f"  ..... {label} -> {_state_line(lts, state)}")

    moves = {stim.render(): stim for stim in lts.env}
    steps: list[tuple[int, Stimulus]] = []
    tick = 0
    for label, _state in cex.stem:
        stimulus = moves.get(label)  # None on a proc edge
        if isinstance(stimulus, Tick):
            tick += 1
        elif stimulus is not None:
            steps.append((tick, stimulus))
    steps.append((tick, Halt()))
    return "\n".join(lines) + "\n", Scenario("counterexample", tuple(steps))


def _state_line(lts: Lts, state_id: int) -> str:
    props = sorted(
        p for p in lts.labeling(state_id)
        if not p.startswith("metric:") or p.endswith(("=true", "=false"))
    )
    return f"s{state_id} {{{', '.join(props)}}}"


def replay_counterexample(spec: CheckedSpec, lts: Lts, cex: Counterexample) -> StateVector:
    """Re-execute the stem with runtime operations; returns the final vector.

    The result equals ``lts.states[cex.violating_state]``, which tests assert
    to certify counterexample soundness. A ``proc`` step that does not name
    the head of the pending queue raises ``ValueError``.
    """
    runtime = Runtime(spec, seed=None, record=False)
    moves = {stim.render(): stim for stim in lts.env}
    state = runtime.init()
    for label, _target in cex.stem:
        stimulus = moves.get(label)
        if stimulus is None:
            head = qual(state.pending[0].event) if state.pending else None
            if head is None or label != f"proc {head}":
                raise ValueError(f"stem step {label!r} does not process the queue head, {head}")
            runtime.step(state)
        else:
            runtime.apply_stimulus(state, stimulus)
    return Layout.vector(state)


def parse_env_stimulus(spec: CheckedSpec, text: str):
    """Parse an environment stimulus: inject/set/send syntax or 'tick'.

    Raises :class:`ScenarioError` or :class:`NameResolutionError`.
    """
    text = text.strip()
    if text == "tick":
        return Tick()
    return parse_stimulus(text, spec)

"""Checking temporal properties over a bounded LTS.

Safety (``G p``) reduces to reachability of a ``!p`` state; the
counterexample is the shortest, lexicographically least path there.
Eventuality, response and until shapes reduce to finding a maximal path that
avoids the obligation forever: either a cycle (a lasso) or a genuine dead end
inside the avoiding region. A region is a ``list[bool]`` by state id, built
from the per-state truth of ``p`` and ``q``. One SCC pass over the part of
it that the candidate anchors reach (``_cycles_and_escapes``) flags the
states on a cycle inside it and the states that reach, inside it, a cyclic
state or a dead end; then a BFS inside the region from the first escaping
anchor finds the counterexample's target.

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

Every shape visits states in id order and reads its stems from the edges:
``build_lts`` numbers states in breadth-first order and keeps adjacency
label ordered, so the edge that discovered a state is its first in-edge
from the lower-numbered states, and following those edges back gives the
shortest, lexicographically least paths.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace

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
    Prop,
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


def check(lts: Lts, prop: TemporalProperty) -> Verdict:
    """Deterministic verdict for one property over one LTS."""
    checker = _Checker(lts)
    if prop.shape == G_SHAPE:
        verdict = checker.check_safety(prop)
    elif prop.shape == F_SHAPE:
        verdict = checker.check_eventually(prop)
    elif prop.shape == RESPONSE_SHAPE:
        verdict = checker.check_response(prop)
    elif prop.shape == NEXT_SHAPE:
        verdict = checker.check_next(prop)
    else:
        assert prop.shape == UNTIL_SHAPE
        verdict = checker.check_until(prop)
    cex = verdict.counterexample
    if cex is not None:
        cycle = _livelock_cycle(lts, cex.violating_state)
        if cycle:
            cex = replace(cex, kind="livelock", livelock=cycle)
            verdict = replace(verdict, counterexample=cex)
    return verdict


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


class _Checker:
    def __init__(self, lts: Lts) -> None:
        self.lts = lts
        self.order = range(lts.state_count)

    # -- shared machinery ---------------------------------------------------

    def path_to(self, target: int) -> tuple[tuple[str, int], ...]:
        """The BFS-tree path from the initial state to ``target``. It scans
        the edges of states ``0`` to ``target - 1`` in order and keeps each
        state's first in-edge, the one that discovered it; once ``target``
        has its edge, so have all of its ancestors, which are numbered lower."""
        parent: dict[int, tuple[int, str]] = {}
        succ = self.lts.succ
        for src in range(target):
            for label, dst in succ[src]:
                if dst not in parent:
                    parent[dst] = (src, label)
            if target in parent:
                break
        return _path(parent, 0, target)

    def truth(self, prop: Prop) -> list[bool]:
        """Whether ``prop`` holds at each state, indexed by state id. It is
        evaluated once per observation (see ``Lts.observations``)."""
        ids, vectors = self.lts.observations
        program = self.lts.program
        per_observation = [eval_prop(prop, vec, program) for vec in vectors]
        return [per_observation[obs] for obs in ids]

    def is_dead_end(self, state: int) -> bool:
        return state not in self.lts.cut and not self.lts.succ[state]

    def inconclusive_or_holds(self, prop: TemporalProperty) -> Verdict:
        if self.lts.truncated:
            return Verdict(
                INCONCLUSIVE, prop,
                note="state space truncated by bounds; raise them to decide",
            )
        return Verdict(HOLDS, prop)

    def region_bfs(self, start: int, region: list[bool]) -> tuple[dict[int, tuple[int, str]], list[int]]:
        """BFS from ``start``, a state of ``region``, restricted to the
        region; returns parents and visit order."""
        parent: dict[int, tuple[int, str]] = {}
        order: list[int] = []
        seen = {start}
        queue = deque([start])
        while queue:
            src = queue.popleft()
            order.append(src)
            for label, dst in self.lts.succ[src]:
                if region[dst] and dst not in seen:
                    seen.add(dst)
                    parent[dst] = (src, label)
                    queue.append(dst)
        return parent, order

    def loop_from(self, entry: int, region: list[bool]) -> tuple[tuple[str, int], ...]:
        """Shortest cycle through ``entry`` inside ``region``, as edge steps."""
        parent, _order = self.region_bfs(entry, region)
        # find the least-labeled edge closing the cycle back to entry
        best: tuple[tuple[str, int], ...] | None = None
        for src in [entry] + sorted(parent):
            for label, dst in self.lts.succ[src]:
                if dst != entry:
                    continue
                candidate = _path(parent, entry, src) + ((label, entry),)
                if best is None or len(candidate) < len(best):
                    best = candidate
                break  # successors are label-sorted; first closing edge is least
        assert best is not None, "loop_from called on a non-cyclic entry"
        return best

    def check_avoidance(
        self, prop: TemporalProperty, anchors: list[int], region: list[bool],
        failing_atom: str,
    ) -> Verdict:
        """Violated by a maximal path that reaches an anchor and stays in
        ``region`` from there on, if there is one.

        ``anchors`` are candidate states of the region in BFS order. The
        first one that escapes (see ``_cycles_and_escapes``) anchors the
        counterexample, and the continuation is the first cyclic state or
        dead end that a BFS inside the region from it meets.
        """
        cyclic, escape = _cycles_and_escapes(self.lts, region, anchors)
        for anchor in anchors:
            if not escape[anchor]:
                continue
            parent, order = self.region_bfs(anchor, region)
            target = next(s for s in order if cyclic[s] or self.is_dead_end(s))
            stem = self.path_to(anchor) + _path(parent, anchor, target)
            if not cyclic[target]:
                return Verdict(
                    VIOLATED, prop,
                    Counterexample("deadend", stem, (), failing_atom),
                )
            loop = self.loop_from(target, region)
            return Verdict(
                VIOLATED, prop,
                Counterexample("lasso", stem, loop, failing_atom),
            )
        return self.inconclusive_or_holds(prop)

    # -- the five shapes -------------------------------------------------------

    def check_safety(self, prop: TemporalProperty) -> Verdict:
        p = self.truth(prop.p)
        for state in self.order:
            if not p[state]:
                return Verdict(
                    VIOLATED, prop,
                    Counterexample(
                        "safety", self.path_to(state), (), f"{prop.p.render()} is false"
                    ),
                )
        return self.inconclusive_or_holds(prop)

    def check_eventually(self, prop: TemporalProperty) -> Verdict:
        p = self.truth(prop.p)
        if p[0]:
            return self.inconclusive_or_holds(prop)
        return self.check_avoidance(
            prop, [0], [not x for x in p],
            f"{prop.p.render()} never holds on this path",
        )

    def check_response(self, prop: TemporalProperty) -> Verdict:
        p, q = self.truth(prop.p), self.truth(prop.q)
        return self.check_avoidance(
            prop, [s for s in self.order if p[s] and not q[s]], [not x for x in q],
            f"{prop.p.render()} holds but {prop.q.render()} never follows",
        )

    def check_next(self, prop: TemporalProperty) -> Verdict:
        p, q = self.truth(prop.p), self.truth(prop.q)
        for state in self.order:
            if not p[state]:
                continue
            if self.is_dead_end(state):
                return Verdict(
                    VIOLATED, prop,
                    Counterexample(
                        "deadend", self.path_to(state), (),
                        f"{prop.p.render()} holds at a state with no successor",
                    ),
                )
            for label, dst in self.lts.succ[state]:
                if not q[dst]:
                    stem = self.path_to(state) + ((label, dst),)
                    return Verdict(
                        VIOLATED, prop,
                        Counterexample(
                            "next", stem, (),
                            f"{prop.q.render()} is false at the next state",
                        ),
                    )
        return self.inconclusive_or_holds(prop)

    def check_until(self, prop: TemporalProperty) -> Verdict:
        p, q = self.truth(prop.p), self.truth(prop.q)
        if q[0]:
            return self.inconclusive_or_holds(prop)
        if not p[0]:
            return Verdict(
                VIOLATED, prop,
                Counterexample(
                    "safety", (), (),
                    f"neither {prop.p.render()} nor {prop.q.render()} holds initially",
                ),
            )
        # walk the !q region from the initial state, only through p-states
        walkable = [x and not y for x, y in zip(p, q)]
        parent, order = self.region_bfs(0, walkable)
        # (a) a !p & !q state reachable through p & !q states
        for src in order:
            for label, dst in self.lts.succ[src]:
                if not q[dst] and not p[dst]:
                    stem = _path(parent, 0, src) + ((label, dst),)
                    return Verdict(
                        VIOLATED, prop,
                        Counterexample(
                            "safety", stem, (),
                            f"{prop.p.render()} fails before {prop.q.render()} held",
                        ),
                    )
        # (b) p & !q forever. Every state of ``order`` is reachable from state
        # 0 inside the region, so state 0 escapes if any of them does.
        return self.check_avoidance(
            prop, [0], walkable,
            f"{prop.q.render()} never holds while {prop.p.render()} persists",
        )


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
    no steps. The scenario halts right after the stem, at the loop entry for
    lassos. ``spec`` is not read; callers pass it by position.
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
    steps.append((tick + 1, Halt()))
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
    to certify counterexample soundness.
    """
    runtime = Runtime(spec, seed=None, record=False)
    moves = {stim.render(): stim for stim in lts.env}
    state = runtime.init()
    for label, _target in cex.stem:
        stimulus = moves.get(label)
        if stimulus is None:
            processed = runtime.step(state)
            assert processed is not None and f"proc {qual(processed)}" == label
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

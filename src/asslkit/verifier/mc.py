"""Checking temporal properties over a bounded LTS.

Safety (``G p``) reduces to reachability of a ``!p`` state; the
counterexample is the shortest, lexicographically least path there.
Eventuality and response shapes reduce to finding a maximal path that avoids
the obligation forever: either a cycle (a lasso) or a genuine dead end inside
the avoiding region. On a truncated LTS a would-be Holds verdict downgrades
to Inconclusive, because the cut frontier could still hide a violation;
Violated verdicts stand, since every witness found in a sub-graph exists in
the full graph (states whose expansion was cut are never treated as dead
ends). Raising bounds can therefore only resolve Inconclusive, never flip a
verdict.

Every counterexample replays in the runtime: stimulus edges exist only at
quiescent states, so the stem maps directly onto a scenario, and processing
edges are the runtime's own deterministic drain steps. A path into an
event-cascade livelock also replays step by step, but not as a scenario run:
the drain never ends, so ``asslkit run`` aborts it. Since ``proc`` edges are
deterministic, a counterexample whose violating state is followed by a chain
of ``proc`` successors that repeats a state before reaching a quiescent one
is one of these; its kind is ``livelock`` and ``explain`` says so.

Every shape visits states in id order and builds its stems from
``Lts.parent``: ``build_lts`` numbers states in breadth-first order and
records the edge that discovered each one, and adjacency is label ordered,
so these stems are the shortest, lexicographically least paths.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace

from ..checker import CheckedSpec
from ..names import qual
from ..runtime.engine import RunConfig, Runtime
from ..runtime.scenario import Scenario, parse_scenario
from .lts import Lts, StateVector, Tick
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
    starts at the initial state. ``violating_state`` is where the failing
    obligation is evaluated; for lassos it is the loop entry.
    """

    kind: str  # "safety" | "lasso" | "deadend" | "next" | "livelock"
    stem: tuple[tuple[str, int], ...]
    loop: tuple[tuple[str, int], ...]
    violating_state: int
    failing_atom: str
    # For a livelock, the ``proc`` steps from ``violating_state`` up to the
    # first repeated state; empty otherwise.
    livelock: tuple[tuple[str, int], ...] = ()


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
        return _path(self.lts.parent, self.lts.initial, target)

    def holds(self, prop: Prop, state: int) -> bool:
        return eval_prop(prop, self.lts.states[state], self.lts.layout)

    def is_dead_end(self, state: int) -> bool:
        return state in self.lts.expanded and not self.lts.succ[state]

    def inconclusive_or_holds(self, prop: TemporalProperty) -> Verdict:
        if self.lts.truncated:
            return Verdict(
                INCONCLUSIVE, prop,
                note="state space truncated by bounds; raise them to decide",
            )
        return Verdict(HOLDS, prop)

    def region_bfs(self, start: int, region: set[int]) -> tuple[dict[int, tuple[int, str]], list[int]]:
        """BFS restricted to ``region``; returns parents and visit order."""
        parent: dict[int, tuple[int, str]] = {}
        order: list[int] = []
        if start not in region:
            return parent, order
        seen = {start}
        queue = deque([start])
        while queue:
            src = queue.popleft()
            order.append(src)
            for label, dst in self.lts.succ[src]:
                if dst in region and dst not in seen:
                    seen.add(dst)
                    parent[dst] = (src, label)
                    queue.append(dst)
        return parent, order

    def cyclic_states(self, region: set[int]) -> set[int]:
        """States of ``region`` lying on a cycle within the region."""
        sccs = _tarjan(region, self.lts)
        cyclic: set[int] = set()
        for component in sccs:
            if len(component) > 1:
                cyclic.update(component)
            else:
                (only,) = component
                if any(
                    dst == only and dst in region
                    for _label, dst in self.lts.succ[only]
                ):
                    cyclic.add(only)
        return cyclic

    def escape_set(self, region: set[int], cyclic: set[int]) -> set[int]:
        """States of ``region`` from which a maximal path can stay in it:
        ones that reach (inside it) a cycle or a genuine dead end.

        ``cyclic`` is ``cyclic_states(region)``.
        """
        seeds = cyclic | {s for s in region if self.is_dead_end(s)}
        # backward closure within the region
        reverse: dict[int, list[int]] = {}
        for src in region:
            for _label, dst in self.lts.succ[src]:
                if dst in region:
                    reverse.setdefault(dst, []).append(src)
        result = set(seeds)
        queue = deque(sorted(seeds))
        while queue:
            state = queue.popleft()
            for pred in reverse.get(state, ()):
                if pred not in result:
                    result.add(pred)
                    queue.append(pred)
        return result

    def loop_from(self, entry: int, region: set[int]) -> tuple[tuple[str, int], ...]:
        """Shortest cycle through ``entry`` inside ``region``, as edge steps."""
        parent, _order = self.region_bfs(entry, region)
        # find the least-labeled edge closing the cycle back to entry
        best: tuple[tuple[str, int], ...] | None = None
        for src in [entry] + sorted(parent):
            for label, dst in self.lts.succ[src]:
                if dst != entry or src not in region:
                    continue
                candidate = _path(parent, entry, src) + ((label, entry),)
                if best is None or len(candidate) < len(best):
                    best = candidate
                break  # successors are label-sorted; first closing edge is least
        assert best is not None, "loop_from called on a non-cyclic entry"
        return best

    def avoidance_counterexample(
        self, prop: TemporalProperty, start_states: list[int], region: set[int],
        failing_atom: str,
    ) -> Verdict | None:
        """Violation via a maximal path that stays in ``region`` forever.

        ``start_states`` are candidate anchors in BFS order (each must itself
        be in the region); the continuation is found inside the region.
        """
        cyclic = self.cyclic_states(region)
        escape = self.escape_set(region, cyclic)
        for anchor in start_states:
            if anchor not in escape:
                continue
            parent, order = self.region_bfs(anchor, region)
            target = None
            for state in order:
                if self.is_dead_end(state) or state in cyclic:
                    target = state
                    break
            assert target is not None
            stem = self.path_to(anchor) + _path(parent, anchor, target)
            if self.is_dead_end(target) and target not in cyclic:
                return Verdict(
                    VIOLATED, prop,
                    Counterexample("deadend", stem, (), target, failing_atom),
                )
            loop = self.loop_from(target, region)
            return Verdict(
                VIOLATED, prop,
                Counterexample("lasso", stem, loop, target, failing_atom),
            )
        return None

    # -- the five shapes -------------------------------------------------------

    def check_safety(self, prop: TemporalProperty) -> Verdict:
        for state in self.order:
            if not self.holds(prop.p, state):
                return Verdict(
                    VIOLATED, prop,
                    Counterexample(
                        "safety", self.path_to(state), (), state,
                        f"{prop.p.render()} is false",
                    ),
                )
        return self.inconclusive_or_holds(prop)

    def check_eventually(self, prop: TemporalProperty) -> Verdict:
        region = {s for s in self.order if not self.holds(prop.p, s)}
        if self.lts.initial in region:
            verdict = self.avoidance_counterexample(
                prop, [self.lts.initial], region,
                f"{prop.p.render()} never holds on this path",
            )
            if verdict is not None:
                return verdict
        return self.inconclusive_or_holds(prop)

    def check_response(self, prop: TemporalProperty) -> Verdict:
        region = {s for s in self.order if not self.holds(prop.q, s)}
        anchors = [
            s for s in self.order if self.holds(prop.p, s) and s in region
        ]
        verdict = self.avoidance_counterexample(
            prop, anchors, region,
            f"{prop.p.render()} holds but {prop.q.render()} never follows",
        )
        if verdict is not None:
            return verdict
        return self.inconclusive_or_holds(prop)

    def check_next(self, prop: TemporalProperty) -> Verdict:
        for state in self.order:
            if not self.holds(prop.p, state):
                continue
            if self.is_dead_end(state):
                return Verdict(
                    VIOLATED, prop,
                    Counterexample(
                        "deadend", self.path_to(state), (), state,
                        f"{prop.p.render()} holds at a state with no successor",
                    ),
                )
            for label, dst in self.lts.succ[state]:
                if not self.holds(prop.q, dst):
                    stem = self.path_to(state) + ((label, dst),)
                    return Verdict(
                        VIOLATED, prop,
                        Counterexample(
                            "next", stem, (), dst,
                            f"{prop.q.render()} is false at the next state",
                        ),
                    )
        return self.inconclusive_or_holds(prop)

    def check_until(self, prop: TemporalProperty) -> Verdict:
        if self.holds(prop.q, self.lts.initial):
            return self.inconclusive_or_holds(prop)
        if not self.holds(prop.p, self.lts.initial):
            return Verdict(
                VIOLATED, prop,
                Counterexample(
                    "safety", (), (), self.lts.initial,
                    f"neither {prop.p.render()} nor {prop.q.render()} holds initially",
                ),
            )
        not_q = {s for s in self.order if not self.holds(prop.q, s)}
        # walk the !q region from the initial state, only through p-states
        walkable = {s for s in not_q if self.holds(prop.p, s)}
        parent, order = self.region_bfs(self.lts.initial, walkable)
        # (a) a !p & !q state reachable through p & !q states
        for src in order:
            for label, dst in self.lts.succ[src]:
                if dst in not_q and not self.holds(prop.p, dst):
                    stem = _path(parent, self.lts.initial, src) + ((label, dst),)
                    return Verdict(
                        VIOLATED, prop,
                        Counterexample(
                            "safety", stem, (), dst,
                            f"{prop.p.render()} fails before {prop.q.render()} held",
                        ),
                    )
        # (b) p & !q forever
        verdict = self.avoidance_counterexample(
            prop,
            [s for s in order if s in walkable],
            walkable,
            f"{prop.q.render()} never holds while {prop.p.render()} persists",
        )
        if verdict is not None:
            return verdict
        return self.inconclusive_or_holds(prop)


def _path(
    parent: dict[int, tuple[int, str]] | list[tuple[int, str] | None], anchor: int, target: int
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


def _tarjan(region: set[int], lts: Lts) -> list[list[int]]:
    """Iterative Tarjan over the subgraph induced by ``region``."""
    index: dict[int, int] = {}
    lowlink: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    sccs: list[list[int]] = []
    counter = 0

    for root in sorted(region):
        if root in index:
            continue
        # (node, its in-region successors or None before the first visit,
        # index of the next successor to look at)
        work: list[tuple[int, list[int] | None, int]] = [(root, None, 0)]
        while work:
            node, successors, edge_idx = work.pop()
            if successors is None:
                index[node] = lowlink[node] = counter
                counter += 1
                stack.append(node)
                on_stack.add(node)
                successors = [dst for _label, dst in lts.succ[node] if dst in region]
            advanced = False
            for i in range(edge_idx, len(successors)):
                dst = successors[i]
                if dst not in index:
                    work.append((node, successors, i + 1))
                    work.append((dst, None, 0))
                    advanced = True
                    break
                if dst in on_stack:
                    lowlink[node] = min(lowlink[node], index[dst])
            if advanced:
                continue
            if lowlink[node] == index[node]:
                component: list[int] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                sccs.append(component)
            if work:
                parent_node = work[-1][0]
                lowlink[parent_node] = min(lowlink[parent_node], lowlink[node])
    return sccs


# --------------------------------------------------------------------------
# Rendering and replay


def explain(
    spec: CheckedSpec, lts: Lts, verdict: Verdict, scenario_name: str = "counterexample"
) -> tuple[str, Scenario]:
    """Human-readable step list plus a scenario reproducing the violation.

    Stimulus edges become scenario steps, one tick apart where the path
    advanced the clock; processing edges are the runtime's own drain and need
    no steps. The scenario halts right after the stem, at the loop entry for
    lassos.
    """
    if verdict.result != VIOLATED or verdict.counterexample is None:
        raise ValueError("explain needs a Violated verdict")
    cex = verdict.counterexample

    lines = [f"property: {verdict.prop.text}"]
    lines.append(f"violation: {cex.failing_atom}")
    lines.append(f"initial state: {_state_line(lts, lts.initial)}")
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

    scenario_lines: list[str] = []
    tick = 0
    for label, _state in cex.stem:
        if label == "tick":
            tick += 1
        elif label.startswith("proc "):
            continue
        else:
            scenario_lines.append(f"tick {tick} {label}")
    scenario_lines.append(f"tick {tick + 1} halt")
    scenario_text = "\n".join(scenario_lines) + "\n"
    scenario = parse_scenario(scenario_text, spec, scenario_name)
    return "\n".join(lines) + "\n", scenario


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
    runtime = Runtime(spec, seed=0, config=RunConfig(interleave="declared"), record=False)
    state = runtime.init()
    for label, _target in cex.stem:
        if label == "tick":
            runtime.advance_tick(state)
        elif label.startswith("proc "):
            processed = runtime.step(state)
            assert processed is not None and qual(processed) == label[len("proc ") :]
        else:
            stimulus = _stimulus_from_label(spec, label)
            runtime.apply_stimulus(state, stimulus)
    return lts.layout.vector(state)


def _stimulus_from_label(spec: CheckedSpec, label: str):
    scenario = parse_scenario(f"tick 0 {label}", spec, "<edge>")
    return scenario.steps[0][1]


def parse_env_stimulus(spec: CheckedSpec, text: str):
    """Parse an environment stimulus flag: inject/set/send syntax or 'tick'."""
    text = text.strip()
    if text == "tick":
        return Tick()
    return _stimulus_from_label(spec, text)

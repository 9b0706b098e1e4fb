"""Bounded explicit-state transition system built from runtime semantics.

States are projections of quiescent and mid-drain runtime configurations:
fluent activations, metric valuations, channel queue contents, the pending
occurrence queue, relative timer residues, and the most recently raised
event (which carries the event-just-occurred atoms). Because the language
has no arithmetic, every value a metric can take is a literal written
somewhere in the specification or supplied by an environment stimulus, so
metric valuations range over a finite set and the graph is finite whenever
queues stay bounded.

Transitions come in two flavors:

* from a quiescent state (empty pending queue), one edge per enabled
  environment stimulus: event injections, metric settings, message sends,
  and the clock tick that delivers messages and fires ELAPSED activations;
* from a non-quiescent state, the single deterministic processing step that
  dequeues and raises the head occurrence.

Environment stimuli being enabled only at quiescent states makes every path
through the graph realizable by a scenario, which keeps counterexamples
replayable. Exploration is serial and breadth first, with environment
stimuli in canonical (rendered) order, so state numbering, edge order, and
every downstream verdict are a function of the specification, environment,
and bounds alone.

Four facts keep the stored graph small and cheap to build:

* Discovery order. States are numbered as breadth-first exploration finds
  them, and each state's edges are appended in label order (``env`` is
  sorted by label; a non-quiescent state has one ``proc`` edge). So ids are
  BFS order, adjacency is label ordered, and the edge that found a state is
  its BFS-tree parent: ``Lts.succ`` and ``Lts.parent`` are the whole graph.
* Slots and tuples. A ``RuntimeState`` keeps fluents, metrics and channels
  in lists indexed by the slots of the spec's ``Program``, and a
  ``StateVector`` in tuples with the same indices. ``StateVector`` is a
  ``NamedTuple`` that ``Layout.vector`` builds with ``tuple.__new__``, so
  building, hashing and comparing the vector of every edge against the
  index of seen states runs in C. Property atoms find a key's value
  through ``Program``'s maps.
* Snapshot lifetime. The full ``RuntimeState`` of a state is kept only
  while the state waits in the frontier. Expanding it pops the snapshot
  (its last successor is computed in place), so a finished graph holds
  vectors alone.
* Observations. Labels and property atoms read only a state's fluents,
  metrics and ``last_event``, its *observation*, and many states share one
  (on a 2-worker swarm, 2,575 states have 120). ``Lts.observations``
  numbers the distinct ones on first use, from ``states`` alone, so labels
  are built and rendered, and each proposition evaluated, once per
  observation. Metric values are keyed by ``repr``, which keeps apart
  values that compare equal but render differently (``True``, ``1`` and
  ``1.0``; ``0.0`` and ``-0.0``).
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from ..checker import CheckedSpec
from ..names import Key, qual
from ..nodes import render_value, type_of_value
from ..program import Program
from ..runtime.engine import RunConfig, Runtime
from ..runtime.scenario import InjectEvent, SendMessage, SetMetric
from ..runtime.state import RuntimeState


@dataclass(frozen=True)
class Tick:
    """Clock-advance stimulus: message delivery plus due ELAPSED firings."""

    def render(self) -> str:
        return "tick"


EnvStimulus = InjectEvent | SetMetric | SendMessage | Tick


@dataclass(frozen=True)
class Bounds:
    max_states: int = 100_000
    max_depth: int = 10_000
    max_pending: int = 8


class StateVector(NamedTuple):
    """Canonical, hashable projection of a runtime configuration."""

    fluents: tuple[bool, ...]
    metrics: tuple[object, ...]
    channels: tuple[tuple[Key, ...], ...]
    pending: tuple[Key, ...]
    timers: tuple[int, ...]
    last_event: Key | None


_new = tuple.__new__


class Layout:
    """Projection of runtime states onto state vectors, slot for slot."""

    @staticmethod
    def vector(state: RuntimeState) -> StateVector:
        tick = state.tick
        return _new(StateVector, (
            tuple(state.fluents),
            tuple(state.metrics),
            tuple([tuple(queue) for queue in state.channels]),
            tuple([occ.event for occ in state.pending]),
            tuple([t - tick for t in state.timers]),
            state.last_event,
        ))


@dataclass
class Lts:
    """Explicit labeled transition system; state 0 is initial.

    ``succ[s]`` holds the (edge label, target) pairs leaving state ``s`` in
    label order; ``parent[s]`` is the (source, edge label) that discovered
    ``s``, and ``None`` for the initial state.
    """

    program: Program
    states: list[StateVector]
    succ: list[list[tuple[str, int]]]
    parent: list[tuple[int, str] | None]
    expanded: frozenset[int]
    truncated: bool
    env: tuple[EnvStimulus, ...]
    initial: int = 0

    @cached_property
    def observations(self) -> tuple[list[int], list[StateVector]]:
        """The observation id of each state, and for each observation id the
        vector of the first state that has it."""
        ids: list[int] = []
        first: list[StateVector] = []
        number: dict[tuple, int] = {}
        for vec in self.states:
            key = (vec.fluents, tuple(map(repr, vec.metrics)), vec.last_event)
            obs = number.get(key)
            if obs is None:
                obs = number[key] = len(first)
                first.append(vec)
            ids.append(obs)
        return ids, first

    @cached_property
    def observation_labels(self) -> list[frozenset[str]]:
        """Atomic propositions of each observation, by observation id."""
        program = self.program
        fluent_atoms = [f"fluent:{qual(key)}" for key in program.fluent_keys]
        metric_names = [f"metric:{qual(key)}=" for key in program.metric_keys]
        labels = []
        for vec in self.observations[1]:
            props = {atom for atom, active in zip(fluent_atoms, vec.fluents) if active}
            props.update(
                name + render_value(value, type_of_value(value))
                for name, value in zip(metric_names, vec.metrics)
            )
            if vec.last_event is not None:
                props.add(f"event:{qual(vec.last_event)}")
            labels.append(frozenset(props))
        return labels

    def labeling(self, state_id: int) -> frozenset[str]:
        """Atomic propositions holding at a state."""
        return self.observation_labels[self.observations[0][state_id]]

    @property
    def state_count(self) -> int:
        return len(self.states)

    @property
    def edge_count(self) -> int:
        return sum(map(len, self.succ))


def default_env(spec: CheckedSpec) -> tuple[EnvStimulus, ...]:
    """Declared injectable events, plus the clock when it can matter."""
    if not spec.ok:
        raise ValueError("specification has errors; run check_all first")
    program = spec.program
    stimuli: list[EnvStimulus] = [InjectEvent(key) for key in program.injectable]
    if program.timer_slots or program.messages:
        stimuli.append(Tick())
    return tuple(stimuli)


def build_lts(
    spec: CheckedSpec,
    env: tuple[EnvStimulus, ...] | None = None,
    bounds: Bounds | None = None,
    jobs: int = 1,
) -> Lts:
    """Breadth-first exploration with duplicate-state merging.

    Hitting any bound flags the result as truncated rather than failing;
    states whose expansion was cut are excluded from ``expanded`` so the
    checker never mistakes them for dead ends.

    Exploration is serial. ``jobs`` is accepted for existing callers and
    must be 1: a thread pool over the frontier only added cost under the
    GIL (on the 2,575-state ``swarm_verify`` graph, 2-CPU guest, 3 repeats:
    1 worker 0.147-0.161 s, 2 workers 0.229-0.247 s, 4 workers
    0.247-0.266 s).
    """
    if jobs != 1:
        raise ValueError(f"jobs must be 1 (exploration is serial), got {jobs}")
    if not spec.ok:
        raise ValueError("specification has errors; run check_all first")
    bounds = bounds or Bounds()
    runtime = Runtime(spec, seed=0, config=RunConfig(interleave="declared"), record=False)
    if env is None:
        env = default_env(spec)
    env = tuple(sorted(env, key=lambda stim: stim.render()))
    # Edge labels are rendered once, so edges share their label strings.
    env_labels = [stim.render() for stim in env]
    proc_labels: dict[Key, str] = {}

    initial = runtime.init()
    states: list[StateVector] = [Layout.vector(initial)]
    succ: list[list[tuple[str, int]]] = [[]]
    parent: list[tuple[int, str] | None] = [None]
    # Snapshots of frontier states only; ``expand`` pops each one.
    snapshots: dict[int, RuntimeState] = {0: initial}
    index: dict[StateVector, int] = {states[0]: 0}
    expanded: set[int] = set()
    truncated = False

    def expand(state_id: int) -> list[tuple[str, RuntimeState]]:
        # The popped snapshot has no other owner, so the last successor may
        # reuse it instead of a copy.
        state = snapshots.pop(state_id)
        if state.pending:
            event = runtime.step(state)
            assert event is not None
            label = proc_labels.get(event)
            if label is None:
                label = proc_labels[event] = f"proc {qual(event)}"
            return [(label, state)]
        out: list[tuple[str, RuntimeState]] = []
        last = len(env) - 1
        for i, stimulus in enumerate(env):
            nxt = state if i == last else state.copy()
            if isinstance(stimulus, Tick):
                runtime.advance_tick(nxt)
            else:
                runtime.apply_stimulus(nxt, stimulus)
            out.append((env_labels[i], nxt))
        return out

    frontier = [0]
    depth = 0
    capped = False
    while frontier and not capped:
        if depth > bounds.max_depth:
            truncated = True
            break
        next_frontier: list[int] = []
        for state_id in frontier:
            complete = True
            adjacency = succ[state_id]
            for label, nxt in expand(state_id):
                if len(nxt.pending) > bounds.max_pending:
                    truncated = True
                    complete = False
                    continue
                vec = Layout.vector(nxt)
                dst = index.get(vec)
                if dst is None:
                    if len(states) >= bounds.max_states:
                        truncated = True
                        complete = False
                        capped = True
                        continue
                    dst = len(states)
                    index[vec] = dst
                    states.append(vec)
                    succ.append([])
                    parent.append((state_id, label))
                    snapshots[dst] = nxt
                    next_frontier.append(dst)
                adjacency.append((label, dst))
            if complete:
                expanded.add(state_id)
        frontier = next_frontier
        depth += 1

    return Lts(
        program=runtime.program,
        states=states,
        succ=succ,
        parent=parent,
        expanded=frozenset(expanded),
        truncated=truncated,
        env=env,
    )


def lts_lines(lts: Lts) -> Iterator[str]:
    """Graph description, one newline-terminated line at a time: nodes with
    proposition labels, then labeled edges."""
    yield (
        f"lts states={lts.state_count} edges={lts.edge_count}"
        f" truncated={'true' if lts.truncated else 'false'}\n"
    )
    # Each observation's label text is rendered once, with its leading space.
    texts = [f" {' '.join(sorted(labels))}".rstrip() for labels in lts.observation_labels]
    for state_id, obs in enumerate(lts.observations[0]):
        marker = " initial" if state_id == lts.initial else ""
        yield f"state {state_id}{marker}{texts[obs]}\n"
    for src, adjacency in enumerate(lts.succ):
        for label, dst in adjacency:
            yield f'edge {src} -> {dst} "{label}"\n'


def lts_to_text(lts: Lts) -> str:
    """The whole of :func:`lts_lines` as one string."""
    return "".join(lts_lines(lts))

"""Bounded explicit-state transition system built from runtime semantics.

States are projections of quiescent and mid-drain runtime configurations
(fluent activations, metric valuations, channel queue contents, the pending
occurrence queue and relative timer residues), each paired with the event
raised by the move into it, which event atoms read (state/event model
checking; Chaki et al., IFM 2004). Because the language has no arithmetic,
every value a metric can take is a literal written somewhere in the
specification or supplied by an environment stimulus, so metric valuations
range over a finite set and the graph is finite whenever queues stay bounded.

Transitions come in two flavors:

* from a quiescent state (empty pending queue), one edge per enabled
  environment stimulus: event injections, metric settings, message sends,
  and the clock tick that delivers messages and fires ELAPSED activations;
* from a non-quiescent state, the single deterministic processing step that
  dequeues and raises the head occurrence.

The runtime runs both: ``Runtime.apply_stimulus`` the first kind and
``Runtime.step`` the second, with elements in declaration order
(``seed=None``). Counterexample replay makes the same two calls, looking
each stimulus edge's label up in ``Lts.env``.

Environment stimuli being enabled only at quiescent states makes every path
through the graph realizable by a scenario, which keeps counterexamples
replayable. Exploration is serial and breadth first, with environment
stimuli in canonical (rendered) order, so state numbering, edge order, and
every downstream verdict are a function of the specification, environment,
and bounds alone. When the state bound is hit, the state being expanded
finishes its moves, keeping its edges to stored states but no new state,
and is cut with every later state: exploration stops there.

Five facts keep the stored graph small and cheap to build:

* Discovery order. States are numbered as breadth-first exploration finds
  them, and each state's edges are appended in label order (``env`` is
  sorted by label, one stimulus per label; a non-quiescent state has one
  ``proc`` edge). So ids are BFS order, adjacency is label ordered, and the
  edge that found a state is its first in-edge in (source id, edge) order,
  which leaves a lower-numbered state. ``Lts.succ`` alone is the whole graph; the BFS tree
  is read back from it where a counterexample needs it.
* Slots and tuples. A ``RuntimeState`` keeps fluents, metrics and channels
  in lists indexed by the slots of the spec's ``Program``, and a
  ``StateVector`` in tuples with the same indices. ``StateVector`` is a
  ``NamedTuple`` that ``Layout.vector`` builds with ``tuple.__new__``, so
  building, hashing and comparing the vector of every edge against the
  index of seen states runs in C. Property atoms find a key's value
  through ``Program``'s maps.
* Copy on write, and one object per distinct part. The state list is the
  queue and the only store: ``build_lts`` expands ids in order, and keeps
  no ``RuntimeState``. Each move runs on a working state that
  ``Layout.state`` builds from the source vector: every part is the
  vector's own tuple, and only the pending queue is new. A part given as a
  tuple is copied into a list when the runtime first writes it, so the
  parts a move does not write stay the vector's own, and
  ``Layout.vector`` passes them through unchanged. The parts of each newly
  stored vector are interned in per-build tables, so states share equal
  parts.
* Observations. Labels and property atoms read only a state's fluents,
  metrics and entering event, its *observation*, and many states share one
  (on a 2-worker swarm, 2,575 states have 120). ``Lts.observations``
  numbers the distinct ones on first use, from ``states`` alone, so labels
  are built and rendered, and each proposition evaluated, once per
  observation. One rule says when two metric parts are the same, for the
  index of seen states, the shared-expansion table and the intern table:
  they are equal and, in a spec with a REAL metric, have equal reprs. It is
  exact, since a slot holds only values of its declared type, and equal
  values of one type share a repr but for a REAL ``0.0`` and ``-0.0``. So
  an observation is keyed by the identity of its interned parts.
* Shared expansion. A vector is all that a move reads, so a state's
  successors depend on its vector alone. ``build_lts`` expands the first
  state with each vector; a later state with the same vector, by the rule
  above, gets the same adjacency list object, and is cut by ``max_pending``
  exactly when the first one was. The entering event is dead for every
  transition and live only for labels (live-variable reduction at the level
  of transitions; Bozga, Fernandez & Ghirvu, SAS 1999), so the states stay
  apart and only their expansion is shared. On a 2-worker swarm, 1,211
  quiescent states have 484 vectors, and 3,784 of the 7,419 edges run a move.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import NamedTuple

from ..checker import CheckedSpec
from ..names import Key, qual
from ..nodes import ValueType, render_value
from ..program import EventOccurrence, Program
from ..runtime.engine import Runtime
from ..runtime.scenario import EnvStimulus, InjectEvent, Tick
from ..runtime.state import RuntimeState


@dataclass(frozen=True)
class Bounds:
    max_states: int = 100_000
    max_depth: int = 10_000
    max_pending: int = 8


class StateVector(NamedTuple):
    """Canonical, hashable projection of a runtime configuration: the parts
    of a ``RuntimeState`` other than its tick, in the same order."""

    fluents: tuple[bool, ...]
    metrics: tuple[object, ...]
    channels: tuple[tuple[Key, ...], ...]
    pending: tuple[Key, ...]
    timers: tuple[int, ...]


_new = tuple.__new__
_event_of = itemgetter(0)  # an ``EventOccurrence``'s event


class Layout:
    """Projection of runtime states onto state vectors and back, slot for slot."""

    @staticmethod
    def vector(state: RuntimeState) -> StateVector:
        """The vector of ``state``. A part still held as a tuple is the
        vector's own and passes through as it is (``tuple`` of a tuple is
        that tuple); the channel list is tested explicitly, since each queue
        is converted too. Timers are made relative to the state's tick."""
        channels = state.channels
        if type(channels) is not tuple:
            channels = tuple(map(tuple, channels))
        tick = state.tick
        timers = tuple([t - tick for t in state.timers]) if tick else tuple(state.timers)
        return _new(StateVector, (
            tuple(state.fluents),
            tuple(state.metrics),
            channels,
            tuple(map(_event_of, state.pending)),
            timers,
        ))

    @staticmethod
    def state(vec: StateVector, occurrences: Mapping[Key, EventOccurrence]) -> RuntimeState:
        """A working state at tick 0 whose parts are the vector's own tuples,
        which the runtime copies into lists where it first writes them.
        Timers stay relative to tick 0. Each pending event becomes its entry
        in ``occurrences``, in a new queue; a cause is read only by trace
        records."""
        fluents, metrics, channels, pending, timers = vec
        pending = deque(map(occurrences.__getitem__, pending))
        return RuntimeState(0, fluents, metrics, channels, pending, timers)


@dataclass
class Lts:
    """Explicit labeled transition system; state 0 is initial.

    ``events[s]`` is the event raised by the move into state ``s``: None for
    state 0, after a stimulus (a tick included), and after a ``proc`` step
    whose guard suppressed it. ``succ[s]`` holds the (edge label, target)
    pairs leaving state ``s`` in label order; it is the whole graph, and the
    first in-edge of a state is the one that discovered it. States with equal
    vectors share one adjacency list object, so the lists are read-only.
    ``cut`` holds the states whose expansion a bound stopped; it is empty on
    a complete graph.
    """

    program: Program
    states: list[StateVector]
    events: list[Key | None]
    succ: list[list[tuple[str, int]]]
    cut: frozenset[int]
    env: tuple[EnvStimulus, ...]

    @property
    def truncated(self) -> bool:
        """Whether a bound stopped the expansion of some state."""
        return bool(self.cut)

    @cached_property
    def observations(self) -> tuple[list[int], list[tuple[StateVector, Key | None]]]:
        """The observation id of each state, and for each observation id the
        vector and entering event of the first state that has it. A state is
        keyed by its event and the identity of its fluent and metric parts,
        which ``build_lts`` interns; in a graph built by hand, equal parts
        that are distinct objects only give more observations."""
        ids: list[int] = []
        first: list[tuple[StateVector, Key | None]] = []
        number: dict[tuple, int] = {}
        for vec, event in zip(self.states, self.events):
            key = (id(vec.fluents), id(vec.metrics), event)
            obs = number.get(key)
            if obs is None:
                obs = number[key] = len(first)
                first.append((vec, event))
            ids.append(obs)
        return ids, first

    @cached_property
    def observation_labels(self) -> list[frozenset[str]]:
        """Atomic propositions of each observation, by observation id."""
        program = self.program
        fluent_atoms = [f"fluent:{qual(key)}" for key in program.fluent_keys]
        metric_names = [f"metric:{qual(key)}=" for key in program.metric_keys]
        labels = []
        for vec, event in self.observations[1]:
            props = {atom for atom, active in zip(fluent_atoms, vec.fluents) if active}
            props.update(
                name + render_value(value) for name, value in zip(metric_names, vec.metrics)
            )
            if event is not None:
                props.add(f"event:{qual(event)}")
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

    ``states`` is the queue, expanded in id order. Hitting any bound cuts
    exploration short rather than failing; the states whose expansion was
    stopped go into ``cut``, so the checker never mistakes them for dead
    ends. A move that finds a new state once ``max_states`` are stored drops
    it; the state being expanded finishes its other moves and is cut with
    every later state. Only the depth bound works by BFS level.

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
    runtime = Runtime(spec, seed=None, record=False)
    if env is None:
        env = default_env(spec)
    program = runtime.program
    # One move per label, in label order: a repeated stimulus is one move.
    # Edge labels are rendered once, so edges share their label strings.
    moves = sorted({stim.render(): stim for stim in env}.items())
    env = tuple(stim for _label, stim in moves)
    # A state with pending events has one move: processing the head one.
    proc_moves = {event: [(f"proc {qual(event)}", None)] for event in program.events}
    # The verifier records no trace, so no pending event needs its cause.
    occurrences = {event: EventOccurrence(event, "") for event in program.events}
    # Each part of a stored vector is interned, so that states share equal
    # parts; a metric part is keyed as ``key_of`` says.
    fluent_parts: dict[tuple, tuple] = {}
    metric_parts: dict[tuple, tuple] = {}
    channel_parts: dict[tuple, tuple] = {}
    pending_parts: dict[tuple, tuple] = {}
    timer_parts: dict[tuple, tuple] = {}

    def intern(vec: StateVector) -> StateVector:
        fluents, metrics, channels, pending, timers = vec
        return _new(StateVector, (
            fluent_parts.setdefault(fluents, fluents),
            metric_parts.setdefault(key_of(metrics, metrics), metrics),
            channel_parts.setdefault(channels, channels),
            pending_parts.setdefault(pending, pending),
            timer_parts.setdefault(timers, timers),
        ))

    # The key of a vector or metric part, by the rule of the module docstring.
    has_real = any(metric.value_type is ValueType.REAL for metric in program.metrics.values())

    def key_of(part: tuple, metrics: tuple) -> object:
        return (part, tuple(map(repr, metrics))) if has_real else part

    states: list[StateVector] = [intern(Layout.vector(runtime.init()))]
    events: list[Key | None] = [None]
    succ: list[list[tuple[str, int]]] = [[]]
    # The index of seen states, keyed by vector and entering event.
    index: dict[tuple, int] = {(key_of(states[0], states[0].metrics), None): 0}
    # Shared expansion (see the module docstring): the first state per vector key.
    expanded: dict[object, int] = {}
    cut: set[int] = set()
    full = False
    state_id, level_end, depth = 0, 1, 0
    while state_id < len(states) and depth <= bounds.max_depth:
        vec = states[state_id]
        first = expanded.setdefault(key_of(vec, vec.metrics), state_id)
        if first != state_id:
            succ[state_id] = succ[first]
            if first in cut:
                cut.add(state_id)
        else:
            adjacency = succ[state_id]
            for label, stimulus in proc_moves[vec.pending[0]] if vec.pending else moves:
                nxt = Layout.state(vec, occurrences)
                if stimulus is None:
                    event = runtime.step(nxt)
                else:
                    runtime.apply_stimulus(nxt, stimulus)
                    event = None
                if len(nxt.pending) > bounds.max_pending:
                    cut.add(state_id)
                    continue
                key = Layout.vector(nxt)
                dst = index.get((key_of(key, key.metrics), event))
                if dst is None:
                    if len(states) >= bounds.max_states:
                        full = True  # finish this state's moves, then stop
                        continue
                    key = intern(key)
                    dst = index[key_of(key, key.metrics), event] = len(states)
                    states.append(key)
                    events.append(event)
                    succ.append([])
                adjacency.append((label, dst))
            if full:
                break
        state_id += 1
        if state_id == level_end:
            depth += 1
            level_end = len(states)
    # what is left of the queue was never expanded, or stopped by the state bound
    cut.update(range(state_id, len(states)))

    return Lts(
        program=program,
        states=states,
        events=events,
        succ=succ,
        cut=frozenset(cut),
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
        marker = " initial" if state_id == 0 else ""
        yield f"state {state_id}{marker}{texts[obs]}\n"
    for src, adjacency in enumerate(lts.succ):
        for label, dst in adjacency:
            yield f'edge {src} -> {dst} "{label}"\n'


def lts_to_text(lts: Lts) -> str:
    """The whole of :func:`lts_lines` as one string."""
    return "".join(lts_lines(lts))

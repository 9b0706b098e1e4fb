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

Three facts keep the stored graph small:

* Discovery order. States are numbered as breadth-first exploration finds
  them, and each state's edges are appended in label order (``env`` is
  sorted by label; a non-quiescent state has one ``proc`` edge). So ids are
  BFS order, adjacency is label ordered, and the edge that found a state is
  its BFS-tree parent: ``Lts.succ`` and ``Lts.parent`` are the whole graph.
* Slot order. ``Runtime.init`` builds the fluent, metric and channel dicts
  in the order of the spec's ``Program`` tables, the same order ``Layout``
  takes its keys from, and the engine only ever overwrites existing keys. So
  ``Layout.vector`` reads the dicts' values in insertion order instead of
  looking every key up; ``build_lts`` checks the order on the initial state.
* Snapshot lifetime. The full ``RuntimeState`` of a state is kept only
  while the state waits in the frontier. Expanding it pops the snapshot
  (its last successor is computed in place), so a finished graph holds
  vectors alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


@dataclass(frozen=True, slots=True)
class StateVector:
    """Canonical, hashable projection of a runtime configuration."""

    fluents: tuple[bool, ...]
    metrics: tuple[object, ...]
    channels: tuple[tuple[Key, ...], ...]
    pending: tuple[Key, ...]
    timers: tuple[int, ...]
    last_event: Key | None


class Layout:
    """Key orderings that map runtime state onto vector slots."""

    def __init__(self, program: Program) -> None:
        self.fluent_keys: tuple[Key, ...] = tuple(program.fluent_keys)
        self.metric_keys: tuple[Key, ...] = tuple(program.metrics)
        self.channel_keys: tuple[Key, ...] = tuple(program.channel_keys)
        self.fluent_index = {key: i for i, key in enumerate(self.fluent_keys)}
        self.metric_index = {key: i for i, key in enumerate(self.metric_keys)}

    def in_slot_order(self, state: RuntimeState) -> bool:
        """Whether the state's dicts iterate in this layout's key order."""
        return (
            tuple(state.fluents) == self.fluent_keys
            and tuple(state.metrics) == self.metric_keys
            and tuple(state.channels) == self.channel_keys
        )

    def vector(self, state: RuntimeState) -> StateVector:
        """Project a state whose dicts are in slot order (see module doc)."""
        tick = state.tick
        return StateVector(
            tuple(state.fluents.values()),
            tuple(state.metrics.values()),
            tuple([tuple(queue) for queue in state.channels.values()]),
            tuple([occ.event for occ in state.pending]),
            tuple([t - tick for t in state.timers]),
            state.last_event,
        )


@dataclass
class Lts:
    """Explicit labeled transition system; state 0 is initial.

    ``succ[s]`` holds the (edge label, target) pairs leaving state ``s`` in
    label order; ``parent[s]`` is the (source, edge label) that discovered
    ``s``, and ``None`` for the initial state.
    """

    layout: Layout
    states: list[StateVector]
    succ: list[list[tuple[str, int]]]
    parent: list[tuple[int, str] | None]
    expanded: frozenset[int]
    truncated: bool
    env: tuple[EnvStimulus, ...]
    bounds: Bounds
    initial: int = 0
    _metric_atoms: dict[tuple[int, object, type], str] = field(
        default_factory=dict, repr=False
    )

    def labeling(self, state_id: int) -> frozenset[str]:
        """Atomic propositions holding at a state."""
        vec = self.states[state_id]
        layout = self.layout
        props = {
            f"fluent:{qual(key)}"
            for key, active in zip(layout.fluent_keys, vec.fluents)
            if active
        }
        # Keyed by type too: True, 1 and 1.0 hash equal but render apart.
        # Floats skip the cache, since 0.0 == -0.0 as well.
        atoms = self._metric_atoms
        for slot, value in enumerate(vec.metrics):
            cache_key = (slot, value, type(value))
            atom = atoms.get(cache_key)
            if atom is None:
                key = layout.metric_keys[slot]
                atom = f"metric:{qual(key)}={render_value(value, type_of_value(value))}"
                if type(value) is not float:
                    atoms[cache_key] = atom
            props.add(atom)
        if vec.last_event is not None:
            props.add(f"event:{qual(vec.last_event)}")
        return frozenset(props)

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
    layout = Layout(runtime.program)
    if env is None:
        env = default_env(spec)
    env = tuple(sorted(env, key=lambda stim: stim.render()))
    # Edge labels are rendered once, so edges share their label strings.
    env_labels = [stim.render() for stim in env]
    proc_labels: dict[Key, str] = {}

    initial = runtime.init()
    assert layout.in_slot_order(initial), "runtime state dicts are not in slot order"
    states: list[StateVector] = [layout.vector(initial)]
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
                vec = layout.vector(nxt)
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
        layout=layout,
        states=states,
        succ=succ,
        parent=parent,
        expanded=frozenset(expanded),
        truncated=truncated,
        env=env,
        bounds=bounds,
    )


def lts_to_text(lts: Lts) -> str:
    """Graph description: nodes with proposition labels, labeled edges."""
    lines = [
        f"lts states={lts.state_count} edges={lts.edge_count}"
        f" truncated={'true' if lts.truncated else 'false'}"
    ]
    for state_id in range(lts.state_count):
        props = " ".join(sorted(lts.labeling(state_id)))
        marker = " initial" if state_id == lts.initial else ""
        lines.append(f"state {state_id}{marker} {props}".rstrip())
    for src, adjacency in enumerate(lts.succ):
        for label, dst in adjacency:
            lines.append(f'edge {src} -> {dst} "{label}"')
    return "\n".join(lines) + "\n"

"""Deterministic interpreter for checked specifications.

One :class:`Runtime` instance is single threaded; distinct instances may run
in parallel. A run is a pure function of (specification, scenario, seed,
config): there is no wall clock and no hidden randomness.

A runtime executes the spec's :class:`~asslkit.program.Program`, which
``check_all`` builds once and every runtime on that spec shares. Built once
there: the subscription and timer tables, each action's statements with
their callees, metrics, messages and channels resolved to keys, every guard,
ENSURES clause and assigned value compiled to a closure, every qualified
name and fixed trace detail, and one ``(event, cause)`` occurrence per
subscription. Creating a runtime builds no tables. What a step does is only
what depends on state: call a guard closure, flip fluents, run statements,
render an assigned metric's old and new values, extend the pending queue
with interned occurrences, queue message keys on channels, and, when
recording, append a trace record of already rendered strings. ``drain``
pops the pending queue itself, and a tick that shuffles re-seeds one
generator kept on the runtime.

Execution semantics, pinned here because the surface language leaves them
open:

* CHANGED activations are write triggered: every assignment enqueues them,
  even when the value is unchanged. Guards of CHANGED-activated events read
  the state as it is when the occurrence is processed, after the assignment.
  So an occurrence needs no record of the value it replaced, which lets the
  verifier's state vectors keep pending occurrences as bare event keys.
* Simultaneous enqueues are ordered by declaration order of the subscribed
  events (the AS tier first, then AE tiers in declaration order).
* Re-initiating an active fluent is a no-op, which preserves the strict
  initiate/terminate alternation of every fluent's trace records.
* A mapping fires only on the rising edge of its condition set: some
  condition fluent was initiated by the occurrence being processed and all
  conditions are now active.
* An ENSURES violation routes to the error path (ONERR_DOES, then
  ONERR_TRIGGERS), like a Fail statement or a failing callee.
* Time is an integer tick. Scenario stimuli apply at quiescent states, one
  at a time, with the pending queue drained in between. Advancing the clock
  delivers queued channel messages to their receiving elements and fires due
  ELAPSED activations, which re-arm for their declared period. Element order
  within those phases follows a per-tick shuffle seeded from (seed, tick);
  ``RunConfig.interleave="declared"`` uses declaration order instead, which
  the verifier and counterexample replay rely on. A tick visits only the
  non-empty channels and the elements that receive a message or own a due
  timer. The shuffle is drawn only when at least two elements act in the
  tick, and those elements keep their relative order in the full
  permutation. The generator is re-seeded from (seed, tick) for every
  shuffled tick, so skipping a draw changes no other tick.
* A drain that has not reached quiescence after ``MAX_DRAIN_STEPS`` steps is
  an event-cascade livelock; the run stops and ``Trace.aborted``
  names the tick and the step count.
"""

from __future__ import annotations

import random
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass

from ..checker import CheckedSpec
from ..names import Key
from ..nodes import render_value, type_of_value
from ..program import (
    MAX_CALL_DEPTH,
    ActionInfo,
    Assign,
    Call,
    Op,
    Send,
    send_details,
)
from .scenario import Halt, InjectEvent, Scenario, SendMessage, SetMetric, Stimulus
from .state import (
    ACTION_FAILED,
    ACTION_STARTED,
    ACTION_SUCCEEDED,
    ENSURES_VIOLATED,
    EVENT_RAISED,
    EVENT_SUPPRESSED,
    FLUENT_INITIATED,
    FLUENT_TERMINATED,
    MAPPING_FIRED,
    MESSAGE_RECEIVED,
    MESSAGE_SENT,
    METRIC_ASSIGNED,
    EventOccurrence,
    RuntimeState,
    Trace,
)

SUCCESS = "Success"
GUARD_REJECTED = "GuardRejected"
ERROR = "Error"

INTERLEAVE_MODES = ("seeded", "declared")


class DepthLimitError(Exception):
    """Action calls nested deeper than ``MAX_CALL_DEPTH``.

    ``check_all`` rejects a spec with a call chain that deep (E-DEPTH), so a
    checked spec never raises it.
    """


class LivelockError(Exception):
    """A drain exceeded ``MAX_DRAIN_STEPS`` without reaching quiescence."""


#: Occurrences one drain may process before the run is declared livelocked.
#: The longest drain measured on the shipped missions (scenarios and generated
#: suites), on the benchmark's 3,000-tick self-healing and 1,500-tick
#: 40-worker runs, on 10-worker test generation and on 200 random specs is
#: 11 steps. 10,000 is far above that and still bounds a livelocked run: the
#: cascade spec in ``tests/test_cli.py`` stops after 70,000 trace records.
MAX_DRAIN_STEPS = 10_000


@dataclass(frozen=True)
class RunConfig:
    interleave: str = "seeded"  # one of INTERLEAVE_MODES

    def __post_init__(self) -> None:
        if self.interleave not in INTERLEAVE_MODES:
            raise ValueError(
                f"unknown interleave mode {self.interleave!r};"
                f" expected one of {', '.join(INTERLEAVE_MODES)}"
            )


class Runtime:
    """Interpreter for one checked specification."""

    def __init__(
        self,
        spec: CheckedSpec,
        seed: int = 0,
        config: RunConfig | None = None,
        record: bool = True,
    ) -> None:
        if not spec.ok:
            raise ValueError("specification has errors; run check_all first")
        self.seed = seed
        self.config = config or RunConfig()
        self.trace: Trace | None = Trace() if record else None
        self.program = spec.program
        self._rng = random.Random()  # re-seeded for every shuffled tick

    def init(self) -> RuntimeState:
        """Fresh state: fluents inactive, metrics at initial values, tick 0."""
        if self.trace is not None:
            self.trace = Trace()
        program = self.program
        return RuntimeState(
            tick=0,
            fluents=dict.fromkeys(program.fluent_keys, False),
            metrics=dict(program.initial_metrics),
            # send_message appends to a queue in place, so each is a new list
            channels={key: [] for key in program.channel_keys},
            pending=deque(),
            timers=[period for _occurrence, period in program.timer_slots],
        )

    # -- core operations -----------------------------------------------------------
    # Each recording site tests ``self.trace`` first, so no record is made when
    # recording is off (the verifier's inner loop), and appends text the
    # program rendered when it was built.

    def raise_event(self, state: RuntimeState, occ: EventOccurrence) -> bool:
        """Process one occurrence: guard, fluent flips, then mapping firing.

        Returns True when the event was raised, False when suppressed.
        """
        event, cause = occ
        program = self.program
        names = program.names
        info = program.events[event]
        trace = self.trace
        fluents = state.fluents
        guard = info.guard
        if guard is not None and not guard(state.metrics, fluents, None):
            if trace is not None:
                trace.append(state.tick, EVENT_SUPPRESSED, names[event], "guard false")
            state.last_event = None
            return False
        if trace is not None:
            trace.append(state.tick, EVENT_RAISED, names[event], cause)
        state.last_event = event

        initiated: list[Key] = []
        for fkey in program.initiators.get(event, ()):
            if not fluents[fkey]:
                fluents[fkey] = True
                initiated.append(fkey)
                if trace is not None:
                    trace.append(state.tick, FLUENT_INITIATED, names[fkey], info.by)
        for fkey in program.terminators.get(event, ()):
            if fluents[fkey]:
                fluents[fkey] = False
                if trace is not None:
                    trace.append(state.tick, FLUENT_TERMINATED, names[fkey], info.by)

        if initiated:
            just_initiated = set(initiated)
            for mapping in program.mappings[event[0]]:
                if not just_initiated.intersection(mapping.conditions):
                    continue
                if not all(fluents[c] for c in mapping.conditions):
                    continue
                if trace is not None:
                    trace.append(state.tick, MAPPING_FIRED, mapping.subject, mapping.detail)
                for action_key in mapping.actions:
                    self.execute_action(state, action_key, mapping.cause)
        return True

    def execute_action(
        self, state: RuntimeState, action_key: Key, cause: str, depth: int = 0
    ) -> tuple[str, str | None]:
        """Run one action. Returns (outcome, failure reason).

        Outcome is SUCCESS, GUARD_REJECTED, or ERROR. Guard rejection runs no
        statements and leaves no trace records. ``cause`` is trace text only.
        """
        program = self.program
        if depth > MAX_CALL_DEPTH:
            raise DepthLimitError(f"call depth exceeded at {program.names[action_key]}")
        info = program.actions[action_key]
        guard = info.guard
        if guard is not None and not guard(state.metrics, state.fluents, None):
            return GUARD_REJECTED, None
        trace = self.trace
        name = program.names[action_key]
        if trace is not None:
            trace.append(state.tick, ACTION_STARTED, name, cause)

        bindings: dict[str, bool] = {}
        failure: str | None = None
        for op in info.does:
            failure = self._exec_op(state, op, info, bindings, depth)
            if failure is not None:
                break

        ensures = info.ensures
        if failure is None and ensures is not None:
            if not ensures(state.metrics, state.fluents, bindings):
                if trace is not None:
                    trace.append(state.tick, ENSURES_VIOLATED, name, info.ensures_text)
                failure = "ENSURES violated"

        if failure is None:
            if trace is not None:
                trace.append(state.tick, ACTION_SUCCEEDED, name, "")
            state.pending.extend(info.triggers)
            return SUCCESS, None

        if trace is not None:
            trace.append(state.tick, ACTION_FAILED, name, failure)
        for op in info.onerr_does:
            if self._exec_op(state, op, info, bindings, depth) is not None:
                break  # a failure inside the error path aborts it
        state.pending.extend(info.onerr_triggers)
        return ERROR, failure

    def _exec_op(
        self,
        state: RuntimeState,
        op: Op,
        caller: ActionInfo,
        bindings: dict[str, bool],
        depth: int,
    ) -> str | None:
        """Run one resolved statement; returns a failure reason or None."""
        kind = type(op)
        if kind is Assign:
            self.assign_metric(state, op.metric, op.compute(state.metrics, state.fluents, bindings))
            return None
        if kind is Call:
            outcome, reason = self.execute_action(state, op.callee, caller.called_by, depth + 1)
            if outcome == ERROR:
                return f"call {self.program.names[op.callee]} failed: {reason}"
            if op.binding:
                bindings[op.binding] = outcome == SUCCESS
            return None
        if kind is Send:
            self._send(state, op.message, op.channel, op.sent, op.dropped)
            return None
        return op.reason

    def assign_metric(self, state: RuntimeState, metric: Key, value: object) -> None:
        """Write a metric and enqueue CHANGED occurrences (write triggered)."""
        metrics = state.metrics
        if self.trace is not None:
            old = metrics[metric]
            detail = (
                f"{render_value(old, type_of_value(old))}"
                f" -> {render_value(value, type_of_value(value))}"
            )
            self.trace.append(state.tick, METRIC_ASSIGNED, self.program.names[metric], detail)
        metrics[metric] = value
        state.pending.extend(self.program.changed_subs.get(metric, ()))

    def send_message(
        self, state: RuntimeState, message: Key, channel: Key, sender: str
    ) -> bool:
        """Enqueue a message; returns False when the channel was full."""
        return self._send(state, message, channel, *send_details(channel, sender))

    def _send(
        self, state: RuntimeState, message: Key, channel: Key, sent: str, dropped: str
    ) -> bool:
        """Queue a message; ``sent`` and ``dropped`` are the two possible trace details."""
        queue = state.channels[channel]
        trace = self.trace
        if len(queue) >= self.program.channel_capacity[channel]:
            if trace is not None:
                trace.append(state.tick, MESSAGE_SENT, self.program.names[message], dropped)
            return False
        queue.append(message)
        if trace is not None:
            trace.append(state.tick, MESSAGE_SENT, self.program.names[message], sent)
        state.pending.extend(self.program.sent_subs.get(message, ()))
        return True

    def step(self, state: RuntimeState) -> Key | None:
        """Dequeue and process exactly one occurrence; identity when idle."""
        if not state.pending:
            return None
        occ = state.pending.popleft()
        self.raise_event(state, occ)
        return occ.event

    def drain(self, state: RuntimeState) -> None:
        """Process occurrences until quiescent; raise LivelockError past the step budget."""
        pending = state.pending
        raise_event = self.raise_event
        budget = MAX_DRAIN_STEPS
        steps = 0
        while pending:
            if steps == budget:
                raise LivelockError(
                    f"livelock: not quiescent after {steps} drain steps at tick {state.tick}"
                )
            raise_event(state, pending.popleft())
            steps += 1

    # -- time ----------------------------------------------------------------------

    def element_order(self, tick: int) -> list[str]:
        """Element processing order for a tick's delivery and timer phases."""
        order = list(self.program.elements)
        if self.config.interleave == "seeded" and len(order) > 1:
            # Seeding a reused generator gives the permutation a new
            # ``random.Random(seed)`` would.
            rng = self._rng
            rng.seed(self.seed * 1_000_003 + tick)
            rng.shuffle(order)
        return order

    def advance_tick(self, state: RuntimeState) -> None:
        """Advance the clock: deliver queued messages, then fire due timers.

        Only the elements that receive a message or own a due timer act, so
        an idle tick costs one scan of the channels and one of the timers.
        """
        state.tick += 1
        state.last_event = None
        tick = state.tick
        channels = state.channels
        program = self.program
        busy = [key for key in program.channel_keys if channels[key]]
        receiver_of = program.receiver_of
        acting = {receiver_of[message] for key in busy for message in channels[key]}
        acting.discard(None)
        timers = state.timers
        if timers and min(timers) <= tick:
            timer_slots = program.timer_slots
            acting.update(
                timer_slots[slot][0].event[0] for slot, due in enumerate(timers) if due <= tick
            )
        if not acting:
            return
        if len(acting) == 1:
            order = list(acting)
        else:
            order = [elem for elem in self.element_order(tick) if elem in acting]
        trace = self.trace
        names = program.names
        received_subs = program.received_subs
        pending = state.pending
        for elem in order:
            for channel in busy:
                queue = channels[channel]
                remaining: list[Key] = []
                for message in queue:
                    if receiver_of[message] != elem:
                        remaining.append(message)
                        continue
                    if trace is not None:
                        trace.append(
                            tick, MESSAGE_RECEIVED, names[message],
                            f"by {elem} over {names[channel]}",
                        )
                    pending.extend(received_subs.get(message, ()))
                if len(remaining) != len(queue):
                    channels[channel] = remaining
        for elem in order:
            for slot in program.timers_by_element[elem]:
                if timers[slot] <= tick:
                    occurrence, period = program.timer_slots[slot]
                    pending.append(occurrence)
                    timers[slot] = tick + period

    # -- stimuli and runs -------------------------------------------------------------

    def apply_stimulus(self, state: RuntimeState, stimulus: Stimulus) -> None:
        state.last_event = None
        if isinstance(stimulus, InjectEvent):
            state.pending.append(EventOccurrence(stimulus.event, "injected"))
        elif isinstance(stimulus, SetMetric):
            self.assign_metric(state, stimulus.metric, stimulus.value)
        elif isinstance(stimulus, SendMessage):
            sender = self.program.messages[stimulus.message].sender
            self.send_message(state, stimulus.message, stimulus.channel, sender)
        else:
            raise ValueError(f"cannot apply {stimulus!r} directly")

    def run(
        self,
        scenario: Scenario,
        max_ticks: int = 1000,
        stop: Callable[[Trace, int], bool] | None = None,
    ) -> Trace:
        """Execute a scenario to halt, quiescent exhaustion, or max_ticks.

        ``stop(trace, tick)`` is called at every tick boundary, before the
        tick's stimuli are applied; when it returns True the run ends there,
        and the trace holds exactly the records made before that tick's
        stimuli. A run that exceeds a bound ends with ``Trace.aborted`` set.
        """
        if max_ticks < 1:
            raise ValueError("max_ticks must be at least 1")
        state = self.init()
        trace = self.trace if self.trace is not None else Trace()
        steps = list(scenario.steps)
        index = 0
        try:
            halted = False
            while True:
                if stop is not None and stop(trace, state.tick):
                    break
                while index < len(steps) and steps[index][0] <= state.tick:
                    stimulus = steps[index][1]
                    index += 1
                    if isinstance(stimulus, Halt):
                        halted = True
                        break
                    self.apply_stimulus(state, stimulus)
                    self.drain(state)
                if halted or index >= len(steps) or state.tick >= max_ticks:
                    break
                self.advance_tick(state)
                self.drain(state)
        except (DepthLimitError, LivelockError) as err:
            trace.aborted = str(err)
        return trace


def run(
    spec: CheckedSpec,
    scenario: Scenario,
    max_ticks: int = 1000,
    seed: int | None = None,
    config: RunConfig | None = None,
) -> Trace:
    """Run a scenario against a checked spec and return the trace."""
    runtime = Runtime(spec, seed=scenario.seed if seed is None else seed, config=config)
    return runtime.run(scenario, max_ticks=max_ticks)

"""Deterministic interpreter for checked specifications.

One :class:`Runtime` instance is single threaded; distinct instances may run
in parallel. A run is a pure function of (specification, scenario, seed):
there is no wall clock and no hidden randomness.

The runtime alone decides how a move runs: ``apply_stimulus`` applies an
environment stimulus, the clock ``Tick`` included, and ``step`` processes
one pending occurrence. The verifier's exploration and counterexample
replay drive it through these two calls only. ``step`` returns the event
it raised, or None when a guard suppressed it or the queue was idle; a
stimulus raises no event.

Copy on write: a state's fluents, metrics, channel list, channel queues
and timers may be given as tuples, as the verifier gives the parts of the
state vector a move starts from. A part given as a tuple is copied into a
list where the runtime first writes it: a fluent flip, a metric
assignment, a send's append (the channel list and the one queue), a
tick's emptied channels, a timer re-arm. So a move leaves every part
it does not write the caller's own object, and only these five sites know
what a move writes. ``init`` builds lists, which are written in place.

A runtime executes the spec's :class:`~asslkit.program.Program`, which
``check_all`` builds once and every runtime on that spec shares; everything
that does not depend on state is built there (see ``asslkit.program``).
Creating a runtime builds no tables. What a step does is only what depends
on state: call a guard closure, flip fluents, run statements, render an
assigned metric's old and new values, extend the pending queue with
interned occurrences, queue message keys on channels, and, when recording,
append a ``(tick, kind, subject, detail)`` row of already rendered strings
to ``Trace.rows``, save those metric values and a delivered message's
``by <element> over <channel>`` detail. ``drain`` pops the pending queue
itself, and a tick that shuffles re-seeds one generator kept on the runtime.

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
  delivers every queued channel message to its receiver and fires due
  ELAPSED activations, which re-arm for their declared period. Element order
  within those phases follows a per-tick shuffle seeded from (seed, tick);
  ``seed=None`` uses declaration order instead, which the verifier and
  counterexample replay rely on. A tick visits only the
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

from ..checker import CheckedSpec
from ..names import Key
from ..nodes import render_value
from ..program import (
    ActionInfo,
    Assign,
    Call,
    Op,
    Send,
)
from .scenario import EnvStimulus, Halt, InjectEvent, Scenario, SendMessage, SetMetric, Tick
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

class LivelockError(Exception):
    """A drain exceeded ``MAX_DRAIN_STEPS`` without reaching quiescence."""


#: Occurrences one drain may process before the run is declared livelocked.
#: The longest drain measured on the shipped missions (scenarios and generated
#: suites), on the benchmark's 3,000-tick self-healing and 1,500-tick
#: 40-worker runs, on 10-worker test generation and on 200 random specs is
#: 11 steps. 10,000 is far above that and still bounds a livelocked run: the
#: cascade spec in ``tests/test_cli.py`` stops after 70,000 trace records.
MAX_DRAIN_STEPS = 10_000


class Runtime:
    """Interpreter for one checked specification.

    ``seed`` picks each tick's element order; ``None`` keeps declaration
    order. ``check_all`` has rejected call cycles and call chains deeper
    than ``MAX_CALL_DEPTH``, so actions call each other without a depth
    guard.
    """

    def __init__(self, spec: CheckedSpec, seed: int | None = 0, record: bool = True) -> None:
        if not spec.ok:
            raise ValueError("specification has errors; run check_all first")
        self.seed = seed
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
            fluents=[False] * len(program.fluent_keys),
            metrics=list(program.initial_metrics),
            # a send appends to a queue in place, so each is a new list
            channels=[[] for _ in program.channel_keys],
            pending=deque(),
            timers=[period for _occurrence, period in program.timer_slots],
        )

    # -- core operations -----------------------------------------------------------
    # Each recording site tests ``self.trace`` first, so no record is made when
    # recording is off (the verifier's inner loop), and appends one row tuple
    # to ``trace.rows`` itself, of text the program rendered when it was
    # built, except an assigned metric's values and a delivered message's
    # detail.

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
                trace.rows.append((state.tick, EVENT_SUPPRESSED, names[event], "guard false"))
            return False
        if trace is not None:
            trace.rows.append((state.tick, EVENT_RAISED, names[event], cause))

        fluent_keys = program.fluent_keys
        initiated: list[int] = []
        for slot in program.initiators.get(event, ()):
            if not fluents[slot]:
                if type(fluents) is tuple:
                    fluents = state.fluents = list(fluents)
                fluents[slot] = True
                initiated.append(slot)
                if trace is not None:
                    trace.rows.append(
                        (state.tick, FLUENT_INITIATED, names[fluent_keys[slot]], info.by)
                    )
        for slot in program.terminators.get(event, ()):
            if fluents[slot]:
                if type(fluents) is tuple:
                    fluents = state.fluents = list(fluents)
                fluents[slot] = False
                if trace is not None:
                    trace.rows.append(
                        (state.tick, FLUENT_TERMINATED, names[fluent_keys[slot]], info.by)
                    )

        if initiated:
            just_initiated = set(initiated)
            for mapping in program.mappings[event[0]]:
                if not just_initiated.intersection(mapping.conditions):
                    continue
                if not all(fluents[c] for c in mapping.conditions):
                    continue
                if trace is not None:
                    trace.rows.append((state.tick, MAPPING_FIRED, mapping.subject, mapping.detail))
                for action_key in mapping.actions:
                    self.execute_action(state, action_key, mapping.cause)
        return True

    def execute_action(
        self, state: RuntimeState, action_key: Key, cause: str
    ) -> tuple[str, str | None]:
        """Run one action. Returns (outcome, failure reason).

        Outcome is SUCCESS, GUARD_REJECTED, or ERROR. Guard rejection runs no
        statements and leaves no trace records. ``cause`` is trace text only.
        """
        program = self.program
        info = program.actions[action_key]
        guard = info.guard
        if guard is not None and not guard(state.metrics, state.fluents, None):
            return GUARD_REJECTED, None
        trace = self.trace
        name = program.names[action_key]
        if trace is not None:
            trace.rows.append((state.tick, ACTION_STARTED, name, cause))

        bindings: dict[str, bool] = {}
        failure: str | None = None
        for op in info.does:
            failure = self._exec_op(state, op, info, bindings)
            if failure is not None:
                break

        ensures = info.ensures
        if failure is None and ensures is not None:
            if not ensures(state.metrics, state.fluents, bindings):
                if trace is not None:
                    trace.rows.append((state.tick, ENSURES_VIOLATED, name, info.ensures_text))
                failure = "ENSURES violated"

        if failure is None:
            if trace is not None:
                trace.rows.append((state.tick, ACTION_SUCCEEDED, name, ""))
            state.pending.extend(info.triggers)
            return SUCCESS, None

        if trace is not None:
            trace.rows.append((state.tick, ACTION_FAILED, name, failure))
        for op in info.onerr_does:
            if self._exec_op(state, op, info, bindings) is not None:
                break  # a failure inside the error path aborts it
        state.pending.extend(info.onerr_triggers)
        return ERROR, failure

    def _exec_op(
        self,
        state: RuntimeState,
        op: Op,
        caller: ActionInfo,
        bindings: dict[str, bool],
    ) -> str | None:
        """Run one resolved statement; returns a failure reason or None."""
        kind = type(op)
        if kind is Assign:
            self.assign_metric(state, op.metric, op.compute(state.metrics, state.fluents, bindings))
            return None
        if kind is Call:
            outcome, reason = self.execute_action(state, op.callee, caller.called_by)
            if outcome == ERROR:
                return f"call {self.program.names[op.callee]} failed: {reason}"
            if op.binding:
                bindings[op.binding] = outcome == SUCCESS
            return None
        if kind is Send:
            self._send(state, op.message, op.channel, op.sent, op.dropped)
            return None
        return op.reason

    def assign_metric(self, state: RuntimeState, slot: int, value: object) -> None:
        """Write the metric at ``slot``; enqueue its CHANGED occurrences (write triggered)."""
        metrics = state.metrics
        program = self.program
        if self.trace is not None:
            old = metrics[slot]
            detail = f"{render_value(old)} -> {render_value(value)}"
            name = program.names[program.metric_keys[slot]]
            self.trace.rows.append((state.tick, METRIC_ASSIGNED, name, detail))
        if type(metrics) is tuple:
            metrics = state.metrics = list(metrics)
        metrics[slot] = value
        state.pending.extend(program.changed_subs[slot])

    def _send(
        self, state: RuntimeState, message: Key, channel: int, sent: str, dropped: str
    ) -> None:
        """Queue a message on the channel at slot ``channel``, or drop it when the
        channel is full; ``sent`` and ``dropped`` are the two possible trace details."""
        channels = state.channels
        queue = channels[channel]
        trace = self.trace
        if len(queue) >= self.program.channel_capacity[channel]:
            if trace is not None:
                trace.rows.append((state.tick, MESSAGE_SENT, self.program.names[message], dropped))
            return
        if type(queue) is tuple:
            if type(channels) is tuple:
                channels = state.channels = list(channels)
            queue = channels[channel] = list(queue)
        queue.append(message)
        if trace is not None:
            trace.rows.append((state.tick, MESSAGE_SENT, self.program.names[message], sent))
        state.pending.extend(self.program.sent_subs.get(message, ()))

    def step(self, state: RuntimeState) -> Key | None:
        """Dequeue and process exactly one occurrence; identity when idle.
        Returns the event raised, or None when its guard suppressed it or
        the queue was idle."""
        if not state.pending:
            return None
        occ = state.pending.popleft()
        return occ.event if self.raise_event(state, occ) else None

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
        if self.seed is not None and len(order) > 1:
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
        tick = state.tick
        channels = state.channels
        program = self.program
        busy = [slot for slot, queue in enumerate(channels) if queue]
        receiver_of = program.receiver_of
        acting = {receiver_of[message] for slot in busy for message in channels[slot]}
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
                for message in channels[channel]:
                    if receiver_of[message] == elem:
                        if trace is not None:
                            trace.rows.append((
                                tick, MESSAGE_RECEIVED, names[message],
                                f"by {elem} over {names[program.channel_keys[channel]]}",
                            ))
                        pending.extend(received_subs.get(message, ()))
        if busy and type(channels) is tuple:  # every receiver acted: empty the busy channels
            channels = state.channels = list(channels)
        for channel in busy:
            channels[channel] = []
        for elem in order:
            for slot in program.timers_by_element[elem]:
                if timers[slot] <= tick:
                    occurrence, period = program.timer_slots[slot]
                    pending.append(occurrence)
                    if type(timers) is tuple:
                        timers = state.timers = list(timers)
                    timers[slot] = tick + period

    # -- stimuli and runs -------------------------------------------------------------

    def apply_stimulus(self, state: RuntimeState, stimulus: EnvStimulus) -> None:
        """Apply one environment move; a ``Tick`` advances the clock."""
        kind = type(stimulus)
        if kind is Tick:
            self.advance_tick(state)
            return
        if kind is InjectEvent:
            state.pending.append(EventOccurrence(stimulus.event, "injected"))
        elif kind is SetMetric:
            self.assign_metric(state, self.program.metric_slot[stimulus.metric], stimulus.value)
        elif kind is SendMessage:
            program, message, channel = self.program, stimulus.message, stimulus.channel
            details = program.send_details(channel, program.messages[message].sender)
            self._send(state, message, program.channel_slot[channel], *details)
        else:
            raise ValueError(f"cannot apply {stimulus!r} directly")

    def run(
        self,
        scenario: Scenario,
        max_ticks: int = 1000,
        stop: Callable[[Trace, int], bool] | None = None,
    ) -> Trace:
        """Execute a scenario to its halt, its last step, or tick ``max_ticks``.

        ``stop(trace, tick)`` is called at every tick boundary, before the
        tick's stimuli are applied; when it returns True the run ends there,
        and the trace holds exactly the records made before that tick's
        stimuli. A run that exceeds a bound ends with ``Trace.aborted`` set:
        a drain past ``MAX_DRAIN_STEPS``, or a tick budget that ends the run
        while scenario steps remain.
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
                if halted or index >= len(steps):
                    break
                if state.tick >= max_ticks:
                    trace.aborted = (
                        f"tick budget: stopped at tick {state.tick} with"
                        f" {len(steps) - index} scenario steps not applied"
                    )
                    break
                self.advance_tick(state)
                self.drain(state)
        except LivelockError as err:
            trace.aborted = str(err)
        return trace


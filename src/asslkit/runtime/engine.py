"""Deterministic interpreter for checked specifications.

One :class:`Runtime` instance is single threaded; distinct instances may run
in parallel. A run is a pure function of (specification, scenario, seed,
config): there is no wall clock and no hidden randomness.

A runtime executes the spec's :class:`~asslkit.program.Program`, which
``check_all`` builds once and every runtime on that spec shares: the
subscription and timer tables, and each action's statements with their
callees, metrics, messages and channels already resolved to keys. Creating
a runtime builds no tables, and running one resolves no names.

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
  permutation. Each tick seeds its own generator, so skipping a draw
  changes no other tick.
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
from ..names import Key, qual
from ..nodes import (
    BinaryExpr,
    BindingRefExpr,
    CompareExpr,
    Expr,
    FluentRefExpr,
    Lit,
    MetricRefExpr,
    NotExpr,
    render_value,
    type_of_value,
)
from ..printer import format_expr
from ..program import MAX_CALL_DEPTH, Assign, Call, Op, Send
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
    Activation,
    EventOccurrence,
    Injected,
    RuntimeState,
    Trace,
    Triggered,
)

SUCCESS = "Success"
GUARD_REJECTED = "GuardRejected"
ERROR = "Error"


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
    interleave: str = "seeded"  # "seeded" | "declared"


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
            timers=[period for _event, period in program.timer_slots],
        )

    def _record(self, state: RuntimeState, kind: str, subject: str, detail: str = "") -> None:
        # Callers test ``self.trace`` first, so no record text is built when
        # recording is off (the verifier's inner loop).
        assert self.trace is not None
        self.trace.append(state.tick, kind, subject, detail)

    # -- expression evaluation ---------------------------------------------------

    def eval_expr(
        self,
        expr: Expr,
        state: RuntimeState,
        element: str,
        bindings: dict[str, bool] | None = None,
    ) -> object:
        """Total evaluation; checking guarantees no type faults remain."""
        if isinstance(expr, Lit):
            return expr.value
        if isinstance(expr, MetricRefExpr):
            return state.metrics[(element, expr.name)]
        if isinstance(expr, FluentRefExpr):
            return state.fluents[(element, expr.name)]
        if isinstance(expr, BindingRefExpr):
            return bool(bindings.get(expr.name, False)) if bindings else False
        if isinstance(expr, NotExpr):
            return not self.eval_expr(expr.operand, state, element, bindings)
        if isinstance(expr, BinaryExpr):
            left = self.eval_expr(expr.left, state, element, bindings)
            if expr.op == "AND":
                return bool(left) and bool(self.eval_expr(expr.right, state, element, bindings))
            return bool(left) or bool(self.eval_expr(expr.right, state, element, bindings))
        assert isinstance(expr, CompareExpr)
        left = self.eval_expr(expr.left, state, element, bindings)
        right = self.eval_expr(expr.right, state, element, bindings)
        op = expr.op
        if op == "=":
            return left == right
        if op == "!=":
            return left != right
        if op == "<":
            return left < right  # type: ignore[operator]
        if op == "<=":
            return left <= right  # type: ignore[operator]
        if op == ">":
            return left > right  # type: ignore[operator]
        return left >= right  # type: ignore[operator]

    # -- core operations -----------------------------------------------------------

    def raise_event(self, state: RuntimeState, occ: EventOccurrence) -> bool:
        """Process one occurrence: guard, fluent flips, then mapping firing.

        Returns True when the event was raised, False when suppressed.
        """
        recording = self.trace is not None
        program = self.program
        event = occ.event
        element = event[0]
        guard = program.events[event].decl.guard
        if guard is not None and not self.eval_expr(guard, state, element):
            if recording:
                self._record(state, EVENT_SUPPRESSED, qual(event), "guard false")
            state.last_event = None
            return False
        if recording:
            self._record(state, EVENT_RAISED, qual(event), occ.cause.render())
        state.last_event = event

        initiated: list[Key] = []
        for fkey in program.initiators.get(event, ()):
            if not state.fluents[fkey]:
                state.fluents[fkey] = True
                initiated.append(fkey)
                if recording:
                    self._record(state, FLUENT_INITIATED, qual(fkey), f"by {qual(event)}")
        for fkey in program.terminators.get(event, ()):
            if state.fluents[fkey]:
                state.fluents[fkey] = False
                if recording:
                    self._record(state, FLUENT_TERMINATED, qual(fkey), f"by {qual(event)}")

        if initiated:
            just_initiated = set(initiated)
            for mapping in program.mappings[element]:
                if not just_initiated.intersection(mapping.conditions):
                    continue
                if not all(state.fluents[c] for c in mapping.conditions):
                    continue
                cause = ""
                if recording:
                    detail = "conditions: " + ", ".join(qual(c) for c in mapping.conditions)
                    self._record(state, MAPPING_FIRED, mapping.subject, detail)
                    cause = f"mapping {mapping.subject}"
                for action_key in mapping.actions:
                    self.execute_action(state, action_key, cause)
        return True

    def execute_action(
        self, state: RuntimeState, action_key: Key, cause: str, depth: int = 0
    ) -> tuple[str, str | None]:
        """Run one action. Returns (outcome, failure reason).

        Outcome is SUCCESS, GUARD_REJECTED, or ERROR. Guard rejection runs no
        statements and leaves no trace records. ``cause`` is trace text only.
        """
        if depth > MAX_CALL_DEPTH:
            raise DepthLimitError(f"call depth exceeded at {qual(action_key)}")
        info = self.program.actions[action_key]
        decl = info.decl
        element = action_key[0]
        bindings: dict[str, bool] = {}
        if decl.guard is not None and not self.eval_expr(decl.guard, state, element):
            return GUARD_REJECTED, None
        recording = self.trace is not None
        if recording:
            self._record(state, ACTION_STARTED, qual(action_key), cause)

        failure: str | None = None
        for op in info.does:
            failure = self._exec_op(state, op, action_key, bindings, depth)
            if failure is not None:
                break

        if failure is None and decl.ensures is not None:
            if not self.eval_expr(decl.ensures, state, element, bindings):
                if recording:
                    self._record(
                        state, ENSURES_VIOLATED, qual(action_key), format_expr(decl.ensures)
                    )
                failure = "ENSURES violated"

        if failure is None:
            if recording:
                self._record(state, ACTION_SUCCEEDED, qual(action_key))
            for event in info.triggers:
                self._enqueue(state, EventOccurrence(event, Triggered(action_key), state.tick))
            return SUCCESS, None

        if recording:
            self._record(state, ACTION_FAILED, qual(action_key), failure)
        for op in info.onerr_does:
            if self._exec_op(state, op, action_key, bindings, depth) is not None:
                break  # a failure inside the error path aborts it
        for event in info.onerr_triggers:
            self._enqueue(
                state, EventOccurrence(event, Triggered(action_key, on_error=True), state.tick)
            )
        return ERROR, failure

    def _exec_op(
        self, state: RuntimeState, op: Op, action_key: Key, bindings: dict[str, bool], depth: int
    ) -> str | None:
        """Run one resolved statement; returns a failure reason or None."""
        kind = type(op)
        if kind is Call:
            cause = f"called by {qual(action_key)}" if self.trace is not None else ""
            outcome, reason = self.execute_action(state, op.callee, cause, depth + 1)
            if outcome == ERROR:
                return f"call {qual(op.callee)} failed: {reason}"
            if op.binding:
                bindings[op.binding] = outcome == SUCCESS
            return None
        if kind is Assign:
            value = self.eval_expr(op.value, state, action_key[0], bindings)
            self.assign_metric(state, op.metric, value)
            return None
        if kind is Send:
            self.send_message(state, op.message, op.channel, action_key[0])
            return None
        return op.reason

    def assign_metric(self, state: RuntimeState, metric: Key, value: object) -> None:
        """Write a metric and enqueue CHANGED occurrences (write triggered)."""
        if self.trace is not None:
            old = state.metrics[metric]
            detail = (
                f"{render_value(old, type_of_value(old))}"
                f" -> {render_value(value, type_of_value(value))}"
            )
            self._record(state, METRIC_ASSIGNED, qual(metric), detail)
        state.metrics[metric] = value
        for event in self.program.changed_subs.get(metric, ()):
            self._enqueue(
                state, EventOccurrence(event, Activation("CHANGED", qual(metric)), state.tick)
            )

    def send_message(
        self, state: RuntimeState, message: Key, channel: Key, sender: str
    ) -> bool:
        """Enqueue a message; returns False when the channel was full."""
        queue = state.channels[channel]
        recording = self.trace is not None
        if len(queue) >= self.program.channel_capacity[channel]:
            if recording:
                self._record(
                    state, MESSAGE_SENT, qual(message),
                    f"over {qual(channel)} dropped (channel full)",
                )
            return False
        queue.append((message, sender))
        if recording:
            self._record(state, MESSAGE_SENT, qual(message), f"over {qual(channel)} by {sender}")
        for event in self.program.sent_subs.get(message, ()):
            self._enqueue(
                state,
                EventOccurrence(event, Activation("SENT", qual(message)), state.tick),
            )
        return True

    def step(self, state: RuntimeState) -> Key | None:
        """Dequeue and process exactly one occurrence; identity when idle."""
        if not state.pending:
            return None
        occ = state.pending.popleft()
        self.raise_event(state, occ)
        return occ.event

    def drain(self, state: RuntimeState) -> None:
        """Step until quiescent; raise LivelockError past the step budget."""
        budget = MAX_DRAIN_STEPS
        steps = 0
        while state.pending:
            if steps == budget:
                raise LivelockError(
                    f"livelock: not quiescent after {steps} drain steps at tick {state.tick}"
                )
            self.step(state)
            steps += 1

    def _enqueue(self, state: RuntimeState, occ: EventOccurrence) -> None:
        state.pending.append(occ)

    # -- time ----------------------------------------------------------------------

    def element_order(self, tick: int) -> list[str]:
        """Element processing order for a tick's delivery and timer phases."""
        order = list(self.program.elements)
        if self.config.interleave == "seeded" and len(order) > 1:
            random.Random(self.seed * 1_000_003 + tick).shuffle(order)
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
        acting = {receiver_of[message] for key in busy for message, _sender in channels[key]}
        acting.discard(None)
        timers = state.timers
        if timers and min(timers) <= tick:
            timer_slots = program.timer_slots
            acting.update(
                timer_slots[slot][0][0] for slot, due in enumerate(timers) if due <= tick
            )
        if not acting:
            return
        if len(acting) == 1:
            order = list(acting)
        else:
            order = [elem for elem in self.element_order(tick) if elem in acting]
        recording = self.trace is not None
        for elem in order:
            for channel in busy:
                queue = channels[channel]
                remaining: list[tuple[Key, str]] = []
                for message, sender in queue:
                    if receiver_of[message] != elem:
                        remaining.append((message, sender))
                        continue
                    if recording:
                        self._record(
                            state, MESSAGE_RECEIVED, qual(message),
                            f"by {elem} over {qual(channel)}",
                        )
                    for event in program.received_subs.get(message, ()):
                        self._enqueue(
                            state,
                            EventOccurrence(event, Activation("RECEIVED", qual(message)), tick),
                        )
                if len(remaining) != len(queue):
                    channels[channel] = remaining
        for elem in order:
            for slot in program.timers_by_element[elem]:
                if timers[slot] <= tick:
                    event, period = program.timer_slots[slot]
                    self._enqueue(
                        state, EventOccurrence(event, Activation("ELAPSED", str(period)), tick)
                    )
                    timers[slot] = tick + period

    # -- stimuli and runs -------------------------------------------------------------

    def apply_stimulus(self, state: RuntimeState, stimulus: Stimulus) -> None:
        state.last_event = None
        if isinstance(stimulus, InjectEvent):
            self._enqueue(
                state, EventOccurrence(stimulus.event, Injected(), state.tick)
            )
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

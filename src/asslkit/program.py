"""A checked specification analysed once, for every back end.

``Program`` makes one pass over a checked tree. It builds the tables the
runtime executes from (subscriptions, timer slots, mappings, channels and
receivers) and one record per action and per event, with every name
resolved to a ``(tier, name)`` key and a summary of the declaration's
effects. ``check_all`` builds it and keeps it on the ``CheckedSpec``; the
runtime, the verifier's layout and default environment, the test generator
and the checker's call-graph rules all read that one instance.

Everything the runtime needs that does not depend on state is built here,
once, so that a run step only evaluates, assigns, enqueues and appends:

* every event guard, action guard, ENSURES clause and assigned value as a
  closure over the state's metric and fluent dicts (``compile_expr``), kept
  on its ``EventInfo``, ``ActionInfo`` or ``Assign`` record;
* the qualified name of every key (``names``) and every fixed trace detail:
  ``by <event>``, a mapping's ``conditions: ...`` text and the
  ``mapping <subject>`` cause of its actions, ``called by <action>``, the
  ENSURES text, and the sent and dropped details of each send statement;
* one interned ``EventOccurrence`` per subscription, an event with its
  cause already rendered as the EventRaised detail (``activation <KIND>
  <source>``, ``triggered by <action>`` or ``error-triggered by <action>``):
  the CHANGED, SENT and RECEIVED subscription tables, the timer slots and
  each action's triggers hold them, and an enqueue appends them as they
  are, so it builds nothing.

The pass never follows a call, so it is safe on a call graph with cycles.
Whatever is transitive (call depth, whether an action can fail, a policy's
reference closure) is worked out by its consumer from the records.
"""

from __future__ import annotations

import operator
from collections.abc import Callable
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, NamedTuple

from .nodes import (
    ActionDecl,
    ActivationKind,
    AssignStmt,
    BinaryExpr,
    BindingRefExpr,
    CallStmt,
    CompareExpr,
    EventDecl,
    Expr,
    FluentRefExpr,
    Lit,
    MessageDecl,
    MetricDecl,
    MetricRefExpr,
    NotExpr,
    PolicyDecl,
    SendStmt,
    SpecificationTree,
    Stmt,
)
from .printer import format_expr

if TYPE_CHECKING:
    from .checker import SymbolTable

Key = tuple[str, str]

#: Deepest action call nesting the runtime executes: an action run by a
#: mapping is at depth 0 and each call adds one. ``check_all`` rejects a spec
#: with a call chain deeper than this (E-DEPTH).
MAX_CALL_DEPTH = 32


def qual(key: Key) -> str:
    """Qualified name of a key, as trace records and user text spell it."""
    return f"{key[0]}.{key[1]}"


class EventOccurrence(NamedTuple):
    """A pending event, and why it was enqueued: the EventRaised detail."""

    event: Key
    cause: str


# -- compiled expressions --------------------------------------------------------

#: An expression compiled for one element: called with the state's metric and
#: fluent dicts and the running action's call bindings (None outside one).
Compiled = Callable[[dict[Key, object], dict[Key, bool], dict[str, bool] | None], object]

#: Each comparison operator's Python function; guards and property atoms share it.
COMPARE = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def compile_expr(expr: Expr, elem: str) -> Compiled:
    """A closure computing ``expr`` in element ``elem``.

    It returns what a walk over the tree returns: a literal's or a metric's
    own value (so ``1``, ``1.0`` and ``True`` stay apart), a fluent's flag, a
    binding's outcome (False when absent), and bools for NOT, AND, OR (both
    short-circuit) and the comparisons. Checking guarantees every key exists
    and no comparison mixes incomparable types.
    """
    if isinstance(expr, Lit):
        value = expr.value
        return lambda m, f, b: value
    if isinstance(expr, MetricRefExpr):
        key = (elem, expr.name)
        return lambda m, f, b: m[key]
    if isinstance(expr, FluentRefExpr):
        key = (elem, expr.name)
        return lambda m, f, b: f[key]
    if isinstance(expr, BindingRefExpr):
        name = expr.name
        return lambda m, f, b: bool(b.get(name, False)) if b else False
    if isinstance(expr, NotExpr):
        operand = compile_expr(expr.operand, elem)
        return lambda m, f, b: not operand(m, f, b)
    left = compile_expr(expr.left, elem)
    right = compile_expr(expr.right, elem)
    if isinstance(expr, BinaryExpr):
        if expr.op == "AND":
            return lambda m, f, b: bool(left(m, f, b)) and bool(right(m, f, b))
        return lambda m, f, b: bool(left(m, f, b)) or bool(right(m, f, b))
    assert isinstance(expr, CompareExpr)
    compare = COMPARE[expr.op]
    return lambda m, f, b: compare(left(m, f, b), right(m, f, b))


def _compiled(expr: Expr | None, elem: str) -> Compiled | None:
    return None if expr is None else compile_expr(expr, elem)


# -- records ---------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Call:
    callee: Key
    binding: str | None


@dataclass(frozen=True, slots=True)
class Assign:
    metric: Key
    value: Expr
    reads: tuple[Key, ...]  # metrics the value reads, left to right
    compute: Compiled  # ``value``, compiled


@dataclass(frozen=True, slots=True)
class Send:
    message: Key
    channel: Key
    sent: str  # MessageSent detail when queued
    dropped: str  # MessageSent detail when the channel is full


@dataclass(frozen=True, slots=True)
class Fail:
    reason: str


Op = Call | Assign | Send | Fail


@dataclass(frozen=True, slots=True)
class ActionInfo:
    decl: ActionDecl
    does: tuple[Op, ...]
    onerr_does: tuple[Op, ...]
    calls: tuple[Key, ...]  # callees of DOES, in statement order
    onerr_calls: tuple[Key, ...]  # callees of ONERR_DOES
    sends: tuple[tuple[Key, Key], ...]  # (message, channel) of each send
    triggers: tuple[EventOccurrence, ...]  # each TRIGGERS event, with its cause
    onerr_triggers: tuple[EventOccurrence, ...]
    checks: tuple[Key, ...]  # metrics GUARDS and then ENSURES read, in walk order
    reads: tuple[Key, ...]  # ``checks``, then the assigned values' reads
    writes: tuple[Key, ...]
    fails: bool  # DOES holds a fail statement
    guard: Compiled | None
    ensures: Compiled | None
    ensures_text: str  # EnsuresViolated detail
    called_by: str  # ActionStarted detail of each action this one calls


@dataclass(frozen=True, slots=True)
class EventInfo:
    decl: EventDecl
    reads: tuple[Key, ...]  # metrics the guard reads, in walk order
    # Each activation clause with its CHANGED metric key, SENT or RECEIVED
    # message key, or ELAPSED period.
    activations: tuple[tuple[ActivationKind, Any], ...]
    guard: Compiled | None
    by: str  # FluentInitiated/FluentTerminated detail of the fluents it flips


@dataclass(frozen=True, slots=True)
class MappingInfo:
    subject: str
    conditions: tuple[Key, ...]
    actions: tuple[Key, ...]
    detail: str  # MappingFired detail: "conditions: ..."
    cause: str  # ActionStarted detail of the actions it runs


def _metric_reads(expr: Expr | None, elem: str) -> list[Key]:
    """Metrics an expression reads, left to right, repeats included."""
    if isinstance(expr, MetricRefExpr):
        return [(elem, expr.name)]
    if isinstance(expr, NotExpr):
        return _metric_reads(expr.operand, elem)
    if isinstance(expr, (BinaryExpr, CompareExpr)):
        return _metric_reads(expr.left, elem) + _metric_reads(expr.right, elem)
    return []


def _scoped(resolved: tuple[str, object] | None, name: str) -> Key:
    """Key of a resolved message or channel: its declaring scope, and its name."""
    assert resolved is not None
    return resolved[0], name


def send_details(channel: Key, sender: str) -> tuple[str, str]:
    """MessageSent details of a send from ``sender``: queued, and dropped when full."""
    over = f"over {qual(channel)}"
    return f"{over} by {sender}", f"{over} dropped (channel full)"


def _resolve_ops(elem: str, stmts: tuple[Stmt, ...], symbols: SymbolTable) -> tuple[Op, ...]:
    """Statements with their callee, metric, message and channel keys resolved."""
    ops: list[Op] = []
    for stmt in stmts:
        if isinstance(stmt, CallStmt):
            ops.append(Call((elem, stmt.action.name), stmt.binding))
        elif isinstance(stmt, AssignStmt):
            reads = tuple(_metric_reads(stmt.value, elem))
            compute = compile_expr(stmt.value, elem)
            ops.append(Assign((elem, stmt.metric.name), stmt.value, reads, compute))
        elif isinstance(stmt, SendStmt):
            message = _scoped(symbols.resolve_message(elem, stmt.message.name), stmt.message.name)
            channel = _scoped(symbols.resolve_channel(elem, stmt.channel.name), stmt.channel.name)
            ops.append(Send(message, channel, *send_details(channel, elem)))
        else:
            ops.append(Fail(stmt.reason))
    return tuple(ops)


class Program:
    """Tables and records of one checked specification; read-only once built."""

    def __init__(self, tree: SpecificationTree, symbols: SymbolTable) -> None:
        self.elements: tuple[str, ...] = tuple(t.name for t in tree.tiers())
        self.fluent_keys: list[Key] = []
        self.metrics: dict[Key, MetricDecl] = {}
        self.policies: dict[Key, PolicyDecl] = {}
        self.actions: dict[Key, ActionInfo] = {}
        self.events: dict[Key, EventInfo] = {}
        self.initiators: dict[Key, list[Key]] = {}
        self.terminators: dict[Key, list[Key]] = {}
        self.changed_subs: dict[Key, list[EventOccurrence]] = {}
        self.sent_subs: dict[Key, list[EventOccurrence]] = {}
        self.received_subs: dict[Key, list[EventOccurrence]] = {}
        self.timer_slots: list[tuple[EventOccurrence, int]] = []  # (occurrence, period)
        self.mappings: dict[str, list[MappingInfo]] = {}
        self.injectable: list[Key] = []

        for tier in tree.tiers():
            elem = tier.name
            self.mappings[elem] = []
            for policy in tier.policies:
                self.policies[(elem, policy.name)] = policy
                for fluent in policy.fluents:
                    fkey = (elem, fluent.name)
                    self.fluent_keys.append(fkey)
                    for ref in fluent.initiated_by:
                        self.initiators.setdefault((elem, ref.name), []).append(fkey)
                    for ref in fluent.terminated_by:
                        self.terminators.setdefault((elem, ref.name), []).append(fkey)
                for index, mapping in enumerate(policy.mappings):
                    subject = f"{elem}.{policy.name}.mapping[{index}]"
                    conditions = tuple((elem, c.name) for c in mapping.conditions)
                    actions = tuple((elem, a.name) for a in mapping.do_actions)
                    detail = "conditions: " + ", ".join(qual(c) for c in conditions)
                    self.mappings[elem].append(
                        MappingInfo(subject, conditions, actions, detail, f"mapping {subject}")
                    )
            for metric in tier.metrics:
                self.metrics[(elem, metric.name)] = metric
            for action in tier.actions:
                self._add_action(elem, action, symbols)
            for event in tier.events:
                self._add_event(elem, event, symbols)

        self.messages: dict[Key, MessageDecl] = dict(symbols.messages)
        # Receiving element of each message; None for a receiver that is not
        # an element, whose messages stay queued.
        self.receiver_of: dict[Key, str | None] = {
            key: decl.receiver if decl.receiver in self.elements else None
            for key, decl in self.messages.items()
        }
        self.channel_keys: list[Key] = list(symbols.channels)
        self.channel_capacity: dict[Key, int] = {
            key: decl.capacity for key, decl in symbols.channels.items()
        }
        self.timers_by_element: dict[str, list[int]] = {elem: [] for elem in self.elements}
        for slot, (occurrence, _period) in enumerate(self.timer_slots):
            self.timers_by_element[occurrence.event[0]].append(slot)
        self.initial_metrics: dict[Key, object] = {
            key: decl.initial.value for key, decl in self.metrics.items()
        }
        # Qualified name of every fluent, metric, action, event, message and
        # channel key, as trace records name them.
        self.names: dict[Key, str] = {
            key: f"{key[0]}.{key[1]}"
            for table in (
                self.fluent_keys, self.metrics, self.actions, self.events,
                self.messages, self.channel_keys,
            )
            for key in table
        }

    def _add_action(self, elem: str, action: ActionDecl, symbols: SymbolTable) -> None:
        akey = (elem, action.name)
        does = _resolve_ops(elem, action.does, symbols)
        onerr_does = _resolve_ops(elem, action.onerr_does, symbols)
        both = does + onerr_does
        assigns = [op for op in both if isinstance(op, Assign)]
        checks = _metric_reads(action.guard, elem) + _metric_reads(action.ensures, elem)
        triggered = f"triggered by {qual(akey)}"
        error_triggered = f"error-triggered by {qual(akey)}"
        self.actions[akey] = ActionInfo(
            decl=action,
            does=does,
            onerr_does=onerr_does,
            calls=tuple(op.callee for op in does if isinstance(op, Call)),
            onerr_calls=tuple(op.callee for op in onerr_does if isinstance(op, Call)),
            sends=tuple((op.message, op.channel) for op in both if isinstance(op, Send)),
            triggers=tuple(
                EventOccurrence((elem, ref.name), triggered) for ref in action.triggers
            ),
            onerr_triggers=tuple(
                EventOccurrence((elem, ref.name), error_triggered) for ref in action.onerr_triggers
            ),
            checks=tuple(checks),
            reads=tuple(checks + [metric for op in assigns for metric in op.reads]),
            writes=tuple(op.metric for op in assigns),
            fails=any(isinstance(op, Fail) for op in does),
            guard=_compiled(action.guard, elem),
            ensures=_compiled(action.ensures, elem),
            ensures_text=format_expr(action.ensures) if action.ensures is not None else "",
            called_by=f"called by {qual(akey)}",
        )

    def _add_event(self, elem: str, event: EventDecl, symbols: SymbolTable) -> None:
        ekey = (elem, event.name)
        if event.injectable:
            self.injectable.append(ekey)
        activations: list[tuple[ActivationKind, Any]] = []
        for clause in event.activation:
            if clause.kind is ActivationKind.ELAPSED:
                assert clause.ticks is not None
                cause = f"activation {clause.kind.value} {clause.ticks}"
                self.timer_slots.append((EventOccurrence(ekey, cause), clause.ticks))
                activations.append((clause.kind, clause.ticks))
                continue
            assert clause.target is not None
            if clause.kind is ActivationKind.CHANGED:
                target, subs = (elem, clause.target.name), self.changed_subs
            else:
                resolved = symbols.resolve_message(elem, clause.target.name)
                target = _scoped(resolved, clause.target.name)
                sent = clause.kind is ActivationKind.SENT
                subs = self.sent_subs if sent else self.received_subs
            cause = f"activation {clause.kind.value} {qual(target)}"
            subs.setdefault(target, []).append(EventOccurrence(ekey, cause))
            activations.append((clause.kind, target))
        reads = tuple(_metric_reads(event.guard, elem))
        self.events[ekey] = EventInfo(
            event, reads, tuple(activations), _compiled(event.guard, elem), f"by {qual(ekey)}"
        )

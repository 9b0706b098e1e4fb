"""A checked specification analysed once, for every back end.

``Program`` makes one pass over a checked tree. It builds the tables the
runtime executes from (subscriptions, timer slots, mappings, channels and
receivers) and one record per action and per event, with every name
resolved to a ``(tier, name)`` key and a summary of the declaration's
effects. ``check_all`` builds it and keeps it on the ``CheckedSpec``; the
runtime, the verifier's layout and default environment, the test generator
and the checker's call-graph rules all read that one instance.

The pass never follows a call, so it is safe on a call graph with cycles.
Whatever is transitive (call depth, whether an action can fail, a policy's
reference closure) is worked out by its consumer from the records.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from .nodes import (
    ActionDecl,
    ActivationKind,
    AssignStmt,
    BinaryExpr,
    CallStmt,
    CompareExpr,
    EventDecl,
    Expr,
    MessageDecl,
    MetricDecl,
    MetricRefExpr,
    NotExpr,
    PolicyDecl,
    SendStmt,
    SpecificationTree,
    Stmt,
)

if TYPE_CHECKING:
    from .checker import SymbolTable

Key = tuple[str, str]

#: Deepest action call nesting the runtime executes: an action run by a
#: mapping is at depth 0 and each call adds one. ``check_all`` rejects a spec
#: with a call chain deeper than this (E-DEPTH).
MAX_CALL_DEPTH = 32


@dataclass(frozen=True, slots=True)
class Call:
    callee: Key
    binding: str | None


@dataclass(frozen=True, slots=True)
class Assign:
    metric: Key
    value: Expr
    reads: tuple[Key, ...]  # metrics the value reads, left to right


@dataclass(frozen=True, slots=True)
class Send:
    message: Key
    channel: Key


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
    triggers: tuple[Key, ...]
    onerr_triggers: tuple[Key, ...]
    checks: tuple[Key, ...]  # metrics GUARDS and then ENSURES read, in walk order
    reads: tuple[Key, ...]  # ``checks``, then the assigned values' reads
    writes: tuple[Key, ...]
    fails: bool  # DOES holds a fail statement


@dataclass(frozen=True, slots=True)
class EventInfo:
    decl: EventDecl
    reads: tuple[Key, ...]  # metrics the guard reads, in walk order
    # Each activation clause with its CHANGED metric key, SENT or RECEIVED
    # message key, or ELAPSED period.
    activations: tuple[tuple[ActivationKind, Any], ...]


@dataclass(frozen=True, slots=True)
class MappingInfo:
    subject: str
    conditions: tuple[Key, ...]
    actions: tuple[Key, ...]


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


def _resolve_ops(elem: str, stmts: tuple[Stmt, ...], symbols: SymbolTable) -> tuple[Op, ...]:
    """Statements with their callee, metric, message and channel keys resolved."""
    ops: list[Op] = []
    for stmt in stmts:
        if isinstance(stmt, CallStmt):
            ops.append(Call((elem, stmt.action.name), stmt.binding))
        elif isinstance(stmt, AssignStmt):
            reads = tuple(_metric_reads(stmt.value, elem))
            ops.append(Assign((elem, stmt.metric.name), stmt.value, reads))
        elif isinstance(stmt, SendStmt):
            message = symbols.resolve_message(elem, stmt.message.name)
            channel = symbols.resolve_channel(elem, stmt.channel.name)
            ops.append(
                Send(_scoped(message, stmt.message.name), _scoped(channel, stmt.channel.name))
            )
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
        self.changed_subs: dict[Key, list[Key]] = {}
        self.sent_subs: dict[Key, list[Key]] = {}
        self.received_subs: dict[Key, list[Key]] = {}
        self.timer_slots: list[tuple[Key, int]] = []
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
                    self.mappings[elem].append(MappingInfo(subject, conditions, actions))
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
        for slot, (ekey, _period) in enumerate(self.timer_slots):
            self.timers_by_element[ekey[0]].append(slot)
        self.initial_metrics: dict[Key, object] = {
            key: decl.initial.value for key, decl in self.metrics.items()
        }

    def _add_action(self, elem: str, action: ActionDecl, symbols: SymbolTable) -> None:
        does = _resolve_ops(elem, action.does, symbols)
        onerr_does = _resolve_ops(elem, action.onerr_does, symbols)
        both = does + onerr_does
        assigns = [op for op in both if isinstance(op, Assign)]
        checks = _metric_reads(action.guard, elem) + _metric_reads(action.ensures, elem)
        self.actions[(elem, action.name)] = ActionInfo(
            decl=action,
            does=does,
            onerr_does=onerr_does,
            calls=tuple(op.callee for op in does if isinstance(op, Call)),
            onerr_calls=tuple(op.callee for op in onerr_does if isinstance(op, Call)),
            sends=tuple((op.message, op.channel) for op in both if isinstance(op, Send)),
            triggers=tuple((elem, ref.name) for ref in action.triggers),
            onerr_triggers=tuple((elem, ref.name) for ref in action.onerr_triggers),
            checks=tuple(checks),
            reads=tuple(checks + [metric for op in assigns for metric in op.reads]),
            writes=tuple(op.metric for op in assigns),
            fails=any(isinstance(op, Fail) for op in does),
        )

    def _add_event(self, elem: str, event: EventDecl, symbols: SymbolTable) -> None:
        ekey = (elem, event.name)
        if event.injectable:
            self.injectable.append(ekey)
        activations: list[tuple[ActivationKind, Any]] = []
        for clause in event.activation:
            if clause.kind is ActivationKind.ELAPSED:
                assert clause.ticks is not None
                self.timer_slots.append((ekey, clause.ticks))
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
            subs.setdefault(target, []).append(ekey)
            activations.append((clause.kind, target))
        reads = tuple(_metric_reads(event.guard, elem))
        self.events[ekey] = EventInfo(event, reads, tuple(activations))

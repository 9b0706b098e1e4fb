"""A checked specification analysed once, for every back end.

``Program`` makes one pass over a checked tree. It builds the tables the
runtime executes from (subscriptions, timer slots, mappings, channels and
receivers), one record per action and per event with every name resolved
to a ``(tier, name)`` key, and the graph of what can affect what.
``check_all`` builds it and keeps it on the ``CheckedSpec``; the runtime,
the verifier's labels and default environment, the test generator and the
checker's call-graph rules all read that one instance.

Every fluent, metric and channel has one slot: its index in ``fluent_keys``,
``metric_keys`` or ``channel_keys`` and in a ``RuntimeState`` list and a
``StateVector`` tuple. ``fluent_slot``, ``metric_slot`` and ``channel_slot``
map a key to its slot, one map per kind, since a fluent and a metric of one
tier may share a name. A run step reads and writes state by slot; the
influence graph the checker and the test generator walk holds keys.

Everything the runtime needs that does not depend on state is built here,
once, so that a run step only evaluates, assigns, enqueues and appends:

* every event guard, action guard, ENSURES clause and assigned value as a
  closure over the state's metric and fluent lists, with the slot of each
  metric and fluent it reads captured (``compile_expr``), kept on its
  ``EventInfo``, ``ActionInfo`` or ``Assign`` record;
* the qualified name of every key (``names``) and every fixed trace detail:
  ``by <event>``, a mapping's ``conditions: ...`` text and the
  ``mapping <subject>`` cause of its actions, ``called by <action>``, the
  ENSURES text, and the sent and dropped details of each send statement
  and, once per (channel, sender), of each sent stimulus (``send_details``);
* one interned ``EventOccurrence`` per subscription, an event with its
  cause already rendered as the EventRaised detail (``activation <KIND>
  <source>``, ``triggered by <action>`` or ``error-triggered by <action>``):
  the CHANGED, SENT and RECEIVED subscription tables, the timer slots and
  each action's triggers hold them, and an enqueue appends them as they
  are, so it builds nothing.

The pass never follows a call, so it is safe on a call graph with cycles.
Whatever is transitive is a walk over the one ``InfluenceGraph`` the pass
builds beside the records (``influence``), edges added in declaration and
then statement order: the checker's call cycles, call depths and triggered
events, and the test generator's fail reachability, path metrics and
change impact.
"""

from __future__ import annotations

import operator
from collections import defaultdict
from collections.abc import Callable, Collection, Iterable
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
#: fluent lists and the running action's call bindings (None outside one).
Compiled = Callable[[list[object], list[bool], dict[str, bool] | None], object]

#: Each comparison operator's Python function; guards and property atoms share it.
COMPARE = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def compile_expr(
    expr: Expr, elem: str, metric_slot: dict[Key, int], fluent_slot: dict[Key, int]
) -> Compiled:
    """A closure computing ``expr`` in element ``elem``, reading each metric
    and fluent at the slot the two maps give its key.

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
        slot = metric_slot[(elem, expr.name)]
        return lambda m, f, b: m[slot]
    if isinstance(expr, FluentRefExpr):
        slot = fluent_slot[(elem, expr.name)]
        return lambda m, f, b: f[slot]
    if isinstance(expr, BindingRefExpr):
        name = expr.name
        return lambda m, f, b: bool(b.get(name, False)) if b else False
    if isinstance(expr, NotExpr):
        operand = compile_expr(expr.operand, elem, metric_slot, fluent_slot)
        return lambda m, f, b: not operand(m, f, b)
    left = compile_expr(expr.left, elem, metric_slot, fluent_slot)
    right = compile_expr(expr.right, elem, metric_slot, fluent_slot)
    if isinstance(expr, BinaryExpr):
        if expr.op == "AND":
            return lambda m, f, b: bool(left(m, f, b)) and bool(right(m, f, b))
        return lambda m, f, b: bool(left(m, f, b)) or bool(right(m, f, b))
    assert isinstance(expr, CompareExpr)
    compare = COMPARE[expr.op]
    return lambda m, f, b: compare(left(m, f, b), right(m, f, b))


# -- records ---------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Call:
    callee: Key
    binding: str | None


@dataclass(frozen=True, slots=True)
class Assign:
    metric: int  # slot
    value: Expr
    compute: Compiled  # ``value``, compiled


@dataclass(frozen=True, slots=True)
class Send:
    message: Key
    channel: int  # slot
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
    triggers: tuple[EventOccurrence, ...]  # each TRIGGERS event, with its cause
    onerr_triggers: tuple[EventOccurrence, ...]
    fails: bool  # DOES holds a fail statement
    guard: Compiled | None
    ensures: Compiled | None
    ensures_text: str  # EnsuresViolated detail
    called_by: str  # ActionStarted detail of each action this one calls


@dataclass(frozen=True, slots=True)
class EventInfo:
    decl: EventDecl
    # Each activation clause with its CHANGED metric key, SENT or RECEIVED
    # message key, or ELAPSED period.
    activations: tuple[tuple[ActivationKind, Any], ...]
    guard: Compiled | None
    by: str  # FluentInitiated/FluentTerminated detail of the fluents it flips


@dataclass(frozen=True, slots=True)
class MappingInfo:
    subject: str
    conditions: tuple[int, ...]  # fluent slots
    actions: tuple[Key, ...]
    detail: str  # MappingFired detail: "conditions: ..."
    cause: str  # ActionStarted detail of the actions it runs


Node = tuple[str, Key]  # (kind, key); kind names the declaration's namespace

_CALLS = ("calls", "error-calls")


class InfluenceGraph:
    """What can affect what in one program: an edge ``(u, label, v)`` says a
    change at ``u`` can change ``v``. Nodes are events, fluents, actions,
    metrics, messages and channels. The labels: ``activates`` (a CHANGED
    metric, or a SENT or RECEIVED message, into its event), ``initiates`` and
    ``terminates`` (event into fluent), ``maps`` (a mapping's condition
    fluent into each of its actions), ``calls`` and ``error-calls`` (caller
    into callee, from DOES and ONERR_DOES), ``triggers`` and
    ``error-triggers`` (action into event), ``reads`` (metric into the event
    or action whose guard, ENSURES or assigned value reads it), ``writes``
    (action into metric) and ``sends`` (action into message and channel).
    Each node lists its edges, in and out, in the order they were added."""

    def __init__(self) -> None:
        # node -> (label, other end, whether the edge leaves the node)
        self.edges: defaultdict[Node, list[tuple[str, Node, bool]]] = defaultdict(list)

    def add(self, source: Node, label: str, target: Node) -> None:
        self.edges[source].append((label, target, True))
        self.edges[target].append((label, source, False))

    def walk(self, starts: Iterable[Node], follow: Collection[tuple[str, bool]],
             keep: Callable[[Node], bool] | None = None) -> list[Node]:
        """``starts`` and every node reached from them, first seen first:
        depth first, each node's edges in order, taking an edge forward when
        ``(label, True)`` is in ``follow``, backward when ``(label, False)``
        is, and only into nodes ``keep`` accepts."""
        seen: dict[Node, None] = {}
        stack = list(starts)[::-1]  # next node on top; each node's edges pushed last first
        while stack:
            node = stack.pop()
            if node not in seen:
                seen[node] = None
                stack += [
                    other for label, other, out in self.edges.get(node, ())
                    if (label, out) in follow and (keep is None or keep(other))
                ][::-1]
        return list(seen)

    def call_cycles(self, actions: Iterable[Node]) -> tuple[list[tuple[Node, ...]], dict[Node, int]]:
        """Each cycle of calls and error-calls once, as the chain closing it,
        and the calls on the longest chain from each action no action calls
        (meaningless when there are cycles), by one iterative depth-first
        search from ``actions`` in order: a long chain cannot exhaust the stack."""
        callees = {
            node: [other for label, other, out in self.edges.get(node, ()) if out and label in _CALLS]
            for node in actions
        }
        depth: dict[Node, int] = {}
        cycles: dict[tuple[Node, ...], None] = {}
        for start in callees:
            pending = {} if start in depth else {start: iter(callees[start])}  # the chain
            while pending:
                node = next(reversed(pending))
                callee = next(pending[node], None)
                if callee is None:
                    del pending[node]
                    depth[node] = max((depth.get(c, 0) + 1 for c in callees[node]), default=0)
                elif callee in pending:
                    chain = list(pending)
                    cycles[(*chain[chain.index(callee) :], callee)] = None
                elif callee not in depth:
                    pending[callee] = iter(callees[callee])
        called = {callee for nodes in callees.values() for callee in nodes}
        return list(cycles), {node: calls for node, calls in depth.items() if node not in called}


def _scoped(resolved: tuple[str, object] | None, name: str) -> Key:
    """Key of a resolved message or channel: its declaring scope, and its name."""
    assert resolved is not None
    return resolved[0], name


class Program:
    """Tables and records of one checked specification; read-only once built,
    but for the cache of rendered send details."""

    def __init__(self, tree: SpecificationTree, symbols: SymbolTable) -> None:
        tiers = tree.tiers()
        self.elements: tuple[str, ...] = tuple(t.name for t in tiers)
        self.fluent_keys: tuple[Key, ...] = tuple(
            (t.name, f.name) for t in tiers for p in t.policies for f in p.fluents
        )
        self.metrics: dict[Key, MetricDecl] = {
            (t.name, m.name): m for t in tiers for m in t.metrics
        }
        self.metric_keys: tuple[Key, ...] = tuple(self.metrics)
        self.channel_keys: tuple[Key, ...] = tuple(symbols.channels)
        self.fluent_slot = {key: slot for slot, key in enumerate(self.fluent_keys)}
        self.metric_slot = {key: slot for slot, key in enumerate(self.metric_keys)}
        self.channel_slot = {key: slot for slot, key in enumerate(self.channel_keys)}
        self.policies: dict[Key, PolicyDecl] = {}
        self.actions: dict[Key, ActionInfo] = {}
        self.events: dict[Key, EventInfo] = {}
        self.initiators: dict[Key, list[int]] = {}  # event -> fluent slots
        self.terminators: dict[Key, list[int]] = {}
        self.changed_subs: list[list[EventOccurrence]] = [[] for _ in self.metric_keys]
        self.sent_subs: dict[Key, list[EventOccurrence]] = {}
        self.received_subs: dict[Key, list[EventOccurrence]] = {}
        self.timer_slots: list[tuple[EventOccurrence, int]] = []  # (occurrence, period)
        self.mappings: dict[str, list[MappingInfo]] = {}
        self.injectable: list[Key] = []
        self._send_details: dict[tuple[Key, str], tuple[str, str]] = {}
        self.influence = InfluenceGraph()
        add = self.influence.add

        for tier in tiers:
            elem = tier.name
            self.mappings[elem] = []
            for policy in tier.policies:
                self.policies[(elem, policy.name)] = policy
                for fluent in policy.fluents:
                    key = (elem, fluent.name)
                    slot = self.fluent_slot[key]
                    for ref in fluent.initiated_by:
                        self.initiators.setdefault((elem, ref.name), []).append(slot)
                        add(("event", (elem, ref.name)), "initiates", ("fluent", key))
                    for ref in fluent.terminated_by:
                        self.terminators.setdefault((elem, ref.name), []).append(slot)
                        add(("event", (elem, ref.name)), "terminates", ("fluent", key))
                for index, mapping in enumerate(policy.mappings):
                    subject = f"{elem}.{policy.name}.mapping[{index}]"
                    conditions = tuple((elem, c.name) for c in mapping.conditions)
                    actions = tuple((elem, a.name) for a in mapping.do_actions)
                    for condition in conditions:
                        for action in actions:
                            add(("fluent", condition), "maps", ("action", action))
                    detail = "conditions: " + ", ".join(qual(c) for c in conditions)
                    slots = tuple(self.fluent_slot[c] for c in conditions)
                    self.mappings[elem].append(
                        MappingInfo(subject, slots, actions, detail, f"mapping {subject}")
                    )
            for action in tier.actions:
                self._add_action(elem, action, symbols)
            for event in tier.events:
                self._add_event(elem, event, symbols)

        self.messages: dict[Key, MessageDecl] = dict(symbols.messages)
        self.receiver_of: dict[Key, str] = {
            key: decl.receiver for key, decl in self.messages.items()
        }
        self.channel_capacity: tuple[int, ...] = tuple(
            decl.capacity for decl in symbols.channels.values()
        )
        self.timers_by_element: dict[str, list[int]] = {elem: [] for elem in self.elements}
        for slot, (occurrence, _period) in enumerate(self.timer_slots):
            self.timers_by_element[occurrence.event[0]].append(slot)
        self.initial_metrics: tuple[object, ...] = tuple(
            decl.initial.value for decl in self.metrics.values()
        )
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

    def send_details(self, channel: Key, sender: str) -> tuple[str, str]:
        """MessageSent details of a send from ``sender`` over ``channel``:
        queued, and dropped when full. Each pair is rendered once."""
        details = self._send_details.get((channel, sender))
        if details is None:
            over = f"over {qual(channel)}"
            details = f"{over} by {sender}", f"{over} dropped (channel full)"
            self._send_details[(channel, sender)] = details
        return details

    def _compile(self, expr: Expr | None, elem: str) -> Compiled | None:
        if expr is None:
            return None
        return compile_expr(expr, elem, self.metric_slot, self.fluent_slot)

    def _add_reads(self, expr: Expr | None, node: Node) -> None:
        """A reads edge into ``node`` per metric ``expr`` reads, left to right."""
        if isinstance(expr, MetricRefExpr):
            self.influence.add(("metric", (node[1][0], expr.name)), "reads", node)
        elif isinstance(expr, NotExpr):
            self._add_reads(expr.operand, node)
        elif isinstance(expr, (BinaryExpr, CompareExpr)):
            self._add_reads(expr.left, node)
            self._add_reads(expr.right, node)

    def _resolve_ops(
        self, node: Node, stmts: tuple[Stmt, ...], symbols: SymbolTable, calls: str
    ) -> tuple[Op, ...]:
        """Statements with callees and messages resolved to keys, and metrics
        and channels to slots; each one's edges go into the influence graph,
        a call's labelled ``calls``."""
        elem = node[1][0]
        add = self.influence.add
        ops: list[Op] = []
        for stmt in stmts:
            if isinstance(stmt, CallStmt):
                callee = (elem, stmt.action.name)
                ops.append(Call(callee, stmt.binding))
                add(node, calls, ("action", callee))
            elif isinstance(stmt, AssignStmt):
                metric = (elem, stmt.metric.name)
                compute = self._compile(stmt.value, elem)
                ops.append(Assign(self.metric_slot[metric], stmt.value, compute))
                self._add_reads(stmt.value, node)
                add(node, "writes", ("metric", metric))
            elif isinstance(stmt, SendStmt):
                message_name, channel_name = stmt.message.name, stmt.channel.name
                message = _scoped(symbols.resolve_message(elem, message_name), message_name)
                channel = _scoped(symbols.resolve_channel(elem, channel_name), channel_name)
                details = self.send_details(channel, elem)
                ops.append(Send(message, self.channel_slot[channel], *details))
                add(node, "sends", ("message", message))
                add(node, "sends", ("channel", channel))
            else:
                ops.append(Fail(stmt.reason))
        return tuple(ops)

    def _add_action(self, elem: str, action: ActionDecl, symbols: SymbolTable) -> None:
        akey = (elem, action.name)
        node = ("action", akey)
        self._add_reads(action.guard, node)
        self._add_reads(action.ensures, node)
        does = self._resolve_ops(node, action.does, symbols, "calls")
        onerr_does = self._resolve_ops(node, action.onerr_does, symbols, "error-calls")
        for label, refs in (("triggers", action.triggers), ("error-triggers", action.onerr_triggers)):
            for ref in refs:
                self.influence.add(node, label, ("event", (elem, ref.name)))
        triggered = f"triggered by {qual(akey)}"
        error_triggered = f"error-triggered by {qual(akey)}"
        self.actions[akey] = ActionInfo(
            decl=action,
            does=does,
            onerr_does=onerr_does,
            triggers=tuple(
                EventOccurrence((elem, ref.name), triggered) for ref in action.triggers
            ),
            onerr_triggers=tuple(
                EventOccurrence((elem, ref.name), error_triggered) for ref in action.onerr_triggers
            ),
            fails=any(isinstance(op, Fail) for op in does),
            guard=self._compile(action.guard, elem),
            ensures=self._compile(action.ensures, elem),
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
                target = (elem, clause.target.name)
                subs = self.changed_subs[self.metric_slot[target]]
            else:
                resolved = symbols.resolve_message(elem, clause.target.name)
                target = _scoped(resolved, clause.target.name)
                sent = clause.kind is ActivationKind.SENT
                subs = (self.sent_subs if sent else self.received_subs).setdefault(target, [])
            cause = f"activation {clause.kind.value} {qual(target)}"
            subs.append(EventOccurrence(ekey, cause))
            activations.append((clause.kind, target))
            source = "metric" if clause.kind is ActivationKind.CHANGED else "message"
            self.influence.add((source, target), "activates", ("event", ekey))
        self._add_reads(event.guard, ("event", ekey))
        self.events[ekey] = EventInfo(
            event, tuple(activations), self._compile(event.guard, elem), f"by {qual(ekey)}"
        )

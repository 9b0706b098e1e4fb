"""Independent oracles the verifier is checked against.

``brute_force_lts`` enumerates the reachable graph with its own depth-first
bookkeeping, keyed by (state vector, entering event) pairs rather than
discovery ids, so it shares
no exploration machinery with the breadth-first ``build_lts`` it
cross-checks. It also projects states onto vectors itself, key by key
through ``Program``'s slot maps, instead of through ``Layout.vector``, which
copies the runtime's slot-indexed lists whole. It runs the runtime with
recording on and reads the event each ``proc`` step raised from the first
trace record the step appends (``EventRaised`` or ``EventSuppressed``), not
from what ``Runtime.step`` returns.
``stem_event`` replays a counterexample's stem the same way and reads the
event its last step raised from that step's first trace record.
``reference_bfs_tree`` walks a flat edge list breadth first from the
initial state over label-sorted adjacency; ``build_lts`` must number states
in its visiting order and record its parents.
``exhaustive_check`` evaluates a temporal property by enumerating every
maximal path (stopping each branch at its first lasso or dead end) and
applying the shape's semantics directly to the path.
``reference_cycles_and_escapes`` answers, from a separate forward search
out of every state of a region, which states lie on a cycle inside it and
which reach, inside it, such a state or a genuine dead end: the two flags
that the checker's single SCC pass computes.
``reference_advance_tick`` is the clock step as a full scan: a shuffle of
all elements on every tick, and every element visiting every channel and
every timer slot it owns.
``reference_tokenize`` is the tokenizer as a character-by-character scanner,
one ``advance``/``peek`` call per character and its own line/column count.
It returns its own ``RefToken`` records, each holding the span it counted;
the regex tokenizer in ``asslkit.lexer`` must produce tokens of the same
kind, text, span and value, and the same ``LexError`` message and span, on
every input.
``reference_eval_expr`` is the runtime's expression evaluator as it was
before guards, ENSURES clauses and assigned values were compiled to
closures: an ``isinstance`` chain over the syntax tree, evaluated per call,
over a state that maps each ``(tier, name)`` key to its value.
``reference_error_capable``, ``reference_always_fails`` and
``reference_relevant_metrics`` are the test generator's analyses as
recursive walks over the syntax tree, resolving every name through the
symbol table, as the generator computed them before it read the spec's
``Program``. ``reference_policy_closure`` and ``reference_impact`` walk the
tree the same way, with their own edge list and a fixpoint in place of the
program's influence graph: a policy depends on what it uses, on what its
test runs can set going, timers included, on what those use, and on the
readers of the metrics it uses.
"""

from __future__ import annotations

import math
import random
from collections import deque
from typing import NamedTuple

from asslkit.names import qual
from asslkit.nodes import (
    ActionDecl,
    ActivationKind,
    AssignStmt,
    BinaryExpr,
    BindingRefExpr,
    CallStmt,
    CompareExpr,
    EventDecl,
    Expr,
    FailStmt,
    FluentRefExpr,
    Lit,
    MetricDecl,
    MetricRefExpr,
    NotExpr,
    SendStmt,
)
from asslkit.runtime.engine import Runtime
from asslkit.runtime.state import EVENT_RAISED, EVENT_SUPPRESSED, MESSAGE_RECEIVED, EventOccurrence
from asslkit.tokens import KEYWORDS, NAMESPACE_WORDS, LexError, SourceSpan, TokenKind
from asslkit.verifier import Lts, TemporalProperty, Tick, eval_prop
from asslkit.verifier.lts import StateVector
from asslkit.testgen import ImpactSet, _const_value
from asslkit.verifier.props import (
    F_SHAPE,
    G_SHAPE,
    NEXT_SHAPE,
    RESPONSE_SHAPE,
    UNTIL_SHAPE,
)


def brute_force_lts(spec, env, state_cap: int = 5000):
    """(states, edges, labelings, initial) keyed by (state vector, event)
    pairs, the event being the one raised by the move into the state."""
    runtime = Runtime(spec, seed=None, record=True)
    program = spec.program
    init_state = runtime.init()
    init_vec = (project(program, init_state), None)
    rows = runtime.trace.rows

    states: dict[tuple[StateVector, object], object] = {}
    edges: set[tuple[tuple[StateVector, object], str, tuple[StateVector, object]]] = set()
    stack = [(init_vec, init_state)]
    while stack:
        vec, state = stack.pop()
        if vec in states:
            continue
        states[vec] = state
        rows.clear()
        if state.pending:
            nxt = state.copy()
            head = state.pending[0].event
            runtime.step(nxt)
            _tick, kind, subject, _detail = rows[0]
            assert subject == qual(head) and kind in (EVENT_RAISED, EVENT_SUPPRESSED), rows[0]
            nxt_vec = (project(program, nxt), head if kind == EVENT_RAISED else None)
            edges.add((vec, f"proc {qual(head)}", nxt_vec))
            stack.append((nxt_vec, nxt))
        else:
            for stimulus in env:
                nxt = state.copy()
                if isinstance(stimulus, Tick):
                    runtime.advance_tick(nxt)
                else:
                    runtime.apply_stimulus(nxt, stimulus)
                nxt_vec = (project(program, nxt), None)
                edges.add((vec, stimulus.render(), nxt_vec))
                stack.append((nxt_vec, nxt))
        assert len(states) <= state_cap, "oracle exploration exceeded its cap"

    labelings = {pair: _label(program, *pair) for pair in states}
    return set(states), edges, labelings, init_vec


def stem_event(spec, lts: Lts, stem):
    """The event raised by the last step of ``stem``: None for an empty stem,
    after a stimulus, and after a ``proc`` step whose guard suppressed it."""
    runtime = Runtime(spec, seed=None, record=True)
    moves = {stim.render(): stim for stim in lts.env}
    state = runtime.init()
    rows = runtime.trace.rows
    event = None
    for label, _target in stem:
        stimulus = moves.get(label)
        if stimulus is not None:
            runtime.apply_stimulus(state, stimulus)
            event = None
            continue
        head = state.pending[0].event
        rows.clear()
        runtime.step(state)
        _tick, kind, subject, _detail = rows[0]
        assert label == f"proc {subject}" and kind in (EVENT_RAISED, EVENT_SUPPRESSED), rows[0]
        event = head if kind == EVENT_RAISED else None
    return event


def reference_eval_expr(
    expr: Expr,
    state,
    element: str,
    bindings: dict[str, bool] | None = None,
) -> object:
    """Total evaluation over ``state.metrics`` and ``state.fluents`` keyed by
    ``(tier, name)``; checking guarantees no type faults remain."""
    if isinstance(expr, Lit):
        return expr.value
    if isinstance(expr, MetricRefExpr):
        return state.metrics[(element, expr.name)]
    if isinstance(expr, FluentRefExpr):
        return state.fluents[(element, expr.name)]
    if isinstance(expr, BindingRefExpr):
        return bool(bindings.get(expr.name, False)) if bindings else False
    if isinstance(expr, NotExpr):
        return not reference_eval_expr(expr.operand, state, element, bindings)
    if isinstance(expr, BinaryExpr):
        left = reference_eval_expr(expr.left, state, element, bindings)
        if expr.op == "AND":
            return bool(left) and bool(reference_eval_expr(expr.right, state, element, bindings))
        return bool(left) or bool(reference_eval_expr(expr.right, state, element, bindings))
    assert isinstance(expr, CompareExpr)
    left = reference_eval_expr(expr.left, state, element, bindings)
    right = reference_eval_expr(expr.right, state, element, bindings)
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


def reference_advance_tick(runtime: Runtime, state) -> None:
    """``Runtime.advance_tick`` by scanning every element x channel each tick."""
    program = runtime.program
    state.tick += 1
    order = list(program.elements)
    if runtime.seed is not None and len(order) > 1:
        random.Random(runtime.seed * 1_000_003 + state.tick).shuffle(order)
    for elem in order:
        for channel in program.channel_keys:
            slot = program.channel_slot[channel]
            queue = state.channels[slot]
            if not queue:
                continue
            remaining = []
            for message in queue:
                if program.messages[message].receiver != elem:
                    remaining.append(message)
                    continue
                if runtime.trace is not None:
                    runtime.trace.rows.append((
                        state.tick, MESSAGE_RECEIVED, qual(message),
                        f"by {elem} over {qual(channel)}",
                    ))
                for event, _cause in program.received_subs.get(message, ()):
                    state.pending.append(
                        EventOccurrence(event, f"activation RECEIVED {qual(message)}")
                    )
            state.channels[slot] = remaining
    for elem in order:
        for slot in program.timers_by_element[elem]:
            if state.timers[slot] <= state.tick:
                occurrence, period = program.timer_slots[slot]
                state.pending.append(
                    EventOccurrence(occurrence.event, f"activation ELAPSED {period}")
                )
                state.timers[slot] = state.tick + period


def project(program, state) -> StateVector:
    """The state vector of ``state``, looked up key by key."""
    return StateVector(
        fluents=tuple(state.fluents[program.fluent_slot[key]] for key in program.fluent_keys),
        metrics=tuple(state.metrics[program.metric_slot[key]] for key in program.metric_keys),
        channels=tuple(
            tuple(state.channels[program.channel_slot[key]]) for key in program.channel_keys
        ),
        pending=tuple(occ.event for occ in state.pending),
        timers=tuple(t - state.tick for t in state.timers),
    )


def _label(program, vec: StateVector, event) -> frozenset[str]:
    from asslkit.nodes import render_value

    props = {
        f"fluent:{qual(key)}"
        for key in program.fluent_keys
        if vec.fluents[program.fluent_slot[key]]
    }
    for key in program.metric_keys:
        value = vec.metrics[program.metric_slot[key]]
        props.add(f"metric:{qual(key)}={render_value(value)}")
    if event is not None:
        props.add(f"event:{qual(event)}")
    return frozenset(props)


def lts_as_sets(lts: Lts):
    """Project a built Lts onto sets keyed by (vector, event) pairs for
    oracle comparison."""
    pairs = list(zip(lts.states, lts.events))
    edges = {
        (pairs[src], label, pairs[dst])
        for src, adjacency in enumerate(lts.succ)
        for label, dst in adjacency
    }
    labelings = {pairs[i]: lts.labeling(i) for i in range(lts.state_count)}
    return set(pairs), edges, labelings, pairs[0]


def reference_bfs_tree(
    edges: list[tuple[int, str, int]], initial: int = 0
) -> tuple[list[int], dict[int, tuple[int, str]]]:
    """States reachable from ``initial`` in BFS order, and each one's
    (parent, edge label), visiting every state's edges in label order."""
    succ: dict[int, list[tuple[str, int]]] = {}
    for src, label, dst in edges:
        succ.setdefault(src, []).append((label, dst))
    for adjacency in succ.values():
        adjacency.sort()
    parent: dict[int, tuple[int, str]] = {}
    order: list[int] = []
    seen = {initial}
    queue = deque([initial])
    while queue:
        src = queue.popleft()
        order.append(src)
        for label, dst in succ.get(src, ()):
            if dst not in seen:
                seen.add(dst)
                parent[dst] = (src, label)
                queue.append(dst)
    return order, parent


# --------------------------------------------------------------------------
# Exhaustive path semantics


def all_maximal_paths(lts: Lts, cap: int = 200_000):
    """Every maximal path as (state ids, loop_start or None for dead ends)."""
    paths = []
    initial = 0

    def successors(state):
        return [dst for _label, dst in lts.succ[state]]

    stack = [(initial, [initial], {initial: 0})]
    while stack:
        node, path, on_path = stack.pop()
        succ = successors(node)
        if not succ:
            paths.append((list(path), None))
            continue
        for dst in succ:
            if dst in on_path:
                paths.append((list(path), on_path[dst]))
            else:
                stack.append((dst, path + [dst], {**on_path, dst: len(path)}))
        assert len(paths) <= cap, "path enumeration exceeded its cap"
    return paths


def reference_cycles_and_escapes(lts: Lts, region: list[bool]) -> tuple[list[bool], list[bool]]:
    """Per state id: whether it reaches itself by at least one edge inside
    ``region``, and whether it reaches, inside the region, a state that does
    or a state that is not cut and has no successors. States outside the
    region are neither."""

    def dead_end(state: int) -> bool:
        return state not in lts.cut and not lts.succ[state]

    reach: list[set[int]] = []
    for state in range(lts.state_count):
        seen: set[int] = set()
        stack = [state] if region[state] else []
        while stack:
            for _label, dst in lts.succ[stack.pop()]:
                if region[dst] and dst not in seen:
                    seen.add(dst)
                    stack.append(dst)
        reach.append(seen)
    cyclic = [state in reach[state] for state in range(lts.state_count)]
    escape = [
        region[state] and any(cyclic[s] or dead_end(s) for s in reach[state] | {state})
        for state in range(lts.state_count)
    ]
    return cyclic, escape


def exhaustive_check(lts: Lts, prop: TemporalProperty) -> str:
    """'Holds' or 'Violated' by direct evaluation over every maximal path."""
    assert not lts.truncated, "the path oracle needs a complete graph"

    def p_at(state_id: int) -> bool:
        return eval_prop(prop.p, lts.states[state_id], lts.events[state_id], lts.program)

    def q_at(state_id: int) -> bool:
        assert prop.q is not None
        return eval_prop(prop.q, lts.states[state_id], lts.events[state_id], lts.program)

    for path, loop_start in all_maximal_paths(lts):
        if _path_violates(prop, path, loop_start, p_at, q_at):
            return "Violated"
    return "Holds"


def _path_violates(prop, path, loop_start, p_at, q_at) -> bool:
    n = len(path)
    infinite = loop_start is not None
    if prop.shape == G_SHAPE:
        return any(not p_at(s) for s in path)
    if prop.shape == F_SHAPE:
        return not any(p_at(s) for s in path)
    if prop.shape == RESPONSE_SHAPE:
        for i in range(n):
            if not p_at(path[i]):
                continue
            future = path[i:]
            if infinite and i >= loop_start:
                future = path[i:] + path[loop_start:]
            elif infinite:
                future = path[i:]
            if not any(q_at(s) for s in future):
                return True
        return False
    if prop.shape == NEXT_SHAPE:
        for i in range(n):
            if not p_at(path[i]):
                continue
            if i + 1 < n:
                nxt = path[i + 1]
            elif infinite:
                nxt = path[loop_start]
            else:
                return True  # no next state
            if not q_at(nxt):
                return True
        return False
    assert prop.shape == UNTIL_SHAPE
    for i in range(n):
        if q_at(path[i]):
            return False  # satisfied: p held at all j < i or we bailed earlier
        if not p_at(path[i]):
            return True
    # q never held along the whole (possibly infinite) path
    return True


_IDENT_START = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_CONT = _IDENT_START | frozenset("0123456789")
_DIGITS = frozenset("0123456789")

_SIMPLE = {
    "{": TokenKind.LBRACE,
    "}": TokenKind.RBRACE,
    "(": TokenKind.LPAREN,
    ")": TokenKind.RPAREN,
    ",": TokenKind.COMMA,
    ";": TokenKind.SEMI,
    "=": TokenKind.EQUALS,
}


class _Scanner:
    def __init__(self, source: str, file: str) -> None:
        self.source = source
        self.file = file
        self.pos = 0
        self.line = 1
        self.column = 1

    def span(self, length: int, line: int | None = None, column: int | None = None) -> SourceSpan:
        return SourceSpan(
            self.file,
            self.line if line is None else line,
            self.column if column is None else column,
            length,
        )

    def peek(self, offset: int = 0) -> str:
        i = self.pos + offset
        return self.source[i] if i < len(self.source) else ""

    def advance(self) -> str:
        ch = self.source[self.pos]
        self.pos += 1
        if ch == "\n":
            self.line += 1
            self.column = 1
        else:
            self.column += 1
        return ch

    def take_ident(self) -> str:
        start = self.pos
        while self.pos < len(self.source) and self.source[self.pos] in _IDENT_CONT:
            self.advance()
        return self.source[start : self.pos]


class RefToken(NamedTuple):
    """A token of ``reference_tokenize``, with the span counted as it was read."""

    kind: TokenKind
    text: str
    span: SourceSpan
    value: object = None


def reference_tokenize(source: str, file: str = "<input>") -> list[RefToken]:
    """``asslkit.lexer.tokenize``, one character per step."""
    sc = _Scanner(source, file)
    tokens: list[RefToken] = []

    while sc.pos < len(sc.source):
        ch = sc.peek()

        if ch in " \t\n":
            sc.advance()
            continue
        if ch == "\r":
            if sc.peek(1) == "\n":
                sc.advance()
                sc.advance()
                continue
            raise LexError("stray carriage return", sc.span(1))
        if ch == "/" and sc.peek(1) == "/":
            while sc.pos < len(sc.source) and sc.peek() != "\n":
                sc.advance()
            continue

        line, column = sc.line, sc.column

        if ch in _IDENT_START:
            word = sc.take_ident()
            if (word in NAMESPACE_WORDS or word == "AEIP") and sc.peek() == ".":
                tokens.append(_lex_reference(sc, word, line, column))
                continue
            span = sc.span(len(word), line, column)
            if word == "true":
                tokens.append(RefToken(TokenKind.BOOL, word, span, True))
            elif word == "false":
                tokens.append(RefToken(TokenKind.BOOL, word, span, False))
            elif word in KEYWORDS:
                tokens.append(RefToken(KEYWORDS[word], word, span))
            else:
                tokens.append(RefToken(TokenKind.IDENT, word, span, word))
            continue

        if ch in _DIGITS or (ch == "-" and sc.peek(1) in _DIGITS):
            tokens.append(_lex_number(sc, line, column))
            continue

        if ch == '"':
            tokens.append(_lex_text(sc, line, column))
            continue

        if ch == "!":
            if sc.peek(1) == "=":
                sc.advance()
                sc.advance()
                tokens.append(RefToken(TokenKind.NE, "!=", sc.span(2, line, column)))
                continue
            raise LexError("expected '=' after '!'", sc.span(1))
        if ch == "<":
            sc.advance()
            if sc.peek() == "=":
                sc.advance()
                tokens.append(RefToken(TokenKind.LE, "<=", sc.span(2, line, column)))
            else:
                tokens.append(RefToken(TokenKind.LT, "<", sc.span(1, line, column)))
            continue
        if ch == ">":
            sc.advance()
            if sc.peek() == "=":
                sc.advance()
                tokens.append(RefToken(TokenKind.GE, ">=", sc.span(2, line, column)))
            else:
                tokens.append(RefToken(TokenKind.GT, ">", sc.span(1, line, column)))
            continue
        if ch in _SIMPLE:
            sc.advance()
            tokens.append(RefToken(_SIMPLE[ch], ch, sc.span(1, line, column)))
            continue

        raise LexError(f"unexpected character {ch!r}", sc.span(1))

    return tokens


def _lex_reference(sc: _Scanner, first: str, line: int, column: int) -> RefToken:
    """Lex the remainder of a qualified reference after its namespace word."""
    parts = [first]
    sc.advance()  # the dot
    if first == "AEIP":
        word = sc.take_ident()
        if word != "MESSAGES":
            raise LexError(
                "qualified AEIP references take the form AEIP.MESSAGES.<name>",
                sc.span(max(len(word), 1), line, column),
            )
        parts.append(word)
        if sc.peek() != ".":
            raise LexError("expected '.' after AEIP.MESSAGES", sc.span(1))
        sc.advance()
    if sc.peek() not in _IDENT_START:
        raise LexError("expected a name after '.'", sc.span(1))
    name = sc.take_ident()
    text = ".".join(parts) + "." + name
    return RefToken(
        TokenKind.REF, text, sc.span(len(text), line, column), (*parts, name)
    )


def _lex_number(sc: _Scanner, line: int, column: int) -> RefToken:
    start = sc.pos
    if sc.peek() == "-":
        sc.advance()
    while sc.peek() in _DIGITS:
        sc.advance()
    if sc.peek() == "." and sc.peek(1) in _DIGITS:
        sc.advance()
        while sc.peek() in _DIGITS:
            sc.advance()
        text = sc.source[start : sc.pos]
        value = float(text)
        if math.isinf(value):
            raise LexError("real literal out of range", sc.span(len(text), line, column))
        return RefToken(TokenKind.REAL, text, sc.span(len(text), line, column), value)
    if sc.peek() == ".":
        raise LexError("real literals need digits after the decimal point", sc.span(1))
    text = sc.source[start : sc.pos]
    try:
        value = int(text)
    except ValueError:
        raise LexError("integer literal too long", sc.span(len(text), line, column)) from None
    return RefToken(TokenKind.INT, text, sc.span(len(text), line, column), value)


def _lex_text(sc: _Scanner, line: int, column: int) -> RefToken:
    sc.advance()  # opening quote
    start = sc.pos
    while True:
        ch = sc.peek()
        if ch == "":
            raise LexError("unterminated text literal", sc.span(1, line, column))
        if ch == "\n" or ch == "\r":
            raise LexError("text literal spans end of line", sc.span(1, line, column))
        if ch == '"':
            break
        sc.advance()
    value = sc.source[start : sc.pos]
    sc.advance()  # closing quote
    return RefToken(
        TokenKind.TEXT, f'"{value}"', sc.span(len(value) + 2, line, column), value
    )


# --------------------------------------------------------------------------
# Test generator analyses, by walking the tree


def _callees(spec, elem, action):
    out = []
    for stmt in action.does:
        if isinstance(stmt, CallStmt):
            callee = spec.symbols.lookup(elem, "actions", stmt.action.name)
            if isinstance(callee, ActionDecl):
                out.append(callee)
    return out


def reference_error_capable(spec, elem, action, seen=None) -> bool:
    seen = seen or set()
    if action.name in seen:
        return False
    seen.add(action.name)
    if any(isinstance(stmt, FailStmt) for stmt in action.does):
        return True
    return any(
        _const_value(callee.guard) is not False
        and reference_error_capable(spec, elem, callee, seen)
        for callee in _callees(spec, elem, action)
    )


def reference_always_fails(spec, elem, action, seen=None) -> bool:
    seen = seen or set()
    if action.name in seen:
        return False
    seen.add(action.name)
    if any(isinstance(stmt, FailStmt) for stmt in action.does):
        return True
    return any(
        _const_value(callee.guard) is True
        and reference_always_fails(spec, elem, callee, seen)
        for callee in _callees(spec, elem, action)
    )


def _metric_names(expr) -> list[str]:
    if isinstance(expr, MetricRefExpr):
        return [expr.name]
    if isinstance(expr, NotExpr):
        return _metric_names(expr.operand)
    if isinstance(expr, (BinaryExpr, CompareExpr)):
        return _metric_names(expr.left) + _metric_names(expr.right)
    return []


def reference_relevant_metrics(spec, path):
    elem = path.policy[0]
    initiator = spec.symbols.lookup(elem, "events", path.initiating_event[1])
    terminator = spec.symbols.lookup(elem, "events", path.terminating_event[1])
    exprs = []
    for event in (initiator, terminator):
        if event.guard is not None:
            exprs.append(event.guard)
    seen_actions: set[str] = set()

    def visit_action(name: str) -> None:
        if name in seen_actions:
            return
        seen_actions.add(name)
        action = spec.symbols.lookup(elem, "actions", name)
        if not isinstance(action, ActionDecl):
            return
        if action.guard is not None:
            exprs.append(action.guard)
        if action.ensures is not None:
            exprs.append(action.ensures)
        for stmt in action.does + action.onerr_does:
            if isinstance(stmt, CallStmt):
                visit_action(stmt.action.name)
            elif isinstance(stmt, AssignStmt):
                exprs.append(stmt.value)

    for action_key, _choice in path.branches:
        visit_action(action_key[1])

    names: dict[str, None] = {}
    for expr in exprs:
        for name in _metric_names(expr):
            names.setdefault(name)
    out = []
    for name in names:
        decl = spec.symbols.lookup(elem, "metrics", name)
        if isinstance(decl, MetricDecl):
            out.append(((elem, name), decl))
    return out


def _reference_influence(spec) -> list[tuple[str, str]]:
    """Every pair ``(u, v)`` such that ``u`` can set ``v`` running or change
    it, other than by being read, as qualified names ``scope.kind.name``,
    read off the tree."""
    edges: list[tuple[str, str]] = []

    def scoped(kind: str, resolved, name: str) -> str:
        return f"{resolved[0]}.{kind}.{name}"

    for tier in spec.tree.tiers():
        t = tier.name
        for policy in tier.policies:
            for fluent in policy.fluents:
                for ref in fluent.initiated_by + fluent.terminated_by:
                    edges.append((f"{t}.event.{ref.name}", f"{t}.fluent.{fluent.name}"))
            for mapping in policy.mappings:
                for cond in mapping.conditions:
                    for ref in mapping.do_actions:
                        edges.append((f"{t}.fluent.{cond.name}", f"{t}.action.{ref.name}"))
        for event in tier.events:
            me = f"{t}.event.{event.name}"
            for clause in event.activation:
                if clause.kind is ActivationKind.CHANGED:
                    edges.append((f"{t}.metric.{clause.target.name}", me))
                elif clause.target is not None:
                    resolved = spec.symbols.resolve_message(t, clause.target.name)
                    edges.append((scoped("message", resolved, clause.target.name), me))
        for action in tier.actions:
            me = f"{t}.action.{action.name}"
            for stmt in action.does + action.onerr_does:
                if isinstance(stmt, CallStmt):
                    edges.append((me, f"{t}.action.{stmt.action.name}"))
                elif isinstance(stmt, AssignStmt):
                    edges.append((me, f"{t}.metric.{stmt.metric.name}"))
                elif isinstance(stmt, SendStmt):
                    message = spec.symbols.resolve_message(t, stmt.message.name)
                    channel = spec.symbols.resolve_channel(t, stmt.channel.name)
                    edges.append((me, scoped("message", message, stmt.message.name)))
                    edges.append((me, scoped("channel", channel, stmt.channel.name)))
            for ref in action.triggers + action.onerr_triggers:
                edges.append((me, f"{t}.event.{ref.name}"))
    return edges


def _reference_uses(spec, start_events, start_actions) -> set[str]:
    """Names of the given events and actions (``(tier, name)`` pairs) and of
    everything they transitively use, through calls and triggers."""
    closure: set[str] = set()
    pending_events = list(start_events)
    pending_actions = list(start_actions)
    seen_events: set[tuple[str, str]] = set()
    seen_actions: set[tuple[str, str]] = set()

    def add_expr(elem, expr) -> None:
        if expr is None:
            return
        for name in _metric_names(expr):
            closure.add(f"{elem}.metric.{name}")

    while pending_events or pending_actions:
        while pending_events:
            elem, name = pending_events.pop()
            if (elem, name) in seen_events:
                continue
            seen_events.add((elem, name))
            closure.add(f"{elem}.event.{name}")
            event = spec.symbols.lookup(elem, "events", name)
            if not isinstance(event, EventDecl):
                continue
            add_expr(elem, event.guard)
            for clause in event.activation:
                if clause.kind is ActivationKind.CHANGED and clause.target is not None:
                    closure.add(f"{elem}.metric.{clause.target.name}")
                elif clause.target is not None:
                    resolved = spec.symbols.resolve_message(elem, clause.target.name)
                    if resolved is not None:
                        closure.add(f"{resolved[0]}.message.{clause.target.name}")
        while pending_actions:
            elem, name = pending_actions.pop()
            if (elem, name) in seen_actions:
                continue
            seen_actions.add((elem, name))
            closure.add(f"{elem}.action.{name}")
            action = spec.symbols.lookup(elem, "actions", name)
            if not isinstance(action, ActionDecl):
                continue
            add_expr(elem, action.guard)
            add_expr(elem, action.ensures)
            for stmt in action.does + action.onerr_does:
                if isinstance(stmt, CallStmt):
                    pending_actions.append((elem, stmt.action.name))
                elif isinstance(stmt, AssignStmt):
                    closure.add(f"{elem}.metric.{stmt.metric.name}")
                    add_expr(elem, stmt.value)
                elif isinstance(stmt, SendStmt):
                    message = spec.symbols.resolve_message(elem, stmt.message.name)
                    channel = spec.symbols.resolve_channel(elem, stmt.channel.name)
                    if message is not None:
                        closure.add(f"{message[0]}.message.{stmt.message.name}")
                    if channel is not None:
                        closure.add(f"{channel[0]}.channel.{stmt.channel.name}")
            for ref in action.triggers + action.onerr_triggers:
                pending_events.append((elem, ref.name))
    return closure


def _reference_readers(spec, metrics: set[str]) -> set[str]:
    """Names of the events and actions whose guard, ENSURES or assigned value
    reads one of ``metrics``."""
    readers = set()
    for tier in spec.tree.tiers():
        for decl in tier.events + tier.actions:
            kind = "event" if isinstance(decl, EventDecl) else "action"
            exprs = [decl.guard]
            if kind == "action":
                exprs.append(decl.ensures)
                exprs += [s.value for s in decl.does + decl.onerr_does if isinstance(s, AssignStmt)]
            names = {n for expr in exprs if expr is not None for n in _metric_names(expr)}
            if any(f"{tier.name}.metric.{name}" in metrics for name in names):
                readers.add(f"{tier.name}.{kind}.{decl.name}")
    return readers


def reference_policy_closure(spec, policy) -> set[str]:
    """The policy's own name, and the names of what the policy uses; of what
    its test runs can set going from there and from every timer, found by a
    fixpoint over ``_reference_influence``; of what all of those use; and of
    every reader of a metric the policy uses. A fluent is named by its
    policy."""
    elem = policy[0]
    tier = spec.symbols.tiers[elem]
    decl = next(p for p in tier.policies if p.name == policy[1])
    runs = _reference_uses(
        spec,
        [(elem, ref.name) for f in decl.fluents for ref in f.initiated_by + f.terminated_by],
        [(elem, ref.name) for m in decl.mappings for ref in m.do_actions],
    )
    readers = _reference_readers(spec, {name for name in runs if ".metric." in name})
    runs |= {
        f"{t.name}.event.{event.name}"
        for t in spec.tree.tiers()
        for event in t.events
        if any(clause.kind is ActivationKind.ELAPSED for clause in event.activation)
    }
    edges = _reference_influence(spec)
    grew = True
    while grew:
        before = len(runs)
        runs |= {v for u, v in edges if u in runs}
        grew = len(runs) > before
    parts = [name.split(".") for name in runs]
    closure = {f"{elem}.policy.{policy[1]}"} | readers
    closure |= _reference_uses(
        spec,
        [(scope, name) for scope, kind, name in parts if kind == "event"],
        [(scope, name) for scope, kind, name in parts if kind == "action"],
    )
    for scope, kind, name in parts:
        if kind == "fluent":
            owner = next(
                p.name for p in spec.symbols.tiers[scope].policies
                if any(f.name == name for f in p.fluents)
            )
            closure.add(f"{scope}.policy.{owner}")
        elif kind not in ("event", "action"):
            closure.add(f"{scope}.{kind}.{name}")
    return closure


def _reference_decl_map(spec) -> dict[str, object]:
    decls: dict[str, object] = {}
    for tier in spec.tree.tiers():
        for namespace, items in (
            ("policy", tier.policies),
            ("action", tier.actions),
            ("event", tier.events),
            ("metric", tier.metrics),
        ):
            for decl in items:
                decls[f"{tier.name}.{namespace}.{decl.name}"] = decl
    for (scope, name), decl in spec.symbols.messages.items():
        decls[f"{scope}.message.{name}"] = decl
    for (scope, name), decl in spec.symbols.channels.items():
        decls[f"{scope}.channel.{name}"] = decl
    return decls


def reference_impact(old_spec, new_spec) -> ImpactSet:
    old_decls = _reference_decl_map(old_spec)
    new_decls = _reference_decl_map(new_spec)
    changed = {
        key for key in set(old_decls) | set(new_decls) if old_decls.get(key) != new_decls.get(key)
    }
    impacted = {
        policy
        for spec in (old_spec, new_spec)
        for tier in spec.tree.tiers()
        for policy in ((tier.name, p.name) for p in tier.policies)
        if reference_policy_closure(spec, policy) & changed
    }
    return ImpactSet(tuple(sorted(changed)), tuple(sorted(impacted)))

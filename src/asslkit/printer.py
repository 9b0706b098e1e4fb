"""Canonical source rendering for specification trees.

``parse_text(pretty_print(tree))`` yields a tree structurally equal to
``tree`` (spans aside). Optional clauses that parsed empty are omitted, which
is safe because an absent clause and an empty one build the same node.

A tier body (AS, AE, ASIP, AEIP) is printed by walking the parser's section
table for it, in table order, with one emitter per section member type; a
section keyword is written with its spelling from ``asslkit.tokens``.
"""

from __future__ import annotations

from .nodes import (
    ActionDecl,
    ActivationClause,
    ActivationKind,
    AsipTier,
    AssignStmt,
    AsTier,
    BinaryExpr,
    BindingRefExpr,
    CallStmt,
    ChannelDecl,
    CompareExpr,
    EventDecl,
    Expr,
    FailStmt,
    FluentDecl,
    FluentRefExpr,
    FunctionDecl,
    Lit,
    MappingDecl,
    MessageDecl,
    MetricDecl,
    MetricRefExpr,
    NotExpr,
    OpaqueBlock,
    PolicyDecl,
    Ref,
    SendStmt,
    SloDecl,
    SpecificationTree,
    Stmt,
    Tier,
    render_value,
)
from .parser import AE_SECTIONS, AS_SECTIONS, PROTOCOL_SECTIONS, SectionTable
from .tokens import SPELLING

_INDENT = "  "

# Precedence levels for minimal parenthesization.
_PREC_OR, _PREC_AND, _PREC_NOT, _PREC_CMP, _PREC_ATOM = range(5)


def pretty_print(tree: SpecificationTree) -> str:
    """Render a whole specification as canonical source text."""
    out: list[str] = []
    _emit_body(out, f"AS {tree.as_tier.name}", tree.as_tier, AS_SECTIONS, 0)
    if tree.asip_tier is not None:
        _emit_body(out, "ASIP", tree.asip_tier, PROTOCOL_SECTIONS, 0)
    for ae in tree.ae_tiers:
        _emit_body(out, f"AE {ae.name}", ae, AE_SECTIONS, 0)
    return "\n".join(out) + "\n"


def format_policy(policy: PolicyDecl) -> str:
    """Render one policy declaration as source text."""
    return _format(policy)


def format_event(event: EventDecl) -> str:
    return _format(event)


def format_action(action: ActionDecl) -> str:
    return _format(action)


def format_expr(expr: Expr) -> str:
    return _expr(expr, _PREC_OR)


# --------------------------------------------------------------------------


def _format(decl: PolicyDecl | EventDecl | ActionDecl) -> str:
    out: list[str] = []
    _MEMBERS[type(decl)](out, decl, 0)
    return "\n".join(out) + "\n"


def _line(out: list[str], depth: int, text: str) -> None:
    out.append(_INDENT * depth + text)


def _emit_body(
    out: list[str], head: str, tier: Tier | AsipTier, table: SectionTable, depth: int
) -> None:
    """``head { ... }`` with the sections of ``table`` in its order, each
    omitted when it parsed empty. An AS tier with no section is one line."""
    _line(out, depth, head + " {")
    opened = len(out)
    for kind, (field, _parse) in table.items():
        value = getattr(tier, field)
        if not value:  # absent, or parsed empty
            continue
        keyword = SPELLING[kind]
        if isinstance(value, OpaqueBlock):
            _line(out, depth + 1, f"{keyword} {_opaque(value)}")
        elif isinstance(value, AsipTier):
            _emit_body(out, keyword, value, PROTOCOL_SECTIONS, depth + 1)
        elif isinstance(value[0], str):  # FRIENDS: tier names on one line
            _line(out, depth + 1, f"{keyword} {{ {', '.join(value)} }}")
        else:
            emit = _MEMBERS[type(value[0])]
            _line(out, depth + 1, keyword + " {")
            for member in value:
                emit(out, member, depth + 2)
            _line(out, depth + 1, "}")
    if len(out) == opened and isinstance(tier, AsTier):
        out[-1] += " }"
    else:
        _line(out, depth, "}")


def _emit_slo(out: list[str], slo: SloDecl, depth: int) -> None:
    _line(out, depth, f"{slo.name} {_opaque(slo.body)}")


def _emit_policy(out: list[str], policy: PolicyDecl, depth: int) -> None:
    _line(out, depth, f"{policy.name} {{")
    for fluent in policy.fluents:
        _emit_fluent(out, fluent, depth + 1)
    for mapping in policy.mappings:
        _emit_mapping(out, mapping, depth + 1)
    _line(out, depth, "}")


def _emit_fluent(out: list[str], fluent: FluentDecl, depth: int) -> None:
    _line(out, depth, f"FLUENT {fluent.name} {{")
    _line(out, depth + 1, "INITIATED_BY { " + _refs(fluent.initiated_by) + " }")
    _line(out, depth + 1, "TERMINATED_BY { " + _refs(fluent.terminated_by) + " }")
    _line(out, depth, "}")


def _emit_mapping(out: list[str], mapping: MappingDecl, depth: int) -> None:
    _line(out, depth, "MAPPING {")
    _line(out, depth + 1, "CONDITIONS { " + _refs(mapping.conditions) + " }")
    _line(out, depth + 1, "DO_ACTIONS { " + _refs(mapping.do_actions) + " }")
    _line(out, depth, "}")


def _emit_event(out: list[str], event: EventDecl, depth: int) -> None:
    if event.guard is None and not event.activation and not event.injectable:
        _line(out, depth, f"EVENT {event.name} {{ }}")
        return
    _line(out, depth, f"EVENT {event.name} {{")
    if event.injectable:
        _line(out, depth + 1, "INJECTABLE")
    if event.guard is not None:
        _line(out, depth + 1, "GUARDS { " + format_expr(event.guard) + " }")
    for clause in event.activation:
        _line(out, depth + 1, "ACTIVATION { " + _activation(clause) + " }")
    _line(out, depth, "}")


def _activation(clause: ActivationClause) -> str:
    if clause.kind is ActivationKind.ELAPSED:
        return f"ELAPSED {{ {clause.ticks} }}"
    assert clause.target is not None
    return f"{clause.kind.value} {{ {clause.target.render()} }}"


def _emit_action(out: list[str], action: ActionDecl, depth: int) -> None:
    _line(out, depth, f"ACTION {action.name} {{")
    if action.guard is not None:
        _line(out, depth + 1, "GUARDS { " + format_expr(action.guard) + " }")
    if action.ensures is not None:
        _line(out, depth + 1, "ENSURES { " + format_expr(action.ensures) + " }")
    _emit_statements(out, "DOES", action.does, depth + 1)
    if action.onerr_does:
        _emit_statements(out, "ONERR_DOES", action.onerr_does, depth + 1)
    if action.triggers:
        _line(out, depth + 1, "TRIGGERS { " + _refs(action.triggers) + " }")
    if action.onerr_triggers:
        _line(out, depth + 1, "ONERR_TRIGGERS { " + _refs(action.onerr_triggers) + " }")
    _line(out, depth, "}")


def _emit_statements(out: list[str], keyword: str, stmts: tuple[Stmt, ...], depth: int) -> None:
    _line(out, depth, keyword + " {")
    for stmt in stmts:
        _line(out, depth + 1, _statement(stmt))
    _line(out, depth, "}")


def _statement(stmt: Stmt) -> str:
    if isinstance(stmt, CallStmt):
        call = f"call {stmt.action.render()};"
        return f"{stmt.binding} = {call}" if stmt.binding else call
    if isinstance(stmt, AssignStmt):
        return f"{stmt.metric.render()} = {format_expr(stmt.value)};"
    if isinstance(stmt, SendStmt):
        return f"send {stmt.message.render()} over {stmt.channel.render()};"
    assert isinstance(stmt, FailStmt)
    return f'fail "{stmt.reason}";'


def _emit_metric(out: list[str], metric: MetricDecl, depth: int) -> None:
    initial = render_value(metric.initial.value)
    _line(
        out, depth,
        f"METRIC {metric.name} {{ TYPE {{ {metric.value_type.value} }}"
        f" INITIAL {{ {initial} }} }}",
    )


def _emit_message(out: list[str], message: MessageDecl, depth: int) -> None:
    _line(
        out, depth,
        f"MESSAGE {message.name} {{ SENDER {{ {message.sender} }}"
        f" RECEIVER {{ {message.receiver} }} }}",
    )


def _emit_channel(out: list[str], channel: ChannelDecl, depth: int) -> None:
    _line(out, depth, f"CHANNEL {channel.name} {{ CAPACITY {{ {channel.capacity} }} }}")


def _emit_function(out: list[str], function: FunctionDecl, depth: int) -> None:
    _line(out, depth, f"FUNCTION {function.name} {_opaque(function.body)}")


# The one emitter of each section member type.
_MEMBERS = {
    SloDecl: _emit_slo,
    PolicyDecl: _emit_policy,
    ActionDecl: _emit_action,
    EventDecl: _emit_event,
    MetricDecl: _emit_metric,
    MessageDecl: _emit_message,
    ChannelDecl: _emit_channel,
    FunctionDecl: _emit_function,
}


def _opaque(block: OpaqueBlock) -> str:
    if not block.tokens:
        return "{ }"
    return "{ " + " ".join(block.tokens) + " }"


def _refs(refs: tuple[Ref, ...]) -> str:
    return ", ".join(ref.render() for ref in refs)


def _expr(expr: Expr, parent: int) -> str:
    if isinstance(expr, Lit):
        return render_value(expr.value)
    if isinstance(expr, MetricRefExpr):
        return f"METRICS.{expr.name}"
    if isinstance(expr, FluentRefExpr):
        return f"FLUENTS.{expr.name}"
    if isinstance(expr, BindingRefExpr):
        return expr.name
    if isinstance(expr, NotExpr):
        text = "NOT " + _expr(expr.operand, _PREC_NOT)
        level = _PREC_NOT
    elif isinstance(expr, BinaryExpr):
        level = _PREC_AND if expr.op == "AND" else _PREC_OR
        text = f"{_expr(expr.left, level)} {expr.op} {_expr(expr.right, level + 1)}"
    else:
        assert isinstance(expr, CompareExpr)
        level = _PREC_CMP
        text = f"{_expr(expr.left, _PREC_ATOM)} {expr.op} {_expr(expr.right, _PREC_ATOM)}"
    if level < parent:
        return f"({text})"
    return text

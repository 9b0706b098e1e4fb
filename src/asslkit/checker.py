"""Consistency checking: names, types, and well-formedness rules.

``check_all`` registers every declaration, then walks each tier once. The
walk resolves every reference, types every expression and applies the rules
that need only the tree; one recursion over an expression both reports its
undefined names and returns its type. What the walk finds falls into three
groups, reported by precedence: names (E-DUP, E-UNDEF, E-SCOPE) if there are
any; else types (E-TYPE) if there are any; else the rules, once the spec's
:class:`~asslkit.program.Program`, which every back end reads, is built. The
rules make execution total:

* R1  a fluent's initiating and terminating event sets are disjoint
      (E-FLUENT-OVERLAP);
* R2  the action call graph is acyclic (E-CYCLE);
* R3  every fluent is referenced by at least one mapping (W-UNREACHABLE);
* R4  every TRIGGERS / ONERR_TRIGGERS target is declared (a name's E-UNDEF);
* R5  every event is raisable: it has an activation, is triggered somewhere,
      or is declared INJECTABLE (W-UNREACHABLE);
* R6  channel capacities and ELAPSED periods are at least 1 (E-CAPACITY);
* R7  no call chain nests deeper than the runtime's ``MAX_CALL_DEPTH``
      (E-DEPTH).

R2, R5 and R7 read the program's events and influence graph: the call
cycles and the longest call chains come from one depth-first search over its
call and error-call edges, and an event is triggered somewhere when a
trigger or error-trigger edge enters it.

Error-severity diagnostics block the runtime, verifier and test generator;
warnings do not. Identical trees always yield identical diagnostic lists:
output is ordered by span, then code, then message.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .nodes import (
    ActivationKind,
    AeTier,
    AsipTier,
    AssignStmt,
    BinaryExpr,
    BindingRefExpr,
    CallStmt,
    ChannelDecl,
    CompareExpr,
    Expr,
    FluentRefExpr,
    Lit,
    MessageDecl,
    MetricDecl,
    MetricRefExpr,
    NotExpr,
    Ref,
    SendStmt,
    SpecificationTree,
    Tier,
    ValueType,
)
from .program import MAX_CALL_DEPTH, Program
from .tokens import SourceSpan

ERROR = "error"
WARNING = "warning"

#: Scope key used for declarations of the shared interaction protocol.
ASIP_SCOPE = "ASIP"

#: Trigger and error-trigger edges, from the event back to the actions raising it.
_TRIGGERED_BY = frozenset({("triggers", False), ("error-triggers", False)})

#: Ordering comparisons apply to numeric operands only.
_ORDERING_OPS = frozenset({"<", "<=", ">", ">="})

#: Codes of the name group, which ``check_all`` reports before any other.
_NAME_CODES = frozenset({"E-DUP", "E-UNDEF", "E-SCOPE"})


@dataclass(frozen=True)
class Diagnostic:
    code: str  # "E-..." for an error, "W-..." for a warning
    message: str
    span: SourceSpan

    @property
    def severity(self) -> str:
        return ERROR if self.code.startswith("E-") else WARNING

    def render(self) -> str:
        return f"{self.span.render()}: {self.severity} {self.code}: {self.message}"


def sort_key(diag: Diagnostic) -> tuple:
    return (diag.span.file, diag.span.line, diag.span.column, diag.code, diag.message)


class SymbolTable:
    """Per-tier declaration maps with deterministic lookup.

    Tier-local names never shadow one another across tiers; messages and
    channels resolve against the declaring tier's AEIP first and fall back to
    the shared ASIP.
    """

    def __init__(self) -> None:
        self.tiers: dict[str, Tier] = {}
        self.decls: dict[tuple[str, str, str], object] = {}
        self.fluent_policy: dict[tuple[str, str], str] = {}
        self.messages: dict[tuple[str, str], MessageDecl] = {}
        self.channels: dict[tuple[str, str], ChannelDecl] = {}

    def lookup(self, tier: str, namespace: str, name: str):
        return self.decls.get((tier, namespace, name))

    def resolve_message(self, tier: str, name: str) -> tuple[str, MessageDecl] | None:
        return _in_scope(self.messages, tier, name)

    def resolve_channel(self, tier: str, name: str) -> tuple[str, ChannelDecl] | None:
        return _in_scope(self.channels, tier, name)


def _in_scope(table: dict, tier: str, name: str):
    """(scope, decl) of the tier's own declaration, else of the shared ASIP's."""
    for scope in (tier, ASIP_SCOPE):
        decl = table.get((scope, name))
        if decl is not None:
            return scope, decl
    return None


@dataclass(frozen=True)
class CheckedSpec:
    """A specification tree with its symbols, diagnostics and program (None
    when a name or a type error was found)."""

    tree: SpecificationTree
    symbols: SymbolTable = field(compare=False)
    diagnostics: tuple[Diagnostic, ...] = ()
    program: Program | None = field(default=None, compare=False)

    @property
    def ok(self) -> bool:
        return all(d.severity != ERROR for d in self.diagnostics)


def check_all(tree: SpecificationTree) -> CheckedSpec:
    """Register the declarations, walk each tier once, and report the first
    group that holds a diagnostic: names, then types, then rules.

    So a missing name is reported once rather than echoed as a type error,
    and the ``Program`` is built only from a tree whose names and types hold.
    """
    symbols = SymbolTable()
    found: list[Diagnostic] = []
    _register(tree, symbols, found)
    for tier in symbols.tiers.values():  # a duplicate tier reports only its E-DUP
        _check_tier(tier, symbols, found)
    if tree.asip_tier is not None:
        _check_protocol(tree.asip_tier, symbols, found)
    names = [d for d in found if d.code in _NAME_CODES]
    types = [d for d in found if d.code == "E-TYPE"]
    program = None
    if names or types:
        found = names or types
    else:
        program = Program(tree, symbols)
        _check_program(program, found)
    return CheckedSpec(tree, symbols, tuple(sorted(found, key=sort_key)), program)


def _register(tree: SpecificationTree, symbols: SymbolTable, diags: list[Diagnostic]) -> None:
    def dup(code_subject: str, span: SourceSpan) -> None:
        diags.append(Diagnostic("E-DUP", f"duplicate declaration of {code_subject}", span))

    for tier in tree.tiers():
        if tier.name in symbols.tiers:
            dup(f"tier '{tier.name}'", tier.span)
            continue
        symbols.tiers[tier.name] = tier
        for namespace, decls in (
            ("slos", tier.slos),
            ("policies", tier.policies),
            ("actions", tier.actions),
            ("events", tier.events),
            ("metrics", tier.metrics),
        ):
            for decl in decls:
                key = (tier.name, namespace, decl.name)
                if key in symbols.decls:
                    dup(f"'{decl.name}' in {tier.name} {namespace}", decl.span)
                else:
                    symbols.decls[key] = decl
        for policy in tier.policies:
            for fluent in policy.fluents:
                key = (tier.name, "fluents", fluent.name)
                if key in symbols.decls:
                    dup(f"fluent '{fluent.name}' in tier {tier.name}", fluent.span)
                else:
                    symbols.decls[key] = fluent
                    symbols.fluent_policy[(tier.name, fluent.name)] = policy.name

        aeip = tier.aeip if isinstance(tier, AeTier) else None
        if aeip is not None:
            _register_protocol(aeip, tier.name, symbols, diags)

    if tree.asip_tier is not None:
        _register_protocol(tree.asip_tier, ASIP_SCOPE, symbols, diags)


def _register_protocol(
    asip: AsipTier, scope: str, symbols: SymbolTable, diags: list[Diagnostic]
) -> None:
    for kind, decls, table in (
        ("message", asip.messages, symbols.messages),
        ("channel", asip.channels, symbols.channels),
    ):
        for decl in decls:
            key = (scope, decl.name)
            if key in table:
                diags.append(
                    Diagnostic("E-DUP", f"duplicate {kind} '{decl.name}'", decl.span)
                )
            else:
                table[key] = decl


# --------------------------------------------------------------------------
# The walk: names, types and the rules a tier checks alone


def _check_tier(tier: Tier, symbols: SymbolTable, diags: list[Diagnostic]) -> None:
    t = tier.name

    def undef(kind: str, ref: Ref) -> None:
        diags.append(
            Diagnostic("E-UNDEF", f"undefined {kind} '{ref.render()}'", ref.span)
        )

    def check_event_refs(refs: tuple[Ref, ...]) -> None:
        for ref in refs:
            if symbols.lookup(t, "events", ref.name) is None:
                undef("event", ref)

    def require_boolean(expr: Expr, bindings: frozenset[str], what: str) -> None:
        actual = _check_expr(expr, t, bindings, symbols, diags)
        if actual is not None and actual is not ValueType.BOOLEAN:
            diags.append(
                Diagnostic("E-TYPE", f"{what} must be boolean, not {actual.value}", expr.span)
            )

    for metric in tier.metrics:
        if metric.initial.type is not metric.value_type:
            diags.append(
                Diagnostic(
                    "E-TYPE",
                    f"initial value of metric '{metric.name}' is"
                    f" {metric.initial.type.value}, not {metric.value_type.value}",
                    metric.initial.span,
                )
            )

    for policy in tier.policies:
        if not policy.fluents:
            diags.append(
                Diagnostic("E-EMPTY", f"policy '{policy.name}' declares no fluents", policy.span)
            )
        mapped = {cond.name for mapping in policy.mappings for cond in mapping.conditions}
        for fluent in policy.fluents:
            check_event_refs(fluent.initiated_by)
            check_event_refs(fluent.terminated_by)
            overlap = {r.name for r in fluent.initiated_by} & {
                r.name for r in fluent.terminated_by
            }
            if overlap:
                names = ", ".join(sorted(overlap))
                diags.append(
                    Diagnostic(
                        "E-FLUENT-OVERLAP",
                        f"fluent '{fluent.name}' is both initiated and terminated by: {names}",
                        fluent.span,
                    )
                )
            if fluent.name not in mapped:
                diags.append(
                    Diagnostic(
                        "W-UNREACHABLE",
                        f"fluent '{fluent.name}' is not referenced by any mapping", fluent.span,
                    )
                )
        for mapping in policy.mappings:
            for cond in mapping.conditions:
                decl = symbols.lookup(t, "fluents", cond.name)
                if decl is None:
                    undef("fluent", cond)
                elif symbols.fluent_policy.get((t, cond.name)) != policy.name:
                    diags.append(
                        Diagnostic(
                            "E-SCOPE",
                            f"fluent '{cond.name}' belongs to another policy;"
                            " conditions may only name fluents of the same policy",
                            cond.span,
                        )
                    )
            for ref in mapping.do_actions:
                if symbols.lookup(t, "actions", ref.name) is None:
                    undef("action", ref)

    for event in tier.events:
        if event.guard is not None:
            require_boolean(event.guard, frozenset(), "event guard")
        for clause in event.activation:
            if clause.kind is ActivationKind.ELAPSED and (clause.ticks or 0) < 1:
                diags.append(
                    Diagnostic("E-CAPACITY", "ELAPSED period must be at least 1 tick", clause.span)
                )
            elif clause.kind is ActivationKind.CHANGED:
                assert clause.target is not None
                if symbols.lookup(t, "metrics", clause.target.name) is None:
                    undef("metric", clause.target)
            elif clause.kind in (ActivationKind.SENT, ActivationKind.RECEIVED):
                assert clause.target is not None
                if symbols.resolve_message(t, clause.target.name) is None:
                    undef("message", clause.target)

    for action in tier.actions:
        bindings = frozenset(
            stmt.binding
            for stmt in action.does + action.onerr_does
            if isinstance(stmt, CallStmt) and stmt.binding
        )
        if action.guard is not None:
            require_boolean(action.guard, frozenset(), "action guard")
        if action.ensures is not None:
            require_boolean(action.ensures, bindings, "ENSURES clause")
        for stmt in action.does + action.onerr_does:
            if isinstance(stmt, CallStmt):
                if symbols.lookup(t, "actions", stmt.action.name) is None:
                    undef("action", stmt.action)
            elif isinstance(stmt, AssignStmt):
                metric = symbols.lookup(t, "metrics", stmt.metric.name)
                value_type = _check_expr(stmt.value, t, bindings, symbols, diags)
                if not isinstance(metric, MetricDecl):
                    undef("metric", stmt.metric)
                elif value_type is not None and value_type is not metric.value_type:
                    diags.append(
                        Diagnostic(
                            "E-TYPE",
                            f"cannot assign {value_type.value} to"
                            f" {metric.value_type.value} metric '{metric.name}'",
                            stmt.span,
                        )
                    )
            elif isinstance(stmt, SendStmt):
                if symbols.resolve_message(t, stmt.message.name) is None:
                    undef("message", stmt.message)
                if symbols.resolve_channel(t, stmt.channel.name) is None:
                    undef("channel", stmt.channel)
        check_event_refs(action.triggers)
        check_event_refs(action.onerr_triggers)

    if isinstance(tier, AeTier):
        for friend in tier.friends:
            if friend not in symbols.tiers:
                diags.append(
                    Diagnostic("E-UNDEF", f"undefined tier '{friend}' in FRIENDS", tier.span)
                )
        if tier.aeip is not None:
            _check_protocol(tier.aeip, symbols, diags)


def _check_protocol(asip: AsipTier, symbols: SymbolTable, diags: list[Diagnostic]) -> None:
    """Every message endpoint names a tier (a name error); every channel's
    capacity is at least 1 (R6)."""
    for message in asip.messages:
        for endpoint in (message.sender, message.receiver):
            if endpoint not in symbols.tiers:
                diags.append(
                    Diagnostic(
                        "E-UNDEF", f"undefined tier '{endpoint}' in message endpoints",
                        message.span,
                    )
                )
    for channel in asip.channels:
        if channel.capacity < 1:
            diags.append(
                Diagnostic(
                    "E-CAPACITY",
                    f"channel '{channel.name}' must have capacity at least 1", channel.span,
                )
            )


def _check_expr(
    expr: Expr,
    tier: str,
    bindings: frozenset[str],
    symbols: SymbolTable,
    diags: list[Diagnostic],
) -> ValueType | None:
    """Type of an expression, or None when a subexpression already failed.
    Reports each undefined name and each type error on the way."""
    if isinstance(expr, Lit):
        return expr.type
    if isinstance(expr, MetricRefExpr):
        metric = symbols.lookup(tier, "metrics", expr.name)
        if isinstance(metric, MetricDecl):
            return metric.value_type
        diags.append(
            Diagnostic("E-UNDEF", f"undefined metric 'METRICS.{expr.name}'", expr.span)
        )
        return None
    if isinstance(expr, FluentRefExpr):
        if symbols.lookup(tier, "fluents", expr.name) is None:
            diags.append(
                Diagnostic("E-UNDEF", f"undefined fluent 'FLUENTS.{expr.name}'", expr.span)
            )
        return ValueType.BOOLEAN
    if isinstance(expr, BindingRefExpr):
        if expr.name not in bindings:
            diags.append(
                Diagnostic("E-UNDEF", f"'{expr.name}' is not a binding available here", expr.span)
            )
        return ValueType.BOOLEAN  # bindings hold call outcomes
    if isinstance(expr, NotExpr):
        operand = _check_expr(expr.operand, tier, bindings, symbols, diags)
        if operand is not None and operand is not ValueType.BOOLEAN:
            diags.append(
                Diagnostic("E-TYPE", f"NOT needs a boolean, not {operand.value}", expr.span)
            )
            return None
        return ValueType.BOOLEAN if operand else None
    if isinstance(expr, BinaryExpr):
        left = _check_expr(expr.left, tier, bindings, symbols, diags)
        right = _check_expr(expr.right, tier, bindings, symbols, diags)
        ok = True
        for side in (left, right):
            if side is not None and side is not ValueType.BOOLEAN:
                diags.append(
                    Diagnostic(
                        "E-TYPE", f"{expr.op} needs boolean operands, not {side.value}",
                        expr.span,
                    )
                )
                ok = False
        return ValueType.BOOLEAN if ok and left and right else None
    assert isinstance(expr, CompareExpr)
    left = _check_expr(expr.left, tier, bindings, symbols, diags)
    right = _check_expr(expr.right, tier, bindings, symbols, diags)
    if left is None or right is None:
        return None
    if left is not right:
        diags.append(
            Diagnostic("E-TYPE", f"comparison between {left.value} and {right.value}", expr.span)
        )
        return None
    if expr.op in _ORDERING_OPS and left not in (ValueType.INTEGER, ValueType.REAL):
        diags.append(
            Diagnostic("E-TYPE", f"ordering comparison on {left.value} values", expr.span)
        )
        return None
    return ValueType.BOOLEAN


# --------------------------------------------------------------------------
# The rules that read the program


def _check_program(program: Program, diags: list[Diagnostic]) -> None:
    """W-UNREACHABLE for each event nothing raises; E-CYCLE for each call
    cycle, else E-DEPTH for each chain too deep to run."""
    for key, event in program.events.items():
        node = ("event", key)
        if (
            not event.decl.activation
            and not event.decl.injectable
            and program.influence.walk([node], _TRIGGERED_BY) == [node]
        ):
            diags.append(
                Diagnostic(
                    "W-UNREACHABLE",
                    f"event '{event.decl.name}' has no activation, is never triggered,"
                    " and is not INJECTABLE",
                    event.decl.span,
                )
            )
    cycles, depth = program.influence.call_cycles(("action", key) for key in program.actions)
    for cycle in cycles:
        diags.append(
            Diagnostic(
                "E-CYCLE",
                f"action call cycle: {' -> '.join(key[1] for _kind, key in cycle)}",
                program.actions[cycle[-1][1]].decl.span,
            )
        )
    if cycles:
        return  # chain depths mean nothing on a graph with cycles
    for (_kind, key), calls in depth.items():
        if calls > MAX_CALL_DEPTH:
            diags.append(
                Diagnostic(
                    "E-DEPTH",
                    f"call chain from action '{key[1]}' nests {calls} calls deep;"
                    f" the runtime runs at most {MAX_CALL_DEPTH}",
                    program.actions[key].decl.span,
                )
            )

"""Abstract syntax tree for multi-tier autonomic-system specifications.

All nodes are frozen dataclasses and therefore immutable and shareable across
threads. Every node carries exactly one :class:`SourceSpan`; spans are
excluded from equality and hashing so that structural comparison ignores
where a node came from. Collections are tuples to keep trees hashable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from decimal import Decimal
from enum import Enum

from .tokens import SYNTHETIC, SourceSpan


class ValueType(Enum):
    BOOLEAN = "boolean"
    INTEGER = "integer"
    REAL = "real"
    TEXT = "text"

    @classmethod
    def from_name(cls, name: str) -> "ValueType | None":
        try:
            return cls(name)
        except ValueError:
            return None


@dataclass(frozen=True)
class Ref:
    """A qualified reference such as ``EVENTS.x`` or ``AEIP.MESSAGES.m``.

    Mapping conditions may name fluents without a namespace; those parse with
    an empty ``space``.
    """

    space: tuple[str, ...]
    name: str
    span: SourceSpan = field(default=SYNTHETIC, compare=False)

    def render(self) -> str:
        if not self.space:
            return self.name
        return ".".join(self.space) + "." + self.name


# --------------------------------------------------------------------------
# Expressions


@dataclass(frozen=True)
class Lit:
    value: object
    type: ValueType
    span: SourceSpan = field(default=SYNTHETIC, compare=False)


@dataclass(frozen=True)
class MetricRefExpr:
    name: str
    span: SourceSpan = field(default=SYNTHETIC, compare=False)


@dataclass(frozen=True)
class FluentRefExpr:
    name: str
    span: SourceSpan = field(default=SYNTHETIC, compare=False)


@dataclass(frozen=True)
class BindingRefExpr:
    name: str
    span: SourceSpan = field(default=SYNTHETIC, compare=False)


@dataclass(frozen=True)
class NotExpr:
    operand: "Expr"
    span: SourceSpan = field(default=SYNTHETIC, compare=False)


@dataclass(frozen=True)
class BinaryExpr:
    op: str  # "AND" | "OR"
    left: "Expr"
    right: "Expr"
    span: SourceSpan = field(default=SYNTHETIC, compare=False)


@dataclass(frozen=True)
class CompareExpr:
    op: str  # "=", "!=", "<", "<=", ">", ">="
    left: "Expr"
    right: "Expr"
    span: SourceSpan = field(default=SYNTHETIC, compare=False)


Expr = Lit | MetricRefExpr | FluentRefExpr | BindingRefExpr | NotExpr | BinaryExpr | CompareExpr


# --------------------------------------------------------------------------
# Statements


@dataclass(frozen=True)
class CallStmt:
    action: Ref
    binding: str | None = None
    span: SourceSpan = field(default=SYNTHETIC, compare=False)


@dataclass(frozen=True)
class AssignStmt:
    metric: Ref
    value: Expr
    span: SourceSpan = field(default=SYNTHETIC, compare=False)


@dataclass(frozen=True)
class SendStmt:
    message: Ref
    channel: Ref
    span: SourceSpan = field(default=SYNTHETIC, compare=False)


@dataclass(frozen=True)
class FailStmt:
    reason: str
    span: SourceSpan = field(default=SYNTHETIC, compare=False)


Stmt = CallStmt | AssignStmt | SendStmt | FailStmt


# --------------------------------------------------------------------------
# Declarations


@dataclass(frozen=True)
class OpaqueBlock:
    """A brace-balanced block kept as raw token text, given no semantics."""

    tokens: tuple[str, ...]
    span: SourceSpan = field(default=SYNTHETIC, compare=False)


@dataclass(frozen=True)
class SloDecl:
    name: str
    body: OpaqueBlock
    span: SourceSpan = field(default=SYNTHETIC, compare=False)


@dataclass(frozen=True)
class FluentDecl:
    name: str
    initiated_by: tuple[Ref, ...]
    terminated_by: tuple[Ref, ...]
    span: SourceSpan = field(default=SYNTHETIC, compare=False)


@dataclass(frozen=True)
class MappingDecl:
    conditions: tuple[Ref, ...]
    do_actions: tuple[Ref, ...]
    span: SourceSpan = field(default=SYNTHETIC, compare=False)


@dataclass(frozen=True)
class PolicyDecl:
    name: str
    fluents: tuple[FluentDecl, ...]
    mappings: tuple[MappingDecl, ...]
    span: SourceSpan = field(default=SYNTHETIC, compare=False)


class ActivationKind(Enum):
    SENT = "SENT"
    RECEIVED = "RECEIVED"
    CHANGED = "CHANGED"
    ELAPSED = "ELAPSED"


@dataclass(frozen=True)
class ActivationClause:
    kind: ActivationKind
    target: Ref | None = None  # message or metric reference
    ticks: int | None = None  # ELAPSED period
    span: SourceSpan = field(default=SYNTHETIC, compare=False)


@dataclass(frozen=True)
class EventDecl:
    name: str
    guard: Expr | None = None
    activation: tuple[ActivationClause, ...] = ()
    injectable: bool = False
    span: SourceSpan = field(default=SYNTHETIC, compare=False)


@dataclass(frozen=True)
class ActionDecl:
    name: str
    does: tuple[Stmt, ...]
    guard: Expr | None = None
    ensures: Expr | None = None
    onerr_does: tuple[Stmt, ...] = ()
    triggers: tuple[Ref, ...] = ()
    onerr_triggers: tuple[Ref, ...] = ()
    span: SourceSpan = field(default=SYNTHETIC, compare=False)


@dataclass(frozen=True)
class MetricDecl:
    name: str
    value_type: ValueType
    initial: Lit
    span: SourceSpan = field(default=SYNTHETIC, compare=False)


@dataclass(frozen=True)
class MessageDecl:
    name: str
    sender: str
    receiver: str
    span: SourceSpan = field(default=SYNTHETIC, compare=False)


@dataclass(frozen=True)
class ChannelDecl:
    name: str
    capacity: int
    span: SourceSpan = field(default=SYNTHETIC, compare=False)


@dataclass(frozen=True)
class FunctionDecl:
    name: str
    body: OpaqueBlock
    span: SourceSpan = field(default=SYNTHETIC, compare=False)


@dataclass(frozen=True)
class AsipTier:
    """Interaction-protocol block, used both at AS level and as an AEIP."""

    messages: tuple[MessageDecl, ...] = ()
    channels: tuple[ChannelDecl, ...] = ()
    functions: tuple[FunctionDecl, ...] = ()
    managed_elements: OpaqueBlock | None = None
    span: SourceSpan = field(default=SYNTHETIC, compare=False)


@dataclass(frozen=True)
class AsTier:
    name: str
    slos: tuple[SloDecl, ...] = ()
    policies: tuple[PolicyDecl, ...] = ()
    actions: tuple[ActionDecl, ...] = ()
    events: tuple[EventDecl, ...] = ()
    metrics: tuple[MetricDecl, ...] = ()
    architecture: OpaqueBlock | None = None
    span: SourceSpan = field(default=SYNTHETIC, compare=False)


@dataclass(frozen=True)
class AeTier:
    name: str
    slos: tuple[SloDecl, ...] = ()
    policies: tuple[PolicyDecl, ...] = ()
    actions: tuple[ActionDecl, ...] = ()
    events: tuple[EventDecl, ...] = ()
    metrics: tuple[MetricDecl, ...] = ()
    friends: tuple[str, ...] = ()
    aeip: AsipTier | None = None
    recovery_protocol: OpaqueBlock | None = None
    behavior_models: OpaqueBlock | None = None
    outcomes: OpaqueBlock | None = None
    span: SourceSpan = field(default=SYNTHETIC, compare=False)


Tier = AsTier | AeTier


@dataclass(frozen=True)
class SpecificationTree:
    as_tier: AsTier
    asip_tier: AsipTier | None = None
    ae_tiers: tuple[AeTier, ...] = ()
    span: SourceSpan = field(default=SYNTHETIC, compare=False)

    def tiers(self) -> tuple[Tier, ...]:
        """All executable tiers, the AS first, AEs in declaration order."""
        return (self.as_tier, *self.ae_tiers)


def render_value(value: object, value_type: ValueType) -> str:
    """Canonical source rendering of a literal value."""
    if value_type is ValueType.BOOLEAN:
        return "true" if value else "false"
    if value_type is ValueType.TEXT:
        return f'"{value}"'
    if value_type is ValueType.REAL:
        # Positional, since real literals have no exponent; with repr's
        # shortest digits, so the text reads back as the same float.
        text = repr(float(value))  # type: ignore[arg-type]
        if "e" in text:
            text = f"{Decimal(text):f}"
        return text if "." in text else text + ".0"
    return str(value)


def type_of_value(value: object) -> ValueType:
    if isinstance(value, bool):
        return ValueType.BOOLEAN
    if isinstance(value, int):
        return ValueType.INTEGER
    if isinstance(value, float):
        return ValueType.REAL
    return ValueType.TEXT

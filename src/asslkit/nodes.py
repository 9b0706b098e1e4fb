"""Abstract syntax tree for multi-tier autonomic-system specifications.

All nodes are frozen dataclasses and therefore immutable and shareable across
threads. A parsed node keeps the :class:`~asslkit.tokens.Tokens` of its file
and the position of its first token in it, and works its :class:`SourceSpan`
out from them each time ``span`` is read; the parser builds no span. A node
built in memory has no tokens and reads ``SYNTHETIC``. The two fields are excluded from equality, hashing and
``repr``, so that structural comparison ignores where a node came from and a
node's ``repr`` does not print its file's tokens. Collections are tuples to
keep trees hashable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from decimal import Decimal
from enum import Enum

from .tokens import SYNTHETIC, SourceSpan, Tokens


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
class Node:
    """Base of every tree node: the tokens it was parsed from and the
    position of its first token there, passed by keyword.

    They are two plain fields rather than one pair, which would be one more
    object per node for the garbage collector to track.
    """

    lexed: Tokens | None = field(default=None, compare=False, repr=False, kw_only=True)
    pos: int = field(default=0, compare=False, repr=False, kw_only=True)

    @property
    def span(self) -> SourceSpan:
        if self.lexed is None:
            return SYNTHETIC
        return self.lexed.span(self.pos)


@dataclass(frozen=True)
class Ref(Node):
    """A qualified reference such as ``EVENTS.x`` or ``AEIP.MESSAGES.m``.

    Mapping conditions may name fluents without a namespace; those parse with
    an empty ``space``.
    """

    space: tuple[str, ...]
    name: str

    def render(self) -> str:
        if not self.space:
            return self.name
        return ".".join(self.space) + "." + self.name


# --------------------------------------------------------------------------
# Expressions


@dataclass(frozen=True)
class Lit(Node):
    """A literal. Values compare by ``repr``, so that ``0.0`` and ``-0.0`` differ."""

    value: object
    type: ValueType

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Lit):
            return NotImplemented
        # Equal values of one type share a repr, but for 0.0 and -0.0.
        return (self.value, self.type) == (other.value, other.type) and (
            self.value != 0 or repr(self.value) == repr(other.value)
        )


@dataclass(frozen=True)
class MetricRefExpr(Node):
    name: str


@dataclass(frozen=True)
class FluentRefExpr(Node):
    name: str


@dataclass(frozen=True)
class BindingRefExpr(Node):
    name: str


@dataclass(frozen=True)
class NotExpr(Node):
    operand: "Expr"


@dataclass(frozen=True)
class BinaryExpr(Node):
    op: str  # "AND" | "OR"
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class CompareExpr(Node):
    op: str  # "=", "!=", "<", "<=", ">", ">="
    left: "Expr"
    right: "Expr"


Expr = Lit | MetricRefExpr | FluentRefExpr | BindingRefExpr | NotExpr | BinaryExpr | CompareExpr


# --------------------------------------------------------------------------
# Statements


@dataclass(frozen=True)
class CallStmt(Node):
    action: Ref
    binding: str | None = None


@dataclass(frozen=True)
class AssignStmt(Node):
    metric: Ref
    value: Expr


@dataclass(frozen=True)
class SendStmt(Node):
    message: Ref
    channel: Ref


@dataclass(frozen=True)
class FailStmt(Node):
    reason: str


Stmt = CallStmt | AssignStmt | SendStmt | FailStmt


# --------------------------------------------------------------------------
# Declarations


@dataclass(frozen=True)
class OpaqueBlock(Node):
    """A brace-balanced block kept as raw token text, given no semantics."""

    tokens: tuple[str, ...]


@dataclass(frozen=True)
class SloDecl(Node):
    name: str
    body: OpaqueBlock


@dataclass(frozen=True)
class FluentDecl(Node):
    name: str
    initiated_by: tuple[Ref, ...]
    terminated_by: tuple[Ref, ...]


@dataclass(frozen=True)
class MappingDecl(Node):
    conditions: tuple[Ref, ...]
    do_actions: tuple[Ref, ...]


@dataclass(frozen=True)
class PolicyDecl(Node):
    name: str
    fluents: tuple[FluentDecl, ...]
    mappings: tuple[MappingDecl, ...]


class ActivationKind(Enum):
    SENT = "SENT"
    RECEIVED = "RECEIVED"
    CHANGED = "CHANGED"
    ELAPSED = "ELAPSED"


@dataclass(frozen=True)
class ActivationClause(Node):
    kind: ActivationKind
    target: Ref | None = None  # message or metric reference
    ticks: int | None = None  # ELAPSED period


@dataclass(frozen=True)
class EventDecl(Node):
    name: str
    guard: Expr | None = None
    activation: tuple[ActivationClause, ...] = ()
    injectable: bool = False


@dataclass(frozen=True)
class ActionDecl(Node):
    name: str
    does: tuple[Stmt, ...]
    guard: Expr | None = None
    ensures: Expr | None = None
    onerr_does: tuple[Stmt, ...] = ()
    triggers: tuple[Ref, ...] = ()
    onerr_triggers: tuple[Ref, ...] = ()


@dataclass(frozen=True)
class MetricDecl(Node):
    name: str
    value_type: ValueType
    initial: Lit


@dataclass(frozen=True)
class MessageDecl(Node):
    name: str
    sender: str
    receiver: str


@dataclass(frozen=True)
class ChannelDecl(Node):
    name: str
    capacity: int


@dataclass(frozen=True)
class FunctionDecl(Node):
    name: str
    body: OpaqueBlock


@dataclass(frozen=True)
class AsipTier(Node):
    """Interaction-protocol block, used both at AS level and as an AEIP."""

    messages: tuple[MessageDecl, ...] = ()
    channels: tuple[ChannelDecl, ...] = ()
    functions: tuple[FunctionDecl, ...] = ()
    managed_elements: OpaqueBlock | None = None


@dataclass(frozen=True)
class Tier(Node):
    """The sections that the AS tier and every AE tier declare alike."""

    name: str
    slos: tuple[SloDecl, ...] = ()
    policies: tuple[PolicyDecl, ...] = ()
    actions: tuple[ActionDecl, ...] = ()
    events: tuple[EventDecl, ...] = ()
    metrics: tuple[MetricDecl, ...] = ()


@dataclass(frozen=True)
class AsTier(Tier):
    architecture: OpaqueBlock | None = None


@dataclass(frozen=True)
class AeTier(Tier):
    friends: tuple[str, ...] = ()
    aeip: AsipTier | None = None
    recovery_protocol: OpaqueBlock | None = None
    behavior_models: OpaqueBlock | None = None
    outcomes: OpaqueBlock | None = None


@dataclass(frozen=True)
class SpecificationTree(Node):
    as_tier: AsTier
    asip_tier: AsipTier | None = None
    ae_tiers: tuple[AeTier, ...] = ()

    def tiers(self) -> tuple[Tier, ...]:
        """All executable tiers, the AS first, AEs in declaration order."""
        return (self.as_tier, *self.ae_tiers)


def render_value(value: object) -> str:
    """Canonical source rendering of a value: a bool, int, float or str."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return f'"{value}"'
    if isinstance(value, float):
        # Positional, since real literals have no exponent; with repr's
        # shortest digits, so the text reads back as the same float.
        text = repr(value)
        if "e" in text:
            text = f"{Decimal(text):f}"
        return text if "." in text else text + ".0"
    return str(value)


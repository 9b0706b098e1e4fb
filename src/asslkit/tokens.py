"""Token and source-location definitions for the specification language.

This is the one place that spells tokens: ``KEYWORDS`` is derived from the
``KW_`` members of ``TokenKind``, and ``SPELLING`` maps each keyword and
punctuation kind back to its text for the parser's errors and the printer.
"""

from __future__ import annotations

from enum import Enum, auto
from typing import NamedTuple


class SourceSpan(NamedTuple):
    """Location of a construct in a source file. Lines and columns are 1-based."""

    file: str
    line: int
    column: int
    length: int = 0

    def render(self) -> str:
        return f"{self.file}:{self.line}:{self.column}"


#: Span attached to nodes built in memory rather than parsed from a file.
SYNTHETIC = SourceSpan("<synthetic>", 1, 1, 0)


class TokenKind(Enum):
    # Tier and section keywords
    KW_AS = auto()
    KW_ASIP = auto()
    KW_AE = auto()
    KW_AEIP = auto()
    KW_SLO = auto()
    KW_POLICIES = auto()
    KW_ACTIONS = auto()
    KW_EVENTS = auto()
    KW_METRICS = auto()
    KW_FRIENDS = auto()
    KW_ARCHITECTURE = auto()
    KW_MANAGED_ELEMENTS = auto()
    KW_RECOVERY_PROTOCOL = auto()
    KW_BEHAVIOR_MODELS = auto()
    KW_OUTCOMES = auto()
    KW_MESSAGES = auto()
    KW_CHANNELS = auto()
    KW_FUNCTIONS = auto()
    KW_MESSAGE = auto()
    KW_CHANNEL = auto()
    KW_FUNCTION = auto()
    KW_SENDER = auto()
    KW_RECEIVER = auto()
    KW_CAPACITY = auto()
    # Policy structure
    KW_FLUENT = auto()
    KW_INITIATED_BY = auto()
    KW_TERMINATED_BY = auto()
    KW_MAPPING = auto()
    KW_CONDITIONS = auto()
    KW_DO_ACTIONS = auto()
    # Events
    KW_EVENT = auto()
    KW_GUARDS = auto()
    KW_ACTIVATION = auto()
    KW_SENT = auto()
    KW_RECEIVED = auto()
    KW_CHANGED = auto()
    KW_ELAPSED = auto()
    KW_INJECTABLE = auto()
    # Actions
    KW_ACTION = auto()
    KW_ENSURES = auto()
    KW_DOES = auto()
    KW_ONERR_DOES = auto()
    KW_TRIGGERS = auto()
    KW_ONERR_TRIGGERS = auto()
    # Metrics
    KW_METRIC = auto()
    KW_TYPE = auto()
    KW_INITIAL = auto()
    # Expressions
    KW_NOT = auto()
    KW_AND = auto()
    KW_OR = auto()
    # Well-known policy names
    KW_SELF_PROTECTING = auto()
    KW_SELF_HEALING = auto()
    KW_SELF_CONFIGURING = auto()
    KW_SELF_SCHEDULING = auto()
    # Statement keywords (lower case, as they appear inside DOES clauses)
    KW_CALL = auto()
    KW_SEND = auto()
    KW_OVER = auto()
    KW_FAIL = auto()
    # Literals, names, references
    IDENT = auto()
    REF = auto()
    INT = auto()
    REAL = auto()
    TEXT = auto()
    BOOL = auto()
    # Punctuation and operators
    LBRACE = auto()
    RBRACE = auto()
    LPAREN = auto()
    RPAREN = auto()
    COMMA = auto()
    SEMI = auto()
    EQUALS = auto()
    NE = auto()
    LT = auto()
    LE = auto()
    GT = auto()
    GE = auto()
    EOF = auto()


#: The statement keywords, lower case as they appear inside DOES clauses.
#: Every other ``KW_X`` is spelled ``X``.
_LOWER_CASE = {TokenKind.KW_CALL, TokenKind.KW_SEND, TokenKind.KW_OVER, TokenKind.KW_FAIL}

KEYWORDS: dict[str, TokenKind] = {
    kind.name[3:].lower() if kind in _LOWER_CASE else kind.name[3:]: kind
    for kind in TokenKind
    if kind.name.startswith("KW_")
}

PUNCTUATION: dict[str, TokenKind] = {
    "{": TokenKind.LBRACE,
    "}": TokenKind.RBRACE,
    "(": TokenKind.LPAREN,
    ")": TokenKind.RPAREN,
    ",": TokenKind.COMMA,
    ";": TokenKind.SEMI,
    "=": TokenKind.EQUALS,
    "!=": TokenKind.NE,
    "<": TokenKind.LT,
    "<=": TokenKind.LE,
    ">": TokenKind.GT,
    ">=": TokenKind.GE,
}

#: The source text of each keyword and punctuation kind.
SPELLING: dict[TokenKind, str] = {
    kind: text for text, kind in (*KEYWORDS.items(), *PUNCTUATION.items())
}

#: Words that open a qualified reference when immediately followed by a dot.
#: AEIP references take the longer form AEIP.MESSAGES.<name>.
NAMESPACE_WORDS = frozenset({"EVENTS", "ACTIONS", "METRICS", "FLUENTS", "CHANNELS"})

#: Token kinds that may stand where a policy name is expected.
POLICY_NAME_KINDS = frozenset(
    {
        TokenKind.IDENT,
        TokenKind.KW_SELF_PROTECTING,
        TokenKind.KW_SELF_HEALING,
        TokenKind.KW_SELF_CONFIGURING,
        TokenKind.KW_SELF_SCHEDULING,
    }
)


class Token(NamedTuple):
    kind: TokenKind
    text: str
    span: SourceSpan
    value: object = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.kind.name}, {self.text!r})"


class LexError(Exception):
    """Character-level error; carries the span of the offending input."""

    def __init__(self, message: str, span: SourceSpan) -> None:
        super().__init__(f"{span.render()}: {message}")
        self.message = message
        self.span = span

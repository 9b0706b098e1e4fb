"""Token and source-location definitions for the specification language.

A file's tokens are stored as columns in a :class:`Tokens`, and a token is
its position in them.

This is the one place that spells tokens: ``KEYWORDS`` is derived from the
``KW_`` members of ``TokenKind``, and ``SPELLING`` maps each keyword and
punctuation kind back to its text for the parser's errors and the printer.
"""

from __future__ import annotations

from bisect import bisect_right
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


# Records built with tuple.__new__ directly skip the NamedTuple constructor,
# a Python-level __new__ that takes about twice as long.
_new = tuple.__new__

#: Span attached to nodes built in memory rather than parsed from a file.
SYNTHETIC = SourceSpan("<synthetic>", 1, 1, 0)


class TokenKind(Enum):
    # Members compare by identity, so they may hash by identity too. The
    # parser looks kinds up in dicts and sets thousands of times per file,
    # and Enum.__hash__ is a Python function; object.__hash__ is not. Like a
    # str hash, an identity hash changes from one process to the next: no
    # output may depend on the iteration order of a set of kinds.
    __hash__ = object.__hash__

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


class LineTable(NamedTuple):
    """A source file's name and the offset at which each of its lines starts.

    ``tokenize`` builds one per call and keeps it in the :class:`Tokens` it
    returns, beside the columns; each token's line and column are worked out
    from it when a span is read.
    """

    file: str
    starts: tuple[int, ...]

    def span(self, offset: int, length: int) -> SourceSpan:
        """The span of ``length`` characters from ``offset``."""
        starts = self.starts
        line = bisect_right(starts, offset)
        return _new(SourceSpan, (self.file, line, offset - starts[line - 1] + 1, length))


class Tokens:
    """The tokens of one source file, as four parallel columns and the
    file's line table.

    Token ``i`` is ``kinds[i]``, ``texts[i]``, ``starts[i]`` (its start
    offset) and ``values[i]``, and every token shares ``lines``. A file's
    tokens are then six objects the garbage collector tracks, this record,
    its four lists and the line table, whatever their number: texts and starts
    are strings and ints, which it never tracks; the kinds are shared enum
    members; and a value is None, a string, a number, or an exact tuple of
    strings, which it stops tracking at its first collection. ``tokenize``
    reads each distinct text once: tokens with equal texts share one text
    string and one value, so the texts and values columns hold one string
    and at most one value per distinct text. The parser reads the
    columns by position, and each parsed node keeps the record and its
    first token's position; ``span`` gives that token's span. ``len`` is the
    number of tokens.
    """

    __slots__ = ("kinds", "texts", "starts", "values", "lines")

    def __init__(
        self,
        kinds: list[TokenKind],
        texts: list[str],
        starts: list[int],
        values: list[object],
        lines: LineTable,
    ) -> None:
        self.kinds = kinds
        self.texts = texts
        self.starts = starts
        self.values = values
        self.lines = lines

    def __len__(self) -> int:
        return len(self.kinds)

    def span(self, index: int) -> SourceSpan:
        """The span of token ``index``, worked out from the line table."""
        return self.lines.span(self.starts[index], len(self.texts[index]))


class LexError(Exception):
    """Character-level error; carries the span of the offending input."""

    def __init__(self, message: str, span: SourceSpan) -> None:
        super().__init__(f"{span.render()}: {message}")
        self.message = message
        self.span = span

"""Recursive-descent parser producing a :class:`SpecificationTree`.

The grammar is block structured: ``KEYWORD name? { ... }`` for declarations,
``;``-terminated statements inside DOES clauses, and ``,``-separated lists
inside braces. A specification holds one AS tier, an optional ASIP tier, and
any number of AE tiers, in any source order. The sub-tiers with no execution
semantics (SLO bodies, communication functions, ARCHITECTURE,
MANAGED_ELEMENTS, RECOVERY_PROTOCOL, BEHAVIOR_MODELS, OUTCOMES) parse as
opaque brace-balanced blocks.

Every tier body (AS, AE, ASIP and AEIP) is read by one section loop driven by
a per-tier table that maps each section keyword to the tier-node field it
fills and the parser of its body. The loop rejects a keyword missing from the
table and a section given twice, and the tier node is built from the fields
it collected. These tables are the one list of each body's sections: the
printer walks them too, in table order. Every ``{ a, b, ... }`` list
(FRIENDS, CONDITIONS, ACTIVATION and the reference lists) is read by one
helper, given the item parser and whether the list may be empty.

A token the grammar requires is named in the error by its spelling from
``asslkit.tokens``; only names and literals carry a description such as
"a tier name".

On a syntax error the parser records a diagnostic and resynchronizes at the
next top-level tier keyword, so several errors can be reported from one run;
:func:`parse` raises a :class:`ParseError` carrying all of them.

Expressions nest at most ``MAX_NESTING`` deep, counting each ``NOT`` and each
pair of parentheses around the point reached, and each operator of every
``AND``/``OR`` chain that the point lies in. A chain of n operators builds a
left-deep tree, which puts even its first operand n levels down, so each
operator counts one level for every operand of its chain. One level more is a
syntax error. The parser, the checker, the printer and the compiled closures
all recurse once or more per level, and the limit keeps every one of them
well inside Python's recursion limit. The property parser shares it.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

from .nodes import (
    ActionDecl,
    ActivationClause,
    ActivationKind,
    AeTier,
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
    ValueType,
)
from .lexer import tokenize
from .tokens import POLICY_NAME_KINDS, PUNCTUATION, SPELLING, SourceSpan, TokenKind, Tokens

_TOP_LEVEL = (TokenKind.KW_AS, TokenKind.KW_ASIP, TokenKind.KW_AE)

MAX_NESTING = 100

# The chain operators, loosest first: an expression is an OR chain of AND
# chains of ``NOT`` operands.
_CHAINS = tuple((kind, SPELLING[kind]) for kind in (TokenKind.KW_OR, TokenKind.KW_AND))

_COMPARE_OPS = {
    TokenKind.EQUALS: "=",
    TokenKind.NE: "!=",
    TokenKind.LT: "<",
    TokenKind.LE: "<=",
    TokenKind.GT: ">",
    TokenKind.GE: ">=",
}

_LITERAL_TYPES = {
    TokenKind.BOOL: ValueType.BOOLEAN,
    TokenKind.INT: ValueType.INTEGER,
    TokenKind.REAL: ValueType.REAL,
    TokenKind.TEXT: ValueType.TEXT,
}


class ParseError(Exception):
    """Syntax error with expected/found context and a source span.

    ``errors`` lists every error collected in the run, in source order; the
    exception's own message describes the first one.
    """

    def __init__(self, message: str, span: SourceSpan, errors: "list[ParseError] | None" = None) -> None:
        super().__init__(f"{span.render()}: {message}")
        self.message = message
        self.span = span
        self.errors: list[ParseError] = errors if errors is not None else [self]


def parse(tokens: Tokens, file: str = "<input>") -> SpecificationTree:
    """Parse the tokens of one file into a specification tree.

    Raises :class:`ParseError` when any syntax error occurred; the raised
    error's ``errors`` attribute carries every diagnostic found before the
    parser gave up resynchronizing.
    """
    return _Parser(tokens, file).parse_specification()


def parse_text(source: str, file: str = "<input>") -> SpecificationTree:
    """Tokenize and parse ``source`` in one step."""
    return parse(tokenize(source, file), file)


class _Parser:
    def __init__(self, tokens: Tokens, file: str) -> None:
        # The parser reads the token columns by position; ``peek``,
        # ``advance`` and ``expect`` return a position. A node keeps the
        # tokens and its first token's position, and an error gets its span
        # from ``span``. Position ``len(tokens)`` is the end of input: the
        # copied kind and text columns end in an EOF entry there, so reading
        # at the cursor needs no bounds check. advance() stays on it;
        # accept() and expect() are never asked for EOF, so a match is never
        # the end, and no node starts there. Its span is the last token's
        # span, or line 1, column 1 of an empty file.
        self.file = file
        self.tokens = tokens
        self.kinds = [*tokens.kinds, TokenKind.EOF]
        self.texts = [*tokens.texts, "<end of input>"]
        self.values = tokens.values
        self._last = len(tokens)
        self.pos = 0
        self.errors: list[ParseError] = []
        self.nesting = 0
        # the deepest level that the operands of the innermost open chain reach
        self.peak = 0

    # -- token plumbing ----------------------------------------------------

    def span(self, pos: int) -> SourceSpan:
        if pos < self._last:
            return self.tokens.span(pos)
        return self.tokens.span(-1) if self._last else SourceSpan(self.file, 1, 1, 0)

    def peek(self) -> int:
        return self.pos

    def advance(self) -> int:
        pos = self.pos
        if pos < self._last:
            self.pos = pos + 1
        return pos

    def at(self, kind: TokenKind) -> bool:
        return self.kinds[self.pos] is kind

    def accept(self, kind: TokenKind) -> bool:
        """Step over the token at the cursor if it is of ``kind``; whether it was."""
        if self.kinds[self.pos] is kind:
            self.pos += 1
            return True
        return False

    def expect(self, kind: TokenKind, what: str | None = None) -> int:
        """The position at the cursor, whose token must be of ``kind``. A
        mismatch names ``what``, or else the token's spelling: a keyword
        bare, punctuation quoted."""
        pos = self.pos
        if self.kinds[pos] is not kind:
            if what is None:
                text = SPELLING[kind]
                what = repr(text) if text in PUNCTUATION else text
            raise ParseError(f"expected {what}, found {self.texts[pos]!r}", self.span(pos))
        self.pos = pos + 1
        return pos

    def fail(self, message: str) -> ParseError:
        return ParseError(message, self.span(self.pos))

    def nested(self, parse: Callable[[], Expr], opener: int) -> Expr:
        """``parse()`` one nesting level below ``opener``."""
        if self.nesting == MAX_NESTING:
            raise ParseError(f"expression nested more than {MAX_NESTING} deep", self.span(opener))
        self.nesting += 1
        self.peak = max(self.peak, self.nesting)
        try:
            return parse()
        finally:
            self.nesting -= 1

    # -- entry point -------------------------------------------------------

    def parse_specification(self) -> SpecificationTree:
        as_tier: AsTier | None = None
        asip: AsipTier | None = None
        aes: list[AeTier] = []

        while not self.at(TokenKind.EOF):
            tok = self.peek()
            try:
                if self.kinds[tok] is TokenKind.KW_AS:
                    tier = self._parse_tier(AsTier, AS_SECTIONS, "AS tier")
                    if as_tier is not None:
                        raise ParseError("a specification has exactly one AS tier", self.span(tok))
                    as_tier = tier
                elif self.kinds[tok] is TokenKind.KW_ASIP:
                    self.advance()
                    block = self._parse_protocol()
                    if asip is not None:
                        raise ParseError("duplicate ASIP tier", self.span(tok))
                    asip = block
                elif self.kinds[tok] is TokenKind.KW_AE:
                    aes.append(self._parse_tier(AeTier, AE_SECTIONS, "AE tier"))
                else:
                    raise self.fail(f"expected AS, ASIP, or AE, found {self.texts[tok]!r}")
            except ParseError as err:
                self.errors.append(err)
                self._synchronize()

        if as_tier is None and not self.errors:
            self.errors.append(ParseError("specification has no AS tier", self.span(self._last)))
        if self.errors:
            first = self.errors[0]
            raise ParseError(first.message, first.span, self.errors)
        assert as_tier is not None
        # An AS tier was parsed, so the file has a first token.
        return SpecificationTree(as_tier, asip, tuple(aes), lexed=self.tokens, pos=0)

    def _synchronize(self) -> None:
        """Skip ahead to the next top-level tier keyword at brace depth zero."""
        depth = 0
        while not self.at(TokenKind.EOF):
            kind = self.kinds[self.pos]
            if depth <= 0 and kind in _TOP_LEVEL:
                return
            if kind is TokenKind.LBRACE:
                depth += 1
            elif kind is TokenKind.RBRACE:
                depth -= 1
            self.advance()

    # -- tiers and their sections --------------------------------------------

    def _parse_tier(self, node: type[Tier], sections: SectionTable, where: str) -> Tier:
        kw = self.advance()
        name = self.texts[self.expect(TokenKind.IDENT, "a tier name")]
        return node(name, **self._parse_sections(sections, where), lexed=self.tokens, pos=kw)

    def _parse_protocol(self) -> AsipTier:
        """An ASIP or AEIP body, read just after its keyword, where its node starts."""
        kw = self.pos - 1
        fields = self._parse_sections(PROTOCOL_SECTIONS, "interaction protocol")
        return AsipTier(**fields, lexed=self.tokens, pos=kw)

    def _parse_sections(self, table: SectionTable, where: str) -> dict[str, object]:
        """Read ``{ section* }`` into tier-node fields, each section at most once."""
        self.expect(TokenKind.LBRACE)
        fields: dict[str, object] = {}
        while not self.at(TokenKind.RBRACE):
            tok = self.peek()
            if self.kinds[tok] not in table:
                raise self.fail(f"unexpected {self.texts[tok]!r} in {where}")
            field, parse_body = table[self.kinds[tok]]
            if field in fields:
                raise ParseError(f"duplicate {self.texts[tok]} section", self.span(tok))
            self.advance()
            fields[field] = parse_body(self)
        self.expect(TokenKind.RBRACE)
        return fields

    def _parse_block(
        self, parse_member: Callable[[_Parser], Any], member_kw: TokenKind | None
    ) -> tuple:
        """Read ``{ member* }``; each member starts with ``member_kw`` if one is given."""
        self.expect(TokenKind.LBRACE)
        members = []
        while not self.at(TokenKind.RBRACE):
            if member_kw is not None:
                self.expect(member_kw)
            members.append(parse_member(self))
        self.expect(TokenKind.RBRACE)
        return tuple(members)

    def _parse_list(self, parse_item: Callable[[], Any], allow_empty: bool) -> tuple:
        """Read ``{ item, item, ... }``; ``{ }`` is accepted only when ``allow_empty``."""
        self.expect(TokenKind.LBRACE)
        if allow_empty and self.accept(TokenKind.RBRACE):
            return ()
        items = [parse_item()]
        while self.accept(TokenKind.COMMA):
            items.append(parse_item())
        self.expect(TokenKind.RBRACE)
        return tuple(items)

    def _parse_braced(self, parse_item: Callable[..., Any], *args: Any) -> Any:
        """Read ``{ item }``, the item read by ``parse_item(*args)``."""
        self.expect(TokenKind.LBRACE)
        item = parse_item(*args)
        self.expect(TokenKind.RBRACE)
        return item

    def _parse_friends(self) -> tuple[str, ...]:
        return self._parse_list(
            lambda: self.texts[self.expect(TokenKind.IDENT, "a tier name")], allow_empty=True
        )

    def _parse_slo(self) -> SloDecl:
        name_tok = self.expect(TokenKind.IDENT, "an objective name")
        return SloDecl(
            self.texts[name_tok], self.parse_opaque_block(), lexed=self.tokens, pos=name_tok
        )

    # -- policies ------------------------------------------------------------

    def _parse_policy(self) -> PolicyDecl:
        tok = self.peek()
        if self.kinds[tok] not in POLICY_NAME_KINDS:
            raise self.fail(f"expected a policy name, found {self.texts[tok]!r}")
        self.advance()
        self.expect(TokenKind.LBRACE)
        fluents: list[FluentDecl] = []
        mappings: list[MappingDecl] = []
        while not self.at(TokenKind.RBRACE):
            inner = self.peek()
            if self.kinds[inner] is TokenKind.KW_FLUENT:
                self.advance()
                fluents.append(self._parse_fluent(inner))
            elif self.kinds[inner] is TokenKind.KW_MAPPING:
                self.advance()
                mappings.append(self._parse_mapping(inner))
            else:
                raise self.fail(f"expected FLUENT or MAPPING, found {self.texts[inner]!r}")
        self.expect(TokenKind.RBRACE)
        return PolicyDecl(
            self.texts[tok], tuple(fluents), tuple(mappings), lexed=self.tokens, pos=tok
        )

    def _parse_fluent(self, kw: int) -> FluentDecl:
        name = self.texts[self.expect(TokenKind.IDENT, "a fluent name")]
        self.expect(TokenKind.LBRACE)
        self.expect(TokenKind.KW_INITIATED_BY)
        initiated = self._parse_ref_list(("EVENTS",), "an EVENTS reference", allow_empty=False)
        self.expect(TokenKind.KW_TERMINATED_BY)
        terminated = self._parse_ref_list(("EVENTS",), "an EVENTS reference", allow_empty=False)
        self.expect(TokenKind.RBRACE)
        return FluentDecl(name, initiated, terminated, lexed=self.tokens, pos=kw)

    def _parse_mapping(self, kw: int) -> MappingDecl:
        self.expect(TokenKind.LBRACE)
        self.expect(TokenKind.KW_CONDITIONS)
        conditions = self._parse_list(self._parse_condition, allow_empty=False)
        self.expect(TokenKind.KW_DO_ACTIONS)
        actions = self._parse_ref_list(("ACTIONS",), "an ACTIONS reference", allow_empty=False)
        self.expect(TokenKind.RBRACE)
        return MappingDecl(conditions, actions, lexed=self.tokens, pos=kw)

    def _parse_condition(self) -> Ref:
        tok = self.peek()
        if self.kinds[tok] is TokenKind.IDENT:
            self.advance()
            return Ref((), self.texts[tok], lexed=self.tokens, pos=tok)
        if self.kinds[tok] is TokenKind.REF and self.values[tok][:-1] == ("FLUENTS",):  # type: ignore[index]
            self.advance()
            return Ref(("FLUENTS",), self.values[tok][-1], lexed=self.tokens, pos=tok)  # type: ignore[index]
        raise self.fail(f"expected a fluent name, found {self.texts[tok]!r}")

    def _parse_ref_list(
        self, space: tuple[str, ...], what: str, allow_empty: bool
    ) -> tuple[Ref, ...]:
        return self._parse_list(lambda: self._parse_ref(space, what), allow_empty)

    def _parse_ref(self, space: tuple[str, ...], what: str) -> Ref:
        tok = self.peek()
        if self.kinds[tok] is not TokenKind.REF or self.values[tok][:-1] != space:  # type: ignore[index]
            raise self.fail(f"expected {what}, found {self.texts[tok]!r}")
        self.advance()
        return Ref(space, self.values[tok][-1], lexed=self.tokens, pos=tok)  # type: ignore[index]

    # -- events ---------------------------------------------------------------

    def _parse_event(self) -> EventDecl:
        name_tok = self.expect(TokenKind.IDENT, "an event name")
        self.expect(TokenKind.LBRACE)
        guard: Expr | None = None
        injectable = False
        clauses: list[ActivationClause] = []
        while not self.at(TokenKind.RBRACE):
            tok = self.peek()
            if self.kinds[tok] is TokenKind.KW_INJECTABLE:
                if injectable:
                    raise ParseError("duplicate INJECTABLE flag", self.span(tok))
                self.advance()
                injectable = True
            elif self.kinds[tok] is TokenKind.KW_GUARDS:
                if guard is not None:
                    raise ParseError("duplicate GUARDS clause", self.span(tok))
                self.advance()
                guard = self._parse_braced(self._parse_expr)
            elif self.kinds[tok] is TokenKind.KW_ACTIVATION:
                self.advance()
                clauses.extend(self._parse_list(self._parse_activation_clause, allow_empty=False))
            else:
                raise self.fail(
                    f"expected INJECTABLE, GUARDS, or ACTIVATION, found {self.texts[tok]!r}"
                )
        self.expect(TokenKind.RBRACE)
        return EventDecl(
            self.texts[name_tok], guard=guard, activation=tuple(clauses),
            injectable=injectable, lexed=self.tokens, pos=name_tok,
        )

    def _parse_activation_clause(self) -> ActivationClause:
        tok = self.peek()
        if self.kinds[tok] is TokenKind.KW_SENT or self.kinds[tok] is TokenKind.KW_RECEIVED:
            self.advance()
            target = self._parse_braced(
                self._parse_ref, ("AEIP", "MESSAGES"), "an AEIP.MESSAGES reference"
            )
            kind = ActivationKind.SENT if self.kinds[tok] is TokenKind.KW_SENT else ActivationKind.RECEIVED
            return ActivationClause(kind, target=target, lexed=self.tokens, pos=tok)
        if self.kinds[tok] is TokenKind.KW_CHANGED:
            self.advance()
            target = self._parse_braced(self._parse_ref, ("METRICS",), "a METRICS reference")
            return ActivationClause(
                ActivationKind.CHANGED, target=target, lexed=self.tokens, pos=tok
            )
        if self.kinds[tok] is TokenKind.KW_ELAPSED:
            self.advance()
            ticks_tok = self._parse_braced(self.expect, TokenKind.INT, "a tick count")
            return ActivationClause(
                ActivationKind.ELAPSED, ticks=int(self.values[ticks_tok]), lexed=self.tokens, pos=tok  # type: ignore[arg-type]
            )
        raise self.fail(f"expected SENT, RECEIVED, CHANGED, or ELAPSED, found {self.texts[tok]!r}")

    # -- actions ---------------------------------------------------------------

    def _parse_action(self) -> ActionDecl:
        name_tok = self.expect(TokenKind.IDENT, "an action name")
        self.expect(TokenKind.LBRACE)
        guard = ensures = None
        if self.accept(TokenKind.KW_GUARDS):
            guard = self._parse_braced(self._parse_expr)
        if self.accept(TokenKind.KW_ENSURES):
            ensures = self._parse_braced(self._parse_expr)
        self.expect(TokenKind.KW_DOES)
        does = self._parse_statements(allow_empty=False)
        onerr_does: tuple[Stmt, ...] = ()
        triggers: tuple[Ref, ...] = ()
        onerr_triggers: tuple[Ref, ...] = ()
        if self.accept(TokenKind.KW_ONERR_DOES):
            onerr_does = self._parse_statements(allow_empty=True)
        if self.accept(TokenKind.KW_TRIGGERS):
            triggers = self._parse_ref_list(("EVENTS",), "an EVENTS reference", allow_empty=True)
        if self.accept(TokenKind.KW_ONERR_TRIGGERS):
            onerr_triggers = self._parse_ref_list(
                ("EVENTS",), "an EVENTS reference", allow_empty=True
            )
        self.expect(TokenKind.RBRACE)
        return ActionDecl(
            self.texts[name_tok],
            does,
            guard=guard,
            ensures=ensures,
            onerr_does=onerr_does,
            triggers=triggers,
            onerr_triggers=onerr_triggers,
            lexed=self.tokens, pos=name_tok,
        )

    def _parse_statements(self, allow_empty: bool) -> tuple[Stmt, ...]:
        open_tok = self.expect(TokenKind.LBRACE)
        stmts: list[Stmt] = []
        while not self.at(TokenKind.RBRACE):
            stmts.append(self._parse_statement())
        self.expect(TokenKind.RBRACE)
        if not stmts and not allow_empty:
            raise ParseError("DOES clause must contain at least one statement", self.span(open_tok))
        return tuple(stmts)

    def _parse_statement(self) -> Stmt:
        tok = self.peek()
        if self.kinds[tok] is TokenKind.KW_CALL:
            self.advance()
            action = self._parse_ref(("ACTIONS",), "an ACTIONS reference")
            self.expect(TokenKind.SEMI)
            return CallStmt(action, binding=None, lexed=self.tokens, pos=tok)
        if self.kinds[tok] is TokenKind.IDENT:
            self.advance()
            self.expect(TokenKind.EQUALS)
            self.expect(TokenKind.KW_CALL)
            action = self._parse_ref(("ACTIONS",), "an ACTIONS reference")
            self.expect(TokenKind.SEMI)
            return CallStmt(action, binding=self.texts[tok], lexed=self.tokens, pos=tok)
        if self.kinds[tok] is TokenKind.REF and self.values[tok][:-1] == ("METRICS",):  # type: ignore[index]
            self.advance()
            metric = Ref(("METRICS",), self.values[tok][-1], lexed=self.tokens, pos=tok)  # type: ignore[index]
            self.expect(TokenKind.EQUALS)
            value = self._parse_expr()
            self.expect(TokenKind.SEMI)
            return AssignStmt(metric, value, lexed=self.tokens, pos=tok)
        if self.kinds[tok] is TokenKind.KW_SEND:
            self.advance()
            message = self._parse_ref(("AEIP", "MESSAGES"), "an AEIP.MESSAGES reference")
            self.expect(TokenKind.KW_OVER)
            channel = self._parse_ref(("CHANNELS",), "a CHANNELS reference")
            self.expect(TokenKind.SEMI)
            return SendStmt(message, channel, lexed=self.tokens, pos=tok)
        if self.kinds[tok] is TokenKind.KW_FAIL:
            self.advance()
            reason = self.expect(TokenKind.TEXT, "a failure reason")
            self.expect(TokenKind.SEMI)
            return FailStmt(str(self.values[reason]), lexed=self.tokens, pos=tok)
        raise self.fail(f"expected a statement, found {self.texts[tok]!r}")

    # -- metrics, messages, channels, functions -------------------------------

    def _parse_metric(self) -> MetricDecl:
        name_tok = self.expect(TokenKind.IDENT, "a metric name")
        self.expect(TokenKind.LBRACE)
        self.expect(TokenKind.KW_TYPE)
        self.expect(TokenKind.LBRACE)
        type_tok = self.expect(TokenKind.IDENT, "a value type")
        value_type = ValueType.from_name(self.texts[type_tok])
        if value_type is None:
            raise ParseError(
                f"unknown value type {self.texts[type_tok]!r} (expected boolean, integer, real, or text)",
                self.span(type_tok),
            )
        self.expect(TokenKind.RBRACE)
        self.expect(TokenKind.KW_INITIAL)
        initial = self._parse_braced(self._parse_literal)
        self.expect(TokenKind.RBRACE)
        return MetricDecl(
            self.texts[name_tok], value_type, initial, lexed=self.tokens, pos=name_tok
        )

    def _parse_message(self) -> MessageDecl:
        name_tok = self.expect(TokenKind.IDENT, "a message name")
        self.expect(TokenKind.LBRACE)
        self.expect(TokenKind.KW_SENDER)
        sender = self.texts[self._parse_braced(self.expect, TokenKind.IDENT, "a tier name")]
        self.expect(TokenKind.KW_RECEIVER)
        receiver = self.texts[self._parse_braced(self.expect, TokenKind.IDENT, "a tier name")]
        self.expect(TokenKind.RBRACE)
        return MessageDecl(self.texts[name_tok], sender, receiver, lexed=self.tokens, pos=name_tok)

    def _parse_channel(self) -> ChannelDecl:
        name_tok = self.expect(TokenKind.IDENT, "a channel name")
        self.expect(TokenKind.LBRACE)
        self.expect(TokenKind.KW_CAPACITY)
        cap_tok = self._parse_braced(self.expect, TokenKind.INT, "a capacity")
        self.expect(TokenKind.RBRACE)
        capacity = int(self.values[cap_tok])  # type: ignore[arg-type]
        return ChannelDecl(self.texts[name_tok], capacity, lexed=self.tokens, pos=name_tok)

    def _parse_function(self) -> FunctionDecl:
        name_tok = self.expect(TokenKind.IDENT, "a function name")
        return FunctionDecl(
            self.texts[name_tok], self.parse_opaque_block(), lexed=self.tokens, pos=name_tok
        )

    def parse_opaque_block(self) -> OpaqueBlock:
        open_tok = self.expect(TokenKind.LBRACE)
        texts: list[str] = []
        depth = 1
        while depth > 0:
            tok = self.peek()
            if self.kinds[tok] is TokenKind.EOF:
                raise ParseError("unterminated block", self.span(open_tok))
            if self.kinds[tok] is TokenKind.LBRACE:
                depth += 1
            elif self.kinds[tok] is TokenKind.RBRACE:
                depth -= 1
                if depth == 0:
                    self.advance()
                    break
            texts.append(self.texts[tok])
            self.advance()
        return OpaqueBlock(tuple(texts), lexed=self.tokens, pos=open_tok)

    # -- expressions -----------------------------------------------------------

    def _parse_expr(self, tier: int = 0) -> Expr:
        """The chain of ``_CHAINS[tier]`` operators, as a left-deep tree.

        Its operands reach ``peak`` at most, and each operator counts one
        level more for all of them; that sum is the chain's own peak.
        """
        kind, op = _CHAINS[tier]
        last = tier + 1 == len(_CHAINS)
        outer, self.peak = self.peak, self.nesting
        left = self._parse_not() if last else self._parse_expr(tier + 1)
        operators = 0
        while self.at(kind):
            tok = self.advance()
            operators += 1
            right = self._parse_not() if last else self._parse_expr(tier + 1)
            left = BinaryExpr(op, left, right, lexed=self.tokens, pos=tok)
            if self.peak + operators > MAX_NESTING:
                raise ParseError(f"expression nested more than {MAX_NESTING} deep", self.span(tok))
        self.peak = max(outer, self.peak + operators)
        return left

    def _parse_not(self) -> Expr:
        if self.at(TokenKind.KW_NOT):
            tok = self.advance()
            return NotExpr(self.nested(self._parse_not, tok), lexed=self.tokens, pos=tok)
        return self._parse_comparison()

    def _parse_comparison(self) -> Expr:
        left = self._parse_atom()
        op = _COMPARE_OPS.get(self.kinds[self.pos])
        if op is None:
            return left
        tok = self.advance()
        return CompareExpr(op, left, self._parse_atom(), lexed=self.tokens, pos=tok)

    def _parse_atom(self) -> Expr:
        tok = self.peek()
        if self.kinds[tok] in _LITERAL_TYPES:
            return self._parse_literal()
        if self.kinds[tok] is TokenKind.REF:
            space = self.values[tok][:-1]  # type: ignore[index]
            name = self.values[tok][-1]  # type: ignore[index]
            if space == ("METRICS",):
                self.advance()
                return MetricRefExpr(name, lexed=self.tokens, pos=tok)
            if space == ("FLUENTS",):
                self.advance()
                return FluentRefExpr(name, lexed=self.tokens, pos=tok)
            raise self.fail(f"{self.texts[tok]!r} cannot appear in an expression")
        if self.kinds[tok] is TokenKind.IDENT:
            self.advance()
            return BindingRefExpr(self.texts[tok], lexed=self.tokens, pos=tok)
        if self.kinds[tok] is TokenKind.LPAREN:
            self.advance()
            expr = self.nested(self._parse_expr, tok)
            self.expect(TokenKind.RPAREN)
            return expr
        raise self.fail(f"expected an expression, found {self.texts[tok]!r}")

    def _parse_literal(self) -> Lit:
        tok = self.peek()
        value_type = _LITERAL_TYPES.get(self.kinds[tok])
        if value_type is None:
            raise self.fail(f"expected a literal, found {self.texts[tok]!r}")
        self.advance()
        return Lit(self.values[tok], value_type, lexed=self.tokens, pos=tok)


# A tier body's sections: keyword -> (tier-node field, body parser). The
# section loop reads the keyword and calls the body parser just past it; the
# AEIP's, ``_parse_protocol``, starts its node at that keyword. The printer
# writes a body's sections in its table's order.
SectionTable = dict[TokenKind, tuple[str, Callable[[_Parser], object]]]


def _block(parse_member: Callable[[_Parser], Any], member_kw: TokenKind | None = None):
    """Body parser of a ``{ member* }`` section."""
    return lambda parser: parser._parse_block(parse_member, member_kw)


def _opaque(parser: _Parser) -> OpaqueBlock:
    return parser.parse_opaque_block()


_SHARED_SECTIONS: SectionTable = {
    TokenKind.KW_SLO: ("slos", _block(_Parser._parse_slo)),
    TokenKind.KW_POLICIES: ("policies", _block(_Parser._parse_policy)),
    TokenKind.KW_ACTIONS: ("actions", _block(_Parser._parse_action, TokenKind.KW_ACTION)),
    TokenKind.KW_EVENTS: ("events", _block(_Parser._parse_event, TokenKind.KW_EVENT)),
    TokenKind.KW_METRICS: ("metrics", _block(_Parser._parse_metric, TokenKind.KW_METRIC)),
}

AS_SECTIONS: SectionTable = {
    **_SHARED_SECTIONS,
    TokenKind.KW_ARCHITECTURE: ("architecture", _opaque),
}

AE_SECTIONS: SectionTable = {
    TokenKind.KW_FRIENDS: ("friends", _Parser._parse_friends),
    **_SHARED_SECTIONS,
    TokenKind.KW_AEIP: ("aeip", _Parser._parse_protocol),
    TokenKind.KW_RECOVERY_PROTOCOL: ("recovery_protocol", _opaque),
    TokenKind.KW_BEHAVIOR_MODELS: ("behavior_models", _opaque),
    TokenKind.KW_OUTCOMES: ("outcomes", _opaque),
}

PROTOCOL_SECTIONS: SectionTable = {
    TokenKind.KW_MESSAGES: ("messages", _block(_Parser._parse_message, TokenKind.KW_MESSAGE)),
    TokenKind.KW_CHANNELS: ("channels", _block(_Parser._parse_channel, TokenKind.KW_CHANNEL)),
    TokenKind.KW_FUNCTIONS: ("functions", _block(_Parser._parse_function, TokenKind.KW_FUNCTION)),
    TokenKind.KW_MANAGED_ELEMENTS: ("managed_elements", _opaque),
}

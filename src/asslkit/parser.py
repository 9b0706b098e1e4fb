"""Recursive-descent parser producing a :class:`SpecificationTree`.

The grammar is block structured: ``KEYWORD name? { ... }`` for declarations,
``;``-terminated statements inside DOES clauses, and ``,``-separated lists
inside braces. A specification holds one AS tier, an optional ASIP tier, and
any number of AE tiers, in any source order. The sub-tiers with no execution
semantics (SLO bodies, communication functions, ARCHITECTURE,
MANAGED_ELEMENTS, RECOVERY_PROTOCOL, BEHAVIOR_MODELS, OUTCOMES) parse as
opaque brace-balanced blocks.

On a syntax error the parser records a diagnostic and resynchronizes at the
next top-level tier keyword, so several errors can be reported from one run;
:func:`parse` raises a :class:`ParseError` carrying all of them.
"""

from __future__ import annotations

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
    ValueType,
)
from .lexer import tokenize
from .tokens import POLICY_NAME_KINDS, SourceSpan, Token, TokenKind

_TOP_LEVEL = (TokenKind.KW_AS, TokenKind.KW_ASIP, TokenKind.KW_AE)

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


def parse(tokens: list[Token], file: str = "<input>") -> SpecificationTree:
    """Parse a token list into a specification tree.

    Raises :class:`ParseError` when any syntax error occurred; the raised
    error's ``errors`` attribute carries every diagnostic found before the
    parser gave up resynchronizing.
    """
    return _Parser(tokens, file).parse_specification()


def parse_text(source: str, file: str = "<input>") -> SpecificationTree:
    """Tokenize and parse ``source`` in one step."""
    return parse(tokenize(source, file), file)


class _Parser:
    def __init__(self, tokens: list[Token], file: str) -> None:
        self.file = file
        end_span = tokens[-1].span if tokens else SourceSpan(file, 1, 1, 0)
        self._eof = Token(TokenKind.EOF, "<end of input>", end_span)
        # The EOF token closes the list, so reading at the cursor needs no
        # bounds check. advance() stays on it; accept() and expect() are
        # never asked for EOF, so a match is never the last token.
        self.tokens = [*tokens, self._eof]
        self._last = len(tokens)
        self.pos = 0
        self.errors: list[ParseError] = []

    # -- token plumbing ----------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if self.pos < self._last:
            self.pos += 1
        return tok

    def at(self, kind: TokenKind) -> bool:
        return self.tokens[self.pos].kind is kind

    def accept(self, kind: TokenKind) -> Token | None:
        tok = self.tokens[self.pos]
        if tok.kind is kind:
            self.pos += 1
            return tok
        return None

    def expect(self, kind: TokenKind, what: str) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind is not kind:
            raise ParseError(f"expected {what}, found {tok.text!r}", tok.span)
        self.pos += 1
        return tok

    def fail(self, message: str) -> ParseError:
        return ParseError(message, self.peek().span)

    # -- entry point -------------------------------------------------------

    def parse_specification(self) -> SpecificationTree:
        as_tier: AsTier | None = None
        asip: AsipTier | None = None
        aes: list[AeTier] = []
        first_span: SourceSpan | None = None

        while not self.at(TokenKind.EOF):
            tok = self.peek()
            if first_span is None:
                first_span = tok.span
            try:
                if tok.kind is TokenKind.KW_AS:
                    tier = self.parse_as_tier()
                    if as_tier is not None:
                        raise ParseError("a specification has exactly one AS tier", tok.span)
                    as_tier = tier
                elif tok.kind is TokenKind.KW_ASIP:
                    block = self.parse_asip_tier()
                    if asip is not None:
                        raise ParseError("duplicate ASIP tier", tok.span)
                    asip = block
                elif tok.kind is TokenKind.KW_AE:
                    aes.append(self.parse_ae_tier())
                else:
                    raise self.fail(f"expected AS, ASIP, or AE, found {tok.text!r}")
            except ParseError as err:
                self.errors.append(err)
                self._synchronize()

        if as_tier is None and not self.errors:
            self.errors.append(ParseError("specification has no AS tier", self._eof.span))
        if self.errors:
            first = self.errors[0]
            raise ParseError(first.message, first.span, self.errors)
        assert as_tier is not None
        return SpecificationTree(as_tier, asip, tuple(aes), span=first_span or self._eof.span)

    def _synchronize(self) -> None:
        """Skip ahead to the next top-level tier keyword at brace depth zero."""
        depth = 0
        while not self.at(TokenKind.EOF):
            kind = self.peek().kind
            if depth <= 0 and kind in _TOP_LEVEL:
                return
            if kind is TokenKind.LBRACE:
                depth += 1
            elif kind is TokenKind.RBRACE:
                depth -= 1
            self.advance()

    # -- tiers ---------------------------------------------------------------

    def parse_as_tier(self) -> AsTier:
        kw = self.expect(TokenKind.KW_AS, "AS")
        name = self.expect(TokenKind.IDENT, "a tier name").text
        self.expect(TokenKind.LBRACE, "'{'")
        sections = _TierSections()
        while not self.at(TokenKind.RBRACE):
            tok = self.peek()
            if tok.kind is TokenKind.KW_ARCHITECTURE:
                self.advance()
                sections.set_block("ARCHITECTURE", self.parse_opaque_block(), tok.span)
            elif not self._parse_common_section(sections):
                raise self.fail(f"unexpected {tok.text!r} in AS tier")
        self.expect(TokenKind.RBRACE, "'}'")
        return AsTier(
            name,
            slos=tuple(sections.slos),
            policies=tuple(sections.policies),
            actions=tuple(sections.actions),
            events=tuple(sections.events),
            metrics=tuple(sections.metrics),
            architecture=sections.blocks.get("ARCHITECTURE"),
            span=kw.span,
        )

    def parse_ae_tier(self) -> AeTier:
        kw = self.expect(TokenKind.KW_AE, "AE")
        name = self.expect(TokenKind.IDENT, "a tier name").text
        self.expect(TokenKind.LBRACE, "'{'")
        sections = _TierSections()
        friends: tuple[str, ...] | None = None
        aeip: AsipTier | None = None
        while not self.at(TokenKind.RBRACE):
            tok = self.peek()
            if tok.kind is TokenKind.KW_FRIENDS:
                if friends is not None:
                    raise ParseError("duplicate FRIENDS section", tok.span)
                self.advance()
                friends = self._parse_friends()
            elif tok.kind is TokenKind.KW_AEIP:
                if aeip is not None:
                    raise ParseError("duplicate AEIP section", tok.span)
                self.advance()
                aeip = self._parse_asip_body(tok.span)
            elif tok.kind in (
                TokenKind.KW_RECOVERY_PROTOCOL,
                TokenKind.KW_BEHAVIOR_MODELS,
                TokenKind.KW_OUTCOMES,
            ):
                self.advance()
                sections.set_block(tok.text, self.parse_opaque_block(), tok.span)
            elif not self._parse_common_section(sections):
                raise self.fail(f"unexpected {tok.text!r} in AE tier")
        self.expect(TokenKind.RBRACE, "'}'")
        return AeTier(
            name,
            slos=tuple(sections.slos),
            policies=tuple(sections.policies),
            actions=tuple(sections.actions),
            events=tuple(sections.events),
            metrics=tuple(sections.metrics),
            friends=friends or (),
            aeip=aeip,
            recovery_protocol=sections.blocks.get("RECOVERY_PROTOCOL"),
            behavior_models=sections.blocks.get("BEHAVIOR_MODELS"),
            outcomes=sections.blocks.get("OUTCOMES"),
            span=kw.span,
        )

    def parse_asip_tier(self) -> AsipTier:
        kw = self.expect(TokenKind.KW_ASIP, "ASIP")
        return self._parse_asip_body(kw.span)

    def _parse_asip_body(self, span: SourceSpan) -> AsipTier:
        self.expect(TokenKind.LBRACE, "'{'")
        messages: list[MessageDecl] | None = None
        channels: list[ChannelDecl] | None = None
        functions: list[FunctionDecl] | None = None
        managed: OpaqueBlock | None = None
        while not self.at(TokenKind.RBRACE):
            tok = self.peek()
            if tok.kind is TokenKind.KW_MESSAGES:
                if messages is not None:
                    raise ParseError("duplicate MESSAGES section", tok.span)
                self.advance()
                messages = self._parse_section(TokenKind.KW_MESSAGE, self._parse_message)
            elif tok.kind is TokenKind.KW_CHANNELS:
                if channels is not None:
                    raise ParseError("duplicate CHANNELS section", tok.span)
                self.advance()
                channels = self._parse_section(TokenKind.KW_CHANNEL, self._parse_channel)
            elif tok.kind is TokenKind.KW_FUNCTIONS:
                if functions is not None:
                    raise ParseError("duplicate FUNCTIONS section", tok.span)
                self.advance()
                functions = self._parse_section(TokenKind.KW_FUNCTION, self._parse_function)
            elif tok.kind is TokenKind.KW_MANAGED_ELEMENTS:
                if managed is not None:
                    raise ParseError("duplicate MANAGED_ELEMENTS section", tok.span)
                self.advance()
                managed = self.parse_opaque_block()
            else:
                raise self.fail(f"unexpected {tok.text!r} in interaction protocol")
        self.expect(TokenKind.RBRACE, "'}'")
        return AsipTier(
            messages=tuple(messages or ()),
            channels=tuple(channels or ()),
            functions=tuple(functions or ()),
            managed_elements=managed,
            span=span,
        )

    # -- shared tier sections ----------------------------------------------

    def _parse_common_section(self, sections: "_TierSections") -> bool:
        tok = self.peek()
        if tok.kind is TokenKind.KW_SLO:
            sections.claim("SLO", tok.span)
            self.advance()
            self.expect(TokenKind.LBRACE, "'{'")
            while not self.at(TokenKind.RBRACE):
                name_tok = self.expect(TokenKind.IDENT, "an objective name")
                sections.slos.append(
                    SloDecl(name_tok.text, self.parse_opaque_block(), span=name_tok.span)
                )
            self.expect(TokenKind.RBRACE, "'}'")
            return True
        if tok.kind is TokenKind.KW_POLICIES:
            sections.claim("POLICIES", tok.span)
            self.advance()
            self.expect(TokenKind.LBRACE, "'{'")
            while not self.at(TokenKind.RBRACE):
                sections.policies.append(self._parse_policy())
            self.expect(TokenKind.RBRACE, "'}'")
            return True
        if tok.kind is TokenKind.KW_ACTIONS:
            sections.claim("ACTIONS", tok.span)
            self.advance()
            sections.actions.extend(self._parse_section(TokenKind.KW_ACTION, self._parse_action))
            return True
        if tok.kind is TokenKind.KW_EVENTS:
            sections.claim("EVENTS", tok.span)
            self.advance()
            sections.events.extend(self._parse_section(TokenKind.KW_EVENT, self._parse_event))
            return True
        if tok.kind is TokenKind.KW_METRICS:
            sections.claim("METRICS", tok.span)
            self.advance()
            sections.metrics.extend(self._parse_section(TokenKind.KW_METRIC, self._parse_metric))
            return True
        return False

    def _parse_section(self, member_kw: TokenKind, parse_member) -> list:
        self.expect(TokenKind.LBRACE, "'{'")
        members = []
        while not self.at(TokenKind.RBRACE):
            self.expect(member_kw, member_kw.name.removeprefix("KW_"))
            members.append(parse_member())
        self.expect(TokenKind.RBRACE, "'}'")
        return members

    def _parse_friends(self) -> tuple[str, ...]:
        self.expect(TokenKind.LBRACE, "'{'")
        names: list[str] = []
        if not self.at(TokenKind.RBRACE):
            names.append(self.expect(TokenKind.IDENT, "a tier name").text)
            while self.accept(TokenKind.COMMA):
                names.append(self.expect(TokenKind.IDENT, "a tier name").text)
        self.expect(TokenKind.RBRACE, "'}'")
        return tuple(names)

    # -- policies ------------------------------------------------------------

    def _parse_policy(self) -> PolicyDecl:
        tok = self.peek()
        if tok.kind not in POLICY_NAME_KINDS:
            raise self.fail(f"expected a policy name, found {tok.text!r}")
        self.advance()
        self.expect(TokenKind.LBRACE, "'{'")
        fluents: list[FluentDecl] = []
        mappings: list[MappingDecl] = []
        while not self.at(TokenKind.RBRACE):
            inner = self.peek()
            if inner.kind is TokenKind.KW_FLUENT:
                self.advance()
                fluents.append(self._parse_fluent(inner.span))
            elif inner.kind is TokenKind.KW_MAPPING:
                self.advance()
                mappings.append(self._parse_mapping(inner.span))
            else:
                raise self.fail(f"expected FLUENT or MAPPING, found {inner.text!r}")
        self.expect(TokenKind.RBRACE, "'}'")
        return PolicyDecl(tok.text, tuple(fluents), tuple(mappings), span=tok.span)

    def _parse_fluent(self, span: SourceSpan) -> FluentDecl:
        name = self.expect(TokenKind.IDENT, "a fluent name").text
        self.expect(TokenKind.LBRACE, "'{'")
        self.expect(TokenKind.KW_INITIATED_BY, "INITIATED_BY")
        initiated = self._parse_ref_list(("EVENTS",), "an EVENTS reference", allow_empty=False)
        self.expect(TokenKind.KW_TERMINATED_BY, "TERMINATED_BY")
        terminated = self._parse_ref_list(("EVENTS",), "an EVENTS reference", allow_empty=False)
        self.expect(TokenKind.RBRACE, "'}'")
        return FluentDecl(name, initiated, terminated, span=span)

    def _parse_mapping(self, span: SourceSpan) -> MappingDecl:
        self.expect(TokenKind.LBRACE, "'{'")
        self.expect(TokenKind.KW_CONDITIONS, "CONDITIONS")
        conditions = self._parse_condition_list()
        self.expect(TokenKind.KW_DO_ACTIONS, "DO_ACTIONS")
        actions = self._parse_ref_list(("ACTIONS",), "an ACTIONS reference", allow_empty=False)
        self.expect(TokenKind.RBRACE, "'}'")
        return MappingDecl(conditions, actions, span=span)

    def _parse_condition_list(self) -> tuple[Ref, ...]:
        self.expect(TokenKind.LBRACE, "'{'")
        refs: list[Ref] = []
        while True:
            tok = self.peek()
            if tok.kind is TokenKind.IDENT:
                self.advance()
                refs.append(Ref((), tok.text, span=tok.span))
            elif tok.kind is TokenKind.REF and tok.value[:-1] == ("FLUENTS",):  # type: ignore[index]
                self.advance()
                refs.append(Ref(("FLUENTS",), tok.value[-1], span=tok.span))  # type: ignore[index]
            else:
                raise self.fail(f"expected a fluent name, found {tok.text!r}")
            if not self.accept(TokenKind.COMMA):
                break
        self.expect(TokenKind.RBRACE, "'}'")
        return tuple(refs)

    def _parse_ref_list(
        self, space: tuple[str, ...], what: str, allow_empty: bool
    ) -> tuple[Ref, ...]:
        self.expect(TokenKind.LBRACE, "'{'")
        refs: list[Ref] = []
        if self.at(TokenKind.RBRACE) and allow_empty:
            self.advance()
            return ()
        while True:
            refs.append(self._parse_ref(space, what))
            if not self.accept(TokenKind.COMMA):
                break
        self.expect(TokenKind.RBRACE, "'}'")
        return tuple(refs)

    def _parse_ref(self, space: tuple[str, ...], what: str) -> Ref:
        tok = self.peek()
        if tok.kind is not TokenKind.REF or tok.value[:-1] != space:  # type: ignore[index]
            raise self.fail(f"expected {what}, found {tok.text!r}")
        self.advance()
        return Ref(space, tok.value[-1], span=tok.span)  # type: ignore[index]

    # -- events ---------------------------------------------------------------

    def _parse_event(self) -> EventDecl:
        name_tok = self.expect(TokenKind.IDENT, "an event name")
        self.expect(TokenKind.LBRACE, "'{'")
        guard: Expr | None = None
        injectable = False
        clauses: list[ActivationClause] = []
        while not self.at(TokenKind.RBRACE):
            tok = self.peek()
            if tok.kind is TokenKind.KW_INJECTABLE:
                if injectable:
                    raise ParseError("duplicate INJECTABLE flag", tok.span)
                self.advance()
                injectable = True
            elif tok.kind is TokenKind.KW_GUARDS:
                if guard is not None:
                    raise ParseError("duplicate GUARDS clause", tok.span)
                self.advance()
                guard = self._parse_braced_expr()
            elif tok.kind is TokenKind.KW_ACTIVATION:
                self.advance()
                clauses.extend(self._parse_activation())
            else:
                raise self.fail(
                    f"expected INJECTABLE, GUARDS, or ACTIVATION, found {tok.text!r}"
                )
        self.expect(TokenKind.RBRACE, "'}'")
        return EventDecl(
            name_tok.text, guard=guard, activation=tuple(clauses),
            injectable=injectable, span=name_tok.span,
        )

    def _parse_activation(self) -> list[ActivationClause]:
        self.expect(TokenKind.LBRACE, "'{'")
        clauses = [self._parse_activation_clause()]
        while self.accept(TokenKind.COMMA):
            clauses.append(self._parse_activation_clause())
        self.expect(TokenKind.RBRACE, "'}'")
        return clauses

    def _parse_activation_clause(self) -> ActivationClause:
        tok = self.peek()
        if tok.kind is TokenKind.KW_SENT or tok.kind is TokenKind.KW_RECEIVED:
            self.advance()
            self.expect(TokenKind.LBRACE, "'{'")
            target = self._parse_ref(("AEIP", "MESSAGES"), "an AEIP.MESSAGES reference")
            self.expect(TokenKind.RBRACE, "'}'")
            kind = ActivationKind.SENT if tok.kind is TokenKind.KW_SENT else ActivationKind.RECEIVED
            return ActivationClause(kind, target=target, span=tok.span)
        if tok.kind is TokenKind.KW_CHANGED:
            self.advance()
            self.expect(TokenKind.LBRACE, "'{'")
            target = self._parse_ref(("METRICS",), "a METRICS reference")
            self.expect(TokenKind.RBRACE, "'}'")
            return ActivationClause(ActivationKind.CHANGED, target=target, span=tok.span)
        if tok.kind is TokenKind.KW_ELAPSED:
            self.advance()
            self.expect(TokenKind.LBRACE, "'{'")
            ticks_tok = self.expect(TokenKind.INT, "a tick count")
            self.expect(TokenKind.RBRACE, "'}'")
            return ActivationClause(
                ActivationKind.ELAPSED, ticks=int(ticks_tok.value), span=tok.span  # type: ignore[arg-type]
            )
        raise self.fail(f"expected SENT, RECEIVED, CHANGED, or ELAPSED, found {tok.text!r}")

    # -- actions ---------------------------------------------------------------

    def _parse_action(self) -> ActionDecl:
        name_tok = self.expect(TokenKind.IDENT, "an action name")
        self.expect(TokenKind.LBRACE, "'{'")
        guard = ensures = None
        if self.accept(TokenKind.KW_GUARDS):
            guard = self._parse_braced_expr()
        if self.accept(TokenKind.KW_ENSURES):
            ensures = self._parse_braced_expr()
        self.expect(TokenKind.KW_DOES, "DOES")
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
        self.expect(TokenKind.RBRACE, "'}'")
        return ActionDecl(
            name_tok.text,
            does,
            guard=guard,
            ensures=ensures,
            onerr_does=onerr_does,
            triggers=triggers,
            onerr_triggers=onerr_triggers,
            span=name_tok.span,
        )

    def _parse_statements(self, allow_empty: bool) -> tuple[Stmt, ...]:
        open_tok = self.expect(TokenKind.LBRACE, "'{'")
        stmts: list[Stmt] = []
        while not self.at(TokenKind.RBRACE):
            stmts.append(self._parse_statement())
        self.expect(TokenKind.RBRACE, "'}'")
        if not stmts and not allow_empty:
            raise ParseError("DOES clause must contain at least one statement", open_tok.span)
        return tuple(stmts)

    def _parse_statement(self) -> Stmt:
        tok = self.peek()
        if tok.kind is TokenKind.KW_CALL:
            self.advance()
            action = self._parse_ref(("ACTIONS",), "an ACTIONS reference")
            self.expect(TokenKind.SEMI, "';'")
            return CallStmt(action, binding=None, span=tok.span)
        if tok.kind is TokenKind.IDENT:
            self.advance()
            self.expect(TokenKind.EQUALS, "'='")
            self.expect(TokenKind.KW_CALL, "call")
            action = self._parse_ref(("ACTIONS",), "an ACTIONS reference")
            self.expect(TokenKind.SEMI, "';'")
            return CallStmt(action, binding=tok.text, span=tok.span)
        if tok.kind is TokenKind.REF and tok.value[:-1] == ("METRICS",):  # type: ignore[index]
            self.advance()
            metric = Ref(("METRICS",), tok.value[-1], span=tok.span)  # type: ignore[index]
            self.expect(TokenKind.EQUALS, "'='")
            value = self._parse_expr()
            self.expect(TokenKind.SEMI, "';'")
            return AssignStmt(metric, value, span=tok.span)
        if tok.kind is TokenKind.KW_SEND:
            self.advance()
            message = self._parse_ref(("AEIP", "MESSAGES"), "an AEIP.MESSAGES reference")
            self.expect(TokenKind.KW_OVER, "over")
            channel = self._parse_ref(("CHANNELS",), "a CHANNELS reference")
            self.expect(TokenKind.SEMI, "';'")
            return SendStmt(message, channel, span=tok.span)
        if tok.kind is TokenKind.KW_FAIL:
            self.advance()
            reason = self.expect(TokenKind.TEXT, "a failure reason")
            self.expect(TokenKind.SEMI, "';'")
            return FailStmt(str(reason.value), span=tok.span)
        raise self.fail(f"expected a statement, found {tok.text!r}")

    # -- metrics, messages, channels, functions -------------------------------

    def _parse_metric(self) -> MetricDecl:
        name_tok = self.expect(TokenKind.IDENT, "a metric name")
        self.expect(TokenKind.LBRACE, "'{'")
        self.expect(TokenKind.KW_TYPE, "TYPE")
        self.expect(TokenKind.LBRACE, "'{'")
        type_tok = self.expect(TokenKind.IDENT, "a value type")
        value_type = ValueType.from_name(type_tok.text)
        if value_type is None:
            raise ParseError(
                f"unknown value type {type_tok.text!r} (expected boolean, integer, real, or text)",
                type_tok.span,
            )
        self.expect(TokenKind.RBRACE, "'}'")
        self.expect(TokenKind.KW_INITIAL, "INITIAL")
        self.expect(TokenKind.LBRACE, "'{'")
        initial = self._parse_literal()
        self.expect(TokenKind.RBRACE, "'}'")
        self.expect(TokenKind.RBRACE, "'}'")
        return MetricDecl(name_tok.text, value_type, initial, span=name_tok.span)

    def _parse_message(self) -> MessageDecl:
        name_tok = self.expect(TokenKind.IDENT, "a message name")
        self.expect(TokenKind.LBRACE, "'{'")
        self.expect(TokenKind.KW_SENDER, "SENDER")
        self.expect(TokenKind.LBRACE, "'{'")
        sender = self.expect(TokenKind.IDENT, "a tier name").text
        self.expect(TokenKind.RBRACE, "'}'")
        self.expect(TokenKind.KW_RECEIVER, "RECEIVER")
        self.expect(TokenKind.LBRACE, "'{'")
        receiver = self.expect(TokenKind.IDENT, "a tier name").text
        self.expect(TokenKind.RBRACE, "'}'")
        self.expect(TokenKind.RBRACE, "'}'")
        return MessageDecl(name_tok.text, sender, receiver, span=name_tok.span)

    def _parse_channel(self) -> ChannelDecl:
        name_tok = self.expect(TokenKind.IDENT, "a channel name")
        self.expect(TokenKind.LBRACE, "'{'")
        self.expect(TokenKind.KW_CAPACITY, "CAPACITY")
        self.expect(TokenKind.LBRACE, "'{'")
        cap_tok = self.expect(TokenKind.INT, "a capacity")
        self.expect(TokenKind.RBRACE, "'}'")
        self.expect(TokenKind.RBRACE, "'}'")
        return ChannelDecl(name_tok.text, int(cap_tok.value), span=name_tok.span)  # type: ignore[arg-type]

    def _parse_function(self) -> FunctionDecl:
        name_tok = self.expect(TokenKind.IDENT, "a function name")
        return FunctionDecl(name_tok.text, self.parse_opaque_block(), span=name_tok.span)

    def parse_opaque_block(self) -> OpaqueBlock:
        open_tok = self.expect(TokenKind.LBRACE, "'{'")
        texts: list[str] = []
        depth = 1
        while depth > 0:
            tok = self.peek()
            if tok.kind is TokenKind.EOF:
                raise ParseError("unterminated block", open_tok.span)
            if tok.kind is TokenKind.LBRACE:
                depth += 1
            elif tok.kind is TokenKind.RBRACE:
                depth -= 1
                if depth == 0:
                    self.advance()
                    break
            texts.append(tok.text)
            self.advance()
        return OpaqueBlock(tuple(texts), span=open_tok.span)

    # -- expressions -----------------------------------------------------------

    def _parse_braced_expr(self) -> Expr:
        self.expect(TokenKind.LBRACE, "'{'")
        expr = self._parse_expr()
        self.expect(TokenKind.RBRACE, "'}'")
        return expr

    def _parse_expr(self) -> Expr:
        return self._parse_or()

    def _parse_or(self) -> Expr:
        left = self._parse_and()
        while self.at(TokenKind.KW_OR):
            tok = self.advance()
            left = BinaryExpr("OR", left, self._parse_and(), span=tok.span)
        return left

    def _parse_and(self) -> Expr:
        left = self._parse_not()
        while self.at(TokenKind.KW_AND):
            tok = self.advance()
            left = BinaryExpr("AND", left, self._parse_not(), span=tok.span)
        return left

    def _parse_not(self) -> Expr:
        if self.at(TokenKind.KW_NOT):
            tok = self.advance()
            return NotExpr(self._parse_not(), span=tok.span)
        return self._parse_comparison()

    def _parse_comparison(self) -> Expr:
        left = self._parse_atom()
        op = _COMPARE_OPS.get(self.peek().kind)
        if op is None:
            return left
        tok = self.advance()
        return CompareExpr(op, left, self._parse_atom(), span=tok.span)

    def _parse_atom(self) -> Expr:
        tok = self.peek()
        if tok.kind in _LITERAL_TYPES:
            return self._parse_literal()
        if tok.kind is TokenKind.REF:
            space = tok.value[:-1]  # type: ignore[index]
            name = tok.value[-1]  # type: ignore[index]
            if space == ("METRICS",):
                self.advance()
                return MetricRefExpr(name, span=tok.span)
            if space == ("FLUENTS",):
                self.advance()
                return FluentRefExpr(name, span=tok.span)
            raise self.fail(f"{tok.text!r} cannot appear in an expression")
        if tok.kind is TokenKind.IDENT:
            self.advance()
            return BindingRefExpr(tok.text, span=tok.span)
        if tok.kind is TokenKind.LPAREN:
            self.advance()
            expr = self._parse_expr()
            self.expect(TokenKind.RPAREN, "')'")
            return expr
        raise self.fail(f"expected an expression, found {tok.text!r}")

    def _parse_literal(self) -> Lit:
        tok = self.peek()
        value_type = _LITERAL_TYPES.get(tok.kind)
        if value_type is None:
            raise self.fail(f"expected a literal, found {tok.text!r}")
        self.advance()
        return Lit(tok.value, value_type, span=tok.span)


class _TierSections:
    """Accumulates the shared tier sections, rejecting duplicates."""

    def __init__(self) -> None:
        self.slos: list[SloDecl] = []
        self.policies: list[PolicyDecl] = []
        self.actions: list[ActionDecl] = []
        self.events: list[EventDecl] = []
        self.metrics: list[MetricDecl] = []
        self.blocks: dict[str, OpaqueBlock] = {}
        self._seen: set[str] = set()

    def claim(self, section: str, span: SourceSpan) -> None:
        if section in self._seen:
            raise ParseError(f"duplicate {section} section", span)
        self._seen.add(section)

    def set_block(self, section: str, block: OpaqueBlock, span: SourceSpan) -> None:
        self.claim(section, span)
        self.blocks[section] = block

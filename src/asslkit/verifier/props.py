"""Temporal properties over fluent, metric, and event atoms.

One property per line, prefix-friendly syntax::

    G (implies (fluent inSecurityCheck) (F (event privateMessageSecure | event privateMessageInsecure)))
    G (implies (fluent a) (X (event b)))
    (fluent a) U (event b)
    F (metric count >= 3)

Atoms: ``fluent NAME`` (the fluent is active), ``event NAME`` (the event was
raised by the step that produced this state), ``metric NAME`` (boolean
metric holds), ``metric NAME <op> <literal>``, with the literal written as in
a specification (see ``runtime.scenario.parse_value``). Names may be
qualified as ``element.name`` or bare when unique. Propositional connectives:
``!``/``not``, ``&``/``and``, ``|``/``or``, ``->``, and the prefix forms
``(implies p q)``, ``(and p q ...)``, ``(or p q ...)``, ``(not p)``.

Formulas are restricted to five checkable shapes: ``G p``, ``F p``,
``G (p -> F q)``, ``G (p -> X q)``, and ``p U q``, with p and q
propositional.

A property nests at most ``parser.MAX_NESTING`` deep, the limit that
specification expressions have: each prefix operator, each opening
parenthesis and each ``->`` (which groups to the right) around the point
reached counts one level. So does each operator of every ``&``/``|``
chain that the point lies in, for every operand of its chain (the chain is
a left-deep tree); a prefix ``(and ...)``/``(or ...)`` of n operands is a
chain of n - 1 operators.
"""

from __future__ import annotations

import re
from collections.abc import Callable
from dataclasses import dataclass

from ..checker import CheckedSpec
from ..names import Key, NameResolutionError, qual, resolve_decl
from ..nodes import ValueType, render_value
from ..parser import MAX_NESTING
from ..program import COMPARE, Program
from ..runtime.scenario import ScenarioError, parse_value
from .lts import StateVector

# The infix chain operators, loosest first: (tree operator, its spellings).
_CHAINS = (("OR", ("|", "or")), ("AND", ("&", "and")))


class PropertyError(ValueError):
    """Malformed property text or an unsupported formula shape."""


class UnresolvedAtom(PropertyError):
    """A property atom references a name the specification does not declare."""


# -- propositional layer -------------------------------------------------------


@dataclass(frozen=True)
class FluentAtom:
    fluent: Key

    def render(self) -> str:
        return f"(fluent {qual(self.fluent)})"


@dataclass(frozen=True)
class EventAtom:
    event: Key

    def render(self) -> str:
        return f"(event {qual(self.event)})"


@dataclass(frozen=True)
class MetricAtom:
    metric: Key
    op: str | None = None  # None means: boolean metric is true
    value: object = None

    def render(self) -> str:
        if self.op is None:
            return f"(metric {qual(self.metric)})"
        return f"(metric {qual(self.metric)} {self.op} {render_value(self.value)})"


@dataclass(frozen=True)
class BoolLit:
    value: bool

    def render(self) -> str:
        return "true" if self.value else "false"


@dataclass(frozen=True)
class PNot:
    operand: "Prop"

    def render(self) -> str:
        return f"(NOT {self.operand.render()})"


@dataclass(frozen=True)
class PBin:
    op: str  # AND | OR | IMPLIES
    left: "Prop"
    right: "Prop"

    def render(self) -> str:
        return f"({self.left.render()} {self.op} {self.right.render()})"


Prop = FluentAtom | EventAtom | MetricAtom | BoolLit | PNot | PBin


def eval_prop(prop: Prop, vector: StateVector, event: Key | None, program: Program) -> bool:
    """Whether ``prop`` holds at ``vector``, entered by a move that raised ``event``."""
    if isinstance(prop, FluentAtom):
        return vector.fluents[program.fluent_slot[prop.fluent]]
    if isinstance(prop, EventAtom):
        return event == prop.event
    if isinstance(prop, MetricAtom):
        value = vector.metrics[program.metric_slot[prop.metric]]
        if prop.op is None:
            return bool(value)
        return COMPARE[prop.op](value, prop.value)
    if isinstance(prop, BoolLit):
        return prop.value
    if isinstance(prop, PNot):
        return not eval_prop(prop.operand, vector, event, program)
    assert isinstance(prop, PBin)
    left = eval_prop(prop.left, vector, event, program)
    if prop.op == "AND":
        return left and eval_prop(prop.right, vector, event, program)
    if prop.op == "OR":
        return left or eval_prop(prop.right, vector, event, program)
    return (not left) or eval_prop(prop.right, vector, event, program)


# -- temporal layer -------------------------------------------------------------

G_SHAPE = "G"
F_SHAPE = "F"
RESPONSE_SHAPE = "G->F"
NEXT_SHAPE = "G->X"
UNTIL_SHAPE = "U"

_SHAPES_HELP = "G p | F p | G (p -> F q) | G (p -> X q) | p U q"


@dataclass(frozen=True)
class TemporalProperty:
    shape: str
    p: Prop
    q: Prop | None
    text: str


# Internal parse tree before shape classification.
@dataclass(frozen=True)
class _Temporal:
    op: str  # G | F | X
    operand: object


@dataclass(frozen=True)
class _Until:
    left: object
    right: object


@dataclass(frozen=True)
class _Implies:
    """``left -> right`` with a temporal ``right``, kept for classification."""

    left: object
    right: object


_TEMPORAL = (_Temporal, _Until, _Implies)


def parse_property(text: str, spec: CheckedSpec) -> TemporalProperty:
    """Parse and shape-check one property line against a specification."""
    tokens = _scan(text)
    parser = _PropParser(tokens, spec, text)
    tree = parser.parse()
    return _classify(tree, text)


def parse_property_file(text: str, spec: CheckedSpec) -> list[TemporalProperty]:
    """One property per non-blank, non-comment line."""
    props = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            props.append(parse_property(line, spec))
        except PropertyError as err:
            raise type(err)(f"line {lineno}: {err}") from None
    return props


def _classify(tree: object, text: str) -> TemporalProperty:
    def propositional(node: object, what: str) -> Prop:
        if isinstance(node, _TEMPORAL):
            raise PropertyError(
                f"unsupported formula shape (nested temporal operator in {what});"
                f" supported: {_SHAPES_HELP}"
            )
        return node  # type: ignore[return-value]

    if isinstance(tree, _Until):
        return TemporalProperty(
            UNTIL_SHAPE,
            propositional(tree.left, "U"),
            propositional(tree.right, "U"),
            text,
        )
    if isinstance(tree, _Temporal) and tree.op == "F":
        return TemporalProperty(F_SHAPE, propositional(tree.operand, "F"), None, text)
    if isinstance(tree, _Temporal) and tree.op == "G":
        body = tree.operand
        if isinstance(body, _Implies):
            consequent = body.right
            if isinstance(consequent, _Temporal) and consequent.op == "F":
                return TemporalProperty(
                    RESPONSE_SHAPE,
                    propositional(body.left, "G"),
                    propositional(consequent.operand, "F"),
                    text,
                )
            if isinstance(consequent, _Temporal) and consequent.op == "X":
                return TemporalProperty(
                    NEXT_SHAPE,
                    propositional(body.left, "G"),
                    propositional(consequent.operand, "X"),
                    text,
                )
        return TemporalProperty(G_SHAPE, propositional(body, "G"), None, text)
    raise PropertyError(f"unsupported formula shape; supported: {_SHAPES_HELP}")


# -- scanner / parser ------------------------------------------------------------

# One token after optional white space: an operator, a text literal, a word
# (names and numbers, ASCII only), or a character no token starts with.
_TOKEN = re.compile(r'\s*(?:(->|[<>!]=|[()|&!<>=])|("[^"]*")|([A-Za-z0-9_.\-]+)|(\S))')


def _scan(text: str) -> list[str]:
    tokens: list[str] = []
    for match in _TOKEN.finditer(text):
        bad = match[4]
        if bad == '"':
            raise PropertyError("unterminated text literal")
        if bad is not None:
            raise PropertyError(f"unexpected character {bad!r} in property")
        tokens.append(match[match.lastindex])
    return tokens


class _PropParser:
    def __init__(self, tokens: list[str], spec: CheckedSpec, text: str) -> None:
        self.tokens = tokens
        self.pos = 0
        self.spec = spec
        self.text = text
        self.nesting = 0
        # the deepest level that the operands of the innermost open chain reach
        self.peak = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def advance(self) -> str:
        tok = self.peek()
        if tok is None:
            raise PropertyError("unexpected end of property")
        self.pos += 1
        return tok

    def expect(self, token: str) -> None:
        tok = self.advance()
        if tok != token:
            raise PropertyError(f"expected {token!r}, found {tok!r}")

    def nested(self, parse: Callable[[], object]) -> object:
        """``parse()`` one nesting level deeper."""
        if self.nesting == MAX_NESTING:
            raise PropertyError(f"property nested more than {MAX_NESTING} deep")
        self.nesting += 1
        self.peak = max(self.peak, self.nesting)
        try:
            return parse()
        finally:
            self.nesting -= 1

    def chained(self, operators: int) -> None:
        """Check a chain whose operands reach ``peak`` and that has
        ``operators`` so far, each one level more for every operand."""
        if self.peak + operators > MAX_NESTING:
            raise PropertyError(f"property nested more than {MAX_NESTING} deep")

    def parse(self) -> object:
        tree = self._until()
        if self.peek() is not None:
            raise PropertyError(f"trailing tokens after property: {self.peek()!r}")
        return tree

    def _until(self) -> object:
        left = self._implies()
        if self.peek() == "U":
            self.advance()
            right = self._implies()
            return _Until(left, right)
        return left

    def _implies(self) -> object:
        left = self._chain()
        if self.peek() == "->":
            self.advance()
            right = self.nested(self._implies)
            return _mk_bin("IMPLIES", left, right)
        return left

    def _chain(self, tier: int = 0) -> object:
        """The chain of ``_CHAINS[tier]`` operators, as a left-deep tree."""
        op, tokens = _CHAINS[tier]
        last = tier + 1 == len(_CHAINS)
        outer, self.peak = self.peak, self.nesting
        left = self._unary() if last else self._chain(tier + 1)
        operators = 0
        while self.peek() in tokens:
            self.advance()
            operators += 1
            left = _mk_bin(op, left, self._unary() if last else self._chain(tier + 1))
            self.chained(operators)
        self.peak = max(outer, self.peak + operators)
        return left

    def _unary(self) -> object:
        tok = self.peek()
        if tok in ("!", "not", "NOT"):
            self.advance()
            return _mk_not(self.nested(self._unary))
        if tok in ("G", "F", "X"):
            self.advance()
            return _Temporal(tok, self.nested(self._unary))
        return self._atom()

    def _atom(self) -> object:
        tok = self.advance()
        if tok == "(":
            return self.nested(self._parenthesized)
        if tok == "true":
            return BoolLit(True)
        if tok == "false":
            return BoolLit(False)
        if tok == "fluent":
            return FluentAtom(self._resolve("fluents"))
        if tok == "event":
            return EventAtom(self._resolve("events"))
        if tok == "metric":
            return self._metric_atom()
        raise PropertyError(f"expected an atom, found {tok!r}")

    def _parenthesized(self) -> object:
        """The rest of a parenthesized formula, after its ``(``."""
        head = self.peek()
        if head in ("implies", "IMPLIES"):
            self.advance()
            left = self._until()
            right = self._until()
            self.expect(")")
            return _mk_bin("IMPLIES", left, right)
        if head in ("and", "AND", "or", "OR"):
            self.advance()
            op = "AND" if head.lower() == "and" else "OR"
            outer, self.peak = self.peak, self.nesting
            result = self._until()
            operators = 0
            while self.peek() != ")":
                operators += 1
                result = _mk_bin(op, result, self._until())
                self.chained(operators)
            if not operators:
                raise PropertyError(f"prefix {head} needs at least two operands")
            self.peak = max(outer, self.peak + operators)
            self.expect(")")
            return result
        tree = self._until()
        self.expect(")")
        return tree

    def _resolve(self, namespace: str) -> Key:
        name = self.advance()
        try:
            return resolve_decl(self.spec, namespace, name)
        except NameResolutionError as err:
            raise UnresolvedAtom(str(err)) from None

    def _metric_atom(self) -> MetricAtom:
        key = self._resolve("metrics")
        decl = self.spec.program.metrics[key]
        if self.peek() in COMPARE:
            op = self.advance()
            if op not in ("=", "!=") and decl.value_type in (ValueType.BOOLEAN, ValueType.TEXT):
                raise PropertyError(
                    f"ordering comparison on {decl.value_type.value} metric '{qual(key)}'"
                )
            try:
                value = parse_value(self.advance(), decl.value_type)
            except ScenarioError as err:
                raise PropertyError(f"{err} for metric '{qual(key)}'") from None
            return MetricAtom(key, op, value)
        if decl.value_type is not ValueType.BOOLEAN:
            raise PropertyError(
                f"metric '{qual(key)}' is {decl.value_type.value};"
                " compare it against a literal"
            )
        return MetricAtom(key)


def _mk_not(operand: object) -> PNot:
    if isinstance(operand, _TEMPORAL):
        raise PropertyError("negation of temporal formulas is not supported")
    return PNot(operand)  # type: ignore[arg-type]


def _mk_bin(op: str, left: object, right: object) -> object:
    # IMPLIES with a temporal consequent survives for shape classification;
    # every other connective must stay propositional.
    if op == "IMPLIES" and isinstance(right, _TEMPORAL):
        if isinstance(left, _TEMPORAL):
            raise PropertyError("temporal operators may not appear left of ->")
        return _Implies(left, right)
    for side in (left, right):
        if isinstance(side, _TEMPORAL):
            raise PropertyError(
                f"unsupported formula shape ({op} over a temporal formula);"
                f" supported: {_SHAPES_HELP}"
            )
    return PBin(op, left, right)  # type: ignore[arg-type]

"""Parser structure, figure fidelity, error recovery."""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import fields
from pathlib import Path

import pytest
from specgen import random_spec_source, swarm_source, token_mutants

from asslkit.checker import check_all
from asslkit.missions import all_missions
from asslkit.nodes import (
    ActivationKind,
    BinaryExpr,
    CompareExpr,
    MetricRefExpr,
    Node,
    NotExpr,
    OpaqueBlock,
)
from asslkit.parser import MAX_NESTING, ParseError, parse_text
from asslkit.printer import pretty_print
from asslkit.tokens import LexError, SourceSpan
from conftest import FIG_EVENTS, FIG_POLICY, figures_wrapped


def test_empty_as_tier():
    tree = parse_text("AS empty { }")
    assert tree.as_tier.name == "empty"
    assert tree.asip_tier is None
    assert tree.ae_tiers == ()
    assert tree.as_tier.policies == ()


def test_policy_figure_structure():
    tree = parse_text(figures_wrapped())
    (worker,) = tree.ae_tiers
    (policy,) = worker.policies
    assert policy.name == "SELF_PROTECTING"
    (fluent,) = policy.fluents
    assert fluent.name == "inSecurityCheck"
    assert [r.name for r in fluent.initiated_by] == ["privateMessageIsComming"]
    assert [r.name for r in fluent.terminated_by] == [
        "privateMessageSecure",
        "privateMessageInsecure",
    ]
    (mapping,) = policy.mappings
    assert [r.name for r in mapping.conditions] == ["inSecurityCheck"]
    assert [r.name for r in mapping.do_actions] == ["checkPrivateMessage"]


def test_events_figure_structure():
    tree = parse_text(figures_wrapped())
    events = {e.name: e for e in tree.ae_tiers[0].events}
    assert len([e for e in tree.ae_tiers[0].events if e.name.startswith("private")]) == 3

    coming = events["privateMessageIsComming"]
    assert coming.guard is None
    (clause,) = coming.activation
    assert clause.kind is ActivationKind.SENT
    assert clause.target.space == ("AEIP", "MESSAGES")
    assert clause.target.name == "privateMessage"

    insecure = events["privateMessageInsecure"]
    assert isinstance(insecure.guard, NotExpr)
    assert isinstance(insecure.guard.operand, MetricRefExpr)
    assert insecure.guard.operand.name == "thereIsInsecureMsg"
    (clause,) = insecure.activation
    assert clause.kind is ActivationKind.CHANGED
    assert clause.target.name == "thereIsInsecureMsg"

    secure = events["privateMessageSecure"]
    assert isinstance(secure.guard, MetricRefExpr)


def test_figures_parse_without_errors():
    # The published fragments, concatenated into one AE tier, are legal input.
    tree = parse_text(figures_wrapped(FIG_POLICY, FIG_EVENTS))
    assert tree.ae_tiers[0].name == "worker"


def test_action_statements():
    tree = parse_text(figures_wrapped())
    actions = {a.name: a for a in tree.ae_tiers[0].actions}
    check = actions["checkPrivateMessage"]
    call = check.does[0]
    assert call.binding == "senderIdentified"
    assert call.action.name == "checkSenderCertificate"
    assert check.ensures is not None
    assert [r.name for r in check.onerr_triggers] == ["messageQuarantined"]
    assert check.triggers == ()


def test_opaque_subtiers_and_friends():
    tree = parse_text(
        """
        AS sys {
          ARCHITECTURE { ring of teams }
          SLO { uptime { at least 0.99 } }
        }
        AE probe {
          FRIENDS { relay, base }
          RECOVERY_PROTOCOL { restart after 3 faults }
          BEHAVIOR_MODELS { cruise, survey }
          OUTCOMES { surveyed }
          AEIP {
            MANAGED_ELEMENTS { camera }
            FUNCTIONS { FUNCTION relayHop { via relay } }
          }
        }
        AE relay { }
        AE base { }
        """
    )
    assert isinstance(tree.as_tier.architecture, OpaqueBlock)
    assert tree.as_tier.slos[0].name == "uptime"
    probe = tree.ae_tiers[0]
    assert probe.friends == ("relay", "base")
    assert probe.recovery_protocol.tokens == ("restart", "after", "3", "faults")
    assert probe.behavior_models is not None
    assert probe.outcomes is not None
    assert probe.aeip.managed_elements is not None
    assert probe.aeip.functions[0].name == "relayHop"


def test_asip_tier():
    tree = parse_text(
        """
        AS sys { }
        ASIP {
          MESSAGES { MESSAGE ping { SENDER { sys } RECEIVER { sys } } }
          CHANNELS { CHANNEL radio { CAPACITY { 2 } } }
        }
        """
    )
    assert tree.asip_tier.messages[0].name == "ping"
    assert tree.asip_tier.channels[0].capacity == 2


def test_expression_precedence():
    tree = parse_text(
        """
        AS sys {
          EVENTS {
            EVENT e { GUARDS { NOT METRICS.a AND METRICS.b OR METRICS.c = true } }
          }
          METRICS {
            METRIC a { TYPE { boolean } INITIAL { false } }
            METRIC b { TYPE { boolean } INITIAL { false } }
            METRIC c { TYPE { boolean } INITIAL { false } }
          }
        }
        """
    )
    guard = tree.as_tier.events[0].guard
    # OR binds loosest: (NOT a AND b) OR (c = true)
    assert guard.op == "OR"
    assert guard.left.op == "AND"
    assert isinstance(guard.left.left, NotExpr)
    assert isinstance(guard.right, CompareExpr)


def test_parenthesized_expressions():
    tree = parse_text(
        """
        AS sys {
          EVENTS { EVENT e { GUARDS { NOT (METRICS.a OR METRICS.b) } } }
          METRICS {
            METRIC a { TYPE { boolean } INITIAL { false } }
            METRIC b { TYPE { boolean } INITIAL { false } }
          }
        }
        """
    )
    guard = tree.as_tier.events[0].guard
    assert isinstance(guard, NotExpr)
    assert guard.operand.op == "OR"


def test_every_node_has_a_span_inside_source():
    source = figures_wrapped()
    tree = parse_text(source, "figures.assl")
    lines = source.split("\n")
    worker = tree.ae_tiers[0]
    nodes = [
        worker.policies[0],
        worker.policies[0].fluents[0],
        worker.policies[0].mappings[0],
        worker.events[0],
        worker.actions[0],
        worker.metrics[0],
        worker.aeip.messages[0],
        worker.aeip.channels[0],
    ]
    for node in nodes:
        span = node.span
        assert span.file == "figures.assl"
        assert 1 <= span.line <= len(lines)
        assert 1 <= span.column <= len(lines[span.line - 1]) + 1


def _random_guard(rng: random.Random, room: int) -> str:
    """A random expression that nests about ``room`` levels."""
    roll = rng.random()
    if room <= 0 or roll < 0.05:
        return rng.choice(("METRICS.m", "METRICS.m = 1", "x"))
    if roll < 0.3:
        return "NOT " + _random_guard(rng, room - 1)
    if roll < 0.5:
        return f"({_random_guard(rng, room - 1)})"
    operators = rng.randint(1, room)
    operands = ["METRICS.m"] * (operators + 1)
    deep = 0 if roll < 0.75 else rng.randrange(operators + 1)
    operands[deep] = _random_guard(rng, room - operators)
    return f" {rng.choice(('AND', 'OR'))} ".join(operands)


def _tree_depth(expr) -> int:
    if isinstance(expr, NotExpr):
        return 1 + _tree_depth(expr.operand)
    if isinstance(expr, (BinaryExpr, CompareExpr)):
        return 1 + max(_tree_depth(expr.left), _tree_depth(expr.right))
    return 0


class TestErrors:
    def test_missing_as_tier(self):
        with pytest.raises(ParseError, match="no AS tier"):
            parse_text("AE a { }")

    def test_duplicate_as_tier(self):
        with pytest.raises(ParseError, match="exactly one AS"):
            parse_text("AS a { } AS b { }")

    def test_duplicate_section(self):
        with pytest.raises(ParseError, match="duplicate EVENTS"):
            parse_text("AS a { EVENTS { } EVENTS { } }")

    def test_expected_found_and_span(self):
        with pytest.raises(ParseError) as exc:
            parse_text("AS a {\n  POLICIES { P { MAPPING { } } }\n}")
        assert "expected CONDITIONS" in str(exc.value)
        assert exc.value.span.line == 2

    @pytest.mark.parametrize(
        "source, message, span",
        [
            ("AS a {", "unexpected '<end of input>' in AS tier", (1, 6, 1)),
            ("", "specification has no AS tier", (1, 1, 0)),
            (
                "AS a { EVENTS { EVENT e {",
                "expected INJECTABLE, GUARDS, or ACTIVATION, found '<end of input>'",
                (1, 25, 1),
            ),
            ("AS a { } AE", "expected a tier name, found '<end of input>'", (1, 10, 2)),
        ],
    )
    def test_errors_at_end_of_input(self, source, message, span):
        # The end-of-input token carries the span of the last token.
        with pytest.raises(ParseError) as exc:
            parse_text(source, "f.assl")
        assert [(e.message, e.span) for e in exc.value.errors] == [
            (message, SourceSpan("f.assl", *span))
        ]

    def test_nesting_past_the_limit_is_reported_and_parsing_goes_on(self):
        def tier(kind: str, name: str, nots: int) -> str:
            guard = f"GUARDS {{ {'NOT ' * nots}METRICS.m }}"
            return f"{kind} {name} {{ EVENTS {{ EVENT e {{ {guard} }} }} }}\n"

        # after the error, a tier nested exactly at the limit still parses
        source = tier("AS", "a", MAX_NESTING + 1) + tier("AE", "b", MAX_NESTING) + "AE c { x }"
        first_not = len("AS a { EVENTS { EVENT e { GUARDS { ") + 1
        errors = _error_list(source)
        assert errors[0] == (
            f"expression nested more than {MAX_NESTING} deep", 1, first_not + 4 * MAX_NESTING
        )
        assert [line for _message, line, _column in errors] == [1, 3]

    def test_accepted_expressions_nest_no_deeper_than_the_limit(self):
        # Random guards near the limit, in every nesting form: NOT,
        # parentheses, and chains whose operands are chains in parentheses.
        # An accepted guard builds a tree at most MAX_NESTING deep, plus one
        # for a comparison, which the later stages can recurse over.
        rng = random.Random(5)
        depths = []
        rejected = 0
        for _ in range(400):
            guard = _random_guard(rng, rng.randint(MAX_NESTING - 30, MAX_NESTING + 30))
            try:
                tree = parse_text(f"AS a {{ EVENTS {{ EVENT e {{ GUARDS {{ {guard} }} }} }} }}")
            except ParseError as err:
                assert err.message == f"expression nested more than {MAX_NESTING} deep"
                rejected += 1
                continue
            depths.append(_tree_depth(tree.as_tier.events[0].guard))
        assert max(depths) <= MAX_NESTING + 1
        assert max(depths) >= MAX_NESTING - 5
        assert len(depths) >= 100 and rejected >= 100

    def test_empty_does_rejected(self):
        with pytest.raises(ParseError, match="at least one statement"):
            parse_text("AS a { ACTIONS { ACTION x { DOES { } } } }")

    def test_empty_initiators_rejected(self):
        with pytest.raises(ParseError):
            parse_text(
                "AS a { POLICIES { P { FLUENT f {"
                " INITIATED_BY { } TERMINATED_BY { EVENTS.e } } } } }"
            )

    def test_recovery_reports_multiple_errors(self):
        source = """
        AS one { EVENTS { EVENT e { BOGUS } } }
        AE two { ACTIONS { ACTION a { } } }
        AE three { }
        """
        with pytest.raises(ParseError) as exc:
            parse_text(source)
        assert len(exc.value.errors) == 2
        lines = [e.span.line for e in exc.value.errors]
        assert lines == sorted(lines)

    def test_wrong_namespace_in_ref_list(self):
        with pytest.raises(ParseError, match="expected an EVENTS reference"):
            parse_text(
                "AS a { POLICIES { P { FLUENT f {"
                " INITIATED_BY { ACTIONS.x } TERMINATED_BY { EVENTS.e } } } } }"
            )


# Which section keywords each tier body accepts. Every keyword is tried once
# and twice in every body: a keyword a body does not accept is reported where
# it first appears, and an accepted one where it repeats.
_SHARED_SECTIONS = ("SLO", "POLICIES", "ACTIONS", "EVENTS", "METRICS")
_PROTOCOL_SECTIONS = ("MESSAGES", "CHANNELS", "FUNCTIONS", "MANAGED_ELEMENTS")
_AE_SECTIONS = ("FRIENDS", "AEIP", "RECOVERY_PROTOCOL", "BEHAVIOR_MODELS", "OUTCOMES")
_SECTION_KEYWORDS = ("ARCHITECTURE", *_SHARED_SECTIONS, *_AE_SECTIONS, *_PROTOCOL_SECTIONS)

# body -> (source before the sections, source after them, accepted keywords,
# name used in the "unexpected" message)
_BODIES = {
    "AS": ("AS a {\n", "}\n", ("ARCHITECTURE", *_SHARED_SECTIONS), "AS tier"),
    "AE": ("AS a { }\nAE b {\n", "}\n", (*_SHARED_SECTIONS, *_AE_SECTIONS), "AE tier"),
    "ASIP": ("AS a { }\nASIP {\n", "}\n", _PROTOCOL_SECTIONS, "interaction protocol"),
    "AEIP": (
        "AS a { }\nAE b {\n  AEIP {\n", "  }\n}\n", _PROTOCOL_SECTIONS, "interaction protocol",
    ),
}


def _error_list(source: str) -> list[tuple[str, int, int]]:
    try:
        parse_text(source)
    except ParseError as exc:
        return [(e.message, e.span.line, e.span.column) for e in exc.errors]
    return []


class TestSectionErrors:
    @pytest.mark.parametrize("count", [1, 2])
    @pytest.mark.parametrize("keyword", _SECTION_KEYWORDS)
    @pytest.mark.parametrize("body", sorted(_BODIES))
    def test_every_section_keyword_in_every_body(self, body, keyword, count):
        head, tail, accepted, where = _BODIES[body]
        line = head.count("\n") + 1
        source = head + f"    {keyword} {{ }}\n" * count + tail
        if keyword not in accepted:
            expected = [(f"unexpected {keyword!r} in {where}", line, 5)]
        elif count == 2:
            expected = [(f"duplicate {keyword} section", line + 1, 5)]
        else:
            expected = []
        assert _error_list(source) == expected

    @pytest.mark.parametrize(
        "source, expected",
        [
            ("AS a { }\nASIP { }\nASIP { }", [("duplicate ASIP tier", 3, 1)]),
            ("AS a { }\nASIP { }\nAS b { }\nASIP { }", [
                ("a specification has exactly one AS tier", 3, 1),
                ("duplicate ASIP tier", 4, 1),
            ]),
            ("AS a {\n  ARCHITECTURE { ring { of { teams } } }\n}", []),
            ("AS a {\n  ARCHITECTURE { ring { of teams }", [("unterminated block", 2, 16)]),
            ("AS a {\n  SLO { up { at { least } 0.99 } }\n}", []),
        ],
    )
    def test_tier_and_block_forms(self, source, expected):
        assert _error_list(source) == expected


@pytest.mark.parametrize(
    "source, expected",
    [
        ("AS a { }\nfoo { }", [("expected AS, ASIP, or AE, found 'foo'", 2, 1)]),
        ("AS a {\n  POLICIES { 42 { } }\n}", [("expected a policy name, found '42'", 2, 14)]),
        (
            "AS a {\n  POLICIES { SELF_HEALING { METRIC x } }\n}",
            [("expected FLUENT or MAPPING, found 'METRIC'", 2, 29)],
        ),
        (
            "AS a {\n  EVENTS { EVENT e { INJECTABLE INJECTABLE } }\n}",
            [("duplicate INJECTABLE flag", 2, 33)],
        ),
        (
            "AS a {\n  EVENTS { EVENT e { GUARDS { true } GUARDS { true } } }\n}",
            [("duplicate GUARDS clause", 2, 38)],
        ),
        (
            "AS a {\n  ACTIONS { ACTION x { DOES { EVENTS.e; } } }\n}",
            [("expected a statement, found 'EVENTS.e'", 2, 31)],
        ),
        (
            "AS a {\n  METRICS { METRIC m { TYPE { float } INITIAL { 0 } } }\n}",
            [("unknown value type 'float' (expected boolean, integer, real, or text)", 2, 31)],
        ),
        (
            "AS a {\n  EVENTS { EVENT e { GUARDS { ACTIONS.x } } }\n}",
            [("'ACTIONS.x' cannot appear in an expression", 2, 31)],
        ),
        (
            "AS a {\n  EVENTS { EVENT e { GUARDS { ; } } }\n}",
            [("expected an expression, found ';'", 2, 31)],
        ),
        (
            "AS a {\n  METRICS { METRIC m { TYPE { boolean } INITIAL { x } } }\n}",
            [("expected a literal, found 'x'", 2, 51)],
        ),
    ],
)
def test_declaration_and_expression_errors(source, expected):
    assert _error_list(source) == expected


_LIST_SPEC = """\
AS a {
  POLICIES { P { FLUENT f { INITIATED_BY { %(init)s } TERMINATED_BY { EVENTS.e } }
                 MAPPING { CONDITIONS { %(cond)s } DO_ACTIONS { %(do)s } } } }
  EVENTS { EVENT e { ACTIVATION { %(act)s } } }
  ACTIONS { ACTION x { DOES { fail "r"; } TRIGGERS { %(trig)s } ONERR_TRIGGERS { %(onerr)s } } }
  METRICS { METRIC m { TYPE { boolean } INITIAL { false } } }
}
AE b { FRIENDS { %(friends)s } }
AE c { }
"""

_LIST_DEFAULTS = {
    "init": "EVENTS.e", "cond": "f", "do": "ACTIONS.x", "act": "ELAPSED { 2 }",
    "trig": "", "onerr": "", "friends": "c",
}


def _list_source(**lists: str) -> str:
    return _LIST_SPEC % {**_LIST_DEFAULTS, **lists}


class TestBracedLists:
    """Every ``{ a, b, ... }`` list: empty, one item, several, and malformed."""

    def test_defaults_parse(self):
        tree = parse_text(_list_source())
        (action,) = tree.as_tier.actions
        assert action.triggers == () and action.onerr_triggers == ()
        assert tree.ae_tiers[0].friends == ("c",)

    def test_several_items(self):
        tree = parse_text(_list_source(
            init="EVENTS.e, EVENTS.e", cond="f, FLUENTS.f", do="ACTIONS.x, ACTIONS.x",
            act="ELAPSED { 2 }, CHANGED { METRICS.m }, ELAPSED { 3 }",
            trig="EVENTS.e, EVENTS.e", onerr="EVENTS.e", friends="c, a",
        ))
        (fluent,) = tree.as_tier.policies[0].fluents
        (mapping,) = tree.as_tier.policies[0].mappings
        (event,) = tree.as_tier.events
        (action,) = tree.as_tier.actions
        assert [r.name for r in fluent.initiated_by] == ["e", "e"]
        assert [(r.space, r.name) for r in mapping.conditions] == [((), "f"), (("FLUENTS",), "f")]
        assert [r.name for r in mapping.do_actions] == ["x", "x"]
        assert [(c.kind, c.ticks) for c in event.activation] == [
            (ActivationKind.ELAPSED, 2), (ActivationKind.CHANGED, None), (ActivationKind.ELAPSED, 3),
        ]
        assert [r.name for r in action.triggers] == ["e", "e"]
        assert [r.name for r in action.onerr_triggers] == ["e"]
        assert tree.ae_tiers[0].friends == ("c", "a")

    def test_friends_may_be_empty(self):
        assert parse_text(_list_source(friends="")).ae_tiers[0].friends == ()

    @pytest.mark.parametrize(
        "lists, expected",
        [
            ({"init": ""}, [("expected an EVENTS reference, found '}'", 2, 45)]),
            ({"init": "EVENTS.e,"}, [("expected an EVENTS reference, found '}'", 2, 54)]),
            ({"init": "EVENTS.e EVENTS.e"}, [("expected '}', found 'EVENTS.e'", 2, 53)]),
            ({"cond": ""}, [("expected a fluent name, found '}'", 3, 42)]),
            ({"cond": "f,"}, [("expected a fluent name, found '}'", 3, 44)]),
            ({"cond": "ACTIONS.x"}, [("expected a fluent name, found 'ACTIONS.x'", 3, 41)]),
            ({"do": ""}, [("expected an ACTIONS reference, found '}'", 3, 59)]),
            ({"do": "ACTIONS.x, EVENTS.e"}, [
                ("expected an ACTIONS reference, found 'EVENTS.e'", 3, 69),
            ]),
            ({"act": ""}, [
                ("expected SENT, RECEIVED, CHANGED, or ELAPSED, found '}'", 4, 36),
            ]),
            ({"act": "ELAPSED { 2 },"}, [
                ("expected SENT, RECEIVED, CHANGED, or ELAPSED, found '}'", 4, 50),
            ]),
            ({"act": "ELAPSED { 2 }, BOGUS"}, [
                ("expected SENT, RECEIVED, CHANGED, or ELAPSED, found 'BOGUS'", 4, 50),
            ]),
            ({"trig": "EVENTS.e,"}, [("expected an EVENTS reference, found '}'", 5, 64)]),
            ({"onerr": "ACTIONS.x"}, [
                ("expected an EVENTS reference, found 'ACTIONS.x'", 5, 74),
            ]),
            ({"friends": "c,"}, [("expected a tier name, found '}'", 8, 21)]),
            ({"friends": "c a"}, [("expected '}', found 'a'", 8, 20)]),
        ],
    )
    def test_malformed_lists(self, lists, expected):
        assert _error_list(_list_source(**lists)) == expected


@pytest.mark.parametrize("keyword", ["ARCHITECTURE", "RECOVERY_PROTOCOL", "OUTCOMES"])
def test_repeated_opaque_section_is_reported_before_its_body(keyword):
    # Like every other section, a repeated opaque one is a duplicate at its
    # keyword, even when its own block never closes.
    tier = "AS a {\n" if keyword == "ARCHITECTURE" else "AS a { }\nAE b {\n"
    line = tier.count("\n") + 2
    source = f"{tier}  {keyword} {{ }}\n  {keyword} {{ x"
    assert _error_list(source) == [(f"duplicate {keyword} section", line, 3)]


# -- front-end outcomes on token mutants, pinned by sha256 -----------------


def front_end_outcome(source: str) -> str:
    """The lex error; or every parse error with its span; or the printed
    source and the rendered diagnostics."""
    try:
        tree = parse_text(source, "mutant.assl")
    except LexError as err:
        return f"lex {tuple(err.span)} {err.message}\n"
    except ParseError as err:
        return "".join(f"parse {tuple(e.span)} {e.message}\n" for e in err.errors)
    diagnostics = check_all(tree).diagnostics
    return pretty_print(tree) + "".join(f"{d.render()}\n" for d in diagnostics)


def mutant_corpora() -> dict[str, list[str]]:
    return {
        "missions": [
            m
            for k, pkg in enumerate(all_missions())
            for m in token_mutants(pkg.source(), k, 300)
        ],
        "swarm3": token_mutants(swarm_source(3), 100, 300),
        "random0-59": [
            m for seed in range(60) for m in token_mutants(random_spec_source(seed), seed, 20)
        ],
    }


def test_front_end_outcomes_on_token_mutants_are_pinned():
    pinned = json.loads(
        Path(__file__).with_name("data").joinpath("mutant_sha256.json").read_text()
    )
    digests = {}
    for corpus, mutants in mutant_corpora().items():
        outcomes = [front_end_outcome(m) for m in mutants]
        # Every corpus reaches both a parse error and a checked tree.
        assert any(o.startswith("parse ") for o in outcomes), corpus
        assert any(not o.startswith(("lex ", "parse ")) for o in outcomes), corpus
        digests[corpus] = hashlib.sha256("\0".join(outcomes).encode()).hexdigest()
    assert digests == pinned


# -- every node's span, pinned by sha256 -----------------------------------


def node_spans_text(value: object) -> str:
    """Each tree node's type name and span, in walk order: a node, then its
    fields in declaration order; tuples item by item."""
    if isinstance(value, Node):
        return f"{type(value).__name__} {tuple(value.span)}\n" + "".join(
            node_spans_text(getattr(value, f.name)) for f in fields(value)
        )
    if isinstance(value, tuple):
        return "".join(node_spans_text(item) for item in value)
    return ""


def test_node_spans_are_pinned():
    """Node spans pinned by sha256; one entry covers the 60 random specs."""
    pinned = json.loads(
        Path(__file__).with_name("data").joinpath("span_sha256.json").read_text()
    )
    texts = {
        pkg.name: node_spans_text(parse_text(pkg.source(), f"{pkg.name}.assl"))
        for pkg in all_missions()
    }
    for n in (1, 3, 10):
        texts[f"swarm{n}"] = node_spans_text(parse_text(swarm_source(n), "swarm.assl"))
    texts["random0-59"] = "".join(
        node_spans_text(parse_text(random_spec_source(seed), "random.assl")) for seed in range(60)
    )
    assert set(texts) == set(pinned)
    for key, text in texts.items():
        assert hashlib.sha256(text.encode()).hexdigest() == pinned[key], key

"""Parser structure, figure fidelity, error recovery."""

from __future__ import annotations

import pytest

from asslkit.nodes import (
    ActivationKind,
    CompareExpr,
    MetricRefExpr,
    NotExpr,
    OpaqueBlock,
)
from asslkit.parser import ParseError, parse_text
from asslkit.tokens import SourceSpan
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

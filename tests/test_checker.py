"""Resolution, typing, and semantic-rule diagnostics."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest
from specgen import swap_corpora

from asslkit import LexError, ParseError, check_all, parse_text


def diags_of(source: str) -> list[str]:
    spec = check_all(parse_text(source))
    return [f"{d.severity} {d.code}" for d in spec.diagnostics]


def codes_of(source: str) -> list[str]:
    spec = check_all(parse_text(source))
    return [d.code for d in spec.diagnostics]


BASE = """
AS sys {{ }}
AE unit {{
  POLICIES {{
    SELF_HEALING {{
      FLUENT busy {{
        INITIATED_BY {{ EVENTS.go }}
        TERMINATED_BY {{ EVENTS.fin }}
      }}
      MAPPING {{ CONDITIONS {{ {condition} }} DO_ACTIONS {{ ACTIONS.work }} }}
    }}
  }}
  ACTIONS {{
    ACTION work {{
      DOES {{ METRICS.done = true; }}
      TRIGGERS {{ EVENTS.fin }}
    }}
  }}
  EVENTS {{
    EVENT go {{ INJECTABLE }}
    EVENT fin {{ }}
  }}
  METRICS {{
    METRIC done {{ TYPE {{ boolean }} INITIAL {{ false }} }}
  }}
}}
"""


def test_figures_spec_is_clean(figures_spec):
    assert figures_spec.diagnostics == ()
    assert figures_spec.ok


def test_base_spec_is_clean():
    assert diags_of(BASE.format(condition="busy")) == []


def test_undefined_fluent_in_mapping():
    assert codes_of(BASE.format(condition="nonexistent")) == ["E-UNDEF"]


def test_duplicate_event():
    source = BASE.format(condition="busy").replace(
        "EVENT fin { }", "EVENT fin { } EVENT fin { }"
    )
    assert codes_of(source) == ["E-DUP"]


def test_undefined_reference_reported_once_each():
    source = """
    AS sys { }
    AE unit {
      ACTIONS {
        ACTION a {
          DOES { METRICS.missing = true; }
          TRIGGERS { EVENTS.alsoMissing }
        }
      }
    }
    """
    spec = check_all(parse_text(source))
    undef = [d for d in spec.diagnostics if d.code == "E-UNDEF"]
    assert len(undef) == 2


def test_assign_type_mismatch():
    source = BASE.format(condition="busy").replace(
        "METRICS.done = true;", 'METRICS.count = "text";'
    ).replace(
        "METRIC done { TYPE { boolean } INITIAL { false } }",
        "METRIC count { TYPE { integer } INITIAL { 0 } }",
    )
    assert "E-TYPE" in codes_of(source)


def test_comparison_type_mismatch():
    source = BASE.format(condition="busy").replace(
        "EVENT go { INJECTABLE }",
        "EVENT go { INJECTABLE GUARDS { METRICS.count > true } }",
    ).replace(
        "METRIC done { TYPE { boolean } INITIAL { false } }",
        "METRIC count { TYPE { integer } INITIAL { 0 } }"
        " METRIC done { TYPE { boolean } INITIAL { false } }",
    )
    assert "E-TYPE" in codes_of(source)


def test_boolean_guard_accepted(figures_spec):
    # NOT over a boolean metric types as boolean: no diagnostics on figures,
    # and the program is built, so no name or type error stopped the check.
    spec = check_all(figures_spec.tree)
    assert spec.diagnostics == ()
    assert spec.program is not None


def test_ordering_comparison_on_text_rejected():
    source = BASE.format(condition="busy").replace(
        "EVENT go { INJECTABLE }",
        'EVENT go { INJECTABLE GUARDS { METRICS.tag >= "a" } }',
    ).replace(
        "METRIC done { TYPE { boolean } INITIAL { false } }",
        'METRIC tag { TYPE { text } INITIAL { "a" } }'
        " METRIC done { TYPE { boolean } INITIAL { false } }",
    )
    assert "E-TYPE" in codes_of(source)


def test_metric_initial_must_match_type():
    source = BASE.format(condition="busy").replace(
        "METRIC done { TYPE { boolean } INITIAL { false } }",
        "METRIC done { TYPE { boolean } INITIAL { 3 } }",
    )
    assert "E-TYPE" in codes_of(source)


def test_fluent_overlap():
    source = BASE.format(condition="busy").replace(
        "TERMINATED_BY { EVENTS.fin }", "TERMINATED_BY { EVENTS.go }"
    )
    assert "E-FLUENT-OVERLAP" in codes_of(source)


def test_call_cycle():
    source = """
    AS sys { }
    AE unit {
      ACTIONS {
        ACTION a { DOES { call ACTIONS.b; } }
        ACTION b { DOES { call ACTIONS.a; } }
      }
    }
    """
    assert codes_of(source) == ["E-CYCLE"]


def test_self_call_cycle():
    source = """
    AS sys { ACTIONS { ACTION a { DOES { call ACTIONS.a; } } } }
    """
    assert codes_of(source) == ["E-CYCLE"]


def test_unmapped_fluent_warns():
    source = BASE.format(condition="busy").replace(
        "MAPPING { CONDITIONS { busy } DO_ACTIONS { ACTIONS.work } }",
        """MAPPING { CONDITIONS { busy } DO_ACTIONS { ACTIONS.work } }
      FLUENT lonely {
        INITIATED_BY { EVENTS.go }
        TERMINATED_BY { EVENTS.fin }
      }""",
    )
    diags = diags_of(source)
    assert diags == ["warning W-UNREACHABLE"]


def test_unraisable_event_warns():
    source = BASE.format(condition="busy").replace(
        "EVENT fin { }", "EVENT fin { } EVENT orphan { }"
    )
    assert diags_of(source) == ["warning W-UNREACHABLE"]


def test_injectable_event_is_raisable():
    # go has no activation but carries the INJECTABLE flag: no warning.
    assert diags_of(BASE.format(condition="busy")) == []


def test_cross_policy_condition_rejected():
    source = BASE.format(condition="busy").replace(
        "MAPPING { CONDITIONS { busy } DO_ACTIONS { ACTIONS.work } }",
        """MAPPING { CONDITIONS { busy } DO_ACTIONS { ACTIONS.work } }
    }
    OTHER {
      FLUENT other {
        INITIATED_BY { EVENTS.go }
        TERMINATED_BY { EVENTS.fin }
      }
      MAPPING { CONDITIONS { busy, other } DO_ACTIONS { ACTIONS.work } }""",
    )
    assert "E-SCOPE" in codes_of(source)


def test_empty_policy_rejected():
    codes = codes_of("AS sys { POLICIES { P { } } }")
    assert "E-EMPTY" in codes


def test_channel_capacity_bound():
    source = """
    AS sys { }
    ASIP { CHANNELS { CHANNEL c { CAPACITY { 0 } } } }
    """
    assert "E-CAPACITY" in codes_of(source)


def test_elapsed_period_bound():
    source = BASE.format(condition="busy").replace(
        "EVENT go { INJECTABLE }", "EVENT go { ACTIVATION { ELAPSED { 0 } } }"
    )
    assert "E-CAPACITY" in codes_of(source)


def test_binding_not_visible_in_guards():
    source = """
    AS sys {
      ACTIONS {
        ACTION a {
          GUARDS { someBinding }
          DOES { someBinding = call ACTIONS.b; }
        }
        ACTION b { DOES { METRICS.m = true; } }
      }
      METRICS { METRIC m { TYPE { boolean } INITIAL { false } } }
    }
    """
    assert "E-UNDEF" in codes_of(source)


def test_binding_visible_in_ensures():
    source = """
    AS sys {
      ACTIONS {
        ACTION a {
          ENSURES { ok }
          DOES { ok = call ACTIONS.b; }
        }
        ACTION b { DOES { METRICS.m = true; } }
      }
      METRICS { METRIC m { TYPE { boolean } INITIAL { false } } }
    }
    """
    assert codes_of(source) == []


def test_duplicate_tier_names():
    assert "E-DUP" in codes_of("AS sys { } AE sys { }")


def test_duplicate_tier_reports_only_its_e_dup():
    # The second tier 'unit' is not registered, so its own references are
    # not looked up in the first one, where five of them would be undefined.
    source = BASE.format(condition="busy").replace(
        "AS sys { }", "AS sys { }\nAE unit { EVENTS { EVENT go { INJECTABLE } } }"
    )
    spec = check_all(parse_text(source, "unit.assl"))
    assert [d.render() for d in spec.diagnostics] == [
        "unit.assl:4:1: error E-DUP: duplicate declaration of tier 'unit'"
    ]


def test_message_reference_falls_back_to_shared_protocol():
    # AEIP.MESSAGES.x with no local AEIP resolves against the ASIP
    source = """
    AS sys { }
    ASIP {
      MESSAGES { MESSAGE ping { SENDER { unit } RECEIVER { unit } } }
      CHANNELS { CHANNEL link { CAPACITY { 1 } } }
    }
    AE unit {
      EVENTS {
        EVENT got { ACTIVATION { RECEIVED { AEIP.MESSAGES.ping } } }
      }
      ACTIONS {
        ACTION poke { DOES { send AEIP.MESSAGES.ping over CHANNELS.link; } }
      }
    }
    """
    spec = check_all(parse_text(source))
    errors = [d for d in spec.diagnostics if d.severity == "error"]
    assert errors == []
    assert spec.symbols.resolve_message("unit", "ping") == (
        "ASIP",
        spec.symbols.messages[("ASIP", "ping")],
    )
    # a local AEIP declaration shadows the shared one deterministically
    local = source.replace(
        "EVENTS {",
        """AEIP { MESSAGES { MESSAGE ping { SENDER { unit } RECEIVER { sys } } } }
      EVENTS {""",
    )
    spec = check_all(parse_text(local))
    scope, decl = spec.symbols.resolve_message("unit", "ping")
    assert scope == "unit" and decl.receiver == "sys"


def test_diagnostics_are_deterministic_and_ordered():
    source = BASE.format(condition="nope").replace(
        "EVENT fin { }", "EVENT fin { } EVENT fin { }"
    )
    first = check_all(parse_text(source)).diagnostics
    second = check_all(parse_text(source)).diagnostics
    assert first == second
    keys = [(d.span.file, d.span.line, d.span.column, d.code) for d in first]
    assert keys == sorted(keys)


def test_diagnostic_render_format():
    spec = check_all(parse_text(BASE.format(condition="nope"), "unit.assl"))
    (diag,) = spec.diagnostics
    rendered = diag.render()
    assert rendered.startswith("unit.assl:")
    parts = rendered.split(": ", 2)
    file_line_col = parts[0].split(":")
    assert len(file_line_col) == 3
    assert parts[1] == "error E-UNDEF"


def test_resolve_then_types_then_semantics_composition(figures_spec):
    # Checking the figures tree again registers every tier and finds no
    # name, type or rule diagnostic; the program built covers every tier.
    spec = check_all(figures_spec.tree)
    assert spec.diagnostics == ()
    assert set(spec.symbols.tiers) == {t.name for t in figures_spec.tree.tiers()}
    assert spec.program is not None
    assert spec.program.elements == tuple(spec.symbols.tiers)


def test_diagnostic_spans_lie_inside_source():
    source = BASE.format(condition="nope")
    spec = check_all(parse_text(source, "unit.assl"))
    lines = source.split("\n")
    for diag in spec.diagnostics:
        assert diag.span.file == "unit.assl"
        assert 1 <= diag.span.line <= len(lines)
        line = lines[diag.span.line - 1]
        assert 1 <= diag.span.column <= len(line) + 1
        start = diag.span.column - 1
        assert diag.span.length <= len(line) - start


_PROTOCOL = """  AEIP {
    MESSAGES { MESSAGE ping { SENDER { sys } RECEIVER { unit } } }
    CHANNELS { CHANNEL link { CAPACITY { 1 } } }
  }
  METRICS {"""
_COUNT = "METRIC count { TYPE { integer } INITIAL { 0 } }\n    METRIC done"


# One small spec per diagnostic site of resolution and typing: each is the
# clean base spec with the listed replacements made.
@pytest.mark.parametrize(
    "edits, expected",
    [
        pytest.param(
            [("      MAPPING {", "      FLUENT busy { INITIATED_BY { EVENTS.go }"
              " TERMINATED_BY { EVENTS.fin } }\n      MAPPING {")],
            ["unit.assl:10:7: error E-DUP: duplicate declaration of fluent 'busy' in tier unit"],
            id="duplicate-fluent",
        ),
        pytest.param(
            [("  METRICS {", _PROTOCOL),
             ("RECEIVER { unit } } }", "RECEIVER { unit } }"
              " MESSAGE ping { SENDER { unit } RECEIVER { sys } } }")],
            ["unit.assl:24:74: error E-DUP: duplicate message 'ping'"],
            id="duplicate-message",
        ),
        pytest.param(
            [("  METRICS {", _PROTOCOL),
             ("CAPACITY { 1 } } }", "CAPACITY { 1 } } CHANNEL link { CAPACITY { 2 } } }")],
            ["unit.assl:25:56: error E-DUP: duplicate channel 'link'"],
            id="duplicate-channel",
        ),
        pytest.param(
            [("DO_ACTIONS { ACTIONS.work }", "DO_ACTIONS { ACTIONS.nope }")],
            ["unit.assl:10:50: error E-UNDEF: undefined action 'ACTIONS.nope'"],
            id="undefined-mapped-action",
        ),
        pytest.param(
            [("EVENT fin { }", "EVENT fin { ACTIVATION { CHANGED { METRICS.nope } } }")],
            ["unit.assl:21:40: error E-UNDEF: undefined metric 'METRICS.nope'"],
            id="undefined-changed-metric",
        ),
        pytest.param(
            [("EVENT fin { }", "EVENT fin { ACTIVATION { RECEIVED { AEIP.MESSAGES.nope } } }")],
            ["unit.assl:21:41: error E-UNDEF: undefined message 'AEIP.MESSAGES.nope'"],
            id="undefined-received-message",
        ),
        pytest.param(
            [("DOES { METRICS.done", "DOES { call ACTIONS.nope; METRICS.done")],
            ["unit.assl:15:19: error E-UNDEF: undefined action 'ACTIONS.nope'"],
            id="undefined-called-action",
        ),
        pytest.param(
            [("DOES { METRICS.done",
              "DOES { send AEIP.MESSAGES.nope over CHANNELS.gone; METRICS.done")],
            [
                "unit.assl:15:19: error E-UNDEF: undefined message 'AEIP.MESSAGES.nope'",
                "unit.assl:15:43: error E-UNDEF: undefined channel 'CHANNELS.gone'",
            ],
            id="undefined-sent-message-and-channel",
        ),
        pytest.param(
            [("AE unit {", "AE unit {\n  FRIENDS { ghost }")],
            ["unit.assl:3:1: error E-UNDEF: undefined tier 'ghost' in FRIENDS"],
            id="undefined-friend",
        ),
        pytest.param(
            [("  METRICS {", _PROTOCOL), ("SENDER { sys }", "SENDER { ghost }")],
            ["unit.assl:24:24: error E-UNDEF: undefined tier 'ghost' in message endpoints"],
            id="undefined-message-endpoint",
        ),
        pytest.param(
            [("AS sys { }", "AS sys { }\nASIP { MESSAGES {"
              " MESSAGE m { SENDER { ghost } RECEIVER { nowhere } } } }")],
            [
                "unit.assl:3:27: error E-UNDEF: undefined tier 'ghost' in message endpoints",
                "unit.assl:3:27: error E-UNDEF: undefined tier 'nowhere' in message endpoints",
            ],
            id="undefined-shared-message-endpoints",
        ),
        pytest.param(
            [("EVENT go { INJECTABLE }", "EVENT go { INJECTABLE GUARDS { METRICS.nope } }")],
            ["unit.assl:20:36: error E-UNDEF: undefined metric 'METRICS.nope'"],
            id="undefined-metric-in-expression",
        ),
        pytest.param(
            [("EVENT go { INJECTABLE }", "EVENT go { INJECTABLE GUARDS { FLUENTS.nope } }")],
            ["unit.assl:20:36: error E-UNDEF: undefined fluent 'FLUENTS.nope'"],
            id="undefined-fluent-in-expression",
        ),
        pytest.param(
            [("METRICS.done = true;", "METRICS.done = ok;")],
            ["unit.assl:15:29: error E-UNDEF: 'ok' is not a binding available here"],
            id="unavailable-binding",
        ),
        pytest.param(
            [("METRIC done", _COUNT),
             ("EVENT go { INJECTABLE }", "EVENT go { INJECTABLE GUARDS { METRICS.count } }")],
            ["unit.assl:20:36: error E-TYPE: event guard must be boolean, not integer"],
            id="guard-not-boolean",
        ),
        pytest.param(
            [("METRIC done", _COUNT),
             ("EVENT go { INJECTABLE }", "EVENT go { INJECTABLE GUARDS { NOT METRICS.count } }")],
            ["unit.assl:20:36: error E-TYPE: NOT needs a boolean, not integer"],
            id="not-on-integer",
        ),
        pytest.param(
            [("METRIC done", _COUNT),
             ("EVENT go { INJECTABLE }",
              "EVENT go { INJECTABLE GUARDS { METRICS.count AND true } }")],
            ["unit.assl:20:50: error E-TYPE: AND needs boolean operands, not integer"],
            id="and-on-integer",
        ),
    ],
)
def test_diagnostic_site(edits, expected):
    source = BASE.format(condition="busy")
    for old, new in edits:
        assert source.count(old) == 1, old
        source = source.replace(old, new)
    spec = check_all(parse_text(source, "unit.assl"))
    assert [d.render() for d in spec.diagnostics] == expected


_UNDEF_ACTION = ("DO_ACTIONS { ACTIONS.work }", "DO_ACTIONS { ACTIONS.nope }")
_BAD_INITIAL = ("TYPE { boolean } INITIAL { false }", "TYPE { boolean } INITIAL { 3 }")


# Names come before types, and types before rules: each case pairs an error
# of a higher group with a finding of a lower one, in another declaration.
@pytest.mark.parametrize(
    "higher, lower, expected, hidden",
    [
        pytest.param(_UNDEF_ACTION, _BAD_INITIAL, "E-UNDEF", "E-TYPE", id="name-hides-type"),
        pytest.param(
            _UNDEF_ACTION, ("TERMINATED_BY { EVENTS.fin }", "TERMINATED_BY { EVENTS.go }"),
            "E-UNDEF", "E-FLUENT-OVERLAP", id="name-hides-rule",
        ),
        pytest.param(
            _BAD_INITIAL,
            ("DO_ACTIONS { ACTIONS.work } }",
             "DO_ACTIONS { ACTIONS.work } }\n      FLUENT lonely {"
             " INITIATED_BY { EVENTS.go } TERMINATED_BY { EVENTS.fin } }"),
            "E-TYPE", "W-UNREACHABLE", id="type-hides-unmapped-fluent",
        ),
        pytest.param(
            _BAD_INITIAL, ("DOES { METRICS.done", "DOES { call ACTIONS.work; METRICS.done"),
            "E-TYPE", "E-CYCLE", id="type-hides-call-cycle",
        ),
    ],
)
def test_higher_group_hides_lower_one(higher, lower, expected, hidden):
    source = BASE.format(condition="busy")
    for old, _new in (higher, lower):
        assert source.count(old) == 1, old
    assert codes_of(source.replace(*lower)) == [hidden]
    assert codes_of(source.replace(*higher)) == [expected]
    assert codes_of(source.replace(*lower).replace(*higher)) == [expected]


# -- rendered diagnostics on swap mutants, pinned by sha256 -----------------


def test_diagnostics_on_swap_mutants_are_pinned():
    """Each swap mutant's outcome: "not parsed", or "checked" and every
    rendered diagnostic, clean mutants included; one digest per corpus."""
    pinned = json.loads(
        Path(__file__).with_name("data").joinpath("check_sha256.json").read_text()
    )
    digests = {}
    codes: set[str] = set()
    for corpus, mutants in swap_corpora().items():
        outcomes = []
        for source in mutants:
            try:
                tree = parse_text(source, "mutant.assl")
            except (LexError, ParseError):
                outcomes.append("not parsed\n")
                continue
            diagnostics = check_all(tree).diagnostics
            codes.update(d.code for d in diagnostics)
            outcomes.append("checked\n" + "".join(f"{d.render()}\n" for d in diagnostics))
        digests[corpus] = hashlib.sha256("\0".join(outcomes).encode()).hexdigest()
    # The corpus keeps reaching each group of diagnostics.
    assert {"E-UNDEF", "E-DUP", "E-TYPE", "E-FLUENT-OVERLAP", "W-UNREACHABLE"} <= codes
    assert digests == pinned

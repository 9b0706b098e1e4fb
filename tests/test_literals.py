"""One literal syntax: scenarios, properties and --set read values as the lexer does,
and reals print in a form the lexer reads back."""

from __future__ import annotations

import math

import pytest

from asslkit import check_all, parse_text, pretty_print, tokenize
from asslkit.cli import main
from asslkit.nodes import ValueType, render_value
from asslkit.runtime import ScenarioError, SetMetric, parse_scenario
from asslkit.runtime.scenario import parse_value
from asslkit.verifier import PropertyError, parse_property

SPEC = """
AS sys { }
AE unit {
  POLICIES {
    P {
      FLUENT f { INITIATED_BY { EVENTS.go } TERMINATED_BY { EVENTS.stop } }
      MAPPING { CONDITIONS { f } DO_ACTIONS { ACTIONS.a } }
    }
  }
  ACTIONS { ACTION a { DOES { METRICS.n = 1; } } }
  EVENTS {
    EVENT go { INJECTABLE }
    EVENT stop { INJECTABLE }
  }
  METRICS {
    METRIC r { TYPE { real } INITIAL { 0.5 } }
    METRIC n { TYPE { integer } INITIAL { 0 } }
    METRIC t { TYPE { text } INITIAL { "a" } }
  }
}
"""

# Python's int() and float() accept each of these; the spec lexer does not.
FOREIGN = ["٣", "1_000", "nan", "inf", "1e5"]


@pytest.fixture(scope="module")
def spec():
    checked = check_all(parse_text(SPEC))
    assert checked.diagnostics == ()
    return checked


@pytest.mark.parametrize("metric", ["r", "n"])
@pytest.mark.parametrize("literal", FOREIGN)
def test_foreign_number_is_rejected_in_a_scenario(spec, metric, literal):
    kind = "real" if metric == "r" else "integer"
    with pytest.raises(ScenarioError, match=f"not a literal of type {kind}: "):
        parse_scenario(f"tick 0 set unit.{metric} {literal}", spec)


@pytest.mark.parametrize("metric", ["r", "n"])
@pytest.mark.parametrize("literal", FOREIGN)
def test_foreign_number_is_rejected_in_a_property(spec, metric, literal):
    with pytest.raises(PropertyError):
        parse_property(f"G (metric unit.{metric} = {literal})", spec)


@pytest.mark.parametrize("literal", FOREIGN)
def test_foreign_number_in_set_flag_is_a_usage_error(spec, literal, tmp_path, capsys):
    spec_path, prop_path = tmp_path / "s.assl", tmp_path / "p.prop"
    spec_path.write_text(SPEC)
    prop_path.write_text("G true\n")
    argv = ["verify", str(spec_path), "--prop", str(prop_path)]
    assert main(argv + ["--set", f"r={literal}"]) == 2
    assert main(argv + ["--set", "r=1.5"]) == 0


def test_literals_of_the_spec_syntax_are_read(spec):
    assert parse_value("-0.25", ValueType.REAL) == -0.25
    assert parse_value("-3", ValueType.INTEGER) == -3
    assert parse_value('"two words"', ValueType.TEXT) == "two words"
    assert parse_value("false", ValueType.BOOLEAN) is False
    wrong = [
        ("3", ValueType.REAL),
        ("3.0", ValueType.INTEGER),
        ("unquoted", ValueType.TEXT),
        ("True", ValueType.BOOLEAN),
    ]
    for text, value_type in wrong:
        with pytest.raises(ScenarioError, match="not a literal of type"):
            parse_value(text, value_type)
    prop = parse_property('G ((metric unit.r != 1.5) | (metric unit.t = "a"))', spec)
    assert prop.p.render() == "((metric unit.r != 1.5) OR (metric unit.t = \"a\"))"


def test_text_value_with_spaces_reads_back(spec):
    # generated suites set text metrics to spec literals such as "wide field"
    stimulus = SetMetric(("unit", "t"), "two  words")
    (step,) = parse_scenario(f"tick 0 {stimulus.render()}", spec).steps
    assert step == (0, stimulus)


def test_lexer_limits_hold_for_values():
    with pytest.raises(ScenarioError, match="integer literal too long"):
        parse_value("9" * 5000, ValueType.INTEGER)
    with pytest.raises(ScenarioError, match="real literal out of range"):
        parse_value("1" * 400 + ".0", ValueType.REAL)


def test_non_ascii_letters_are_unexpected_in_properties(spec):
    with pytest.raises(PropertyError, match="unexpected character"):
        parse_property("G (fluent unit.fé)", spec)


EXTREME_REALS = [0.00001, 1e16, 5e-324, 1.7976931348623157e308, -0.0]


@pytest.mark.parametrize("value", EXTREME_REALS)
def test_real_renders_as_a_literal_the_lexer_reads_back(spec, value):
    text = render_value(value)
    (read,) = tokenize(text).values
    assert read == value and math.copysign(1, read) == math.copysign(1, value)
    stimulus = SetMetric(("unit", "r"), value)
    (step,) = parse_scenario(f"tick 0 {stimulus.render()}", spec).steps
    assert repr(step[1].value) == repr(value)


def test_spec_with_extreme_reals_prints_and_parses_back():
    source = SPEC.replace("INITIAL { 0.5 }", "INITIAL { 0.00001 }")
    tree = parse_text(source)
    printed = pretty_print(tree)
    assert "INITIAL { 0.00001 }" in printed
    assert parse_text(printed) == tree

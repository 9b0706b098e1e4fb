"""Tokenizer behavior: keywords, references, literals, spans, errors."""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import reference_tokenize
from specgen import random_spec_source, swarm_source

from asslkit.cli import main
from asslkit.lexer import tokenize
from asslkit.missions import all_missions
from asslkit.tokens import KEYWORDS, LexError, LineTable, SourceSpan, TokenKind


def token_rows(source: str, file: str = "<input>") -> list[tuple[TokenKind, str, SourceSpan, object]]:
    """Each token of ``source`` read from the columns as (kind, text, span, value),
    the fields of the reference tokenizer's records in their order."""
    tokens = tokenize(source, file)
    spans = map(tokens.span, range(len(tokens)))
    return list(zip(tokens.kinds, tokens.texts, spans, tokens.values))


def kinds(source: str) -> list[str]:
    return [kind.name for kind in tokenize(source).kinds]


def lex_error(source: str) -> tuple[str, int, int, int]:
    """(message, line, column, length) of the error ``source`` lexes to."""
    with pytest.raises(LexError) as exc:
        tokenize(source)
    span = exc.value.span
    return exc.value.message, span.line, span.column, span.length


def test_records_are_immutable_values():
    span = SourceSpan("f.assl", 2, 3)
    lines = LineTable("f.assl", (0, 4))
    assert span.length == 0
    assert span.render() == "f.assl:2:3"
    assert repr(span) == "SourceSpan(file='f.assl', line=2, column=3, length=0)"
    assert lines.span(6, 1) == SourceSpan("f.assl", 2, 3, 1)
    with pytest.raises(AttributeError):
        span.line = 4  # type: ignore[misc]
    with pytest.raises(AttributeError):
        lines.starts = ()  # type: ignore[misc]
    assert tokenize("x", "f.assl").span(0) == SourceSpan("f.assl", 1, 1, 1)


def test_fluent_header():
    assert kinds("FLUENT inSecurityCheck {") == ["KW_FLUENT", "IDENT", "LBRACE"]


def test_empty_input():
    assert token_rows("") == [] and len(tokenize("")) == 0


def test_guard_expression_reference():
    tokens = tokenize("NOT METRICS.thereIsInsecureMsg")
    assert tokens.kinds == [TokenKind.KW_NOT, TokenKind.REF]
    assert tokens.values[1] == ("METRICS", "thereIsInsecureMsg")


def test_aeip_message_reference():
    tokens = tokenize("AEIP.MESSAGES.privateMessage")
    assert tokens.kinds == [TokenKind.REF]
    assert tokens.values == [("AEIP", "MESSAGES", "privateMessage")]


def test_namespace_word_without_dot_is_section_keyword():
    assert kinds("EVENTS {") == ["KW_EVENTS", "LBRACE"]
    assert kinds("EVENTS.x") == ["REF"]


def test_fluents_word_alone_is_identifier():
    # FLUENTS is only a reference namespace; bare, it is a plain name.
    assert kinds("FLUENTS") == ["IDENT"]
    assert kinds("FLUENTS.busy") == ["REF"]


def test_policy_name_keywords():
    assert kinds("SELF_PROTECTING SELF_HEALING SELF_CONFIGURING SELF_SCHEDULING") == [
        "KW_SELF_PROTECTING",
        "KW_SELF_HEALING",
        "KW_SELF_CONFIGURING",
        "KW_SELF_SCHEDULING",
    ]


def test_statement_keywords_are_lower_case():
    assert kinds("call send over fail") == ["KW_CALL", "KW_SEND", "KW_OVER", "KW_FAIL"]
    # Upper-case variants are plain identifiers, not keywords.
    assert kinds("CALL") == ["IDENT"]


# Every keyword, spelled out once here, because ``KEYWORDS`` is derived from
# ``TokenKind`` and the reference tokenizer reads it: a slip in that
# derivation would reach the reference too.
KEYWORD_SPELLINGS = (
    "AS", "ASIP", "AE", "AEIP", "SLO", "POLICIES", "ACTIONS", "EVENTS", "METRICS",
    "FRIENDS", "ARCHITECTURE", "MANAGED_ELEMENTS", "RECOVERY_PROTOCOL",
    "BEHAVIOR_MODELS", "OUTCOMES", "MESSAGES", "CHANNELS", "FUNCTIONS", "MESSAGE",
    "CHANNEL", "FUNCTION", "SENDER", "RECEIVER", "CAPACITY", "FLUENT", "INITIATED_BY",
    "TERMINATED_BY", "MAPPING", "CONDITIONS", "DO_ACTIONS", "EVENT", "GUARDS",
    "ACTIVATION", "SENT", "RECEIVED", "CHANGED", "ELAPSED", "INJECTABLE", "ACTION",
    "ENSURES", "DOES", "ONERR_DOES", "TRIGGERS", "ONERR_TRIGGERS", "METRIC", "TYPE",
    "INITIAL", "NOT", "AND", "OR", "SELF_PROTECTING", "SELF_HEALING",
    "SELF_CONFIGURING", "SELF_SCHEDULING", "call", "send", "over", "fail",
)


def test_keywords_are_pinned():
    assert len(KEYWORD_SPELLINGS) == 58
    assert list(KEYWORDS) == list(KEYWORD_SPELLINGS)
    for word in KEYWORD_SPELLINGS:
        assert kinds(word) == ["KW_" + word.upper()], word


def test_literals():
    tokens = tokenize('true false 42 -3 2.5 -0.25 "hello world"')
    assert [kind.name for kind in tokens.kinds] == [
        "BOOL", "BOOL", "INT", "INT", "REAL", "REAL", "TEXT",
    ]
    assert tokens.values == [True, False, 42, -3, 2.5, -0.25, "hello world"]


def test_comparison_operators():
    assert kinds("= != < <= > >=") == ["EQUALS", "NE", "LT", "LE", "GT", "GE"]


def test_comments_and_crlf():
    assert kinds("AS x { // comment here\r\n}") == ["KW_AS", "IDENT", "LBRACE", "RBRACE"]


def test_line_and_column_tracking():
    slo = next(span for _, text, span, _ in token_rows("AS ants {\n  SLO { }\n}") if text == "SLO")
    assert (slo.line, slo.column, slo.length) == (2, 3, 3)


def test_spans_lie_inside_source():
    source = 'EVENT a {\n GUARDS { METRICS.m = "x" }\n}'
    lines = source.split("\n")
    for _, text, span, _ in token_rows(source):
        line = lines[span.line - 1]
        start = span.column - 1
        assert line[start : start + span.length] == text


def test_illegal_character_has_span():
    assert lex_error("AS x {\n  @bad\n}") == ("unexpected character '@'", 2, 3, 1)


def test_bang_without_equals_rejected():
    assert lex_error("GUARDS { ! METRICS.m }") == ("expected '=' after '!'", 1, 10, 1)
    assert lex_error("a !") == ("expected '=' after '!'", 1, 3, 1)


def test_unterminated_text_rejected():
    assert lex_error('fail "no closing quote') == ("unterminated text literal", 1, 6, 1)
    assert lex_error('x\n  "') == ("unterminated text literal", 2, 3, 1)


def test_text_literal_stops_at_end_of_line():
    message = "text literal spans end of line"
    assert lex_error('fail "abc\n"') == (message, 1, 6, 1)
    assert lex_error('fail "abc\r\n"') == (message, 1, 6, 1)
    assert lex_error('fail "abc\r"') == (message, 1, 6, 1)


def test_malformed_aeip_reference_rejected():
    message = "qualified AEIP references take the form AEIP.MESSAGES.<name>"
    assert lex_error("AEIP.CHANNELS.c") == (message, 1, 1, 8)
    assert lex_error("x AEIP.") == (message, 1, 3, 1)
    assert lex_error("AEIP.MESSAGESX.m") == (message, 1, 1, 9)
    # The reported length is that of the identifier-continue run after the
    # dot, digits included.
    assert lex_error("AEIP.2x") == (message, 1, 1, 2)
    assert lex_error("AEIP.MESSAGES x") == ("expected '.' after AEIP.MESSAGES", 1, 14, 1)
    assert lex_error("AEIP.MESSAGES") == ("expected '.' after AEIP.MESSAGES", 1, 14, 1)


def test_reference_needs_a_name_after_the_dot():
    message = "expected a name after '.'"
    assert lex_error("EVENTS.9") == (message, 1, 8, 1)
    assert lex_error("\n FLUENTS. x") == (message, 2, 10, 1)
    assert lex_error("AEIP.MESSAGES.") == (message, 1, 15, 1)
    assert lex_error("AEIP.MESSAGES.é") == (message, 1, 15, 1)
    # A dot after any other word is a character of its own.
    assert lex_error("x.y") == ("unexpected character '.'", 1, 2, 1)
    assert lex_error("MESSAGES.y") == ("unexpected character '.'", 1, 9, 1)


def test_real_needs_fraction_digits():
    message = "real literals need digits after the decimal point"
    assert lex_error("METRICS.m = 3.") == (message, 1, 14, 1)
    assert lex_error("-12.x") == (message, 1, 4, 1)


def test_stray_carriage_return():
    assert lex_error("AS x\r{") == ("stray carriage return", 1, 5, 1)
    assert lex_error("x\n\r") == ("stray carriage return", 2, 1, 1)
    assert lex_error("x\r\r\n") == ("stray carriage return", 1, 2, 1)


def test_non_ascii_letters_and_digits_are_unexpected():
    assert lex_error("é") == ("unexpected character 'é'", 1, 1, 1)
    assert lex_error("abé") == ("unexpected character 'é'", 1, 3, 1)
    assert lex_error("x = ٣") == ("unexpected character '٣'", 1, 5, 1)
    assert lex_error("3٣") == ("unexpected character '٣'", 1, 2, 1)
    assert lex_error("a\u00a0b") == ("unexpected character '\\xa0'", 1, 2, 1)


def test_comment_ending_in_crlf():
    rows = token_rows("a // c\r\nb\r\n// last\r\n")
    assert [(text, span.line, span.column) for _, text, span, _ in rows] == [("a", 1, 1), ("b", 2, 1)]


def test_tab_counts_as_one_column():
    ((_, _, span, _),) = token_rows("\t\tx")
    assert (span.line, span.column) == (1, 3)


def test_second_decimal_point_is_unexpected():
    assert lex_error("1.5.3") == ("unexpected character '.'", 1, 4, 1)
    assert kinds("1.5 3") == ["REAL", "INT"]


def test_lone_minus_is_unexpected():
    assert lex_error("-") == ("unexpected character '-'", 1, 1, 1)
    assert lex_error("x - 3") == ("unexpected character '-'", 1, 3, 1)
    assert kinds("3-4") == ["INT", "INT"]


class TestNumericRange:
    """Literals Python cannot represent are lex errors on the literal's span."""

    def test_integer_past_the_digit_limit(self):
        digits = "9" * 5000
        assert lex_error(f"x = {digits}") == ("integer literal too long", 1, 5, 5000)
        assert lex_error(f"\n -{digits}") == ("integer literal too long", 2, 2, 5001)

    def test_integer_within_the_limit(self):
        assert tokenize("9" * 4000).values == [int("9" * 4000)]

    def test_real_that_overflows(self):
        text = "1" * 400 + ".5"
        assert lex_error(f"x {text}") == ("real literal out of range", 1, 3, 402)
        assert lex_error(f"-{text}") == ("real literal out of range", 1, 1, 403)

    def test_long_real_within_range(self):
        assert tokenize("0." + "0" * 400 + "1").values == [0.0]
        assert tokenize("1" * 300 + ".0").values == [float("1" * 300)]

    @pytest.mark.parametrize(
        "value_type, literal, message",
        [
            ("integer", "9" * 5000, "integer literal too long"),
            ("real", "1" * 400 + ".0", "real literal out of range"),
        ],
        ids=["integer", "real"],
    )
    def test_check_reports_e_lex(self, tmp_path, capsys, value_type, literal, message):
        spec = tmp_path / "big.assl"
        spec.write_text(
            "AS sys {\n  METRICS {\n"
            f"    METRIC m {{ TYPE {{ {value_type} }} INITIAL {{ {literal} }} }}\n"
            "  }\n}\n"
        )
        column = len(f"    METRIC m {{ TYPE {{ {value_type} }} INITIAL {{ ") + 1
        assert main(["check", str(spec)]) == 1
        captured = capsys.readouterr()
        assert captured.out == f"{spec}:3:{column}: error E-LEX: {message}\n"
        assert captured.err == ""


# -- the tokenizer against the character-by-character oracle ----------------

MUTATIONS = (
    "\r", "\r\n", "!", '"', "-", "AEIP.", "AEIP.MESSAGES.", "EVENTS.", "FLUENTS.",
    "3.", "é", "٣", ".", "//", "\t", "\n",
)


def lex_outcome(lex, source: str):
    """Every token's kind, text, span, value and value type, or the error.

    ``lex`` is ``token_rows`` or ``reference_tokenize``; both give each token
    as (kind, text, span, value).
    """
    try:
        rows = lex(source, "in.assl")
    except LexError as err:
        return ("error", err.message, err.span)
    return [(kind, text, span, value, type(value)) for kind, text, span, value in rows]


def mutant(rng: random.Random, source: str) -> str:
    """A window of ``source`` with a few insertions, deletions or duplications."""
    start = rng.randrange(len(source))
    text = source[start : start + rng.randint(0, 400)]
    for _ in range(rng.randint(1, 4)):
        at = rng.randint(0, len(text))
        roll = rng.random()
        if roll < 0.6:
            text = text[:at] + rng.choice(MUTATIONS) + text[at:]
        elif roll < 0.8:
            text = text[:at] + text[at + rng.randint(1, 12) :]
        else:
            text = text[:at] + text[at : at + rng.randint(1, 12)] + text[at:]
    return text


def differential_inputs() -> list[str]:
    """Missions, swarms, random specs and seeded mutants of them."""
    bases = [pkg.source() for pkg in all_missions()]
    bases += [swarm_source(n) for n in (1, 3, 10)]
    bases += [random_spec_source(seed) for seed in range(120)]
    rng = random.Random(20261018)
    mutants = [mutant(rng, rng.choice(bases)) for _ in range(3000)]
    return bases + mutants


def test_tokenize_matches_the_reference_tokenizer():
    outcomes = {"tokens": 0, "errors": 0}
    for source in differential_inputs():
        expected = lex_outcome(reference_tokenize, source)
        assert lex_outcome(token_rows, source) == expected, repr(source)
        outcomes["errors" if isinstance(expected, tuple) else "tokens"] += 1
    # The mutants reach both outcomes in quantity.
    assert min(outcomes.values()) > 500, outcomes


FRAGMENTS = MUTATIONS + (
    " ", "x", "_a9", "AEIP", "MESSAGES", "EVENTS", "CHANNELS", "METRICS", "ACTIONS",
    "true", "NOT", "call", "0", "42", "7.25", "{", "}", "(", ")", ",", ";", "=",
    "<", ">", "/", '"txt"', "@", "\u00a0",
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from(FRAGMENTS), max_size=30).map("".join))
def test_tokenize_matches_the_reference_on_fragment_soup(source):
    assert lex_outcome(token_rows, source) == lex_outcome(reference_tokenize, source)


def token_stream_text(source: str) -> str:
    return "".join(
        f"{kind.name} {text!r} {span.line}:{span.column}:{span.length}"
        f" {type(value).__name__} {value!r}\n"
        for kind, text, span, value in token_rows(source, "in.assl")
    )


def test_token_streams_are_pinned():
    """Token streams pinned by sha256; one entry covers the 20 random specs."""
    pinned = json.loads(
        Path(__file__).with_name("data").joinpath("token_sha256.json").read_text()
    )
    texts = {pkg.name: token_stream_text(pkg.source()) for pkg in all_missions()}
    for n in (1, 3, 10):
        texts[f"swarm{n}"] = token_stream_text(swarm_source(n))
    texts["random0-19"] = "".join(token_stream_text(random_spec_source(s)) for s in range(20))
    assert set(texts) == set(pinned)
    for key, text in texts.items():
        assert hashlib.sha256(text.encode()).hexdigest() == pinned[key], key

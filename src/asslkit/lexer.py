"""Tokenizer for specification source text.

Keywords are case sensitive. Structural keywords are upper case; the statement
keywords ``call``, ``send``, ``over`` and ``fail`` are lower case, matching how
they appear inside DOES clauses. Keyword and punctuation spellings are read
from ``asslkit.tokens``, the one place that spells them. Qualified references
such as ``EVENTS.privateMessageSecure`` or ``AEIP.MESSAGES.privateMessage``
lex as a single REF token whose value is the tuple of path components.
Comments run from ``//`` to end of line. Both LF and CRLF line endings are
accepted.

One compiled pattern, run with ``finditer``, matches each token together with
the whitespace and comments before it, and the named group that matched says
what the token is. Its character classes are spelled in ASCII (``[A-Za-z_]``,
``[0-9]``), because ``\\w`` and ``\\d`` also accept letters and digits such as
``é`` and ``٣``. The token alternatives exclude one another, so their order
is free, and the commonest come first. The pattern's last alternative,
``BAD``, is empty, so it matches exactly where no token does; only there is
the source looked at again, to name the error: a stray carriage return, ``!``
without ``=``, text that is unterminated or runs past the end of its line, a
malformed qualified reference, a real literal without digits after its point,
or any other unexpected character. An integer literal
with more digits than Python converts to ``int`` (4,300 by default) and a
real literal too large for a float are errors on the literal's span too,
instead of an internal error and an ``inf`` value that does not print back as
source. The literal patterns and ``read_number`` are shared with
``runtime.scenario.parse_value``, the one reader of literals in scenarios,
properties and ``--set`` flags, so a value has one syntax everywhere.

``tokenize`` returns the tokens as columns, a :class:`~asslkit.tokens.Tokens`:
four parallel lists of kinds, texts, start offsets and values, and the file's
line table (the file name and the offsets at which its lines start). It
builds no object per token that the garbage collector keeps tracking.
Lines and columns are 1-based, one column per character (a tab included).
They are worked out from the table only when a span is read, for a node, an
error or a diagnostic; most tokens never need one.

A file repeats few texts many times: the 40-worker swarm has 10,524 tokens
and 122 distinct texts. So ``tokenize`` reads each distinct text once. The
first token with a text stores ``(kind, value, text)`` in a per-call dict,
and every later token with that text takes its kind, value and text string
from there: equal texts share one string, and REF tokens with equal texts
share one value tuple. A text fixes its kind and value, because the token
alternatives exclude one another, so the text fixes the group that matched
it. The empty text of ``END`` and ``BAD`` is never stored: the first ends
the loop and the second raises.
"""

from __future__ import annotations

import re
from math import isinf

from .tokens import KEYWORDS, NAMESPACE_WORDS, PUNCTUATION, LexError, LineTable, Tokens, TokenKind

_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
INT_LITERAL = r"-?[0-9]+"
REAL_LITERAL = r"-?[0-9]+\.[0-9]+"
TEXT_LITERAL = r'"[^"\r\n]*"'
# Longer operators first, so that ``<=`` is not read as ``<`` then ``=``; the
# one-character operators share one character class.
_OP = "|".join(
    [
        *map(re.escape, sorted((op for op in PUNCTUATION if len(op) > 1), key=len, reverse=True)),
        "[" + re.escape("".join(op for op in PUNCTUATION if len(op) == 1)) + "]",
    ]
)
_TOKEN = re.compile(
    r"""
    (?: [ \t\n]+ | \r\n | //[^\n]* )*
    (?: (?P<OP> %(op)s )
      | (?P<WORD> %(name)s ) (?![A-Za-z0-9_.])  # a name and a dot: REF or BAD
      | (?P<REF> (?: %(spaces)s | AEIP\.MESSAGES ) \. %(name)s )
      | (?P<REAL> %(real)s )
      | (?P<INT> %(int)s ) (?![0-9.])           # digits and a dot: REAL or BAD
      | (?P<TEXT> %(text)s )
      | (?P<END> \Z )
      | (?P<BAD> )
    )
    """
    % dict(spaces="|".join(sorted(NAMESPACE_WORDS)), name=_NAME,
           real=REAL_LITERAL, int=INT_LITERAL, text=TEXT_LITERAL, op=_OP),
    re.VERBOSE,
)
_NEWLINE = re.compile(r"\n")
_NAME_RUN = re.compile(_NAME)
_IDENT_CONT_RUN = re.compile(r"[A-Za-z0-9_]*")
_NUMBER_RUN = re.compile(INT_LITERAL)
_TEXT_RUN = re.compile(r'[^"\r\n]*')

_WORDS: dict[str, tuple[TokenKind, object]] = {
    **{word: (kind, None) for word, kind in KEYWORDS.items()},
    "true": (TokenKind.BOOL, True),
    "false": (TokenKind.BOOL, False),
}


def tokenize(source: str, file: str = "<input>") -> Tokens:
    """Tokenize ``source``, raising :class:`LexError` at the first illegal input."""
    lines = LineTable(file, (0, *(m.end() for m in _NEWLINE.finditer(source))))
    kinds: list[TokenKind] = []
    texts: list[str] = []
    starts: list[int] = []
    values: list[object] = []
    add_kind, add_text, add_start, add_value = (
        kinds.append, texts.append, starts.append, values.append
    )
    # text -> (kind, value, text), for each text read so far
    seen: dict[str, tuple[TokenKind, object, str]] = {}
    for m in _TOKEN.finditer(source):
        group = m.lastgroup
        text = m[group]
        entry = seen.get(text)
        if entry is None:
            if group == "OP":
                kind, value = PUNCTUATION[text], None
            elif group == "WORD":
                kind, value = _WORDS.get(text) or (TokenKind.IDENT, text)
            elif group == "REF":
                kind, value = TokenKind.REF, tuple(text.split("."))
            elif group == "INT" or group == "REAL":
                kind = TokenKind.INT if group == "INT" else TokenKind.REAL
                try:
                    value = read_number(text, real=group == "REAL")
                except ValueError as err:
                    raise LexError(str(err), lines.span(m.start(group), len(text))) from None
            elif group == "TEXT":
                kind, value = TokenKind.TEXT, text[1:-1]
            elif group == "END":
                break
            else:
                message, offset, length = _diagnose(source, m.start(group))
                raise LexError(message, lines.span(offset, length))
            entry = seen[text] = (kind, value, text)
        kind, value, text = entry
        add_kind(kind)
        add_text(text)
        add_start(m.start(group))
        add_value(value)
    return Tokens(kinds, texts, starts, values, lines)


def read_number(text: str, real: bool) -> int | float:
    """Value of an INT or REAL literal; ValueError names one out of range."""
    try:
        value = float(text) if real else int(text)
    except ValueError:  # only int() fails: more digits than it converts
        raise ValueError("integer literal too long") from None
    if real and isinf(value):
        raise ValueError("real literal out of range")
    return value


def _diagnose(source: str, pos: int) -> tuple[str, int, int]:
    """(message, offset, length) of the error at ``pos``, where no token matches."""
    ch = source[pos]
    if ch == "\r":
        return "stray carriage return", pos, 1
    if ch == "!":
        return "expected '=' after '!'", pos, 1
    if ch == '"':
        if _TEXT_RUN.match(source, pos + 1).end() == len(source):
            return "unterminated text literal", pos, 1
        return "text literal spans end of line", pos, 1
    name = _NAME_RUN.match(source, pos)
    if name:  # a name followed by a dot
        dot = name.end()
        if name[0] == "AEIP":
            after = _IDENT_CONT_RUN.match(source, dot + 1).end()
            if source[dot + 1 : after] != "MESSAGES":
                return (
                    "qualified AEIP references take the form AEIP.MESSAGES.<name>",
                    pos,
                    max(after - dot - 1, 1),
                )
            if source[after : after + 1] != ".":
                return "expected '.' after AEIP.MESSAGES", after, 1
            return "expected a name after '.'", after + 1, 1
        if name[0] in NAMESPACE_WORDS:
            return "expected a name after '.'", dot + 1, 1
        return "unexpected character '.'", dot, 1
    number = _NUMBER_RUN.match(source, pos)
    if number:  # digits followed by a dot and no digit
        return "real literals need digits after the decimal point", number.end(), 1
    return f"unexpected character {ch!r}", pos, 1

"""Token storage: the columns ``tokenize`` returns and the ``Tokens`` view.

``tokenize`` stores a file's tokens as four parallel lists and one line
table, so that the garbage collector tracks a few objects per call instead of
one per token, and builds a ``Token`` only when one is read through the view.
"""

from __future__ import annotations

import gc
import platform

import pytest
from specgen import random_spec_source, swarm_source

from asslkit.lexer import tokenize
from asslkit.missions import all_missions
from asslkit.tokens import Token


def view_inputs():
    """(name, source): every mission, a 3-worker swarm and random specs 0-59."""
    yield from ((pkg.name, pkg.source()) for pkg in all_missions())
    yield "swarm3", swarm_source(3)
    yield from ((f"random{seed}", random_spec_source(seed)) for seed in range(60))


def test_view_reads_each_token_from_the_columns():
    for name, source in view_inputs():
        tokens = tokenize(source, "in.assl")
        n = len(tokens)
        columns = (tokens.kinds, tokens.texts, tokens.starts, tokens.values)
        assert n > 0 and all(len(column) == n for column in columns), name
        listed = list(tokens)
        assert len(listed) == n and tokens == listed, name
        for i in range(n):
            token = tokens[i]
            assert type(token) is Token, (name, i)
            assert token == tokens[i - n] == listed[i], (name, i)
            assert token == (*(column[i] for column in columns[:3]), tokens.lines, columns[3][i])
            assert token.span == tokens.lines.span(token.start, len(token.text)), (name, i)
        with pytest.raises(IndexError):
            tokens[n]
        with pytest.raises(IndexError):
            tokens[-n - 1]
        assert tokens[1:4] == listed[1:4], name


def test_views_compare_by_their_tokens():
    source = swarm_source(1)
    assert tokenize(source) == tokenize(source)
    assert tokenize(source) != tokenize(source, "other.assl")
    assert tokenize(source) != list(tokenize(source))[:-1]
    assert tokenize("") == tokenize("") and len(tokenize("")) == 0


@pytest.mark.skipif(
    platform.python_implementation() != "CPython", reason="the untracking rule is CPython's"
)
def test_tokens_leave_the_garbage_collector():
    source = swarm_source(10)
    tokenize(source)  # warm-up: first-call caches
    gc.collect()
    before = len(gc.get_objects())
    tokens = tokenize(source)
    gc.collect()
    grown = len(gc.get_objects()) - before
    assert len(tokens) > 2000
    # The view, its four lists and the line table: six objects, where a list
    # of Tokens grows the tracked heap by one per token.
    assert grown <= 16, grown


def test_equal_texts_share_one_text_and_one_value():
    """``tokenize`` reads each distinct text once; later tokens reuse it."""
    tokens = tokenize("x = EVENTS.go;\nEVENTS.go x")
    assert tokens.texts[0] is tokens.texts[5]
    assert tokens.values[2] is tokens.values[4] == ("EVENTS", "go")
    for name, source in view_inputs():
        tokens = tokenize(source)
        first: dict[str, int] = {}
        for i, text in enumerate(tokens.texts):
            j = first.setdefault(text, i)
            assert tokens.texts[i] is tokens.texts[j], (name, i)
            assert tokens.values[i] is tokens.values[j], (name, i)
            assert tokens.kinds[i] is tokens.kinds[j], (name, i)

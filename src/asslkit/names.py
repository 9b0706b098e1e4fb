"""Resolution of user-supplied qualified names ("element.name" or bare).

Scenario files, property files, and command-line flags refer to declarations
by a dotted qualified name or, when unambiguous, by the bare declaration
name. These helpers resolve such text against a checked specification.
"""

from __future__ import annotations

from collections.abc import Mapping

from .checker import ASIP_SCOPE, CheckedSpec
from .program import Key, qual


class NameResolutionError(ValueError):
    pass


def resolve_decl(spec: CheckedSpec, namespace: str, text: str) -> Key:
    """Resolve ``text`` to a (tier, name) key in ``namespace``.

    ``namespace`` is one of "events", "actions", "metrics", "fluents".
    """
    program = spec.program
    table = program.fluent_slot if namespace == "fluents" else getattr(program, namespace)
    return _resolve(table, namespace[:-1], text)


def resolve_message(spec: CheckedSpec, text: str) -> Key:
    return _resolve(spec.symbols.messages, "message", text)


def resolve_channel(spec: CheckedSpec, text: str) -> Key:
    return _resolve(spec.symbols.channels, "channel", text)


def _resolve(table: Mapping[Key, object], kind: str, text: str) -> Key:
    """The key of ``table`` that ``text`` names: a dictionary lookup when it
    is qualified, else the one key with that bare name."""
    if "." in text:
        scope, _, name = text.partition(".")
        if (scope, name) not in table:
            raise NameResolutionError(f"no {kind} named '{text}'")
        return (scope, name)
    matches = [key for key in table if key[1] == text]
    if not matches:
        raise NameResolutionError(f"no {kind} named '{text}'")
    if len(matches) > 1:
        options = ", ".join(qual(m) for m in matches)
        raise NameResolutionError(f"'{text}' is ambiguous; qualify it: {options}")
    return matches[0]


__all__ = [
    "ASIP_SCOPE",
    "Key",
    "NameResolutionError",
    "qual",
    "resolve_channel",
    "resolve_decl",
    "resolve_message",
]

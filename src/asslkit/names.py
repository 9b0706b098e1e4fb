"""Resolution of user-supplied qualified names ("element.name" or bare).

Scenario files, property files, and command-line flags refer to declarations
by a dotted qualified name or, when unambiguous, by the bare declaration
name. These helpers resolve such text against a checked specification.
"""

from __future__ import annotations

from .checker import ASIP_SCOPE, CheckedSpec
from .program import Key, qual


class NameResolutionError(ValueError):
    pass


def resolve_decl(spec: CheckedSpec, namespace: str, text: str) -> Key:
    """Resolve ``text`` to a (tier, name) key in ``namespace``.

    ``namespace`` is one of "events", "actions", "metrics", "fluents".
    """
    if "." in text:
        tier, _, name = text.partition(".")
        if spec.symbols.lookup(tier, namespace, name) is None:
            raise NameResolutionError(f"no {namespace[:-1]} named '{text}'")
        return (tier, name)
    matches = [
        (tier, ns, name)
        for (tier, ns, name) in spec.symbols.decls
        if ns == namespace and name == text
    ]
    if not matches:
        raise NameResolutionError(f"no {namespace[:-1]} named '{text}'")
    if len(matches) > 1:
        options = ", ".join(f"{m[0]}.{m[2]}" for m in matches)
        raise NameResolutionError(f"'{text}' is ambiguous; qualify it: {options}")
    return (matches[0][0], matches[0][2])


def resolve_message(spec: CheckedSpec, text: str) -> Key:
    return _resolve_scoped(spec.symbols.messages, "message", text)


def resolve_channel(spec: CheckedSpec, text: str) -> Key:
    return _resolve_scoped(spec.symbols.channels, "channel", text)


def _resolve_scoped(table: dict[Key, object], kind: str, text: str) -> Key:
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

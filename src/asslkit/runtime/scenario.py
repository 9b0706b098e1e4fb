"""Scenarios: scripted stimulus sequences driving a deterministic run.

Scenario files are line oriented::

    tick <n> inject <EVENT>
    tick <n> set <METRIC> <value>
    tick <n> send <MESSAGE> <CHANNEL>
    tick <n> halt

Blank lines and lines starting with ``#`` are ignored. Names may be bare when
unique across the specification, or qualified as ``element.name``. Ticks must
be non-decreasing. Values are literals of the metric's type, written as in a
specification; ``parse_value`` reads them, and also the literals of
properties and of ``--set`` flags.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ..checker import CheckedSpec
from ..lexer import INT_LITERAL, REAL_LITERAL, TEXT_LITERAL, read_number
from ..names import Key, NameResolutionError, qual, resolve_channel, resolve_decl, resolve_message
from ..nodes import ValueType, render_value


@dataclass(frozen=True)
class InjectEvent:
    event: Key

    def render(self) -> str:
        return f"inject {qual(self.event)}"


@dataclass(frozen=True)
class SetMetric:
    metric: Key
    value: object

    def render(self) -> str:
        return f"set {qual(self.metric)} {render_value(self.value)}"


@dataclass(frozen=True)
class SendMessage:
    message: Key
    channel: Key

    def render(self) -> str:
        return f"send {qual(self.message)} {qual(self.channel)}"


@dataclass(frozen=True)
class Halt:
    def render(self) -> str:
        return "halt"


@dataclass(frozen=True)
class Tick:
    """Clock-advance stimulus: message delivery plus due ELAPSED firings.

    A move of the verifier's environment; scenarios advance the clock by
    their tick numbers, so ``parse_stimulus`` does not read it.
    """

    def render(self) -> str:
        return "tick"


Stimulus = InjectEvent | SetMetric | SendMessage | Halt
EnvStimulus = InjectEvent | SetMetric | SendMessage | Tick


class ScenarioError(ValueError):
    """Malformed scenario text or unresolvable names."""


@dataclass(frozen=True)
class Scenario:
    name: str
    steps: tuple[tuple[int, Stimulus], ...]

    def __post_init__(self) -> None:
        last = -1
        for tick, _ in self.steps:
            if tick < last:
                raise ScenarioError(f"scenario '{self.name}': ticks must be non-decreasing")
            last = tick

    def render(self) -> str:
        lines = [f"tick {tick} {stim.render()}" for tick, stim in self.steps]
        return "\n".join(lines) + "\n" if lines else ""


def parse_scenario(text: str, spec: CheckedSpec, name: str = "<scenario>") -> Scenario:
    steps: list[tuple[int, Stimulus]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            step = _parse_step(line, spec)
            if steps and step[0] < steps[-1][0]:
                raise ScenarioError("ticks must be non-decreasing")
        except (NameResolutionError, ScenarioError, ValueError) as err:
            raise ScenarioError(f"{name}:{lineno}: {err}") from None
        steps.append(step)
    return Scenario(name, tuple(steps))


def _parse_step(line: str, spec: CheckedSpec) -> tuple[int, Stimulus]:
    parts = line.split(maxsplit=2)
    if len(parts) < 3 or parts[0] != "tick":
        raise ScenarioError(f"expected 'tick <n> <stimulus>', got: {' '.join(parts)}")
    # the tick is read as the spec lexer reads an integer literal
    if not _LITERALS[ValueType.INTEGER].fullmatch(parts[1]):
        raise ScenarioError(f"tick number is not an integer literal: {parts[1]!r}")
    tick = read_number(parts[1], real=False)
    if tick < 0:
        raise ScenarioError("tick numbers are non-negative")
    return tick, parse_stimulus(parts[2], spec)


def parse_stimulus(text: str, spec: CheckedSpec) -> Stimulus:
    """Read one stimulus, written as a scenario step writes it after ``tick <n>``.

    Raises :class:`ScenarioError` or :class:`NameResolutionError`.
    """
    parts = text.split(maxsplit=2)  # the last part may be text with spaces
    verb = parts[0] if parts else ""
    args = parts[1:]
    if verb == "halt":
        if args:
            raise ScenarioError("halt takes no arguments")
        return Halt()
    if verb == "inject":
        if len(args) != 1:
            raise ScenarioError("inject takes one event name")
        return InjectEvent(resolve_decl(spec, "events", args[0]))
    if verb == "set":
        if len(args) != 2:
            raise ScenarioError("set takes a metric name and a value")
        metric = resolve_decl(spec, "metrics", args[0])
        decl = spec.program.metrics[metric]
        return SetMetric(metric, parse_value(args[1], decl.value_type))
    if verb == "send":
        if len(args) != 2:
            raise ScenarioError("send takes a message name and a channel name")
        return SendMessage(resolve_message(spec, args[0]), resolve_channel(spec, args[1]))
    raise ScenarioError(f"unknown stimulus '{verb}'")


_LITERALS = {
    ValueType.BOOLEAN: re.compile("true|false"),
    ValueType.INTEGER: re.compile(INT_LITERAL),
    ValueType.REAL: re.compile(REAL_LITERAL),
    ValueType.TEXT: re.compile(TEXT_LITERAL),
}


def parse_value(text: str, value_type: ValueType) -> object:
    """Read a literal of a metric type as the spec lexer reads it, limits included."""
    if not _LITERALS[value_type].fullmatch(text):
        raise ScenarioError(f"not a literal of type {value_type.value}: {text!r}")
    if value_type is ValueType.BOOLEAN:
        return text == "true"
    if value_type is ValueType.TEXT:
        return text[1:-1]
    try:
        return read_number(text, real=value_type is ValueType.REAL)
    except ValueError as err:
        raise ScenarioError(str(err)) from None

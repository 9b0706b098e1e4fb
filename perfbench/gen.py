"""Seeded input generators: swarm specs, environments, properties, scenarios.

A swarm is N copies of the ``AE worker`` tier of the shipped
``ants_self_protecting`` mission. Copy k is renamed ``worker<k>`` and its
message's ``RECEIVER`` becomes ``worker<k>``. The copies share no channel,
metric or message, which is the ANTS setting the paper models: a swarm of
identical, independent workers. Swarms are built here from the shipped spec;
no fixture file is involved.

The seed fixes the order in which the copies are declared and every random
choice below. The same seed gives the same inputs; different seeds give
inputs of the same size and shape, so their cost is comparable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from asslkit import checker, lexer, parser
from asslkit.missions import ants_self_protecting

HOLDS = "Holds"
VIOLATED = "Violated"

_WORKER_HEADER = "AE worker {"
_RECEIVER = "RECEIVER { worker }"
_CERT_CHECKED = "METRIC certificateChecked { TYPE { boolean } INITIAL { false } }"


class GeneratorError(RuntimeError):
    """A generated input is not what the benchmark needs."""


@dataclass(frozen=True)
class Swarm:
    text: str
    workers: tuple[str, ...]  # tier names in declaration order

    @property
    def lines(self) -> int:
        return self.text.count("\n")


def checked(text: str, path: str):
    """Front end for a generated spec; it must give zero diagnostics."""
    spec = checker.check_all(parser.parse(lexer.tokenize(text, path), path))
    if spec.diagnostics:
        rendered = "; ".join(diag.render() for diag in spec.diagnostics[:3])
        raise GeneratorError(f"{path}: generated spec has diagnostics: {rendered}")
    return spec


def _worker_tier(source: str) -> tuple[str, str]:
    """Split the mission source into (text before the worker tier, the tier)."""
    start = source.index(_WORKER_HEADER)
    depth = 0
    for end in range(start, len(source)):
        if source[end] == "{":
            depth += 1
        elif source[end] == "}":
            depth -= 1
            if depth == 0:
                return source[:start], source[start : end + 1]
    raise GeneratorError("unbalanced braces in the worker tier")


def _replace_once(text: str, old: str, new: str) -> str:
    if text.count(old) != 1:
        raise GeneratorError(f"expected exactly one {old!r} in the worker tier")
    return text.replace(old, new)


def swarm(n: int, seed: int) -> Swarm:
    """N renamed worker copies, declared in a seeded order."""
    head, tier = _worker_tier(ants_self_protecting().source())
    ids = list(range(1, n + 1))
    random.Random(seed).shuffle(ids)
    parts = [head]
    for k in ids:
        copy = _replace_once(tier, _WORKER_HEADER, f"AE worker{k} {{")
        copy = _replace_once(copy, _RECEIVER, f"RECEIVER {{ worker{k} }}")
        parts.append(copy + "\n\n")
    return Swarm("".join(parts), tuple(f"worker{k}" for k in ids))


def edit_worker(text: str, worker: str) -> str:
    """Flip one initial value inside ``worker``'s tier and nowhere else.

    ``certificateChecked`` is assigned by ``checkSenderCertificate``, so the
    edit lies in the closure of that worker's SELF_PROTECTING policy only.
    """
    start = text.index(f"AE {worker} {{")
    at = text.index(_CERT_CHECKED, start)
    edited = _CERT_CHECKED.replace("INITIAL { false }", "INITIAL { true }")
    return text[:at] + edited + text[at + len(_CERT_CHECKED) :]


def verify_env(workers: tuple[str, ...], seed: int) -> tuple[str, ...]:
    """Per worker: send the message, invalidate the certificate; plus the clock.

    The verdict metric keeps its initial value (true). Setting it true and
    false as well multiplies the 2-worker graph by ten (26,196 states), and
    one op then takes 7 s, too long to time steadily on a shared host.
    Returned as stimulus texts in a seeded order; the verifier sorts them.
    """
    texts = ["tick"]
    for w in workers:
        texts += [
            f"send {w}.privateMessage {w}.secureLink",
            f"set {w}.certificateValid false",
        ]
    random.Random(seed).shuffle(texts)
    return tuple(texts)


@dataclass(frozen=True)
class ExpectedVerdict:
    shape: str
    text: str
    verdict: str
    reason: str


# One holding and one violated property per shape, with the hand-derived
# verdict under ``verify_env`` and the reason for it. ``{w}`` is a worker.
_PROPERTIES = (
    ("G", "G (implies (event {w}.privateMessageSecure) (NOT (fluent {w}.inSecurityCheck)))",
     HOLDS, "privateMessageSecure terminates inSecurityCheck in the step that raises it"),
    ("G", "G (NOT (fluent {w}.inSecurityCheck))",
     VIOLATED, "sending the private message raises privateMessageIsComming, which initiates the check"),
    ("F", "F (NOT (fluent {w}.inSecurityCheck))",
     HOLDS, "no fluent is active in the initial state"),
    ("F", "F (fluent {w}.inSecurityCheck)",
     VIOLATED, "the environment may never send this worker its message"),
    ("G->F", "G (implies (event {w}.privateMessageIsComming) (F (fluent {w}.inSecurityCheck)))",
     HOLDS, "privateMessageIsComming initiates the check in the step that raises it"),
    ("G->F", "G (implies (fluent {w}.inSecurityCheck) (F (event {w}.privateMessageSecure | event {w}.privateMessageInsecure)))",
     VIOLATED, "an invalid certificate takes the error path, which raises messageQuarantined and no verdict event"),
    ("G->X", "G (implies (event {w}.messageQuarantined) (X (fluent {w}.inSecurityCheck)))",
     HOLDS, "after a quarantine nothing is pending, and no stimulus raises a verdict event that ends the check"),
    ("G->X", "G (implies (fluent {w}.inSecurityCheck) (X (fluent {w}.inSecurityCheck)))",
     VIOLATED, "a verdict event ends the check in a single processing step"),
    ("U", "(fluent {w}.inSecurityCheck) U (metric {w}.securityEnabled)",
     HOLDS, "securityEnabled is true in the initial state"),
    ("U", "(NOT (fluent {w}.inSecurityCheck)) U (fluent {w}.inSecurityCheck)",
     VIOLATED, "the environment may never send this worker its message, so the check never starts"),
)


def properties(workers: tuple[str, ...], seed: int) -> tuple[ExpectedVerdict, ...]:
    """The property set, each instance aimed at a seeded worker."""
    rng = random.Random(seed)
    return tuple(
        ExpectedVerdict(shape, template.format(w=rng.choice(workers)), verdict, reason)
        for shape, template, verdict, reason in _PROPERTIES
    )


@dataclass(frozen=True)
class HealingScenario:
    text: str
    ticks: int
    alive: tuple[bool, ...]  # worker liveness after the stimuli of each tick
    kills: tuple[int, ...]


def healing_scenario(seed: int, ticks: int) -> HealingScenario:
    """Long self-healing run: the worker dies and revives, with relay floods.

    Alive and dead spells last 10 to 40 ticks. While the worker is alive,
    some ticks force one to three extra relays into the capacity-2 worker
    link, so the third one drops. Extra relays are never sent on the tick
    of a kill or while the worker is dead, so they cannot mask a death.
    """
    rng = random.Random(seed)
    lines: list[str] = []
    alive_at = [True]
    kills: list[int] = []
    is_alive = True
    switch = rng.randint(10, 40)
    for tick in range(1, ticks):
        if tick == switch:
            is_alive = not is_alive
            lines.append(f"tick {tick} set alive {'true' if is_alive else 'false'}")
            if not is_alive:
                kills.append(tick)
            switch = tick + rng.randint(10, 40)
        elif is_alive and rng.random() < 0.1:
            lines += [f"tick {tick} send heartbeatRelay workerLink"] * rng.randint(1, 3)
        alive_at.append(is_alive)
    lines.append(f"tick {ticks} halt")
    return HealingScenario("\n".join(lines) + "\n", ticks, tuple(alive_at), tuple(kills))


@dataclass(frozen=True)
class WideScenario:
    text: str
    ticks: int
    # Per worker, the verdict event that must end each security check, in order.
    verdicts: dict[str, tuple[str, ...]]


def wide_scenario(workers: tuple[str, ...], seed: int, ticks: int) -> WideScenario:
    """Long swarm run: each tick two random workers get a message or a verdict.

    The mission README says a check ends via privateMessageSecure when the
    verdict metric is true and via privateMessageInsecure when it is false;
    the check runs when the message is sent, so the verdict metric's value
    at each send fixes the event that ends that check.
    """
    rng = random.Random(seed)
    secure = {w: True for w in workers}  # messageVerdictSecure starts true
    verdicts: dict[str, list[str]] = {w: [] for w in workers}
    lines: list[str] = []
    for tick in range(1, ticks):
        for w in rng.sample(workers, 2):
            if rng.random() < 0.5:
                lines.append(f"tick {tick} send {w}.privateMessage {w}.secureLink")
                event = "privateMessageSecure" if secure[w] else "privateMessageInsecure"
                verdicts[w].append(event)
            else:
                secure[w] = rng.random() < 0.5
                lines.append(
                    f"tick {tick} set {w}.messageVerdictSecure {'true' if secure[w] else 'false'}"
                )
    lines.append(f"tick {ticks} halt")
    return WideScenario(
        "\n".join(lines) + "\n", ticks, {w: tuple(v) for w, v in verdicts.items()}
    )

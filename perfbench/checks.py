"""Output checks whose references do not come from the code under test.

Traces are checked for two invariants of the runtime's documented semantics
(strict initiate/terminate alternation of every fluent, and channel queues
within their declared capacity) and against behaviour stated in prose: the
shipped mission READMEs and the generators' own bookkeeping.
"""

from __future__ import annotations

from typing import Callable, NamedTuple


class Rec(NamedTuple):
    tick: int
    kind: str
    subject: str
    detail: str


def records_from_text(text: str) -> list[Rec]:
    """Parse trace-file lines: seq, tick, kind, subject, detail (tab separated)."""
    records = []
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 5:
            raise ValueError(f"malformed trace line: {line!r}")
        records.append(Rec(int(fields[1]), fields[2], fields[3], fields[4]))
    return records


def records_from_trace(trace) -> list[Rec]:
    return [Rec(r.tick, r.kind, r.subject, r.detail) for r in trace.records]


def alternation(records: list[Rec]) -> list[str]:
    """Every fluent alternates FluentInitiated / FluentTerminated, starting inactive."""
    active: dict[str, bool] = {}
    problems = []
    for i, rec in enumerate(records):
        if rec.kind == "FluentInitiated":
            if active.get(rec.subject, False):
                problems.append(f"record {i}: {rec.subject} initiated twice")
            active[rec.subject] = True
        elif rec.kind == "FluentTerminated":
            if not active.get(rec.subject, False):
                problems.append(f"record {i}: inactive {rec.subject} terminated")
            active[rec.subject] = False
    return problems


def queue_bounds(records: list[Rec], capacities: dict[str, int]) -> list[str]:
    """Messages sent minus received stays within each channel's declared capacity."""
    in_flight = {channel: 0 for channel in capacities}
    problems = []
    for i, rec in enumerate(records):
        if rec.kind == "MessageSent" and "dropped" not in rec.detail:
            channel = rec.detail.split()[1]  # "over <channel> by <sender>"
            in_flight[channel] += 1
            if in_flight[channel] > capacities[channel]:
                problems.append(f"record {i}: {channel} holds more than {capacities[channel]}")
        elif rec.kind == "MessageReceived":
            channel = rec.detail.split()[-1]  # "by <element> over <channel>"
            in_flight[channel] -= 1
            if in_flight[channel] < 0:
                problems.append(f"record {i}: {channel} delivered a message never sent")
    return problems


def capacities(spec) -> dict[str, int]:
    """Declared channel capacities, keyed as trace records name channels."""
    return {
        f"{scope}.{name}": decl.capacity
        for (scope, name), decl in spec.symbols.channels.items()
    }


def invariants(records: list[Rec], spec) -> list[str]:
    return alternation(records) + queue_bounds(records, capacities(spec))


# -- behaviour stated in the mission READMEs ------------------------------------


def _find(records: list[Rec], kind: str, subject: str, detail: str | None = None) -> list[Rec]:
    return [
        r for r in records
        if r.kind == kind and r.subject == subject and (detail is None or r.detail == detail)
    ]


def _present(kind: str, subject: str, detail: str | None = None) -> Callable[[list[Rec]], list[str]]:
    def check(records: list[Rec]) -> list[str]:
        if _find(records, kind, subject, detail):
            return []
        return [f"missing {kind} {subject} {detail or ''}".rstrip()]
    return check


def _absent(kind: str, subject: str) -> Callable[[list[Rec]], list[str]]:
    def check(records: list[Rec]) -> list[str]:
        found = _find(records, kind, subject)
        return [f"unexpected {kind} {subject} at tick {found[0].tick}"] if found else []
    return check


def _count(kind: str, subject: str, n: int) -> Callable[[list[Rec]], list[str]]:
    def check(records: list[Rec]) -> list[str]:
        found = len(_find(records, kind, subject))
        return [] if found == n else [f"{kind} {subject}: {found} records, expected {n}"]
    return check


def _first(before: str, after: str) -> Callable[[list[Rec]], list[str]]:
    def check(records: list[Rec]) -> list[str]:
        order = [r.subject for r in records if r.kind == "FluentInitiated"]
        if before in order and after in order and order.index(before) < order.index(after):
            return []
        return [f"{before} was not initiated before {after}"]
    return check


def _healing_within(kill: int, latest: int) -> Callable[[list[Rec]], list[str]]:
    def check(records: list[Rec]) -> list[str]:
        ticks = [r.tick for r in _find(records, "FluentInitiated", "ruler.inHealing")]
        if any(kill < t <= latest for t in ticks):
            return []
        return [f"ruler.inHealing not initiated in ticks {kill + 1}..{latest}: {ticks}"]
    return check


def _no_records(records: list[Rec]) -> list[str]:
    return [] if not records else [f"{len(records)} records, expected none"]


# (mission, scenario) -> the README's claim about that run, as checks.
README_RUNS: dict[tuple[str, str], tuple[Callable[[list[Rec]], list[str]], ...]] = {
    # "verdict metric true: check ends via privateMessageSecure"
    ("ants_self_protecting", "secure"): (
        _present("FluentTerminated", "worker.inSecurityCheck", "by worker.privateMessageSecure"),
    ),
    # "verdict metric false: check ends via privateMessageInsecure"
    ("ants_self_protecting", "insecure"): (
        _present("FluentTerminated", "worker.inSecurityCheck", "by worker.privateMessageInsecure"),
    ),
    # "certificate check fails: error path raises messageQuarantined"
    ("ants_self_protecting", "quarantine"): (
        _present("EventRaised", "worker.messageQuarantined"),
    ),
    # "worker dies at tick 5; inHealing initiates by tick 13"
    ("ants_self_healing", "kill_worker"): (_healing_within(5, 13),),
    # "healthy run; inHealing never initiates"
    ("ants_self_healing", "no_fault"): (_absent("FluentInitiated", "ruler.inHealing"),),
    # "the overflow relay drops, the team stays healthy"
    ("ants_self_healing", "flood_channel"): (
        _present("MessageSent", "ASIP.heartbeatRelay", "over ASIP.workerLink dropped (channel full)"),
        _absent("FluentInitiated", "ruler.inHealing"),
    ),
    # "both workers re-target once"
    ("ants_self_configuring_and_scheduling", "new_asteroid"): (
        _count("FluentInitiated", "worker1.configuringInstrument", 1),
        _count("FluentInitiated", "worker2.configuringInstrument", 1),
    ),
    # "priorities 7 vs 3: alpha explored first"
    ("ants_self_configuring_and_scheduling", "schedule_alpha_first"): (
        _first("ants.exploringAlpha", "ants.exploringBeta"),
    ),
    # "priorities 2 vs 9: beta explored first"
    ("ants_self_configuring_and_scheduling", "schedule_beta_first"): (
        _first("ants.exploringBeta", "ants.exploringAlpha"),
    ),
    # "full session: 4 segments received, session archived"
    ("voyager_image_processing", "flyby"): tuple(
        _present("EventRaised", f"earth.segment{seg}Received") for seg in "ABCD"
    ) + (_present("MetricAssigned", "earth.sessionArchived", "false -> true"),),
    # "nothing happens"
    ("voyager_image_processing", "no_flyby"): (_no_records,),
}

# Verify environments exactly as each mission README documents them.
README_VERIFY_FLAGS: dict[str, tuple[str, ...]] = {
    "ants_self_protecting": (
        "--send", "privateMessage@secureLink",
        "--set", "messageVerdictSecure=true", "--set", "messageVerdictSecure=false",
    ),
    "ants_self_healing": ("--set", "worker.alive=false", "--set", "worker.alive=true"),
    "ants_self_configuring_and_scheduling": (),
    "voyager_image_processing": (),
}


# -- generated long scenarios ------------------------------------------------------


def healing(records: list[Rec], scenario) -> list[str]:
    """The self-healing README's detection bound on a generated scenario.

    Every kill is noticed within two 4-tick watchdog windows ("inHealing
    fires within 8 ticks of the kill"), and healing never starts when the
    worker was alive over the whole of the last two windows.
    """
    problems = []
    starts = [r.tick for r in _find(records, "FluentInitiated", "ruler.inHealing")]
    for kill in scenario.kills:
        if kill + 8 <= scenario.ticks and not any(kill < t <= kill + 8 for t in starts):
            problems.append(f"kill at tick {kill} not healed within 8 ticks")
    for tick in starts:
        if all(scenario.alive[max(0, tick - 8) : tick + 1]):
            problems.append(f"healing at tick {tick} while the worker was alive")
    return problems


def wide(records: list[Rec], scenario) -> list[str]:
    """Each check ends via the verdict event that the send-time metric selects."""
    problems = []
    for worker, expected in scenario.verdicts.items():
        fluent = f"{worker}.inSecurityCheck"
        started = len(_find(records, "FluentInitiated", fluent))
        ended = [r.detail for r in _find(records, "FluentTerminated", fluent)]
        want = [f"by {worker}.{event}" for event in expected]
        if started != len(expected) or ended != want:
            problems.append(
                f"{worker}: {started} checks started, ends {ended[:3]}..., expected {want[:3]}..."
            )
    return problems

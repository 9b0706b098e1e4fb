"""Path-coverage test generation for self-managing policies.

An execution path of a policy fixes one initiating event, one branch choice
per mapped action (GuardReject, or GuardPass with a Success or Error
outcome), and one terminating event. Enumeration prunes branches that
constant guards or the absence of fail-capable statements make unreachable;
everything else is handed to the generator, which searches metric
assignments drawn from the guard constants of the policy's reference
closure, simulates each candidate scenario, and keeps the first one whose
trace satisfies the path's assertions. Paths no assignment can force are
reported as infeasible, never silently dropped. A candidate run that aborts
(an event cascade that never quiesces) ends the path's search, and the path
is reported infeasible with the abort as its reason: another assignment
might avoid the cascade, but each candidate that does not would run to the
drain limit too.

Each candidate is simulated once. An assignment is tried first without the
terminating stimulus, then with it. The two scenarios agree up to the tick
of that stimulus, where the first one halts, so the no-terminator variant is
checked on the prefix: the run of the second is paused at that tick, the
assertions are checked on the trace so far, and only if they fail does the
same run go on to apply the terminating stimulus. An assignment equal to an
earlier one is not simulated again.

Everything the generator knows of actions and events it reads from the
spec's ``Program``: its records (fail statements, guards, activations) and
its influence graph. Which actions can fail, the metrics a path depends on
and the policies a change impacts are walks over that graph.

Generated tests serialize one directory per policy: ``<path-id>.scenario``
plus ``<path-id>.expect``, whose assertion lines use the five trace fields
with ``*`` wildcards; a leading ``!`` asserts absence. Change-impact
analysis compares two specifications declaration by declaration (ignoring
source positions). A policy is impacted when, in either specification, a
changed declaration is used by the policy, reads a metric the policy uses
(its guards give candidate values), or is, or is used by, something the
policy's test runs can set going: another policy's action a cascade
reaches, or a timer. The rule is applied by walking back from the changed
declarations, once per specification.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fnmatch import fnmatchcase
from pathlib import Path

from .checker import CheckedSpec
from .names import ASIP_SCOPE, Key, qual
from .nodes import (
    ActivationKind,
    BinaryExpr,
    CompareExpr,
    Expr,
    Lit,
    MetricDecl,
    MetricRefExpr,
    NotExpr,
    ValueType,
)
from .program import Node
from .runtime import Halt, InjectEvent, Runtime, Scenario, SendMessage, SetMetric, Trace
from .runtime.state import (
    ACTION_FAILED,
    ACTION_STARTED,
    ACTION_SUCCEEDED,
    EVENT_RAISED,
    FLUENT_INITIATED,
    FLUENT_TERMINATED,
    MAPPING_FIRED,
)

GUARD_REJECT = "GuardReject"
SUCCESS_PATH = "Success"
ERROR_PATH = "Error"

_BRANCH_SLUGS = {GUARD_REJECT: "reject", SUCCESS_PATH: "success", ERROR_PATH: "error"}

#: Cap on the candidate metric-assignment product searched per path.
MAX_CANDIDATES = 4096

# The edges each walk over the influence graph (``Program.influence``) takes,
# as (label, forward) pairs. Change impact walks back from what changed, so its
# four sets are written backward, each named for the relation it reverses.
#: What an event or action uses: the metrics and messages that activate it or
#: that it reads, and the callees, events, metrics, messages and channels it
#: acts on, transitively through calls and triggers.
_USES = frozenset({
    ("activates", True), ("reads", True), ("calls", False), ("error-calls", False),
    ("triggers", False), ("error-triggers", False), ("writes", False), ("sends", False),
})
#: A policy's fluents, their events and mapped actions, and what those use.
_POLICY_USES = _USES | {("initiates", True), ("terminates", True), ("maps", False)}
#: What a node can set going or change: every edge but a read.
_RUNS = frozenset((label, False) for label in (
    "activates", "initiates", "terminates", "maps", "calls", "error-calls",
    "triggers", "error-triggers", "writes", "sends",
))
#: The events and actions that read a metric.
_READERS = frozenset({("reads", False)})
#: Metrics that guards, ENSURES and assigned values read, through calls.
_READS = frozenset({("reads", False), ("calls", True), ("error-calls", True)})
_DOES_CALLS = frozenset({("calls", True)})

# Candidate scenarios set metrics at tick 0 and stimulate the initiating
# event at this tick; ELAPSED periods are at least 1, so the terminating
# stimulus always comes at a later tick.
_INIT_TICK = 1


@dataclass(frozen=True)
class PolicyPath:
    policy: Key
    initiating_event: Key
    branches: tuple[tuple[Key, str], ...]
    terminating_event: Key

    def path_id(self, index: int) -> str:
        branch = "+".join(_BRANCH_SLUGS[choice] for _action, choice in self.branches)
        return (
            f"p{index:02d}-{self.initiating_event[1]}-{branch}-{self.terminating_event[1]}"
        )

    def describe(self) -> str:
        branches = ", ".join(
            f"{qual(action)}={choice}" for action, choice in self.branches
        )
        return (
            f"{qual(self.policy)}: {self.initiating_event[1]} -> [{branches}]"
            f" -> {self.terminating_event[1]}"
        )


@dataclass(frozen=True)
class PathSet:
    policy: Key
    paths: tuple[PolicyPath, ...]
    warnings: tuple[str, ...] = ()


@dataclass(frozen=True)
class Assertion:
    """One expected (or forbidden) trace record, with ``*`` wildcards."""

    kind: str
    subject: str
    detail: str = "*"
    present: bool = True

    def matches(self, row: tuple[int, str, str, str]) -> bool:
        """Whether a ``Trace.rows`` entry ``(tick, kind, subject, detail)`` matches."""
        _tick, kind, subject, detail = row
        return (
            kind == self.kind
            and fnmatchcase(subject, self.subject)
            and fnmatchcase(detail, self.detail)
        )

    def render(self) -> str:
        prefix = "" if self.present else "!\t"
        return f"{prefix}*\t*\t{self.kind}\t{self.subject}\t{self.detail}"


@dataclass(frozen=True)
class GeneratedTest:
    path: PolicyPath
    scenario: Scenario
    assertions: tuple[Assertion, ...]

    @property
    def name(self) -> str:
        """The path id, which is also the scenario's name."""
        return self.scenario.name

    @property
    def policy(self) -> Key:
        return self.path.policy


@dataclass(frozen=True)
class InfeasiblePath:
    path: PolicyPath
    reason: str


@dataclass(frozen=True)
class TestSuite:
    tests: tuple[GeneratedTest, ...]
    infeasible: tuple[InfeasiblePath, ...] = ()
    warnings: tuple[str, ...] = ()

    def for_policy(self, policy: Key) -> tuple[GeneratedTest, ...]:
        return tuple(t for t in self.tests if t.policy == policy)


# --------------------------------------------------------------------------
# Path enumeration


def policy_keys(spec: CheckedSpec) -> list[Key]:
    return list(spec.program.policies)


def enumerate_paths(spec: CheckedSpec, policy: Key) -> PathSet:
    """Cartesian product of initiator, per-action branches, and terminator."""
    if not spec.ok:
        raise ValueError("specification has errors; run check_all first")
    decl = spec.program.policies[policy]
    if not decl.mappings:
        return PathSet(
            policy, (), (f"policy '{qual(policy)}' has no mappings; no paths",)
        )
    elem = policy[0]
    initiators = list(dict.fromkeys(
        (elem, ref.name) for fluent in decl.fluents for ref in fluent.initiated_by
    ))
    terminators = list(dict.fromkeys(
        (elem, ref.name) for fluent in decl.fluents for ref in fluent.terminated_by
    ))
    actions = list(dict.fromkeys(
        (elem, ref.name) for mapping in decl.mappings for ref in mapping.do_actions
    ))

    per_action: list[list[tuple[Key, str]]] = []
    for action_key in actions:
        guard = spec.program.actions[action_key].decl.guard
        guard_const = _const_value(guard)
        choices: list[str] = []
        if guard is not None and guard_const is None:
            choices.append(GUARD_REJECT)
        if guard_const is False:
            choices = [GUARD_REJECT]
        else:
            if not _reaches_fail(spec, action_key, surely=True):
                choices.append(SUCCESS_PATH)
            if _reaches_fail(spec, action_key, surely=False):
                choices.append(ERROR_PATH)
        per_action.append([(action_key, choice) for choice in choices])

    paths = [
        PolicyPath(policy, initiator, branches, terminator)
        for initiator in initiators
        for branches in itertools.product(*per_action)
        for terminator in terminators
    ]
    return PathSet(policy, tuple(paths))


def _const_value(expr: Expr | None) -> bool | None:
    """Value of a guard that no runtime state can influence, else None."""
    if expr is None:
        return True
    if isinstance(expr, Lit):
        return bool(expr.value) if isinstance(expr.value, bool) else None
    if isinstance(expr, NotExpr):
        inner = _const_value(expr.operand)
        return None if inner is None else not inner
    if isinstance(expr, BinaryExpr):
        left, right = _const_value(expr.left), _const_value(expr.right)
        if left is None or right is None:
            return None
        return (left and right) if expr.op == "AND" else (left or right)
    return None


def _reaches_fail(spec: CheckedSpec, action: Key, surely: bool) -> bool:
    """Whether DOES calls lead from ``action`` to a fail statement in a DOES.

    A call is followed when the callee's guard can pass, or with ``surely``
    only when it always passes: then the action always fails.
    """
    records = spec.program.actions

    def enters(node: Node) -> bool:
        const = _const_value(records[node[1]].decl.guard)
        return const is True if surely else const is not False

    reached = spec.program.influence.walk([("action", action)], _DOES_CALLS, enters)
    return any(records[key].fails for _kind, key in reached)


# --------------------------------------------------------------------------
# Test generation


def generate(spec: CheckedSpec, path_set: PathSet) -> TestSuite:
    """Simulation-guided generation: the emitted tests pass by construction."""
    tests: list[GeneratedTest] = []
    infeasible: list[InfeasiblePath] = []
    runtime = Runtime(spec, seed=0)
    for index, path in enumerate(path_set.paths):
        outcome = _generate_one(spec, runtime, path, index)
        if isinstance(outcome, GeneratedTest):
            tests.append(outcome)
        else:
            infeasible.append(InfeasiblePath(path, outcome))
    return TestSuite(tuple(tests), tuple(infeasible), path_set.warnings)


def generate_all(spec: CheckedSpec) -> TestSuite:
    suites = [generate(spec, enumerate_paths(spec, key)) for key in policy_keys(spec)]
    return TestSuite(
        tuple(t for s in suites for t in s.tests),
        tuple(i for s in suites for i in s.infeasible),
        tuple(w for s in suites for w in s.warnings),
    )


def _generate_one(
    spec: CheckedSpec, runtime: Runtime, path: PolicyPath, index: int
) -> GeneratedTest | str:
    assertions = _assertion_template(spec, path)
    init_plan = _stimulus_plan(spec, path.initiating_event)
    if init_plan is None:
        return f"initiating event {qual(path.initiating_event)} cannot be stimulated"
    term_plan = _stimulus_plan(spec, path.terminating_event)

    metrics = _relevant_metrics(spec, path)
    cut = _term_tick(init_plan)
    prefix_passed = False

    def prefix_passes(trace: Trace, tick: int) -> bool:
        # The scenario without the terminating stimulus halts at ``cut``
        # before applying anything, so its whole trace is this prefix. The
        # flag keeps the last call's answer: after a run it is True exactly
        # when the run stopped at ``cut``.
        nonlocal prefix_passed
        prefix_passed = tick == cut and check_assertions(assertions, trace) == []
        return prefix_passed

    for assignment in _assignments(spec, metrics):
        scenario = _build_scenario(spec, path, index, assignment, init_plan, term_plan)
        trace = runtime.run(scenario, max_ticks=scenario.steps[-1][0] + 1, stop=prefix_passes)
        if prefix_passed:
            scenario = _build_scenario(spec, path, index, assignment, init_plan, None)
        elif trace.aborted is not None:
            return f"candidate run aborted: {trace.aborted}"
        elif check_assertions(assertions, trace) != []:
            continue
        return GeneratedTest(path, scenario, assertions)
    return "no metric assignment drawn from guard constants forces this path"


def _assertion_template(spec: CheckedSpec, path: PolicyPath) -> tuple[Assertion, ...]:
    program = spec.program
    elem = path.policy[0]
    fluents = [  # the policy's fluents the initiating event initiates
        fluent for fluent in program.policies[path.policy].fluents
        if any((elem, ref.name) == path.initiating_event for ref in fluent.initiated_by)
    ]
    out = [Assertion(FLUENT_INITIATED, f"{elem}.{fluent.name}") for fluent in fluents]
    out.append(Assertion(MAPPING_FIRED, f"{qual(path.policy)}.mapping[[]*[]]"))
    for action, choice in path.branches:
        if choice == GUARD_REJECT:
            out.append(Assertion(ACTION_STARTED, qual(action), present=False))
            continue
        out.append(Assertion(ACTION_STARTED, qual(action)))
        if choice == SUCCESS_PATH:
            out.append(Assertion(ACTION_SUCCEEDED, qual(action)))
        else:
            out.append(Assertion(ACTION_FAILED, qual(action)))
            onerr_triggers = program.actions[action].onerr_triggers
            out += [Assertion(EVENT_RAISED, qual(event)) for event, _cause in onerr_triggers]
    for fluent in fluents:
        if any((elem, ref.name) == path.terminating_event for ref in fluent.terminated_by):
            out.append(
                Assertion(
                    FLUENT_TERMINATED, f"{elem}.{fluent.name}",
                    detail=f"by {qual(path.terminating_event)}",
                )
            )
    return tuple(out)


@dataclass(frozen=True)
class _Plan:
    """How to raise an event from a scenario, and how many ticks it needs."""

    stimuli: tuple[object, ...]  # templates; SetMetric value filled per candidate
    ticks_needed: int
    metric: Key | None = None  # CHANGED-driven events: the metric to set


def _stimulus_plan(spec: CheckedSpec, event: Key) -> _Plan | None:
    info = spec.program.events[event]
    if info.decl.injectable:
        return _Plan((InjectEvent(event),), 1)
    for kind, target in info.activations:
        if kind is ActivationKind.SENT or kind is ActivationKind.RECEIVED:
            channel = _some_channel(spec, event[0])
            if channel is None:
                continue
            ticks = 1 if kind is ActivationKind.SENT else 2
            return _Plan((SendMessage(target, channel),), ticks)
        if kind is ActivationKind.CHANGED:
            return _Plan((), 1, metric=target)
        return _Plan((), target)
    return None


def _some_channel(spec: CheckedSpec, elem: str) -> Key | None:
    """The tier's first channel, else the shared protocol's first, else None."""
    keys = spec.program.channel_keys
    return next((key for scope in (elem, ASIP_SCOPE) for key in keys if key[0] == scope), None)


def _relevant_metrics(spec: CheckedSpec, path: PolicyPath) -> list[tuple[Key, MetricDecl]]:
    """Metrics the path's event guards and actions read, first seen first.

    The two events' guards come first, then each action: its GUARDS and
    ENSURES, then its statements in order: an assigned value (verdict-style
    metrics reach guards through copies), and at each call the callee's
    reads, once per callee.
    """
    program = spec.program
    starts = [("event", path.initiating_event), ("event", path.terminating_event)]
    starts += [("action", action) for action, _choice in path.branches]
    reached = program.influence.walk(starts, _READS)
    return [(key, program.metrics[key]) for kind, key in reached if kind == "metric"]


def _candidate_values(spec: CheckedSpec, key: Key, decl: MetricDecl) -> list[object]:
    if decl.value_type is ValueType.BOOLEAN:
        return [decl.initial.value, True, False]
    tier = spec.symbols.tiers[key[0]]
    guards = [event.guard for event in tier.events]
    guards += [expr for action in tier.actions for expr in (action.guard, action.ensures)]
    values: list[object] = [decl.initial.value]
    for expr in guards:
        if expr is not None:
            values.extend(_literals_against(expr, key[1], decl.value_type))
    return list(dict.fromkeys(values))


def _literals_against(expr: Expr, metric: str, value_type: ValueType) -> list[object]:
    """Literals compared against a metric, widened by one for strict bounds."""
    if isinstance(expr, CompareExpr) and any(
        isinstance(s, MetricRefExpr) and s.name == metric for s in (expr.left, expr.right)
    ):
        out: list[object] = []
        for side in (expr.left, expr.right):
            if isinstance(side, Lit):
                out.append(side.value)
                if value_type is ValueType.INTEGER:
                    out.extend([side.value + 1, side.value - 1])  # type: ignore[operator]
                elif value_type is ValueType.REAL:
                    out.extend([side.value + 1.0, side.value - 1.0])  # type: ignore[operator]
        return out
    if isinstance(expr, NotExpr):
        return _literals_against(expr.operand, metric, value_type)
    # A comparison that does not name the metric may nest one that does.
    if isinstance(expr, (BinaryExpr, CompareExpr)):
        return _literals_against(expr.left, metric, value_type) + _literals_against(
            expr.right, metric, value_type
        )
    return []


def _assignments(spec: CheckedSpec, metrics) -> list[dict[Key, object]]:
    if not metrics:
        return [{}]
    keys = [key for key, _decl in metrics]
    pools = [_candidate_values(spec, key, decl) for key, decl in metrics]
    combos = itertools.islice(itertools.product(*pools), MAX_CANDIDATES)
    # A boolean pool repeats the initial value, so some combinations repeat
    # an earlier one; their scenario, and so their outcome, is the same.
    return [dict(zip(keys, combo)) for combo in dict.fromkeys(combos)]


def _build_scenario(
    spec: CheckedSpec,
    path: PolicyPath,
    index: int,
    assignment: dict[Key, object],
    init_plan: _Plan,
    term_plan: _Plan | None,
) -> Scenario:
    elem = path.policy[0]
    steps: list[tuple[int, object]] = []
    for key, value in assignment.items():
        if value != spec.program.metrics[key].initial.value:
            steps.append((0, SetMetric(key, value)))

    for stim in init_plan.stimuli:
        steps.append((_INIT_TICK, stim))
    if init_plan.metric is not None:
        # CHANGED-driven initiator: nudge the metric with a candidate value
        value = assignment.get(init_plan.metric, _initial_of(spec, init_plan.metric))
        steps.append((_INIT_TICK, SetMetric(init_plan.metric, value)))
    tick = _term_tick(init_plan)

    if term_plan is not None:
        for stim in term_plan.stimuli:
            steps.append((tick, stim))
        if term_plan.metric is not None:
            value = assignment.get(term_plan.metric, _toggled(spec, term_plan.metric))
            steps.append((tick, SetMetric(term_plan.metric, value)))
        tick += term_plan.ticks_needed

    steps.append((tick, Halt()))
    return Scenario(path.path_id(index), tuple(steps))  # type: ignore[arg-type]


def _term_tick(init_plan: _Plan) -> int:
    """Tick of the terminating stimulus, or of the halt when there is none."""
    return _INIT_TICK + init_plan.ticks_needed


def _initial_of(spec: CheckedSpec, key: Key) -> object:
    return spec.program.metrics[key].initial.value


def _toggled(spec: CheckedSpec, key: Key) -> object:
    value = _initial_of(spec, key)
    return not value if isinstance(value, bool) else value


def check_assertions(assertions: tuple[Assertion, ...], trace: Trace) -> list[str]:
    """Empty list when the trace satisfies every assertion, else failures."""
    rows = trace.rows
    failures: list[str] = []
    position = 0
    for assertion in assertions:
        if assertion.present:
            for index in range(position, len(rows)):
                if assertion.matches(rows[index]):
                    position = index + 1  # a record's seq is its index
                    break
            else:
                failures.append(f"missing (after seq {position}): {assertion.render()}")
        elif any(assertion.matches(row) for row in rows):
            failures.append(f"forbidden record present: {assertion.render()}")
    return failures


# --------------------------------------------------------------------------
# Change impact


@dataclass(frozen=True)
class ImpactSet:
    changed: tuple[str, ...]
    policies: tuple[Key, ...]

    def affects(self, policy: Key) -> bool:
        return policy in self.policies


def impact(old_spec: CheckedSpec, new_spec: CheckedSpec) -> ImpactSet:
    """The changed declarations, and the policies they impact in either
    specification (``_impacted``)."""
    if not old_spec.ok or not new_spec.ok:
        raise ValueError("specifications have errors; run check_all first")
    old_decls = _decl_map(old_spec)
    new_decls = _decl_map(new_spec)
    changed = {
        node
        for node in old_decls.keys() | new_decls.keys()
        if old_decls.get(node) != new_decls.get(node)
    }
    return ImpactSet(
        tuple(sorted(f"{scope}.{kind}.{name}" for kind, (scope, name) in changed)),
        tuple(sorted(_impacted(old_spec, changed) | _impacted(new_spec, changed))),
    )


def _decl_map(spec: CheckedSpec) -> dict[Node, object]:
    """Each declaration by its graph node; a policy by ``("policy", key)``."""
    program = spec.program
    tables: dict[str, dict] = {
        "policy": program.policies,
        "action": {key: info.decl for key, info in program.actions.items()},
        "event": {key: info.decl for key, info in program.events.items()},
        "metric": program.metrics,
        "message": program.messages,
        "channel": spec.symbols.channels,
    }
    return {(kind, key): decl for kind, table in tables.items() for key, decl in table.items()}


def _impacted(spec: CheckedSpec, changed: set[Node]) -> set[Key]:
    """The policies of ``spec`` that a change to the ``changed`` declarations
    impacts, walking back from them: to what uses them, to what can set that
    going (a timer among it impacts every policy), adding the metrics they
    read, and then to the fluents of the policies that use any of it. A
    changed policy stands for its fluents."""
    program = spec.program
    graph = program.influence
    starts = [node for node in changed if node[0] != "policy"]
    starts += [
        ("fluent", (key[0], fluent.name)) for kind, key in changed
        if kind == "policy" and key in program.policies for fluent in program.policies[key].fluents
    ]
    timers = {("event", occurrence.event) for occurrence, _period in program.timer_slots}
    running = graph.walk(graph.walk(starts, _USES), _RUNS)
    if not timers.isdisjoint(running):
        return set(program.policies)
    reached = graph.walk(running + graph.walk(starts, _READERS), _POLICY_USES)
    fluent_policy = spec.symbols.fluent_policy
    return {(key[0], fluent_policy[key]) for kind, key in reached if kind == "fluent"}


def regenerate(old_suite: TestSuite, old_spec: CheckedSpec, new_spec: CheckedSpec) -> TestSuite:
    """Carry unimpacted policies' tests over verbatim; regenerate the rest.

    The result equals from-scratch generation over the new specification.
    """
    impacted = impact(old_spec, new_spec)
    tests: list[GeneratedTest] = []
    infeasible: list[InfeasiblePath] = []
    warnings: list[str] = []
    for policy in policy_keys(new_spec):
        if impacted.affects(policy):
            suite = generate(new_spec, enumerate_paths(new_spec, policy))
            tests.extend(suite.tests)
            infeasible.extend(suite.infeasible)
            warnings.extend(suite.warnings)
        else:
            tests.extend(old_suite.for_policy(policy))
            infeasible.extend(i for i in old_suite.infeasible if i.path.policy == policy)
            warnings.extend(enumerate_paths(new_spec, policy).warnings)
    return TestSuite(tuple(tests), tuple(infeasible), tuple(warnings))


# --------------------------------------------------------------------------
# Suite I/O and execution


def write_suite(suite: TestSuite, out_dir: Path) -> list[Path]:
    """One directory per policy: <path-id>.scenario and <path-id>.expect."""
    written: list[Path] = []
    for test in suite.tests:
        policy_dir = out_dir / qual(test.policy)
        policy_dir.mkdir(parents=True, exist_ok=True)
        scenario_path = policy_dir / f"{test.name}.scenario"
        scenario_path.write_text(test.scenario.render(), encoding="utf-8")
        expect_path = policy_dir / f"{test.name}.expect"
        expect_lines = [assertion.render() for assertion in test.assertions]
        expect_path.write_text("\n".join(expect_lines) + "\n", encoding="utf-8")
        written.extend([scenario_path, expect_path])
    return written


def run_suite(spec: CheckedSpec, suite: TestSuite) -> list[tuple[GeneratedTest, list[str]]]:
    """Run every generated test; the paired list holds assertion failures."""
    runtime = Runtime(spec, seed=0)
    results = []
    for test in suite.tests:
        trace = runtime.run(test.scenario)
        failures = check_assertions(test.assertions, trace)
        if trace.aborted is not None:
            failures.append(f"run aborted: {trace.aborted}")
        results.append((test, failures))
    return results


def measure_coverage(
    spec: CheckedSpec, suite: TestSuite
) -> tuple[set[tuple[Key, str]], set[tuple[Key, str]]]:
    """(covered, universe) of (action, branch) pairs, measured from traces.

    The universe holds every branch the enumerator considers reachable for
    the mapped actions of the suite's policies.
    """
    universe: set[tuple[Key, str]] = set()
    policies = {test.policy for test in suite.tests}
    for policy in policies:
        for path in enumerate_paths(spec, policy).paths:
            for action, choice in path.branches:
                universe.add((action, choice))
    covered: set[tuple[Key, str]] = set()
    runtime = Runtime(spec, seed=0)
    for test in suite.tests:
        trace = runtime.run(test.scenario)
        seen = {(kind, subject) for _tick, kind, subject, _detail in trace.rows}
        fired = any(kind == MAPPING_FIRED for kind, _subject in seen)
        for action, choice in test.path.branches:
            name = qual(action)
            if (ACTION_SUCCEEDED, name) in seen:
                covered.add((action, SUCCESS_PATH))
            if (ACTION_FAILED, name) in seen:
                covered.add((action, ERROR_PATH))
            if choice == GUARD_REJECT and fired and (ACTION_STARTED, name) not in seen:
                covered.add((action, GUARD_REJECT))
    return covered & universe, universe

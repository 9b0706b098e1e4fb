"""Path-coverage test generation for self-managing policies.

An execution path of a policy fixes one initiating event, one branch choice
per mapped action (GuardReject, or GuardPass with a Success or Error
outcome), and one terminating event. Enumeration prunes branches that
constant guards or the absence of fail-capable statements make unreachable;
everything else is handed to the generator, which searches metric
assignments drawn from the guard constants of the policy's reference
closure, simulates each candidate scenario, and keeps the first one whose
trace satisfies the path's assertions. Paths no assignment can force are
reported as infeasible, never silently dropped.

Each candidate is simulated once. An assignment is tried first without the
terminating stimulus, then with it. The two scenarios agree up to the tick
of that stimulus, where the first one halts, so the no-terminator variant is
checked on the prefix: the run of the second is paused at that tick, the
assertions are checked on the trace so far, and only if they fail does the
same run go on to apply the terminating stimulus. An assignment equal to an
earlier one is not simulated again.

Generated tests serialize one directory per policy: ``<path-id>.scenario``
plus ``<path-id>.expect``, whose assertion lines use the five trace fields
with ``*`` wildcards; a leading ``!`` asserts absence. Change-impact
analysis compares two specifications declaration by declaration (ignoring
source positions) and closes the changed set under the reverse reference
graph, so regeneration touches exactly the policies whose behavior can have
changed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fnmatch import fnmatchcase
from pathlib import Path

from .checker import CheckedSpec
from .names import Key, qual
from .nodes import (
    ActionDecl,
    ActivationKind,
    AssignStmt,
    BinaryExpr,
    CallStmt,
    CompareExpr,
    EventDecl,
    Expr,
    FailStmt,
    Lit,
    MetricDecl,
    MetricRefExpr,
    NotExpr,
    PolicyDecl,
    SendStmt,
    Tier,
    ValueType,
)
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

    def matches(self, record) -> bool:
        return (
            record.kind == self.kind
            and fnmatchcase(record.subject, self.subject)
            and fnmatchcase(record.detail, self.detail)
        )

    def render(self) -> str:
        prefix = "" if self.present else "!\t"
        return f"{prefix}*\t*\t{self.kind}\t{self.subject}\t{self.detail}"


@dataclass(frozen=True)
class GeneratedTest:
    name: str
    policy: Key
    path: PolicyPath
    scenario: Scenario
    assertions: tuple[Assertion, ...]


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
    return [
        (tier.name, policy.name)
        for tier in spec.tree.tiers()
        for policy in tier.policies
    ]


def enumerate_paths(spec: CheckedSpec, policy: Key) -> PathSet:
    """Cartesian product of initiator, per-action branches, and terminator."""
    if not spec.ok:
        raise ValueError("specification has errors; run check_all first")
    tier, decl = _policy_decl(spec, policy)
    if not decl.mappings:
        return PathSet(
            policy, (), (f"policy '{qual(policy)}' has no mappings; no paths",)
        )
    elem = tier.name
    initiators = _ordered_unique(
        (elem, ref.name) for fluent in decl.fluents for ref in fluent.initiated_by
    )
    terminators = _ordered_unique(
        (elem, ref.name) for fluent in decl.fluents for ref in fluent.terminated_by
    )
    actions = _ordered_unique(
        (elem, ref.name) for mapping in decl.mappings for ref in mapping.do_actions
    )

    per_action: list[list[tuple[Key, str]]] = []
    for action_key in actions:
        action = spec.symbols.lookup(elem, "actions", action_key[1])
        assert isinstance(action, ActionDecl)
        guard_const = _const_value(action.guard)
        choices: list[str] = []
        if action.guard is not None and guard_const is None:
            choices.append(GUARD_REJECT)
        if guard_const is False:
            choices = [GUARD_REJECT]
        else:
            if not _always_fails(spec, elem, action):
                choices.append(SUCCESS_PATH)
            if _error_capable(spec, elem, action):
                choices.append(ERROR_PATH)
        per_action.append([(action_key, choice) for choice in choices])

    paths = [
        PolicyPath(policy, initiator, branches, terminator)
        for initiator in initiators
        for branches in itertools.product(*per_action)
        for terminator in terminators
    ]
    return PathSet(policy, tuple(paths))


def _policy_decl(spec: CheckedSpec, policy: Key) -> tuple[Tier, PolicyDecl]:
    for tier in spec.tree.tiers():
        if tier.name != policy[0]:
            continue
        for decl in tier.policies:
            if decl.name == policy[1]:
                return tier, decl
    raise KeyError(f"no policy {qual(policy)}")


def _ordered_unique(keys) -> list[Key]:
    seen: dict[Key, None] = {}
    for key in keys:
        seen.setdefault(key)
    return list(seen)


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


def _callees(spec: CheckedSpec, elem: str, action: ActionDecl) -> list[ActionDecl]:
    out = []
    for stmt in action.does:
        if isinstance(stmt, CallStmt):
            callee = spec.symbols.lookup(elem, "actions", stmt.action.name)
            if isinstance(callee, ActionDecl):
                out.append(callee)
    return out


def _error_capable(spec: CheckedSpec, elem: str, action: ActionDecl, seen=None) -> bool:
    seen = seen or set()
    if action.name in seen:
        return False
    seen.add(action.name)
    if any(isinstance(stmt, FailStmt) for stmt in action.does):
        return True
    return any(
        _const_value(callee.guard) is not False
        and _error_capable(spec, elem, callee, seen)
        for callee in _callees(spec, elem, action)
    )


def _always_fails(spec: CheckedSpec, elem: str, action: ActionDecl, seen=None) -> bool:
    seen = seen or set()
    if action.name in seen:
        return False
    seen.add(action.name)
    if any(isinstance(stmt, FailStmt) for stmt in action.does):
        return True
    return any(
        _const_value(callee.guard) is True
        and _always_fails(spec, elem, callee, seen)
        for callee in _callees(spec, elem, action)
    )


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
    elem = path.policy[0]
    assertions = _assertion_template(spec, path)
    initiator = spec.symbols.lookup(elem, "events", path.initiating_event[1])
    terminator = spec.symbols.lookup(elem, "events", path.terminating_event[1])
    assert isinstance(initiator, EventDecl) and isinstance(terminator, EventDecl)

    init_plan = _stimulus_plan(spec, elem, initiator)
    if init_plan is None:
        return f"initiating event {qual(path.initiating_event)} cannot be stimulated"
    term_plan = _stimulus_plan(spec, elem, terminator)

    metrics = _relevant_metrics(spec, path, initiator, terminator)
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
        elif trace.aborted is not None or check_assertions(assertions, trace) != []:
            continue
        return GeneratedTest(path.path_id(index), path.policy, path, scenario, assertions)
    return "no metric assignment drawn from guard constants forces this path"


def _assertion_template(spec: CheckedSpec, path: PolicyPath) -> tuple[Assertion, ...]:
    elem = path.policy[0]
    _tier, decl = _policy_decl(spec, path.policy)
    fluents = [
        (elem, fluent.name)
        for fluent in decl.fluents
        if any(ref.name == path.initiating_event[1] for ref in fluent.initiated_by)
    ]
    out: list[Assertion] = [
        Assertion(FLUENT_INITIATED, qual(fkey)) for fkey in fluents
    ]
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
            decl_a = spec.symbols.lookup(elem, "actions", action[1])
            assert isinstance(decl_a, ActionDecl)
            for ref in decl_a.onerr_triggers:
                out.append(Assertion(EVENT_RAISED, qual((elem, ref.name))))
    terminated = [
        (elem, fluent.name)
        for fluent in decl.fluents
        if any(ref.name == path.terminating_event[1] for ref in fluent.terminated_by)
    ]
    for fkey in terminated:
        if fkey in fluents:
            out.append(
                Assertion(
                    FLUENT_TERMINATED, qual(fkey),
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


def _stimulus_plan(spec: CheckedSpec, elem: str, event: EventDecl) -> _Plan | None:
    if event.injectable:
        return _Plan((InjectEvent((elem, event.name)),), 1)
    for clause in event.activation:
        if clause.kind is ActivationKind.SENT:
            assert clause.target is not None
            resolved = spec.symbols.resolve_message(elem, clause.target.name)
            assert resolved is not None
            channel = _some_channel(spec, elem)
            if channel is None:
                continue
            return _Plan((SendMessage((resolved[0], clause.target.name), channel),), 1)
        if clause.kind is ActivationKind.RECEIVED:
            assert clause.target is not None
            resolved = spec.symbols.resolve_message(elem, clause.target.name)
            assert resolved is not None
            channel = _some_channel(spec, elem)
            if channel is None:
                continue
            return _Plan((SendMessage((resolved[0], clause.target.name), channel),), 2)
        if clause.kind is ActivationKind.CHANGED:
            assert clause.target is not None
            return _Plan((), 1, metric=(elem, clause.target.name))
        if clause.kind is ActivationKind.ELAPSED:
            assert clause.ticks is not None
            return _Plan((), clause.ticks)
    return None


def _some_channel(spec: CheckedSpec, elem: str) -> Key | None:
    local = [key for key in spec.symbols.channels if key[0] == elem]
    if local:
        return local[0]
    shared = [key for key in spec.symbols.channels if key[0] == "ASIP"]
    return shared[0] if shared else None


def _relevant_metrics(
    spec: CheckedSpec, path: PolicyPath, initiator: EventDecl, terminator: EventDecl
) -> list[tuple[Key, MetricDecl]]:
    elem = path.policy[0]
    exprs: list[Expr] = []
    for event in (initiator, terminator):
        if event.guard is not None:
            exprs.append(event.guard)
    seen_actions: set[str] = set()

    def visit_action(name: str) -> None:
        if name in seen_actions:
            return
        seen_actions.add(name)
        action = spec.symbols.lookup(elem, "actions", name)
        if not isinstance(action, ActionDecl):
            return
        if action.guard is not None:
            exprs.append(action.guard)
        if action.ensures is not None:
            exprs.append(action.ensures)
        for stmt in action.does + action.onerr_does:
            if isinstance(stmt, CallStmt):
                visit_action(stmt.action.name)
            elif isinstance(stmt, AssignStmt):
                # verdict-style metrics reach guards through copies
                exprs.append(stmt.value)

    for action_key, _choice in path.branches:
        visit_action(action_key[1])

    names: dict[str, None] = {}
    for expr in exprs:
        for name in _metric_names(expr):
            names.setdefault(name)
    out = []
    for name in names:
        decl = spec.symbols.lookup(elem, "metrics", name)
        if isinstance(decl, MetricDecl):
            out.append(((elem, name), decl))
    return out


def _metric_names(expr: Expr) -> list[str]:
    if isinstance(expr, MetricRefExpr):
        return [expr.name]
    if isinstance(expr, NotExpr):
        return _metric_names(expr.operand)
    if isinstance(expr, (BinaryExpr, CompareExpr)):
        return _metric_names(expr.left) + _metric_names(expr.right)
    return []


def _candidate_values(spec: CheckedSpec, key: Key, decl: MetricDecl) -> list[object]:
    if decl.value_type is ValueType.BOOLEAN:
        return [decl.initial.value, True, False]
    values: list[object] = [decl.initial.value]
    elem = key[0]
    exprs: list[Expr] = []
    tier = spec.symbols.tiers[elem]
    for event in tier.events:
        if event.guard is not None:
            exprs.append(event.guard)
    for action in tier.actions:
        for guard in (action.guard, action.ensures):
            if guard is not None:
                exprs.append(guard)
    for expr in exprs:
        values.extend(_literals_against(expr, key[1], decl.value_type))
    unique: dict[object, None] = {}
    for value in values:
        unique.setdefault(value)
    return list(unique)


def _literals_against(expr: Expr, metric: str, value_type: ValueType) -> list[object]:
    """Literals compared against a metric, widened by one for strict bounds."""
    out: list[object] = []
    if isinstance(expr, CompareExpr):
        sides = (expr.left, expr.right)
        if any(isinstance(s, MetricRefExpr) and s.name == metric for s in sides):
            for side in sides:
                if isinstance(side, Lit):
                    out.append(side.value)
                    if value_type is ValueType.INTEGER:
                        out.extend([side.value + 1, side.value - 1])  # type: ignore[operator]
                    elif value_type is ValueType.REAL:
                        out.extend([side.value + 1.0, side.value - 1.0])  # type: ignore[operator]
        return out
    if isinstance(expr, NotExpr):
        return _literals_against(expr.operand, metric, value_type)
    if isinstance(expr, (BinaryExpr, CompareExpr)):
        return _literals_against(expr.left, metric, value_type) + _literals_against(
            expr.right, metric, value_type
        )
    return out


def _assignments(spec: CheckedSpec, metrics) -> list[dict[Key, tuple[object, ValueType]]]:
    if not metrics:
        return [{}]
    keys = [key for key, _decl in metrics]
    types = [decl.value_type for _key, decl in metrics]
    pools = [_candidate_values(spec, key, decl) for key, decl in metrics]
    combos = itertools.islice(itertools.product(*pools), MAX_CANDIDATES)
    # A boolean pool repeats the initial value, so some combinations repeat
    # an earlier one; their scenario, and so their outcome, is the same.
    return [
        {key: (value, value_type) for key, value_type, value in zip(keys, types, combo)}
        for combo in dict.fromkeys(combos)
    ]


def _build_scenario(
    spec: CheckedSpec,
    path: PolicyPath,
    index: int,
    assignment: dict[Key, tuple[object, ValueType]],
    init_plan: _Plan,
    term_plan: _Plan | None,
) -> Scenario:
    elem = path.policy[0]
    steps: list[tuple[int, object]] = []
    for key, (value, value_type) in assignment.items():
        decl = spec.symbols.lookup(key[0], "metrics", key[1])
        assert isinstance(decl, MetricDecl)
        if value != decl.initial.value:
            steps.append((0, SetMetric(key, value, value_type)))

    for stim in init_plan.stimuli:
        steps.append((_INIT_TICK, stim))
    if init_plan.metric is not None:
        # CHANGED-driven initiator: nudge the metric with a candidate value
        value, value_type = assignment.get(
            init_plan.metric, _initial_of(spec, init_plan.metric)
        )
        steps.append((_INIT_TICK, SetMetric(init_plan.metric, value, value_type)))
    tick = _term_tick(init_plan)

    if term_plan is not None:
        for stim in term_plan.stimuli:
            steps.append((tick, stim))
        if term_plan.metric is not None:
            value, value_type = assignment.get(
                term_plan.metric, _toggled(spec, term_plan.metric)
            )
            steps.append((tick, SetMetric(term_plan.metric, value, value_type)))
        tick += term_plan.ticks_needed

    steps.append((tick, Halt()))
    return Scenario(path.path_id(index), tuple(steps))  # type: ignore[arg-type]


def _term_tick(init_plan: _Plan) -> int:
    """Tick of the terminating stimulus, or of the halt when there is none."""
    return _INIT_TICK + init_plan.ticks_needed


def _initial_of(spec: CheckedSpec, key: Key) -> tuple[object, ValueType]:
    decl = spec.symbols.lookup(key[0], "metrics", key[1])
    assert isinstance(decl, MetricDecl)
    return decl.initial.value, decl.value_type


def _toggled(spec: CheckedSpec, key: Key) -> tuple[object, ValueType]:
    value, value_type = _initial_of(spec, key)
    if value_type is ValueType.BOOLEAN:
        return (not value, value_type)
    return value, value_type


def check_assertions(assertions: tuple[Assertion, ...], trace: Trace) -> list[str]:
    """Empty list when the trace satisfies every assertion, else failures."""
    records = trace.records
    failures: list[str] = []
    position = 0
    for assertion in assertions:
        if assertion.present:
            for index in range(position, len(records)):
                if assertion.matches(records[index]):
                    position = index + 1  # a record's seq is its index
                    break
            else:
                failures.append(f"missing (after seq {position}): {assertion.render()}")
        elif any(assertion.matches(record) for record in records):
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
    """Structural diff closed over the reverse reference graph."""
    if not old_spec.ok or not new_spec.ok:
        raise ValueError("specifications have errors; run check_all first")
    old_decls = _decl_map(old_spec)
    new_decls = _decl_map(new_spec)
    changed = {
        key
        for key in set(old_decls) | set(new_decls)
        if old_decls.get(key) != new_decls.get(key)
    }
    impacted: set[Key] = set()
    for spec in (old_spec, new_spec):
        for policy in policy_keys(spec):
            closure = _policy_closure(spec, policy)
            if closure & changed:
                impacted.add(policy)
    return ImpactSet(
        tuple(sorted(changed)),
        tuple(sorted(impacted)),
    )


def _decl_map(spec: CheckedSpec) -> dict[str, object]:
    decls: dict[str, object] = {}
    for tier in spec.tree.tiers():
        for namespace, items in (
            ("policy", tier.policies),
            ("action", tier.actions),
            ("event", tier.events),
            ("metric", tier.metrics),
        ):
            for decl in items:
                decls[f"{tier.name}.{namespace}.{decl.name}"] = decl
    for (scope, name), decl in spec.symbols.messages.items():
        decls[f"{scope}.message.{name}"] = decl
    for (scope, name), decl in spec.symbols.channels.items():
        decls[f"{scope}.channel.{name}"] = decl
    return decls


def _policy_closure(spec: CheckedSpec, policy: Key) -> set[str]:
    """Qualified names of every declaration the policy transitively uses."""
    elem = policy[0]
    try:
        _tier, decl = _policy_decl(spec, policy)
    except KeyError:
        return set()
    closure: set[str] = {f"{elem}.policy.{policy[1]}"}
    pending_events: list[str] = []
    pending_actions: list[str] = []

    for fluent in decl.fluents:
        for ref in fluent.initiated_by + fluent.terminated_by:
            pending_events.append(ref.name)
    for mapping in decl.mappings:
        for ref in mapping.do_actions:
            pending_actions.append(ref.name)

    seen_events: set[str] = set()
    seen_actions: set[str] = set()

    def add_expr(expr: Expr | None) -> None:
        if expr is None:
            return
        for name in _metric_names(expr):
            closure.add(f"{elem}.metric.{name}")

    while pending_events or pending_actions:
        while pending_events:
            name = pending_events.pop()
            if name in seen_events:
                continue
            seen_events.add(name)
            closure.add(f"{elem}.event.{name}")
            event = spec.symbols.lookup(elem, "events", name)
            if not isinstance(event, EventDecl):
                continue
            add_expr(event.guard)
            for clause in event.activation:
                if clause.kind is ActivationKind.CHANGED and clause.target is not None:
                    closure.add(f"{elem}.metric.{clause.target.name}")
                elif clause.target is not None:
                    resolved = spec.symbols.resolve_message(elem, clause.target.name)
                    if resolved is not None:
                        closure.add(f"{resolved[0]}.message.{clause.target.name}")
        while pending_actions:
            name = pending_actions.pop()
            if name in seen_actions:
                continue
            seen_actions.add(name)
            closure.add(f"{elem}.action.{name}")
            action = spec.symbols.lookup(elem, "actions", name)
            if not isinstance(action, ActionDecl):
                continue
            add_expr(action.guard)
            add_expr(action.ensures)
            for stmt in action.does + action.onerr_does:
                if isinstance(stmt, CallStmt):
                    pending_actions.append(stmt.action.name)
                elif isinstance(stmt, AssignStmt):
                    closure.add(f"{elem}.metric.{stmt.metric.name}")
                    add_expr(stmt.value)
                elif isinstance(stmt, SendStmt):
                    message = spec.symbols.resolve_message(elem, stmt.message.name)
                    channel = spec.symbols.resolve_channel(elem, stmt.channel.name)
                    if message is not None:
                        closure.add(f"{message[0]}.message.{stmt.message.name}")
                    if channel is not None:
                        closure.add(f"{channel[0]}.channel.{stmt.channel.name}")
            for ref in action.triggers + action.onerr_triggers:
                pending_events.append(ref.name)
    return closure


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


def run_suite(
    spec: CheckedSpec, suite: TestSuite, max_ticks: int = 1000
) -> list[tuple[GeneratedTest, list[str]]]:
    """Run every generated test; the paired list holds assertion failures."""
    runtime = Runtime(spec, seed=0)
    results = []
    for test in suite.tests:
        trace = runtime.run(test.scenario, max_ticks=max_ticks)
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
        trace = runtime.run(test.scenario, max_ticks=1000)
        started = {r.subject for r in trace.records if r.kind == ACTION_STARTED}
        for record in trace.records:
            for action, _choice in test.path.branches:
                if record.subject == qual(action):
                    if record.kind == ACTION_SUCCEEDED:
                        covered.add((action, SUCCESS_PATH))
                    elif record.kind == ACTION_FAILED:
                        covered.add((action, ERROR_PATH))
        if any(record.kind == MAPPING_FIRED for record in trace.records):
            for action, choice in test.path.branches:
                if choice == GUARD_REJECT and qual(action) not in started:
                    covered.add((action, GUARD_REJECT))
    return covered & universe, universe

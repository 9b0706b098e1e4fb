"""The checked spec's program: shared by every back end, equal to the tree walks."""

from __future__ import annotations

import random
from types import SimpleNamespace

import pytest

from asslkit import check_all, parse_text
from asslkit.missions import all_missions
from asslkit.nodes import (
    BinaryExpr,
    BindingRefExpr,
    CompareExpr,
    Expr,
    FluentRefExpr,
    Lit,
    MetricRefExpr,
    NotExpr,
    ValueType,
)
from asslkit.program import (
    MAX_CALL_DEPTH,
    Assign,
    Call,
    InfluenceGraph,
    Program,
    compile_expr,
)
from asslkit.runtime import Halt, InjectEvent, Runtime, Scenario
from asslkit.runtime.state import ACTION_SUCCEEDED
from asslkit.testgen import (
    _decl_map,
    _impacted,
    _reaches_fail,
    _relevant_metrics,
    enumerate_paths,
    generate_all,
    impact,
    policy_keys,
    regenerate,
)
from asslkit.verifier import build_lts, default_env
from oracles import (
    reference_always_fails,
    reference_error_capable,
    reference_eval_expr,
    reference_impact,
    reference_policy_closure,
    reference_relevant_metrics,
)
from specgen import random_checked_spec, swarm_source
from tracecheck import rows_of


# Fails only on error paths, through constant and variable guards, a callee
# reached twice, and a message and channel of the shared protocol.
EDGE_SPEC = """
AS sys { }
ASIP {
  MESSAGES { MESSAGE ping { SENDER { sys } RECEIVER { w } } }
  CHANNELS { CHANNEL bus { CAPACITY { 2 } } }
}
AE w {
  POLICIES {
    P {
      FLUENT f { INITIATED_BY { EVENTS.go, EVENTS.pinged } TERMINATED_BY { EVENTS.stop } }
      MAPPING {
        CONDITIONS { f }
        DO_ACTIONS { ACTIONS.diamond, ACTIONS.lateFail, ACTIONS.lateCall, ACTIONS.viaTrue,
                     ACTIONS.viaFalse }
      }
    }
  }
  ACTIONS {
    ACTION failer { DOES { fail "boom"; } }
    ACTION lateFail { DOES { METRICS.x = true; } ONERR_DOES { fail "late"; } }
    ACTION lateCall { DOES { METRICS.x = false; } ONERR_DOES { call ACTIONS.failer; } }
    ACTION alwaysEnters { GUARDS { true } DOES { call ACTIONS.failer; } }
    ACTION viaTrue { DOES { call ACTIONS.alwaysEnters; } }
    ACTION neverEnters { GUARDS { NOT true } DOES { fail "never"; } }
    ACTION viaFalse { DOES { call ACTIONS.neverEnters; } }
    ACTION mayEnter { GUARDS { METRICS.y > 2 } DOES { call ACTIONS.failer; } }
    ACTION viaMaybe { DOES { METRICS.x = METRICS.z; call ACTIONS.mayEnter; } }
    ACTION diamond {
      ENSURES { METRICS.w }
      DOES {
        call ACTIONS.viaMaybe;
        METRICS.x = METRICS.v;
        call ACTIONS.mayEnter;
        send AEIP.MESSAGES.ping over CHANNELS.bus;
      }
      ONERR_DOES { METRICS.w = METRICS.u; }
      TRIGGERS { EVENTS.stop }
    }
  }
  EVENTS {
    EVENT go { GUARDS { METRICS.u } INJECTABLE }
    EVENT pinged { ACTIVATION { RECEIVED { AEIP.MESSAGES.ping } } }
    EVENT stop { GUARDS { NOT METRICS.x } ACTIVATION { CHANGED { METRICS.w } } }
  }
  METRICS {
    METRIC u { TYPE { boolean } INITIAL { true } }
    METRIC v { TYPE { boolean } INITIAL { false } }
    METRIC w { TYPE { boolean } INITIAL { true } }
    METRIC x { TYPE { boolean } INITIAL { false } }
    METRIC y { TYPE { integer } INITIAL { 0 } }
    METRIC z { TYPE { boolean } INITIAL { false } }
  }
}
"""


def analysed_specs(mission_pairs):
    """(name, checked spec): an edge-case spec, missions, 1/3/10-worker swarms
    and random specs 0-119."""
    edge = check_all(parse_text(EDGE_SPEC))
    assert edge.ok, [d.render() for d in edge.diagnostics]
    out = [("edge", edge)]
    out += [(pkg.name, spec) for pkg, spec in mission_pairs]
    out += [(f"swarm{n}", check_all(parse_text(swarm_source(n)))) for n in (1, 3, 10)]
    out += [(f"random{seed}", random_checked_spec(seed)) for seed in range(120)]
    return out


def test_record_walks_match_the_tree_walks(mission_pairs):
    specs = analysed_specs(mission_pairs)
    paths = actions = closures = decls = 0
    for name, spec in specs:
        for tier in spec.tree.tiers():
            for action in tier.actions:
                key = (tier.name, action.name)
                assert _reaches_fail(spec, key, surely=False) == reference_error_capable(
                    spec, tier.name, action
                ), (name, key)
                assert _reaches_fail(spec, key, surely=True) == reference_always_fails(
                    spec, tier.name, action
                ), (name, key)
                actions += 1
        references = {}
        for policy in policy_keys(spec):
            references[policy] = reference_policy_closure(spec, policy)
            closures += 1
            for path in enumerate_paths(spec, policy).paths:
                # first-seen order fixes candidate order, so lists must be equal
                assert _relevant_metrics(spec, path) == reference_relevant_metrics(spec, path)
                paths += 1
        # The walks back from a set of nodes reach the union of what the walks
        # back from each node reach, so checking each declaration alone covers
        # every set of changed declarations.
        for node in _decl_map(spec):
            kind, (scope, decl_name) = node
            qualified = f"{scope}.{kind}.{decl_name}"
            expected = {p for p, closure in references.items() if qualified in closure}
            assert _impacted(spec, {node}) == expected, (name, node)
            decls += 1
    for (_, old), (name, new) in zip(specs, specs[1:]):
        assert impact(old, new) == reference_impact(old, new), name
        assert impact(new, new) == reference_impact(new, new)
    assert (actions, closures, paths) == (320, 144, 1013)
    assert decls == 1460


def test_back_ends_share_the_checked_program(protecting_spec, monkeypatch):
    """One program and one influence graph per check; no back end builds more."""
    built = []
    for cls in (Program, InfluenceGraph):
        monkeypatch.setattr(
            cls, "__init__",
            lambda self, *args, init=cls.__init__, name=cls.__name__: (
                built.append(name) or init(self, *args)
            ),
        )
    first, second = Runtime(protecting_spec, seed=1), Runtime(protecting_spec, record=False)
    assert first.program is second.program is protecting_spec.program
    default_env(protecting_spec)
    build_lts(protecting_spec)
    suite = generate_all(protecting_spec)
    regenerate(suite, protecting_spec, protecting_spec)
    assert built == []
    check_all(protecting_spec.tree)
    assert built == ["Program", "InfluenceGraph"]


def test_impact_walks_do_not_grow_with_the_policies(monkeypatch):
    """Change impact walks each specification's graph a fixed number of times."""
    metric = "METRIC certificateChecked { TYPE { boolean } INITIAL { false } }"
    counts = []
    for workers in (1, 10):
        source = swarm_source(workers)
        old, new = (
            check_all(parse_text(text))
            for text in (source, source.replace(metric, metric.replace("false", "true"), 1))
        )
        walks = []
        monkeypatch.setattr(
            InfluenceGraph, "walk",
            lambda self, *args, walk=InfluenceGraph.walk: walks.append(args) or walk(self, *args),
        )
        assert impact(old, new).policies == (("worker1", "SELF_PROTECTING"),)
        monkeypatch.undo()
        counts.append(len(walks))
    assert counts[0] == counts[1] <= 8


def chain_spec(length: int) -> str:
    """A mapped action a0 that calls a1, which calls a2, ... up to a<length-1>."""
    actions = "\n".join(
        f"    ACTION a{i} {{ DOES {{ call ACTIONS.a{i + 1}; }} }}" for i in range(length - 1)
    )
    return f"""
AS sys {{ }}
AE w {{
  POLICIES {{
    P {{
      FLUENT f {{ INITIATED_BY {{ EVENTS.go }} TERMINATED_BY {{ EVENTS.stop }} }}
      MAPPING {{ CONDITIONS {{ f }} DO_ACTIONS {{ ACTIONS.a0 }} }}
    }}
  }}
  ACTIONS {{
{actions}
    ACTION a{length - 1} {{ DOES {{ METRICS.done = true; }} }}
  }}
  EVENTS {{
    EVENT go {{ INJECTABLE }}
    EVENT stop {{ INJECTABLE }}
  }}
  METRICS {{ METRIC done {{ TYPE {{ boolean }} INITIAL {{ false }} }} }}
}}
"""


def test_call_chain_at_the_depth_limit_runs():
    spec = check_all(parse_text(chain_spec(MAX_CALL_DEPTH + 1)))
    assert spec.ok and spec.diagnostics == ()
    trace = Runtime(spec).run(Scenario("go", ((0, InjectEvent(("w", "go"))), (1, Halt()))))
    assert trace.aborted is None
    assert len(rows_of(trace, ACTION_SUCCEEDED)) == MAX_CALL_DEPTH + 1


@pytest.mark.parametrize("length", [MAX_CALL_DEPTH + 2, 41, 3000])
def test_call_chain_past_the_depth_limit_is_rejected(length):
    spec = check_all(parse_text(chain_spec(length)))
    assert [d.code for d in spec.diagnostics] == ["E-DEPTH"]
    (diag,) = spec.diagnostics
    assert diag.message == (
        f"call chain from action 'a0' nests {length - 1} calls deep;"
        f" the runtime runs at most {MAX_CALL_DEPTH}"
    )
    with pytest.raises(ValueError):
        Runtime(spec)


def test_cyclic_call_graph_gets_a_program_and_no_depth_error():
    source = chain_spec(50).replace("DOES { METRICS.done = true; }", "DOES { call ACTIONS.a0; }")
    spec = check_all(parse_text(source))
    assert [d.code for d in spec.diagnostics] == ["E-CYCLE"]
    assert spec.program is not None and len(spec.program.actions) == 50


# -- compiled expressions against the tree-walking evaluator ----------------------

# Values a metric of each type may hold in a random state. Each pool mixes in
# values of other types that compare equal (True == 1 == 1.0), so a closure
# that converts, or compares with the wrong operator, gives a different value
# or type than the reference.
POOLS = {
    ValueType.BOOLEAN: (True, False, 1, 0, 1.0, 0.0),
    ValueType.INTEGER: (0, 1, 2, 3, -1, True, False, 1.0, 2.0),
    ValueType.REAL: (0.0, 1.0, 1.5, 2.0, -0.5, 1, 0, True),
    ValueType.TEXT: ("alpha", "beta", "", "wide field"),
}
BINDING_VALUES = (True, False, 1, 0)


def outcome(evaluate) -> tuple:
    """A value together with its type, or the type of the error raised."""
    try:
        value = evaluate()
    except Exception as err:  # noqa: BLE001 - both sides must fail alike
        return ("raises", type(err))
    return ("returns", type(value), value)


def compiled_closures(program: Program):
    """(label, closure, expression, element) of every compiled expression."""
    for key, info in program.events.items():
        assert (info.guard is None) == (info.decl.guard is None)
        if info.decl.guard is not None:
            yield f"guard of event {key}", info.guard, info.decl.guard, key[0]
    for key, info in program.actions.items():
        decl = info.decl
        assert (info.guard is None) == (decl.guard is None)
        assert (info.ensures is None) == (decl.ensures is None)
        if decl.guard is not None:
            yield f"guard of action {key}", info.guard, decl.guard, key[0]
        if decl.ensures is not None:
            yield f"ENSURES of action {key}", info.ensures, decl.ensures, key[0]
        for op in info.does + info.onerr_does:
            if type(op) is Assign:
                yield f"value assigned to {op.metric} in {key}", op.compute, op.value, key[0]


def random_state(rng: random.Random, metric_types, fluent_keys) -> SimpleNamespace:
    """A state keyed by ``(tier, name)``, the view the reference evaluator reads."""
    return SimpleNamespace(
        metrics={key: rng.choice(POOLS[value_type]) for key, value_type in metric_types},
        fluents={key: rng.random() < 0.5 for key in fluent_keys},
    )


def random_bindings(rng: random.Random, names) -> dict[str, object] | None:
    roll = rng.random()
    if roll < 0.2:
        return None
    if roll < 0.3:
        return {}
    return {name: rng.choice(BINDING_VALUES) for name in names if rng.random() < 0.8}


def list_view(state, metric_slot, fluent_slot) -> tuple[list, list]:
    """The same state as a runtime holds it: metric and fluent lists indexed by slot."""
    metrics = [None] * len(metric_slot)
    for key, slot in metric_slot.items():
        metrics[slot] = state.metrics[key]
    fluents = [None] * len(fluent_slot)
    for key, slot in fluent_slot.items():
        fluents[slot] = state.fluents[key]
    return metrics, fluents


def assert_same_as_reference(closure, expr, elem, state, bindings, label, slots) -> None:
    want = outcome(lambda: reference_eval_expr(expr, state, elem, bindings))
    metrics, fluents = list_view(state, *slots)
    got = outcome(lambda: closure(metrics, fluents, bindings))
    assert got == want, (label, state, bindings)


def test_compiled_expressions_match_the_reference_evaluator(mission_pairs):
    """Every guard, ENSURES and assigned-value closure, on random states."""
    specs = [spec for _pkg, spec in mission_pairs]
    specs.append(check_all(parse_text(swarm_source(3))))
    specs += [random_checked_spec(seed) for seed in range(120)]
    rng = random.Random(4242)
    kinds: dict[str, int] = {}
    evaluations = 0
    for spec in specs:
        program = spec.program
        slots = (program.metric_slot, program.fluent_slot)
        metric_types = [(key, decl.value_type) for key, decl in program.metrics.items()]
        binding_names = sorted({
            op.binding
            for info in program.actions.values()
            for op in info.does + info.onerr_does
            if type(op) is Call and op.binding
        })
        for label, closure, expr, elem in compiled_closures(program):
            kind = label.split(" of ")[0].split(" to ")[0]
            kinds[kind] = kinds.get(kind, 0) + 1
            for _ in range(30):
                state = random_state(rng, metric_types, program.fluent_keys)
                bindings = random_bindings(rng, binding_names)
                assert_same_as_reference(closure, expr, elem, state, bindings, label, slots)
                evaluations += 1
    assert set(kinds) == {"guard", "ENSURES", "value assigned"}
    assert sum(kinds.values()) > 500 and evaluations > 15_000


def random_expr(rng: random.Random, depth: int) -> Expr:
    """Any expression shape over element ``e``, type-correct or not."""
    leaves = (
        lambda: MetricRefExpr(rng.choice("birt")),
        lambda: FluentRefExpr(rng.choice("fg")),
        lambda: BindingRefExpr(rng.choice("xy")),
        lambda: Lit(*rng.choice((
            (True, ValueType.BOOLEAN), (False, ValueType.BOOLEAN), (1, ValueType.INTEGER),
            (0, ValueType.INTEGER), (2, ValueType.INTEGER), (1.0, ValueType.REAL),
            (1.5, ValueType.REAL), ("alpha", ValueType.TEXT),
        ))),
    )
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        return rng.choice(leaves)()
    if roll < 0.45:
        return NotExpr(random_expr(rng, depth - 1))
    if roll < 0.65:
        return BinaryExpr(
            rng.choice(("AND", "OR")), random_expr(rng, depth - 1), random_expr(rng, depth - 1)
        )
    left = MetricRefExpr(rng.choice("birt")) if rng.random() < 0.4 else random_expr(rng, depth - 1)
    right = rng.choice(leaves)() if rng.random() < 0.5 else random_expr(rng, depth - 1)
    return CompareExpr(rng.choice(("=", "!=", "<", "<=", ">", ">=")), left, right)


def test_compiled_expressions_of_every_shape_match_the_reference():
    """Random trees of every node kind, including comparisons that raise."""
    rng = random.Random(99)
    metric_types = [
        (("e", "b"), ValueType.BOOLEAN), (("e", "i"), ValueType.INTEGER),
        (("e", "r"), ValueType.REAL), (("e", "t"), ValueType.TEXT),
    ]
    fluent_keys = [("e", "f"), ("e", "g")]
    # Slots in reverse declaration order, so a closure reading a key's
    # declaration index instead of its slot is caught.
    metric_slot = {key: 3 - index for index, (key, _type) in enumerate(metric_types)}
    fluent_slot = {key: 1 - index for index, key in enumerate(fluent_keys)}
    slots = (metric_slot, fluent_slot)
    raised = 0
    for index in range(3000):
        expr = random_expr(rng, rng.randint(0, 4))
        closure = compile_expr(expr, "e", *slots)
        for _ in range(8):
            state = random_state(rng, metric_types, fluent_keys)
            bindings = random_bindings(rng, ("x", "y"))
            assert_same_as_reference(closure, expr, "e", state, bindings, index, slots)
            metrics, fluents = list_view(state, *slots)
            raised += outcome(lambda: closure(metrics, fluents, bindings))[0] == "raises"
    assert raised > 100  # ordering text against numbers raises on both sides

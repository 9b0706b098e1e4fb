"""The checked spec's program: shared by every back end, equal to the tree walks."""

from __future__ import annotations

import pytest

from asslkit import check_all, parse_text
from asslkit.program import MAX_CALL_DEPTH, Program
from asslkit.runtime import Halt, InjectEvent, Runtime, Scenario
from asslkit.runtime.state import ACTION_SUCCEEDED
from asslkit.testgen import (
    _policy_closure,
    _reaches_fail,
    _relevant_metrics,
    enumerate_paths,
    generate_all,
    impact,
    policy_keys,
)
from asslkit.verifier import build_lts, default_env
from oracles import (
    reference_always_fails,
    reference_error_capable,
    reference_impact,
    reference_policy_closure,
    reference_relevant_metrics,
)
from specgen import random_checked_spec, swarm_source


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
    paths = actions = closures = 0
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
        for policy in policy_keys(spec):
            assert _policy_closure(spec, policy) == reference_policy_closure(spec, policy)
            closures += 1
            for path in enumerate_paths(spec, policy).paths:
                # first-seen order fixes candidate order, so lists must be equal
                assert _relevant_metrics(spec, path) == reference_relevant_metrics(spec, path)
                paths += 1
    for (_, old), (name, new) in zip(specs, specs[1:]):
        assert impact(old, new) == reference_impact(old, new), name
        assert impact(new, new) == reference_impact(new, new)
    assert (actions, closures, paths) == (320, 144, 1013)


def test_back_ends_share_the_checked_program(protecting_spec, monkeypatch):
    built = []
    init = Program.__init__
    monkeypatch.setattr(
        Program, "__init__", lambda self, *args: built.append(1) or init(self, *args)
    )
    first, second = Runtime(protecting_spec, seed=1), Runtime(protecting_spec, record=False)
    assert first.program is second.program is protecting_spec.program
    default_env(protecting_spec)
    build_lts(protecting_spec)
    generate_all(protecting_spec)
    assert built == []
    check_all(protecting_spec.tree)
    assert built == [1]


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
    assert len(trace.find(ACTION_SUCCEEDED)) == MAX_CALL_DEPTH + 1


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

"""State-graph construction, property checking, counterexamples."""

from __future__ import annotations

import hashlib
import inspect
import json
import operator
import random
from collections import Counter, deque
from dataclasses import replace
from pathlib import Path

import pytest

from asslkit import check_all, parse_text
from asslkit.verifier import (
    Bounds,
    HOLDS,
    INCONCLUSIVE,
    VIOLATED,
    PropertyError,
    UnresolvedAtom,
    build_lts,
    check,
    default_env,
    explain,
    lts_to_text,
    parse_env_stimulus,
    parse_property,
    parse_property_file,
    replay_counterexample,
    eval_prop,
)
from asslkit.cli import main
from asslkit.missions import all_missions
from asslkit.names import qual
from asslkit.nodes import ValueType
from asslkit.parser import MAX_NESTING
from asslkit.runtime import Runtime, parse_scenario
from asslkit.runtime.scenario import InjectEvent
from asslkit.runtime.state import EventOccurrence, RuntimeState
from asslkit.verifier import Layout, Lts, StateVector
from asslkit.verifier.mc import _cycles_and_escapes, _path, path_to
from asslkit.verifier.props import PBin, PNot
from conftest import README_ENVS, operators_spec_and_scenario
from oracles import (
    _label,
    brute_force_lts,
    exhaustive_check,
    lts_as_sets,
    reference_bfs_tree,
    reference_cycles_and_escapes,
    stem_event,
)
from specgen import env_for, random_checked_spec, random_properties, swarm_env, swarm_source
from test_cli import CASCADE_SPEC

TOGGLE_SPEC = """
AS sys { }
AE unit {
  POLICIES {
    TOGGLE {
      FLUENT busy {
        INITIATED_BY { EVENTS.go }
        TERMINATED_BY { EVENTS.stop }
      }
      MAPPING { CONDITIONS { busy } DO_ACTIONS { ACTIONS.hold } }
    }
  }
  ACTIONS {
    ACTION hold { DOES { METRICS.held = true; } }
  }
  EVENTS {
    EVENT go { INJECTABLE }
    EVENT stop { INJECTABLE }
  }
  METRICS { METRIC held { TYPE { boolean } INITIAL { true } } }
}
"""


@pytest.fixture(scope="module")
def toggle_spec():
    spec = check_all(parse_text(TOGGLE_SPEC))
    assert spec.ok
    return spec


#: Stimuli of the every-operator spec's graph (160 states, 248 edges): one
#: value of each metric type, a real -0.0 among them, and the clock.
OPERATORS_ENV = ("tick", "set level -0.0", "set level 2.5", "set count 3", 'set mode "safe"')


@pytest.fixture(scope="module")
def shared_state_graphs():
    """(spec, graph) of every mission with its README environment, swarms
    N=1 and N=2, random specs 0-59, and the every-operator spec under
    ``OPERATORS_ENV``."""
    pairs = []
    for pkg in all_missions():
        spec = pkg.load()
        env = tuple(parse_env_stimulus(spec, t) for t in README_ENVS[pkg.name])
        pairs.append((spec, build_lts(spec, env=env or default_env(spec))))
    for n in (1, 2):
        swarm = check_all(parse_text(swarm_source(n)))
        pairs.append((swarm, build_lts(swarm, env=swarm_env(swarm, n))))
    for seed in range(60):
        spec = random_checked_spec(seed)
        pairs.append((spec, build_lts(spec, env=env_for(spec))))
    operators = operators_spec_and_scenario()[0]
    env = tuple(parse_env_stimulus(operators, text) for text in OPERATORS_ENV)
    pairs.append((operators, build_lts(operators, env=env)))
    return pairs


#: The parts of a working state that ``Layout.state`` shares with the vector.
SHARED_PARTS = ("fluents", "metrics", "channels", "timers")


def full_copy(vec: StateVector, occurrences) -> RuntimeState:
    """A working state for ``vec`` with every part copied into lists."""
    return RuntimeState(
        0,
        list(vec.fluents),
        list(vec.metrics),
        [list(queue) for queue in vec.channels],
        deque(occurrences[event] for event in vec.pending),
        list(vec.timers),
    )


class TestBuildLts:
    def test_single_fluent_automaton_matches_hand_enumeration(self):
        # Simplest possible system: one fluent flipped by two injectable
        # events; the mapped action's write preserves the initial value, so
        # the automaton is purely the fluent plus occurrence bookkeeping.
        spec = check_all(
            parse_text(
                """
                AS sys { }
                AE unit {
                  POLICIES {
                    TOGGLE {
                      FLUENT busy {
                        INITIATED_BY { EVENTS.go }
                        TERMINATED_BY { EVENTS.stop }
                      }
                      MAPPING { CONDITIONS { busy } DO_ACTIONS { ACTIONS.noteIt } }
                    }
                  }
                  ACTIONS { ACTION noteIt { DOES { METRICS.seen = true; } } }
                  EVENTS {
                    EVENT go { INJECTABLE }
                    EVENT stop { INJECTABLE }
                  }
                  METRICS { METRIC seen { TYPE { boolean } INITIAL { true } } }
                }
                """
            )
        )
        lts = build_lts(spec)
        # Hand enumeration (stimulus edges enter with no event):
        #   q0 (idle, none)   --go-->  p1 (idle, pending go)   --proc--> q1
        #   q0                --stop-> p2 (idle, pending stop) --proc--> q2
        #   q1 (busy, go)     --go-->  p3 --proc--> q1 (re-initiation no-op)
        #   q1                --stop-> p4 --proc--> q2
        #   q2 (idle, stop)   --go-->  p1'            = (idle, none, go) = p1
        #   q2                --stop-> p2'            = p2
        # giving 3 quiescent + 4 pending = 7 states and 10 edges.
        assert lts.state_count == 7
        assert lts.edge_count == 10
        assert not lts.truncated
        states, edges, labelings, initial = lts_as_sets(lts)
        o_states, o_edges, o_labelings, o_initial = brute_force_lts(spec, lts.env)
        assert states == o_states
        assert edges == o_edges
        assert labelings == o_labelings
        assert initial == o_initial

    def test_empty_spec(self):
        spec = check_all(parse_text("AS empty { }"))
        lts = build_lts(spec)
        assert lts.state_count == 1
        assert lts.edge_count == 0
        assert not lts.truncated
        assert lts.cut == frozenset()

    def test_figures_env_graph_is_finite(self, protecting_spec):
        env = (
            parse_env_stimulus(protecting_spec, "send privateMessage secureLink"),
            parse_env_stimulus(protecting_spec, "set messageVerdictSecure true"),
            parse_env_stimulus(protecting_spec, "set messageVerdictSecure false"),
            parse_env_stimulus(protecting_spec, "tick"),
        )
        lts = build_lts(protecting_spec, env=env, bounds=Bounds(max_states=10_000))
        assert not lts.truncated
        # golden value, frozen from the first complete exploration
        assert lts.state_count == 60
        assert lts.edge_count == 138

    def test_brute_force_equivalence_on_random_specs(self):
        for seed in range(8):
            spec = random_checked_spec(seed)
            env = env_for(spec)
            lts = build_lts(spec, env=env)
            assert not lts.truncated
            assert lts.state_count <= 512
            assert lts_as_sets(lts)[:3] == brute_force_lts(spec, env)[:3]

    def test_only_serial_exploration_is_accepted(self, toggle_spec):
        with pytest.raises(ValueError, match="jobs must be 1"):
            build_lts(toggle_spec, jobs=2)

    def test_truncation_by_state_bound(self, toggle_spec):
        lts = build_lts(toggle_spec, bounds=Bounds(max_states=3))
        assert lts.truncated
        assert lts.state_count <= 3

    def test_state_bound_stops_within_one_state(self, monkeypatch):
        """Once ``max_states`` are stored, only the rest of the state being
        expanded runs. On a 100-worker swarm, whose quiescent states have 201
        moves each, a 1,000-state bound runs at most 1.2 moves per stored
        state; finishing the whole BFS level ran 20.4."""
        spec = check_all(parse_text(swarm_source(100)))
        moves = 0
        apply_stimulus, step = Runtime.apply_stimulus, Runtime.step

        def counting_apply(self, state, stimulus):
            nonlocal moves
            moves += 1
            apply_stimulus(self, state, stimulus)

        def counting_step(self, state):
            nonlocal moves
            moves += 1
            return step(self, state)

        monkeypatch.setattr(Runtime, "apply_stimulus", counting_apply)
        monkeypatch.setattr(Runtime, "step", counting_step)
        lts = build_lts(spec, env=swarm_env(spec, 100), bounds=Bounds(max_states=1000))
        assert lts.state_count == 1000
        assert moves <= 1.2 * lts.state_count, moves
        # the state that hit the bound and every later one are cut
        assert lts.cut == frozenset(range(min(lts.cut), lts.state_count))

    def test_truncation_by_depth_bound(self, toggle_spec):
        lts = build_lts(toggle_spec, bounds=Bounds(max_depth=1))
        assert lts.truncated
        full = build_lts(toggle_spec)
        assert lts.state_count < full.state_count

    def test_truncation_by_pending_bound(self):
        # one mapping firing enqueues nine triggers at once
        triggers = ", ".join(f"EVENTS.e{i}" for i in range(9))
        events = "\n".join(f"EVENT e{i} {{ }}" for i in range(9))
        spec = check_all(
            parse_text(
                f"""
                AS sys {{
                  POLICIES {{
                    BURST {{
                      FLUENT busy {{
                        INITIATED_BY {{ EVENTS.go }}
                        TERMINATED_BY {{ EVENTS.e0 }}
                      }}
                      MAPPING {{ CONDITIONS {{ busy }} DO_ACTIONS {{ ACTIONS.burst }} }}
                    }}
                  }}
                  ACTIONS {{
                    ACTION burst {{
                      DOES {{ METRICS.m = true; }}
                      TRIGGERS {{ {triggers} }}
                    }}
                  }}
                  EVENTS {{
                    EVENT go {{ INJECTABLE }}
                    {events}
                  }}
                  METRICS {{ METRIC m {{ TYPE {{ boolean }} INITIAL {{ false }} }} }}
                }}
                """
            )
        )
        assert spec.ok
        lts = build_lts(spec, bounds=Bounds(max_pending=8))
        assert lts.truncated
        # the state whose expansion was cut is not treated as a dead end
        assert 0 not in {
            s for s in range(lts.state_count)
            if s not in lts.cut and not lts.succ[s]
        }
        roomy = build_lts(spec, bounds=Bounds(max_pending=16))
        assert not roomy.truncated

    def test_ids_are_bfs_order_and_adjacency_is_label_ordered(self):
        """On the missions, the random specs under several bounds, and the
        1-3 worker swarms, ``build_lts`` numbers states in the order of the
        reference BFS and keeps adjacency sorted, and the stems read from the
        edges follow the reference BFS tree. Stems are checked on every 97th
        state and the last, so the test stays one scan per state."""
        graphs = []
        for pkg in all_missions():
            spec = pkg.load()
            env = tuple(parse_env_stimulus(spec, t) for t in README_ENVS[pkg.name])
            env = env or default_env(spec)
            graphs += [build_lts(spec, env=env), build_lts(spec, env=env + env)]
        every_bound = (
            Bounds(), Bounds(max_states=20), Bounds(max_depth=3), Bounds(max_pending=1)
        )
        for seed in range(200):
            spec = random_checked_spec(seed)
            env = env_for(spec)
            for bounds in every_bound:
                graphs += [
                    build_lts(spec, env=env, bounds=bounds),
                    build_lts(spec, env=env + env, bounds=bounds),
                ]
        for n, bounds in ((1, Bounds()), (2, Bounds()), (3, Bounds(max_states=5000))):
            swarm = check_all(parse_text(swarm_source(n)))
            graphs.append(build_lts(swarm, env=swarm_env(swarm, n), bounds=bounds))
        assert len(graphs) == 1611
        assert sum(lts.truncated for lts in graphs) > 400
        for lts in graphs:
            edges = [
                (src, label, dst)
                for src, adjacency in enumerate(lts.succ)
                for label, dst in adjacency
            ]
            order, parent = reference_bfs_tree(edges, 0)
            assert order == list(range(lts.state_count))
            assert all(adjacency == sorted(adjacency) for adjacency in lts.succ)
            for target in {*range(0, lts.state_count, 97), lts.state_count - 1}:
                assert path_to(lts, target) == _path(parent, 0, target)

    def test_states_outside_cut_have_the_oracle_successors(self):
        """Under every bound, a state outside ``cut`` has exactly the
        successors that brute-force exploration gives its vector, a cut
        state has some of them, and the graph is truncated exactly when
        ``cut`` is not empty."""
        every_bound = (
            Bounds(), Bounds(max_states=20), Bounds(max_depth=3), Bounds(max_pending=1),
            Bounds(max_depth=0), Bounds(max_states=1),
        )
        seen = {"expanded": 0, "cut": 0, "truncated": 0}
        for seed in range(200):
            spec = random_checked_spec(seed)
            env = env_for(spec)
            _states, edges, _labelings, _initial = brute_force_lts(spec, env)
            oracle: dict[tuple, set] = {}
            for src, label, dst in edges:
                oracle.setdefault(src, set()).add((label, dst))
            for bounds in every_bound:
                lts = build_lts(spec, env=env, bounds=bounds)
                assert lts.truncated == bool(lts.cut)
                assert lts.cut <= set(range(lts.state_count))
                pairs = list(zip(lts.states, lts.events))
                for state, pair in enumerate(pairs):
                    successors = [(label, pairs[dst]) for label, dst in lts.succ[state]]
                    assert len(set(successors)) == len(successors)
                    if state in lts.cut:
                        assert set(successors) <= oracle.get(pair, set()), (seed, bounds)
                    else:
                        assert set(successors) == oracle.get(pair, set()), (seed, bounds)
                seen["expanded"] += lts.state_count - len(lts.cut)
                seen["cut"] += len(lts.cut)
                seen["truncated"] += lts.truncated
        assert min(seen.values()) > 0, seen

    def test_layout_state_inverts_vector(self, shared_state_graphs):
        for _spec, lts in shared_state_graphs:
            occurrences = {event: EventOccurrence(event, "") for event in lts.program.events}
            for vec in lts.states:
                state = Layout.state(vec, occurrences)
                assert state.tick == 0
                assert type(state.pending) is deque
                for part in SHARED_PARTS:
                    assert getattr(state, part) is getattr(vec, part), (part, vec)
                # the parts no move wrote pass through as the vector's own
                shared = Layout.vector(state)
                assert shared == vec
                for part in SHARED_PARTS:
                    assert getattr(shared, part) is getattr(vec, part), (part, vec)
                assert repr(Layout.vector(full_copy(vec, occurrences))) == repr(vec)

    def test_a_state_vector_holds_the_runtime_parts_other_than_tick(self):
        assert StateVector._fields == RuntimeState.__slots__[1:]
        assert StateVector._fields == ("fluents", "metrics", "channels", "pending", "timers")
        assert list(inspect.signature(Layout.vector).parameters) == ["state"]
        event = inspect.signature(eval_prop).parameters["event"]
        assert event.default is inspect.Parameter.empty

    def test_shared_working_state_moves_like_a_full_copy(self, shared_state_graphs):
        # Each move's working state starts with the source vector's tuples,
        # and the runtime copies a part into a list where it first writes it.
        # Its successor and raised event must be the ones a state with every
        # part copied into lists gives, they must be the target of the move's
        # edge and that target's event, and the source must not change.
        checked = 0
        for spec, lts in shared_state_graphs:
            edges = 0
            runtime = Runtime(spec, seed=None, record=False)
            occurrences = {event: EventOccurrence(event, "") for event in lts.program.events}
            for state_id, vec in enumerate(lts.states):
                before = repr(vec)
                targets = dict(lts.succ[state_id])
                for stimulus in [None] if vec.pending else lts.env:
                    shared = Layout.state(vec, occurrences)
                    full = full_copy(vec, occurrences)
                    raised = []
                    for state in (shared, full):
                        if stimulus is None:
                            raised.append(runtime.step(state))
                        else:
                            runtime.apply_stimulus(state, stimulus)
                            raised.append(None)
                    successor = repr(Layout.vector(shared))
                    assert successor == repr(Layout.vector(full))
                    assert raised[0] == raised[1], (state_id, stimulus)
                    assert repr(vec) == before
                    for part in SHARED_PARTS:
                        value = getattr(shared, part)
                        assert value is getattr(vec, part) or type(value) is list, (part, stimulus)
                    if type(shared.channels) is list:
                        for queue, source in zip(shared.channels, vec.channels):
                            assert queue is source or type(queue) is list, stimulus
                    if type(stimulus) is InjectEvent:  # an injection only enqueues
                        for part in SHARED_PARTS:
                            assert getattr(shared, part) is getattr(vec, part), part
                    label = f"proc {qual(vec.pending[0])}" if vec.pending else stimulus.render()
                    if label in targets:
                        assert repr(lts.states[targets[label]]) == successor, (state_id, label)
                        assert lts.events[targets[label]] == raised[0], (state_id, label)
                        edges += 1
                    checked += 1
            assert edges == lts.edge_count
        assert checked > 10_000

    def test_a_repeated_stimulus_is_one_move(self, shared_state_graphs):
        # A stimulus listed twice in the environment is one move: the graph
        # is the one the environment gives once, and ``Lts.env`` holds each
        # stimulus once.
        for spec, lts in shared_state_graphs:
            twice = build_lts(spec, env=lts.env + lts.env)
            assert lts_to_text(twice) == lts_to_text(lts)
            assert twice.env == lts.env

    def test_every_stored_metric_value_has_its_slots_declared_type(self, shared_state_graphs):
        # Equal values of one type share a repr but for a real 0.0 and -0.0,
        # so only a spec with a real metric needs metric reprs in its keys.
        python_type = {
            ValueType.BOOLEAN: bool, ValueType.INTEGER: int,
            ValueType.REAL: float, ValueType.TEXT: str,
        }
        checked = 0
        for _spec, lts in shared_state_graphs:
            types = [python_type[m.value_type] for m in lts.program.metrics.values()]
            for vec in lts.states:
                for value, declared in zip(vec.metrics, types, strict=True):
                    assert type(value) is declared, (value, declared)
                    checked += 1
        assert checked > 10_000

    def test_observations_number_the_rendered_fluents_metrics_and_event(self, shared_state_graphs):
        # An observation is what labels read: two states share one exactly
        # when their fluents, metric reprs and entering events are equal.
        for _spec, lts in shared_state_graphs:
            number: dict[tuple, int] = {}
            expected = [
                number.setdefault((vec.fluents, tuple(map(repr, vec.metrics)), event), len(number))
                for vec, event in zip(lts.states, lts.events)
            ]
            assert lts.observations[0] == expected
            assert len(lts.observations[1]) == len(number)

    def test_states_that_differ_only_in_last_event_share_their_expansion(self):
        # State 0 and state 3 (after ``poke`` is processed) have equal
        # vectors and differ only in their event, as do state 2 (``ping``
        # queued) and state 5. A tick from 2 or 5 delivers ``ping`` to two
        # events, over ``max_pending``.
        spec = check_all(parse_text("""
            AS sys { }
            AE unit {
              EVENTS {
                EVENT poke { INJECTABLE }
                EVENT heard { ACTIVATION { RECEIVED { AEIP.MESSAGES.ping } } }
                EVENT noted { ACTIVATION { RECEIVED { AEIP.MESSAGES.ping } } }
              }
              AEIP {
                MESSAGES { MESSAGE ping { SENDER { sys } RECEIVER { unit } } }
                CHANNELS { CHANNEL link { CAPACITY { 1 } } }
              }
            }
        """))
        env = tuple(parse_env_stimulus(spec, t) for t in ("inject poke", "send ping link", "tick"))
        lts = build_lts(spec, env=env, bounds=Bounds(max_pending=1))
        assert lts.state_count == 6
        assert lts.states[3] == lts.states[0] and lts.states[5] == lts.states[2]
        assert lts.events == [
            None, None, None, ("unit", "poke"), None, ("unit", "poke")
        ]
        assert lts.succ[3] is lts.succ[0] and lts.succ[5] is lts.succ[2]
        assert lts.succ[2] == [("inject unit.poke", 4), ("send unit.ping unit.link", 2)]
        # a twin of a state that ``max_pending`` cut is cut too
        assert lts.cut == {2, 5}
        assert not build_lts(spec, env=env, bounds=Bounds(max_pending=2)).cut

    def test_equal_metric_parts_that_render_apart_stay_apart(self, operators_spec):
        # 0.0 == -0.0, but they label states differently: the interned metric
        # part of each state keeps the value it was built with, and the index
        # of seen states keeps the two states apart.
        lts = build_lts(operators_spec, env=(parse_env_stimulus(operators_spec, "set level -0.0"),))
        slot = lts.program.metric_slot[("probe", "level")]
        by_repr = {}
        for state, vec in enumerate(lts.states):
            by_repr.setdefault(repr(vec.metrics[slot]), state)
        assert set(by_repr) == {"0.0", "-0.0"}
        zero, negative = lts.states[by_repr["0.0"]], lts.states[by_repr["-0.0"]]
        assert zero.metrics == negative.metrics and zero != negative
        assert "metric:probe.level=0.0" in lts.labeling(by_repr["0.0"])
        assert "metric:probe.level=-0.0" in lts.labeling(by_repr["-0.0"])
        assert lts.labeling(by_repr["0.0"]) != lts.labeling(by_repr["-0.0"])
        # the drain after the stimulus ends in a quiescent -0.0 state, not
        # in the initial state, which holds 0.0
        assert (lts.state_count, lts.edge_count) == (8, 8)
        assert lts.succ[6] == [("proc probe.levelGe", 7)] and not lts.states[7].pending
        assert "metric:probe.level=-0.0" in lts.labeling(7)
        # an initial -0.0 is kept apart from a 0.0 set later
        spec = check_all(parse_text(
            "AS sys { METRICS { METRIC level { TYPE { real } INITIAL { -0.0 } } } }"
        ))
        env = tuple(parse_env_stimulus(spec, t) for t in ("set level 0.0", "set level -0.0"))
        assert build_lts(spec, env=env).succ == [
            [("set sys.level -0.0", 0), ("set sys.level 0.0", 1)],
            [("set sys.level -0.0", 0), ("set sys.level 0.0", 1)],
        ]

    def test_a_tick_keeps_real_zero_and_negative_zero_states_apart(self, operators_spec):
        # A quiescent -0.0 state whose other parts equal those of a 0.0 state
        # must not share that state's expansion: in a spec with a real metric,
        # the shared-expansion table keys a vector with its metric reprs.
        env = tuple(parse_env_stimulus(operators_spec, t) for t in ("tick", "set level -0.0"))
        lts = build_lts(operators_spec, env=env)
        slot = lts.program.metric_slot[("probe", "level")]
        ticks = Counter()
        for state, vec in enumerate(lts.states):
            if vec.pending:
                continue
            level = repr(vec.metrics[slot])
            assert level in ("0.0", "-0.0")
            (dst,) = [dst for label, dst in lts.succ[state] if label == "tick"]
            assert repr(lts.states[dst].metrics[slot]) == level, state
            ticks[level] += 1
        assert ticks["0.0"] > 0 and ticks["-0.0"] > 0, ticks

    def test_graph_export_format(self, toggle_spec):
        lts = build_lts(toggle_spec)
        text = lts_to_text(lts)
        header = text.splitlines()[0]
        assert header == (
            f"lts states={lts.state_count} edges={lts.edge_count} truncated=false"
        )
        assert "state 0 initial" in text
        assert 'edge 0 -> ' in text


class TestCheck:
    def test_liveness_holds_on_figures(self, protecting_spec):
        env = (
            parse_env_stimulus(protecting_spec, "send privateMessage secureLink"),
            parse_env_stimulus(protecting_spec, "set messageVerdictSecure true"),
            parse_env_stimulus(protecting_spec, "set messageVerdictSecure false"),
            parse_env_stimulus(protecting_spec, "tick"),
        )
        lts = build_lts(protecting_spec, env=env)
        prop = parse_property(
            "G (implies (fluent inSecurityCheck)"
            " (F (event privateMessageSecure | event privateMessageInsecure)))",
            protecting_spec,
        )
        verdict = check(lts, prop)
        assert verdict.result == HOLDS
        assert exhaustive_check(lts, prop) == "Holds"

    def test_g_false_violated_with_empty_stem(self, toggle_spec):
        lts = build_lts(toggle_spec)
        verdict = check(lts, parse_property("G false", toggle_spec))
        assert verdict.result == VIOLATED
        assert verdict.counterexample.stem == ()
        assert verdict.counterexample.violating_state == 0

    def test_stuck_terminator_violates_with_lasso(self, protecting_pkg):
        # guards that can never pass leave inSecurityCheck active forever
        source = protecting_pkg.source()
        source = source.replace(
            "GUARDS { NOT METRICS.thereIsInsecureMsg }", "GUARDS { false }"
        ).replace("GUARDS { METRICS.thereIsInsecureMsg }", "GUARDS { false }")
        stuck = check_all(parse_text(source, "stuck.assl"))
        assert stuck.ok
        env = (
            parse_env_stimulus(stuck, "send privateMessage secureLink"),
            parse_env_stimulus(stuck, "tick"),
        )
        lts = build_lts(stuck, env=env)
        prop = parse_property(
            "G (implies (fluent inSecurityCheck)"
            " (F (event privateMessageSecure | event privateMessageInsecure)))",
            stuck,
        )
        verdict = check(lts, prop)
        assert verdict.result == VIOLATED
        assert verdict.counterexample.kind == "lasso"
        vec = lts.states[verdict.counterexample.violating_state]
        fluent_index = lts.program.fluent_slot[("worker", "inSecurityCheck")]
        assert vec.fluents[fluent_index] is True
        assert exhaustive_check(lts, prop) == "Violated"

    def test_next_shape(self, toggle_spec):
        lts = build_lts(toggle_spec)
        # after go is raised, busy is active in the very next state... only
        # when the next edge is not another stimulus; expect Violated
        verdict = check(
            lts, parse_property("G (implies (event go) (X (fluent busy)))", toggle_spec)
        )
        assert verdict.result in (HOLDS, VIOLATED)
        assert (verdict.result == VIOLATED) == (
            exhaustive_check(lts, parse_property(
                "G (implies (event go) (X (fluent busy)))", toggle_spec
            )) == "Violated"
        )

    def test_until_shape(self, toggle_spec):
        lts = build_lts(toggle_spec)
        prop = parse_property("(! (fluent busy)) U (event go)", toggle_spec)
        verdict = check(lts, prop)
        assert verdict.result == exhaustive_check(lts, prop)

    def test_next_violated_at_dead_end(self):
        # no injectables, no messages, no timers: the initial state is a
        # genuine dead end, so X q fails wherever p holds
        spec = check_all(parse_text(TOGGLE_SPEC.replace("INJECTABLE", "")))
        lts = build_lts(spec)
        assert lts.state_count == 1 and not lts.truncated
        prop = parse_property("G (implies true (X true))", spec)
        verdict = check(lts, prop)
        assert verdict.result == VIOLATED
        assert verdict.counterexample.kind == "deadend"
        assert exhaustive_check(lts, prop) == "Violated"

    def test_every_shape_matches_the_oracle_on_random_graphs_with_dead_ends(self, toggle_spec):
        # Built environments leave no expanded state without successors, so
        # genuine dead ends come from seeded random graphs over the toggle
        # spec's atoms. Each state has distinct edge labels, as in a built
        # graph, and the states state 0 reaches are numbered in BFS order.
        rng = random.Random(28)
        events = (None, ("unit", "go"), ("unit", "stop"))
        dead_ends = 0
        seen: Counter[tuple[str, str]] = Counter()
        for _ in range(400):
            count = rng.randint(1, 10)
            succ = [
                [(f"e{j}", rng.randrange(count)) for j in sorted(rng.sample(range(4), k))]
                for k in (0 if rng.random() < 0.25 else rng.randint(1, 3) for _ in range(count))
            ]
            pairs = [
                (StateVector((rng.random() < 0.5,), (rng.random() < 0.5,), (), (), ()), rng.choice(events))
                for _ in range(count)
            ]
            number = {0: 0}
            order = [0]
            for src in order:
                for _label, dst in succ[src]:
                    if dst not in number:
                        number[dst] = len(order)
                        order.append(dst)
            edges = [(number[src], label, number[dst]) for src in order for label, dst in succ[src]]
            lts = _hand_built_lts(
                toggle_spec.program, [pairs[s][0] for s in order], edges, [pairs[s][1] for s in order]
            )
            dead_ends += sum(not adjacency for adjacency in lts.succ)
            for line in random_properties(toggle_spec, rng, 8):
                prop = parse_property(line, toggle_spec)
                verdict = check(lts, prop)
                assert verdict.result == exhaustive_check(lts, prop), line
                seen[(prop.shape, verdict.result)] += 1
                cex = verdict.counterexample
                if cex is None:
                    continue
                state = 0
                for step in cex.stem + cex.loop:
                    assert step in lts.succ[state], line
                    state = step[1]
                assert state == cex.violating_state, line
                assert bool(cex.loop) == (cex.kind == "lasso"), line
                if cex.kind == "deadend":
                    assert not lts.succ[state], line
                seen[("kind", cex.kind)] += 1
        assert dead_ends >= 100
        shapes = ("G", "F", "G->F", "G->X", "U")
        assert all(seen[(shape, result)] for shape in shapes for result in (HOLDS, VIOLATED))
        assert all(seen[("kind", kind)] for kind in ("safety", "lasso", "deadend", "next"))

    def test_truncated_holds_downgrades_to_inconclusive(self, toggle_spec):
        small = build_lts(toggle_spec, bounds=Bounds(max_states=2))
        assert small.truncated
        prop = parse_property("G (! (fluent busy) | (metric held))", toggle_spec)
        verdict = check(small, prop)
        assert verdict.result == INCONCLUSIVE
        full = build_lts(toggle_spec)
        assert check(full, prop).result == HOLDS

    def test_monotone_truncation_on_random_specs(self):
        rng = random.Random(77)
        rank = {VIOLATED: 0, HOLDS: 1, INCONCLUSIVE: 2}
        for seed in range(6):
            spec = random_checked_spec(seed + 100)
            env = env_for(spec)
            full = build_lts(spec, env=env)
            props = [
                parse_property(line, spec)
                for line in random_properties(spec, rng, count=4)
            ]
            for bound in (2, 8, 32):
                small = build_lts(spec, env=env, bounds=Bounds(max_states=bound))
                for prop in props:
                    low = check(small, prop).result
                    high = check(full, prop).result
                    # raising bounds may only resolve Inconclusive
                    if low != INCONCLUSIVE:
                        assert low == high, (seed, bound, prop.text)

    def test_unresolved_atom(self, toggle_spec):
        with pytest.raises(UnresolvedAtom):
            parse_property("G (fluent nonexistent)", toggle_spec)


class TestExplainAndReplay:
    def test_safety_counterexample_replays(self, toggle_spec):
        lts = build_lts(toggle_spec)
        prop = parse_property("G (! (fluent busy))", toggle_spec)
        verdict = check(lts, prop)
        assert verdict.result == VIOLATED
        cex = verdict.counterexample
        vector = replay_counterexample(toggle_spec, lts, cex)
        assert vector == lts.states[cex.violating_state]
        event = stem_event(toggle_spec, lts, cex.stem)
        assert lts.events[cex.violating_state] == event
        assert eval_prop(prop.p, vector, event, lts.program) is False

    def test_a_stem_step_that_does_not_process_the_queue_head_is_refused(self, toggle_spec):
        # Under ``python -O`` an ``assert`` would vanish and replay the head
        # event whatever the label said.
        lts = build_lts(toggle_spec)
        cex = check(lts, parse_property("G (! (fluent busy))", toggle_spec)).counterexample
        assert [label for label, _ in cex.stem] == ["inject unit.go", "proc unit.go"]
        (go, go_target), (proc, target) = cex.stem
        tampered = replace(cex, stem=((go, go_target), ("proc unit.stop", target)))
        with pytest.raises(ValueError, match="'proc unit.stop' .* queue head, unit.go"):
            replay_counterexample(toggle_spec, lts, tampered)
        early = replace(cex, stem=((proc, target),))
        with pytest.raises(ValueError, match="'proc unit.go' .* queue head, None"):
            replay_counterexample(toggle_spec, lts, early)

    def test_explain_emits_text_and_scenario(self, toggle_spec):
        lts = build_lts(toggle_spec)
        verdict = check(lts, parse_property("G (! (fluent busy))", toggle_spec))
        text, scenario = explain(toggle_spec, lts, verdict)
        assert "inject unit.go" in text
        lines = scenario.render().splitlines()
        assert lines[0] == "tick 0 inject unit.go"
        assert lines[-1].endswith("halt")

    def test_lasso_scenario_halts_at_loop_entry(self, protecting_pkg):
        source = protecting_pkg.source().replace(
            "GUARDS { NOT METRICS.thereIsInsecureMsg }", "GUARDS { false }"
        ).replace("GUARDS { METRICS.thereIsInsecureMsg }", "GUARDS { false }")
        stuck = check_all(parse_text(source))
        env = (
            parse_env_stimulus(stuck, "send privateMessage secureLink"),
            parse_env_stimulus(stuck, "tick"),
        )
        lts = build_lts(stuck, env=env)
        prop = parse_property(
            "G (implies (fluent inSecurityCheck) (F (event privateMessageSecure)))",
            stuck,
        )
        verdict = check(lts, prop)
        assert verdict.result == VIOLATED
        assert verdict.counterexample.loop
        cex = verdict.counterexample
        vector = replay_counterexample(stuck, lts, cex)
        assert vector == lts.states[cex.violating_state]
        assert lts.events[cex.violating_state] == stem_event(stuck, lts, cex.stem)
        text, scenario = explain(stuck, lts, verdict)
        assert "loop" in text
        assert scenario.steps[-1][1].render() == "halt"

    def test_state_lines_show_boolean_metrics_only(self, operators_spec):
        # a text metric whose value contains "=true" is still a text metric
        env = (parse_env_stimulus(operators_spec, 'set mode "a=true"'),)
        lts = build_lts(operators_spec, env=env)
        verdict = check(lts, parse_property('G (! (metric mode = "a=true"))', operators_spec))
        assert verdict.result == VIOLATED
        text, _scenario = explain(operators_spec, lts, verdict)
        assert "metric:probe.claimed=false" in text
        assert "metric:probe.mode" not in text

    def test_counterexample_through_a_tick_replays(self):
        # the watchdog fires only after the clock has advanced four ticks
        pkg = next(p for p in all_missions() if p.name == "ants_self_healing")
        spec = pkg.load()
        env = tuple(parse_env_stimulus(spec, t) for t in README_ENVS[pkg.name])
        lts = build_lts(spec, env=env)
        verdict = check(lts, parse_property("G (! (event watchdogFired))", spec))
        assert verdict.result == VIOLATED
        cex = verdict.counterexample
        assert [label for label, _ in cex.stem].count("tick") >= 4
        assert replay_counterexample(spec, lts, cex) == lts.states[cex.violating_state]
        assert lts.events[cex.violating_state] == stem_event(spec, lts, cex.stem)

    def test_eventually_without_stimuli_is_a_dead_end(self, toggle_spec):
        lts = build_lts(toggle_spec, env=())
        assert lts.state_count == 1 and not lts.truncated
        prop = parse_property("F (fluent busy)", toggle_spec)
        verdict = check(lts, prop)
        assert verdict.result == VIOLATED
        cex = verdict.counterexample
        assert (cex.kind, cex.stem, cex.loop, cex.violating_state) == ("deadend", (), (), 0)
        assert exhaustive_check(lts, prop) == "Violated"
        assert replay_counterexample(toggle_spec, lts, cex) == lts.states[0]
        assert lts.events[0] is None is stem_event(toggle_spec, lts, cex.stem)

    def test_explain_requires_violation(self, toggle_spec):
        lts = build_lts(toggle_spec)
        verdict = check(lts, parse_property("G true", toggle_spec))
        assert verdict.result == HOLDS
        with pytest.raises(ValueError):
            explain(toggle_spec, lts, verdict)


class TestLivelockCounterexamples:
    """A counterexample either replays through a run or is labelled a livelock."""

    @staticmethod
    def run_outcomes(spec, env, props) -> list[tuple[str, str | None]]:
        """(counterexample kind, run abort reason) of each violated property."""
        lts = build_lts(spec, env=env)
        out = []
        for text in props:
            verdict = check(lts, parse_property(text, spec))
            if verdict.result != VIOLATED:
                continue
            _text, scenario = explain(spec, lts, verdict)
            # what ``asslkit run`` does with the scenario file ``verify --cex`` writes
            replayed = parse_scenario(scenario.render(), spec, "cex")
            trace = Runtime(spec, seed=0).run(replayed, max_ticks=1000)
            out.append((verdict.counterexample.kind, trace.aborted))
        return out

    @staticmethod
    def assert_replay_or_livelock(outcomes) -> None:
        for kind, aborted in outcomes:
            if kind == "livelock":
                assert aborted is not None and aborted.startswith("livelock: "), aborted
            else:
                assert aborted is None, (kind, aborted)

    def test_missions_and_random_specs(self):
        rng = random.Random(77)
        outcomes = []
        for pkg in all_missions():
            spec = pkg.load()
            env = tuple(parse_env_stimulus(spec, t) for t in README_ENVS[pkg.name]) or None
            props = [
                line.strip()
                for path in pkg.prop_paths()
                for line in path.read_text().splitlines()
                if line.strip() and not line.lstrip().startswith("#")
            ]
            outcomes += self.run_outcomes(spec, env, props + random_properties(spec, rng, 20))
        for seed in range(60):
            spec = random_checked_spec(seed)
            outcomes += self.run_outcomes(spec, env_for(spec), random_properties(spec, rng, 8))
        self.assert_replay_or_livelock(outcomes)
        assert len(outcomes) > 300
        # neither the missions nor the random specs cascade forever
        assert {kind for kind, _aborted in outcomes} == {"safety", "lasso", "next"}

    def test_cascade_spec(self):
        spec = check_all(parse_text(CASCADE_SPEC))
        env = tuple(
            parse_env_stimulus(spec, t) for t in ("set m true", "set m false", "set n false")
        )
        outcomes = self.run_outcomes(
            spec, env, random_properties(spec, random.Random(3), 60) + [
                "G (NOT (fluent unit.f))", "F (fluent unit.h)", "G (NOT (event unit.g))",
            ]
        )
        self.assert_replay_or_livelock(outcomes)
        kinds = [kind for kind, _aborted in outcomes]
        assert kinds.count("livelock") >= 5 and len(set(kinds)) >= 3


def _random_formula(rng: random.Random, room: int) -> str:
    """A random propositional formula that nests about ``room`` levels."""
    roll = rng.random()
    if room <= 0 or roll < 0.05:
        return rng.choice(("true", "false"))
    if roll < 0.25:
        return "! " + _random_formula(rng, room - 1)
    if roll < 0.4:
        return f"({_random_formula(rng, room - 1)})"
    if roll < 0.45:
        return f"{_random_formula(rng, room - 1)} -> {_random_formula(rng, room - 1)}"
    operators = rng.randint(1, room)
    operands = ["true"] * (operators + 1)
    deep = 0 if roll < 0.7 else rng.randrange(operators + 1)
    operands[deep] = _random_formula(rng, room - operators)
    if roll < 0.85:
        return f" {rng.choice(('&', '|', 'and', 'or'))} ".join(operands)
    return f"({rng.choice(('and', 'or'))} {' '.join(f'({o})' for o in operands)})"


def _prop_depth(prop) -> int:
    if isinstance(prop, PNot):
        return 1 + _prop_depth(prop.operand)
    if isinstance(prop, PBin):
        return 1 + max(_prop_depth(prop.left), _prop_depth(prop.right))
    return 0


class TestPropertyParsing:
    def test_accepted_properties_nest_no_deeper_than_the_limit(self, toggle_spec):
        # Random formulas near the limit in every nesting form, infix and
        # prefix chains among them: an accepted one builds a tree at most
        # MAX_NESTING deep, which eval_prop and render recurse over.
        rng = random.Random(11)
        depths = []
        rejected = 0
        for _ in range(400):
            text = f"G ({_random_formula(rng, rng.randint(MAX_NESTING - 30, MAX_NESTING + 30))})"
            try:
                prop = parse_property(text, toggle_spec)
            except PropertyError as err:
                assert str(err) == f"property nested more than {MAX_NESTING} deep"
                rejected += 1
                continue
            depths.append(_prop_depth(prop.p))
        assert max(depths) <= MAX_NESTING
        assert max(depths) >= MAX_NESTING - 10
        assert len(depths) >= 100 and rejected >= 100

    def test_file_parsing_skips_comments(self, toggle_spec):
        props = parse_property_file(
            "# a comment\n\nG (fluent busy)\nF (event go)\n", toggle_spec
        )
        assert [p.shape for p in props] == ["G", "F"]

    def test_five_shapes(self, toggle_spec):
        lines = [
            "G (fluent busy)",
            "F (event go)",
            "G (implies (fluent busy) (F (event stop)))",
            "G (implies (event go) (X (fluent busy)))",
            "(metric held) U (event go)",
        ]
        shapes = [parse_property(line, toggle_spec).shape for line in lines]
        assert shapes == ["G", "F", "G->F", "G->X", "U"]

    def test_unsupported_shapes_rejected(self, toggle_spec):
        for line in [
            "(fluent busy)",
            "G (F (fluent busy))",
            "F (G (fluent busy))",
            "G (implies (F (fluent busy)) (fluent busy))",
            "! (G (fluent busy))",
        ]:
            with pytest.raises(PropertyError):
                parse_property(line, toggle_spec)

    @pytest.mark.parametrize(
        "line",
        [
            "F ((fluent busy) -> X (fluent busy))",
            "G ((fluent busy) & (true -> F (fluent busy)))",
            "((fluent busy) -> F (fluent busy)) U (fluent busy)",
            "G (true -> ((fluent busy) -> F (fluent busy)))",
            "G ((fluent busy) | ((event go) -> X (fluent busy)))",
        ],
    )
    def test_temporal_implication_inside_a_formula_is_rejected(self, toggle_spec, tmp_path, line):
        # an implication with a temporal consequent is a shape only as the
        # whole body of G; anywhere else the checker cannot evaluate it
        with pytest.raises(PropertyError, match=r"^unsupported formula shape"):
            parse_property(line, toggle_spec)
        spec = tmp_path / "toggle.assl"
        spec.write_text(TOGGLE_SPEC)
        prop = tmp_path / "nested.prop"
        prop.write_text(line + "\n")
        assert main(["verify", str(spec), "--prop", str(prop)]) == 2

    def test_metric_comparison_atom(self, toggle_spec, operators_spec):
        prop = parse_property("G (metric held = true)", toggle_spec)
        assert prop.shape == "G"
        # every operator on an integer metric agrees with Python's
        program = operators_spec.program
        fluents = (False,) * len(program.fluent_keys)
        metrics = list(program.initial_metrics)
        slot = program.metric_slot[("probe", "count")]
        for op, compare in (
            ("=", operator.eq), ("!=", operator.ne), ("<", operator.lt),
            ("<=", operator.le), (">", operator.gt), (">=", operator.ge),
        ):
            atom = parse_property(f"G (metric count {op} 3)", operators_spec).p
            for value in (2, 3, 4):
                metrics[slot] = value
                vector = StateVector(fluents, tuple(metrics), (), (), ())
                assert eval_prop(atom, vector, None, program) is compare(value, 3), (op, value)

    def test_metric_literal_type_checked(self, toggle_spec):
        with pytest.raises(PropertyError):
            parse_property("G (metric held = 3)", toggle_spec)

    def test_ordering_comparison_needs_a_numeric_metric(self, operators_spec, tmp_path):
        # As in a spec (E-TYPE), <, <=, > and >= take an integer or real metric.
        for op in ("<", "<=", ">", ">="):
            for atom, name in (("confirmed " + op + " false", "probe.confirmed"),
                               ("mode " + op + ' "safe"', "probe.mode")):
                with pytest.raises(PropertyError, match=rf"^ordering comparison on .* '{name}'$"):
                    parse_property(f"G (metric {atom})", operators_spec)
            parse_property(f"G (metric count {op} 3)", operators_spec)
            parse_property(f"G (metric level {op} 2.5)", operators_spec)
        for op in ("=", "!="):
            parse_property(f'G (metric mode {op} "safe")', operators_spec)
            parse_property(f"G (metric confirmed {op} false)", operators_spec)
        prop = tmp_path / "ordering.prop"
        prop.write_text('G (metric mode >= "a")\n')
        spec = str(Path(__file__).with_name("data") / "operators.assl")
        assert main(["verify", spec, "--prop", str(prop)]) == 2

    def test_infix_and_prefix_mix(self, toggle_spec):
        prop = parse_property(
            "G ((fluent busy) -> ((metric held) & (! (event stop))))", toggle_spec
        )
        assert prop.shape == "G"


    @pytest.mark.parametrize(
        "prefix, infix",
        [
            ("G (and (fluent busy) (metric held))", "G ((fluent busy) & (metric held))"),
            (
                "G (or (fluent busy) (metric held) (event go))",
                "G ((fluent busy) | (metric held) | (event go))",
            ),
            (
                "F (AND (metric held) (OR (event go) (event stop)) (! (fluent busy)))",
                "F ((metric held) & ((event go) | (event stop)) & (! (fluent busy)))",
            ),
        ],
    )
    def test_prefix_and_or_equal_infix(self, toggle_spec, prefix, infix):
        assert parse_property(prefix, toggle_spec).p == parse_property(infix, toggle_spec).p

    @pytest.mark.parametrize("head", ["and", "or", "AND", "OR"])
    def test_prefix_and_or_need_two_operands(self, toggle_spec, head):
        with pytest.raises(PropertyError, match=f"prefix {head} needs at least two operands"):
            parse_property(f"G ({head} (fluent busy))", toggle_spec)

    @pytest.mark.parametrize(
        "spec, line, message",
        [
            ("toggle_spec", "G ((fluent busy) (fluent busy))", "expected ')', found '('"),
            ("toggle_spec", "G (fluent busy) (event go)", "trailing tokens after property: '('"),
            ("toggle_spec", "G )", "expected an atom, found ')'"),
            (
                "operators_spec", "G (metric probe.count)",
                "metric 'probe.count' is integer; compare it against a literal",
            ),
            (
                "toggle_spec", "(F (fluent busy)) -> (F (event go))",
                "temporal operators may not appear left of ->",
            ),
        ],
    )
    def test_syntax_errors_name_the_problem(self, request, spec, line, message):
        with pytest.raises(PropertyError) as err:
            parse_property(line, request.getfixturevalue(spec))
        assert str(err.value) == message


# One holding and one violated property of every shape, on any spec.
EVERY_SHAPE_BOTH_WAYS = (
    "G true",
    "G false",
    "F true",
    "F false",
    "G (implies true (F true))",
    "G (implies true (F false))",
    "G (implies true (X true))",
    "G (implies true (X false))",
    "false U true",
    "true U false",
)


def _outcome(spec, lts, verdict):
    """Everything a caller sees of one verdict."""
    if verdict.result != VIOLATED:
        return verdict, None, None
    text, scenario = explain(spec, lts, verdict)
    return verdict, text, scenario.render()


def _hand_built_lts(program, states, edges, events=None) -> Lts:
    """A complete graph over hand-written (source, label, target) edges, with
    label-ordered adjacency; ``events`` defaults to None for every state.
    Stems follow each state's first in-edge in (source id, label) order back
    to state 0, so they assume that edge is the one a BFS from state 0 finds
    the state by, as it is with BFS-ordered ids; the graphs built here
    satisfy that."""
    succ = [[] for _ in states]
    for src, label, dst in sorted(edges):
        succ[src].append((label, dst))
    return Lts(
        program=program,
        states=states,
        events=events or [None] * len(states),
        succ=succ,
        cut=frozenset(),
        env=(),
    )


class TestSharedWork:
    """Work cached on an Lts and shared across properties changes nothing."""

    def _assert_order_independent(self, spec, build, props):
        forward_lts = build()
        forward = [_outcome(spec, forward_lts, check(forward_lts, p)) for p in props]
        reverse_lts = build()
        reverse = [
            _outcome(spec, reverse_lts, check(reverse_lts, p)) for p in reversed(props)
        ][::-1]
        fresh = []
        for prop in props:
            lts = build()
            fresh.append(_outcome(spec, lts, check(lts, prop)))
        assert forward == fresh
        assert reverse == fresh
        return {(v.prop.shape, v.result) for v, _text, _scenario in fresh}

    def test_verdicts_do_not_depend_on_check_order_on_missions(self):
        rng = random.Random(3)
        for pkg in all_missions():
            spec = pkg.load()
            env = tuple(parse_env_stimulus(spec, t) for t in README_ENVS[pkg.name]) or None
            lines = list(EVERY_SHAPE_BOTH_WAYS) + random_properties(spec, rng, count=20)
            props = [parse_property(line, spec) for line in lines]
            props += [
                prop
                for path in pkg.prop_paths()
                for prop in parse_property_file(path.read_text(), spec)
            ]
            seen = self._assert_order_independent(
                spec, lambda: build_lts(spec, env=env), props
            )
            assert len(seen) == 10, pkg.name

    def test_verdicts_do_not_depend_on_check_order_on_toggle(self, toggle_spec):
        lines = list(EVERY_SHAPE_BOTH_WAYS) + [
            "G (! (fluent busy))",
            "F (event go)",
            "G (implies (fluent busy) (F (event stop)))",
            "G (implies (event go) (X (fluent busy)))",
            "(! (fluent busy)) U (event go)",
            "G (metric held)",
        ]
        props = [parse_property(line, toggle_spec) for line in lines]
        seen = self._assert_order_independent(
            toggle_spec, lambda: build_lts(toggle_spec), props
        )
        assert len(seen) == 10

    def test_tarjan_on_long_chain_into_large_cycle(self, toggle_spec):
        # 0 -> 1 -> ... -> chain-1 -> cycle ring of `ring` states, plus a
        # dead-end spur off the middle of the chain. `busy` holds on one
        # ring state and on the spur, `held` on the chain only.
        chain, ring = 1500, 1200
        n = chain + ring + 1
        spur = n - 1
        busy_at = chain + ring // 2

        def vector(i):
            return StateVector((i in (busy_at, spur),), (i < chain,), (), (), ())

        edges = [(i, "tick", i + 1) for i in range(chain + ring - 1)]
        edges.append((chain + ring - 1, "tick", chain))
        edges.append((chain // 2, "inject unit.go", spur))
        lts = _hand_built_lts(toggle_spec.program, [vector(i) for i in range(n)], edges)
        cyclic, escape = _cycles_and_escapes(lts, [True] * n, list(range(n)))
        assert [s for s in range(n) if cyclic[s]] == list(range(chain, chain + ring))
        assert all(escape)
        # without one ring state the ring is a path that ends in no dead end,
        # so only the spur (a dead end) and the chain up to its branch escape
        region = [s != busy_at for s in range(n)]
        cyclic, escape = _cycles_and_escapes(lts, region, [s for s in range(n) if region[s]])
        assert not any(cyclic)
        assert [s for s in range(n) if escape[s]] == list(range(chain // 2 + 1)) + [spur]
        for line in (
            "F (fluent busy)",
            "F (! (metric held))",
            "G (implies (fluent busy) (F (metric held)))",
            "G (implies (! (metric held)) (F (fluent busy)))",
            "G (implies (metric held) (X (metric held)))",
            "(metric held) U (fluent busy)",
            "(! (fluent busy)) U (fluent busy)",
            "G (! (fluent busy))",
            "G (implies (fluent busy) (X (! (fluent busy))))",
        ):
            prop = parse_property(line, toggle_spec)
            assert check(lts, prop).result == exhaustive_check(lts, prop), line

    def test_metric_atoms_of_equal_values_render_by_type(self, toggle_spec):
        # True == 1 == 1.0 and 0.0 == -0.0, yet each renders differently
        values = (True, 1, 1.0, 0.0, -0.0, 1, True)
        lts = _hand_built_lts(
            toggle_spec.program,
            [StateVector((False,), (v,), (), (), ()) for v in values],
            [],
        )
        atoms = [lts.labeling(i) for i in range(len(values))]
        assert atoms == [
            frozenset({f"metric:unit.held={text}"})
            for text in ("true", "1", "1.0", "0.0", "-0.0", "1", "true")
        ]
        assert lts.succ[0] == []

    def test_states_share_no_label_of_equal_but_differently_rendered_reals(self, operators_spec):
        # Two states differ in the pending queue and hold 0.0 and -0.0 in one
        # real metric: one observation for both would give both one label.
        program = operators_spec.program
        metrics = list(program.initial_metrics)
        level = program.metric_slot[("probe", "level")]
        fluents = (False,) * len(program.fluent_keys)
        vectors = []
        for value, pending in ((0.0, ()), (-0.0, (("probe", "levelEq"),))):
            metrics[level] = value
            vectors.append(StateVector(fluents, tuple(metrics), (), pending, ()))
        lts = _hand_built_lts(program, vectors, [(0, "tick", 1), (1, "tick", 0)])
        own = [_label(program, vec, None) for vec in vectors]
        assert "metric:probe.level=0.0" in own[0] and "metric:probe.level=-0.0" in own[1]
        assert [lts.labeling(0), lts.labeling(1)] == own
        assert lts_to_text(lts).splitlines()[1:3] == [
            f"state 0 initial {' '.join(sorted(own[0]))}",
            f"state 1 {' '.join(sorted(own[1]))}",
        ]
        # atoms read the values, and 0.0 == -0.0: both states are one lasso
        verdict = check(lts, parse_property("F (metric level != 0.0)", operators_spec))
        assert verdict.result == VIOLATED and verdict.counterexample.kind == "lasso"

        def shown(state: int) -> str:
            props = sorted(
                p for p in own[state]
                if not p.startswith("metric:") or p.endswith(("=true", "=false"))
            )
            return f"s{state} {{{', '.join(props)}}}"

        text, _scenario = explain(operators_spec, lts, verdict)
        assert text.splitlines()[2:] == [
            f"initial state: {shown(0)}",
            "loop (repeats forever):",
            f"  ..... tick -> {shown(1)}",
            f"  ..... tick -> {shown(0)}",
        ]


def _reached(lts: Lts, region: list[bool], roots: list[int]) -> set[int]:
    """The states that the region states among ``roots`` reach inside it."""
    reached = {s for s in roots if region[s]}
    stack = list(reached)
    while stack:
        for _label, dst in lts.succ[stack.pop()]:
            if region[dst] and dst not in reached:
                reached.add(dst)
                stack.append(dst)
    return reached


def _assert_rooted_flags(lts, region, reference, rng, name) -> int:
    """From two seeded random root lists (in any order, repeats and states
    outside the region included), the pass gives the oracle's flags on the
    states the roots reach and False elsewhere. Returns how many region
    states the roots left unreached."""
    unreached = 0
    for _ in range(2):
        roots = rng.choices(range(len(region)), k=rng.randint(1, 4))
        reached = _reached(lts, region, roots)
        expected = tuple(
            [flag and s in reached for s, flag in enumerate(flags)] for flags in reference
        )
        assert _cycles_and_escapes(lts, region, roots) == expected, name
        unreached += sum(region) - len(reached)
    return unreached


class TestCyclesAndEscapes:
    """The one SCC pass per region against the reachability oracle."""

    @staticmethod
    def _graphs():
        for pkg in all_missions():
            spec = pkg.load()
            env = tuple(parse_env_stimulus(spec, t) for t in README_ENVS[pkg.name]) or None
            yield pkg.name, spec, env
        for seed in range(40):
            spec = random_checked_spec(seed)
            yield seed, spec, env_for(spec)
        for n in (1, 2):
            spec = check_all(parse_text(swarm_source(n)))
            yield f"swarm {n}", spec, swarm_env(spec, n)

    def test_flags_match_the_oracle(self):
        # Graphs whole and cut short (cut states are never dead ends); the
        # regions the checker builds from seeded random properties (!p, !q,
        # p & !q), seeded random regions, and the whole graph. Every region
        # state as a root gives the oracle's flags everywhere.
        seen = {
            "cyclic": 0, "escaping, not cyclic": 0, "no escape": 0, "cut": 0, "unreached": 0
        }
        for name, spec, env in self._graphs():
            rng = random.Random(str(name))
            roots_rng = random.Random(f"roots {name}")
            props = [parse_property(line, spec) for line in random_properties(spec, rng, 6)]
            for bounds in (Bounds(max_states=300), Bounds(max_states=rng.randint(3, 30))):
                lts = build_lts(spec, env=env, bounds=bounds)
                count = lts.state_count
                seen["cut"] += len(lts.cut)
                regions = [[True] * count]
                for prop in props:
                    pairs = list(zip(lts.states, lts.events))
                    p = [eval_prop(prop.p, vec, event, lts.program) for vec, event in pairs]
                    q = [eval_prop(prop.q, vec, event, lts.program) for vec, event in pairs] if prop.q else p
                    regions += [
                        [not x for x in p],
                        [not x for x in q],
                        [x and not y for x, y in zip(p, q)],
                    ]
                for density in (0.5, 0.8, 0.95):
                    regions.append([rng.random() < density for _ in range(count)])
                for region in regions:
                    roots = [s for s in range(count) if region[s]]
                    cyclic, escape = _cycles_and_escapes(lts, region, roots)
                    reference = reference_cycles_and_escapes(lts, region)
                    assert (cyclic, escape) == reference, name
                    seen["unreached"] += _assert_rooted_flags(
                        lts, region, reference, roots_rng, name
                    )
                    seen["cyclic"] += sum(cyclic)
                    seen["escaping, not cyclic"] += sum(e and not c for c, e in zip(cyclic, escape))
                    seen["no escape"] += sum(r and not e for r, e in zip(region, escape))
        assert min(seen.values()) > 0, seen

    def test_flags_match_the_oracle_on_random_graphs(self, toggle_spec):
        # The environments above leave no expanded state without successors,
        # so genuine dead ends come from seeded random graphs, where some
        # states have no edge and some are not expanded.
        rng = random.Random(17)
        roots_rng = random.Random("roots 17")
        dead_ends = cut = unreached = 0
        for _ in range(60):
            count = rng.randint(1, 40)
            succ = [
                [] if rng.random() < 0.2
                else sorted({(f"e{rng.randrange(3)}", rng.randrange(count)) for _ in range(3)})
                for _ in range(count)
            ]
            expanded = frozenset(s for s in range(count) if rng.random() < 0.85)
            lts = Lts(
                program=toggle_spec.program,
                states=[StateVector((False,), (True,), (), (), ())] * count,
                events=[None] * count,
                succ=succ,
                cut=frozenset(range(count)) - expanded,
                env=(),
            )
            cut += count - len(expanded)
            for density in (1.0, 0.5, 0.8, 0.95):
                region = [rng.random() < density for _ in range(count)]
                dead_ends += sum(region[s] and s in expanded and not succ[s] for s in range(count))
                roots = [s for s in range(count) if region[s]]
                reference = reference_cycles_and_escapes(lts, region)
                assert _cycles_and_escapes(lts, region, roots) == reference
                unreached += _assert_rooted_flags(lts, region, reference, roots_rng, count)
        assert dead_ends > 0 and cut > 0 and unreached > 0


def _verify_text(spec, env, lines) -> str:
    """The graph export, then per property its verdict line and, when
    violated, the ``explain`` text and the counterexample scenario."""
    lts = build_lts(spec, env=env)
    parts = [lts_to_text(lts)]
    for line in lines:
        verdict = check(lts, parse_property(line, spec))
        cex = verdict.counterexample
        kind = f" [{cex.kind}]" if cex is not None else ""
        parts.append(f"{verdict.result}: {verdict.prop.text}{kind} {verdict.note}\n")
        if verdict.result == VIOLATED:
            text, scenario = explain(spec, lts, verdict)
            parts.append(text + scenario.render())
    return "".join(parts)


def verify_pin_texts() -> dict[str, str]:
    """Texts behind ``verify_sha256.json``, one per pinned entry.

    Each mission under its README environment with its shipped properties
    and 20 seeded random ones, random specs 0-59 with 8 random properties
    each, the 2-worker swarm with 20 random properties, and the
    every-operator spec, whose real metric a stimulus sets to -0.0, with 20
    random properties.
    """
    texts = {}
    for pkg in all_missions():
        spec = pkg.load()
        env = tuple(parse_env_stimulus(spec, t) for t in README_ENVS[pkg.name]) or None
        shipped = [
            prop.text
            for path in pkg.prop_paths()
            for prop in parse_property_file(path.read_text(), spec)
        ]
        lines = shipped + random_properties(spec, random.Random(pkg.name), 20)
        texts[pkg.name] = _verify_text(spec, env, lines)
    random_texts = []
    for seed in range(60):
        spec = random_checked_spec(seed)
        lines = random_properties(spec, random.Random(seed), 8)
        random_texts.append(_verify_text(spec, env_for(spec), lines))
    texts["random0-59"] = "".join(random_texts)
    swarm = check_all(parse_text(swarm_source(2)))
    lines = random_properties(swarm, random.Random(2), 20)
    texts["swarm2"] = _verify_text(swarm, swarm_env(swarm, 2), lines)
    operators = operators_spec_and_scenario()[0]
    env = tuple(parse_env_stimulus(operators, text) for text in OPERATORS_ENV)
    lines = random_properties(operators, random.Random("operators"), 20)
    texts["operators"] = _verify_text(operators, env, lines)
    return texts


#: A bound of each kind, each of which cuts the graphs pinned under it.
PIN_BOUNDS = {
    "swarm": {
        "max_states=2000": Bounds(max_states=2000),
        "max_depth=10": Bounds(max_depth=10),
        "max_pending=1": Bounds(max_pending=1),
    },
    "random": {
        "max_states=20": Bounds(max_states=20),
        "max_depth=3": Bounds(max_depth=3),
        "max_pending=1": Bounds(max_pending=1),
    },
}


def _bounded_text(lts: Lts) -> str:
    return lts_to_text(lts) + f"cut {' '.join(map(str, sorted(lts.cut)))}\n"


def bounded_pin_graphs() -> dict[str, tuple[int, int, str]]:
    """(states, cut states, text) behind ``bounded_graph_sha256.json``: the
    2- and 3-worker swarms and random specs 0-59, each under every bound of
    ``PIN_BOUNDS``. A text is the graph export followed by the sorted
    ``cut``; the random specs' texts are joined into one entry per bound."""
    pins = {}
    for n in (2, 3):
        swarm = check_all(parse_text(swarm_source(n)))
        for name, bounds in PIN_BOUNDS["swarm"].items():
            lts = build_lts(swarm, env=swarm_env(swarm, n), bounds=bounds)
            pins[f"swarm{n} {name}"] = (lts.state_count, len(lts.cut), _bounded_text(lts))
    specs = [random_checked_spec(seed) for seed in range(60)]
    for name, bounds in PIN_BOUNDS["random"].items():
        graphs = [build_lts(spec, env=env_for(spec), bounds=bounds) for spec in specs]
        pins[f"random0-59 {name}"] = (
            sum(lts.state_count for lts in graphs),
            sum(len(lts.cut) for lts in graphs),
            "".join(map(_bounded_text, graphs)),
        )
    return pins


def test_bounded_graphs_are_pinned():
    """Graphs and ``cut`` under each kind of bound, by sha256; every entry is cut."""
    pinned = json.loads(
        Path(__file__).with_name("data").joinpath("bounded_graph_sha256.json").read_text()
    )
    pins = bounded_pin_graphs()
    assert set(pins) == set(pinned)
    for key, (states, cut, text) in pins.items():
        assert cut > 0, key
        sha256 = hashlib.sha256(text.encode()).hexdigest()
        assert {"states": states, "cut": cut, "sha256": sha256} == pinned[key], key


def test_verify_results_are_pinned():
    """Graphs, verdicts, explanations and counterexample scenarios, by sha256."""
    pinned = json.loads(
        Path(__file__).with_name("data").joinpath("verify_sha256.json").read_text()
    )
    texts = verify_pin_texts()
    assert set(texts) == set(pinned)
    for key, text in texts.items():
        assert hashlib.sha256(text.encode()).hexdigest() == pinned[key], key

"""State-graph construction, property checking, counterexamples."""

from __future__ import annotations

import hashlib
import json
import operator
import random
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
from asslkit.missions import all_missions
from asslkit.runtime import Runtime, parse_scenario
from asslkit.verifier import Layout, Lts, StateVector
from asslkit.verifier.mc import _tarjan
from conftest import README_ENVS
from oracles import brute_force_lts, exhaustive_check, lts_as_sets, reference_bfs_tree
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
        # Hand enumeration (stimulus edges clear the last-event marker):
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
        assert lts.expanded == frozenset({0})

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
            if s in lts.expanded and not lts.succ[s]
        }
        roomy = build_lts(spec, bounds=Bounds(max_pending=16))
        assert not roomy.truncated

    def test_ids_are_bfs_order_and_adjacency_is_label_ordered(self):
        """On the missions, the random specs under several bounds, and the
        1-3 worker swarms, ``build_lts`` numbers states in the order of the
        reference BFS, records its parents, and keeps adjacency sorted."""
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
            order, parent = reference_bfs_tree(edges, lts.initial)
            assert order == list(range(lts.state_count))
            assert lts.parent == [parent.get(s) for s in order]
            assert all(adjacency == sorted(adjacency) for adjacency in lts.succ)

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
        fluent_index = lts.layout.fluent_index[("worker", "inSecurityCheck")]
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
        assert eval_prop(prop.p, vector, lts.layout) is False

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
        vector = replay_counterexample(stuck, lts, verdict.counterexample)
        assert vector == lts.states[verdict.counterexample.violating_state]
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


class TestPropertyParsing:
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

    def test_metric_comparison_atom(self, toggle_spec, operators_spec):
        prop = parse_property("G (metric held = true)", toggle_spec)
        assert prop.shape == "G"
        # every operator on an integer metric agrees with Python's
        layout = Layout(operators_spec.program)
        fluents = (False,) * len(layout.fluent_keys)
        metrics = list(operators_spec.program.initial_metrics.values())
        slot = layout.metric_index[("probe", "count")]
        for op, compare in (
            ("=", operator.eq), ("!=", operator.ne), ("<", operator.lt),
            ("<=", operator.le), (">", operator.gt), (">=", operator.ge),
        ):
            atom = parse_property(f"G (metric count {op} 3)", operators_spec).p
            for value in (2, 3, 4):
                metrics[slot] = value
                vector = StateVector(fluents, tuple(metrics), (), (), (), None)
                assert eval_prop(atom, vector, layout) is compare(value, 3), (op, value)

    def test_metric_literal_type_checked(self, toggle_spec):
        with pytest.raises(PropertyError):
            parse_property("G (metric held = 3)", toggle_spec)

    def test_infix_and_prefix_mix(self, toggle_spec):
        prop = parse_property(
            "G ((fluent busy) -> ((metric held) & (! (event stop))))", toggle_spec
        )
        assert prop.shape == "G"


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


def _hand_built_lts(layout, states, edges) -> Lts:
    """A complete graph over hand-written (source, label, target) edges, with
    label-ordered adjacency and the parents of ``reference_bfs_tree``. Its ids
    need not be BFS order, which changes stems but no verdict."""
    succ = [[] for _ in states]
    for src, label, dst in sorted(edges):
        succ[src].append((label, dst))
    _order, parent = reference_bfs_tree(edges)
    return Lts(
        layout=layout,
        states=states,
        succ=succ,
        parent=[parent.get(s) for s in range(len(states))],
        expanded=frozenset(range(len(states))),
        truncated=False,
        env=(),
        bounds=Bounds(),
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
        layout = Layout(toggle_spec.program)

        def vector(i):
            return StateVector(
                (i in (busy_at, spur),), (i < chain,), (), (), (), None
            )

        edges = [(i, "tick", i + 1) for i in range(chain + ring - 1)]
        edges.append((chain + ring - 1, "tick", chain))
        edges.append((chain // 2, "inject unit.go", spur))
        lts = _hand_built_lts(layout, [vector(i) for i in range(n)], edges)
        sccs = sorted(_tarjan(set(range(n)), lts), key=len)
        assert len(sccs) == chain + 1 + 1
        assert sorted(sccs[-1]) == list(range(chain, chain + ring))
        assert all(len(component) == 1 for component in sccs[:-1])
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
            Layout(toggle_spec.program),
            [StateVector((False,), (v,), (), (), (), None) for v in values],
            [],
        )
        atoms = [lts.labeling(i) for i in range(len(values))]
        assert atoms == [
            frozenset({f"metric:unit.held={text}"})
            for text in ("true", "1", "1.0", "0.0", "-0.0", "1", "true")
        ]
        assert lts.succ[0] == [] and lts.parent[0] is None


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
    each, and the 2-worker swarm with 20 random properties.
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
    return texts


def test_verify_results_are_pinned():
    """Graphs, verdicts, explanations and counterexample scenarios, by sha256."""
    pinned = json.loads(
        Path(__file__).with_name("data").joinpath("verify_sha256.json").read_text()
    )
    texts = verify_pin_texts()
    assert set(texts) == set(pinned)
    for key, text in texts.items():
        assert hashlib.sha256(text.encode()).hexdigest() == pinned[key], key

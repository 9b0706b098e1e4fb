"""Interpreter semantics: fluents, guards, actions, messages, determinism."""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import pytest

from asslkit import check_all, parse_text
from asslkit.runtime import (
    ERROR,
    GUARD_REJECTED,
    SUCCESS,
    Halt,
    LivelockError,
    RunConfig,
    Runtime,
    Scenario,
    ScenarioError,
    parse_scenario,
)
from asslkit.runtime import engine
from asslkit.runtime.state import (
    ACTION_FAILED,
    ENSURES_VIOLATED,
    EVENT_RAISED,
    EVENT_SUPPRESSED,
    FLUENT_INITIATED,
    FLUENT_TERMINATED,
    MAPPING_FIRED,
    MESSAGE_SENT,
    EventOccurrence,
)
from asslkit.verifier import Layout
from conftest import operators_spec_and_scenario
from oracles import reference_advance_tick
from specgen import random_checked_spec, random_scenario, swarm_source
from tracecheck import (
    check_alternation,
    check_causality,
    check_guard_soundness,
    check_mapping_edges,
    check_queue_bounds,
)


def occurrence(spec, runtime, name: str) -> EventOccurrence:
    elem = spec.tree.ae_tiers[0].name if spec.tree.ae_tiers else spec.tree.as_tier.name
    return EventOccurrence((elem, name), "injected")


class TestInit:
    def test_figures_initial_state(self, figures_spec):
        runtime = Runtime(figures_spec)
        state = runtime.init()
        assert state.fluents[("worker", "inSecurityCheck")] is False
        assert state.metrics[("worker", "thereIsInsecureMsg")] is False
        assert state.tick == 0
        assert not state.pending
        assert all(not queue for queue in state.channels.values())

    def test_no_metrics_spec(self):
        spec = check_all(parse_text("AS sys { }"))
        state = Runtime(spec).init()
        assert state.metrics == {}

    def test_seed_only_changes_rng(self, figures_spec):
        first, second = Runtime(figures_spec, seed=1), Runtime(figures_spec, seed=2)
        one, two = first.init(), second.init()
        assert one.fluents == two.fluents
        assert one.metrics == two.metrics
        assert (first.seed, second.seed) == (1, 2)

    def test_errors_block_runtime(self):
        spec = check_all(parse_text("AS sys { POLICIES { P { } } }"))
        with pytest.raises(ValueError, match="errors"):
            Runtime(spec)


class TestRaise:
    def test_initiation(self, figures_spec):
        runtime = Runtime(figures_spec)
        state = runtime.init()
        raised = runtime.raise_event(
            state, occurrence(figures_spec, runtime, "privateMessageIsComming")
        )
        assert raised
        assert state.fluents[("worker", "inSecurityCheck")] is True
        assert runtime.trace.find(FLUENT_INITIATED, "worker.inSecurityCheck")

    def test_guard_suppression(self, figures_spec):
        runtime = Runtime(figures_spec)
        state = runtime.init()
        # thereIsInsecureMsg is false, so privateMessageSecure's guard fails
        raised = runtime.raise_event(
            state, occurrence(figures_spec, runtime, "privateMessageSecure")
        )
        assert not raised
        (record,) = runtime.trace.find(EVENT_SUPPRESSED, "worker.privateMessageSecure")
        assert record.detail == "guard false"
        assert state.last_event is None

    def test_reinitiation_is_idempotent(self, figures_spec):
        runtime = Runtime(figures_spec)
        state = runtime.init()
        occ = occurrence(figures_spec, runtime, "privateMessageIsComming")
        runtime.raise_event(state, occ)
        runtime.raise_event(state, occ)
        assert len(runtime.trace.find(FLUENT_INITIATED)) == 1


SNAPSHOT_SPEC = """
AS sys {
  EVENTS {
    EVENT sawRise {
      GUARDS { METRICS.level }
      ACTIVATION { CHANGED { METRICS.level } }
    }
  }
  METRICS { METRIC level { TYPE { boolean } INITIAL { false } } }
}
"""


class TestAssignMetric:
    def test_changed_enqueue_order_and_guards(self, figures_spec):
        runtime = Runtime(figures_spec)
        state = runtime.init()
        runtime.assign_metric(state, ("worker", "thereIsInsecureMsg"), True)
        pending = [occ.event[1] for occ in state.pending]
        # declaration order: Insecure first, then Secure
        assert pending == ["privateMessageInsecure", "privateMessageSecure"]
        runtime.drain(state)
        assert runtime.trace.find(EVENT_SUPPRESSED, "worker.privateMessageInsecure")
        assert runtime.trace.find(EVENT_RAISED, "worker.privateMessageSecure")

    def test_value_preserving_write_still_fires(self, figures_spec):
        runtime = Runtime(figures_spec)
        state = runtime.init()
        runtime.assign_metric(state, ("worker", "thereIsInsecureMsg"), False)
        assert len(state.pending) == 2
        (record,) = runtime.trace.find("MetricAssigned")
        assert record.detail == "false -> false"

    def test_post_snapshot_guard_default(self):
        spec = check_all(parse_text(SNAPSHOT_SPEC))
        runtime = Runtime(spec)
        state = runtime.init()
        runtime.assign_metric(state, ("sys", "level"), True)
        runtime.drain(state)
        assert runtime.trace.find(EVENT_RAISED, "sys.sawRise")


ACTION_SPEC = """
AS sys {
  ACTIONS {
    ACTION blocked {
      GUARDS { false }
      DOES { METRICS.m = true; }
    }
    ACTION failing {
      DOES { fail "boom"; }
      ONERR_TRIGGERS { EVENTS.cleanup }
    }
    ACTION brittle {
      ENSURES { METRICS.m }
      DOES { METRICS.m = false; }
      ONERR_TRIGGERS { EVENTS.cleanup }
    }
    ACTION caller {
      DOES {
        ok = call ACTIONS.blocked;
        METRICS.sawReject = ok = false;
      }
    }
    ACTION cascade {
      DOES { call ACTIONS.failing; }
      ONERR_DOES { METRICS.m = true; }
      ONERR_TRIGGERS { EVENTS.cleanup }
    }
  }
  EVENTS { EVENT cleanup { } }
  METRICS {
    METRIC m { TYPE { boolean } INITIAL { false } }
    METRIC sawReject { TYPE { boolean } INITIAL { false } }
  }
}
"""


class TestExecuteAction:
    def setup_method(self):
        self.spec = check_all(parse_text(ACTION_SPEC))
        assert self.spec.ok, [d.render() for d in self.spec.diagnostics]
        self.runtime = Runtime(self.spec)
        self.state = self.runtime.init()

    def test_guard_rejected_runs_nothing(self):
        outcome, reason = self.runtime.execute_action(self.state, ("sys", "blocked"), "test")
        assert (outcome, reason) == (GUARD_REJECTED, None)
        assert self.runtime.trace.records == []
        assert self.state.metrics[("sys", "m")] is False

    def test_fail_statement_routes_to_error_path(self):
        outcome, reason = self.runtime.execute_action(self.state, ("sys", "failing"), "test")
        assert outcome == ERROR
        assert reason == "boom"
        (failed,) = self.runtime.trace.find(ACTION_FAILED, "sys.failing")
        assert failed.detail == "boom"
        assert [occ.event for occ in self.state.pending] == [("sys", "cleanup")]

    def test_ensures_violation_is_error(self):
        outcome, _reason = self.runtime.execute_action(self.state, ("sys", "brittle"), "test")
        assert outcome == ERROR
        assert self.runtime.trace.find(ENSURES_VIOLATED, "sys.brittle")
        assert [occ.event for occ in self.state.pending] == [("sys", "cleanup")]

    def test_rejected_callee_binds_false_and_continues(self):
        outcome, _ = self.runtime.execute_action(self.state, ("sys", "caller"), "test")
        assert outcome == SUCCESS
        assert self.state.metrics[("sys", "sawReject")] is True

    def test_failing_callee_switches_caller_to_error_path(self):
        outcome, reason = self.runtime.execute_action(self.state, ("sys", "cascade"), "test")
        assert outcome == ERROR
        assert "boom" in reason
        assert self.state.metrics[("sys", "m")] is True  # ONERR_DOES ran
        # cleanup enqueued twice: once by failing, once by cascade
        assert [occ.event[1] for occ in self.state.pending] == ["cleanup", "cleanup"]

    def test_depth_limit_raises(self, monkeypatch):
        from asslkit.runtime import engine
        from asslkit.runtime.engine import DepthLimitError

        monkeypatch.setattr(engine, "MAX_CALL_DEPTH", 0)
        runtime = Runtime(self.spec)
        state = runtime.init()
        with pytest.raises(DepthLimitError):
            runtime.execute_action(state, ("sys", "cascade"), "test")


CONJUNCTION_SPEC = """
AS sys { }
AE unit {
  POLICIES {
    TEAM {
      FLUENT left {
        INITIATED_BY { EVENTS.goLeft }
        TERMINATED_BY { EVENTS.reset }
      }
      FLUENT right {
        INITIATED_BY { EVENTS.goRight }
        TERMINATED_BY { EVENTS.reset }
      }
      MAPPING { CONDITIONS { left, right } DO_ACTIONS { ACTIONS.work } }
    }
  }
  ACTIONS {
    ACTION work {
      DOES { METRICS.fired = true; }
      TRIGGERS { EVENTS.reset }
    }
  }
  EVENTS {
    EVENT goLeft { INJECTABLE }
    EVENT goRight { INJECTABLE }
    EVENT reset { }
  }
  METRICS { METRIC fired { TYPE { boolean } INITIAL { false } } }
}
"""


class TestStep:
    def test_empty_queue_is_identity(self, figures_spec):
        runtime = Runtime(figures_spec)
        state = runtime.init()
        before = state.copy()
        assert runtime.step(state) is None
        assert state.fluents == before.fluents
        assert state.metrics == before.metrics
        assert runtime.trace.records == []

    def test_mapping_needs_all_conditions(self):
        spec = check_all(parse_text(CONJUNCTION_SPEC))
        runtime = Runtime(spec)
        state = runtime.init()
        state.pending.append(EventOccurrence(("unit", "goLeft"), "injected"))
        runtime.step(state)
        assert not runtime.trace.find(MAPPING_FIRED)
        state.pending.append(EventOccurrence(("unit", "goRight"), "injected"))
        runtime.step(state)
        assert runtime.trace.find(MAPPING_FIRED)
        assert state.metrics[("unit", "fired")] is True

    def test_mapping_fires_only_on_rising_edge(self):
        spec = check_all(parse_text(CONJUNCTION_SPEC))
        runtime = Runtime(spec)
        state = runtime.init()
        for name in ("goLeft", "goRight", "goLeft"):
            state.pending.append(EventOccurrence(("unit", name), "injected"))
        runtime.drain(state)
        # reset (from work) terminated both before the second goLeft arrived,
        # so the third occurrence re-initiates `left` alone: no second firing
        assert len(runtime.trace.find(MAPPING_FIRED)) == 1


class TestSendMessage:
    def test_capacity_drop(self, figures_spec):
        runtime = Runtime(figures_spec)
        state = runtime.init()
        for _ in range(5):
            runtime.send_message(
                state, ("worker", "privateMessage"), ("worker", "secureLink"), "ants"
            )
        sends = runtime.trace.find(MESSAGE_SENT)
        assert len(sends) == 5
        assert sum("dropped" in record.detail for record in sends) == 1
        assert len(state.channels[("worker", "secureLink")]) == 4

    def test_sent_subscription(self, figures_spec):
        runtime = Runtime(figures_spec)
        state = runtime.init()
        runtime.send_message(
            state, ("worker", "privateMessage"), ("worker", "secureLink"), "ants"
        )
        assert [occ.event for occ in state.pending] == [
            ("worker", "privateMessageIsComming")
        ]


class TestRun:
    def test_lifecycle_order(self, protecting_pkg, protecting_spec):
        runtime = Runtime(protecting_spec)
        trace = runtime.run(protecting_pkg.scenario("secure", protecting_spec))
        initiated = trace.find(FLUENT_INITIATED, "worker.inSecurityCheck")
        terminated = trace.find(FLUENT_TERMINATED, "worker.inSecurityCheck")
        assert len(initiated) == 1 and len(terminated) == 1
        assert initiated[0].seq < terminated[0].seq

    def test_empty_scenario_no_records(self, figures_spec):
        runtime = Runtime(figures_spec)
        trace = runtime.run(Scenario("empty", ()))
        assert trace.records == []

    def test_determinism(self, protecting_pkg, protecting_spec):
        scenario = protecting_pkg.scenario("quarantine", protecting_spec)
        texts = {
            Runtime(protecting_spec, seed=9).run(scenario).to_text() for _ in range(3)
        }
        assert len(texts) == 1

    def test_max_ticks_halts(self, healing_spec):
        runtime = Runtime(healing_spec)
        scenario = Scenario("long", ((50, Halt()),))
        trace = runtime.run(scenario, max_ticks=6)
        assert trace.summary()["ticks"] <= 6

    def test_interleave_declared_is_seed_independent(self, healing_pkg, healing_spec):
        scenario = healing_pkg.scenario("no_fault", healing_spec)
        config = RunConfig(interleave="declared")
        a = Runtime(healing_spec, seed=1, config=config).run(scenario).to_text()
        b = Runtime(healing_spec, seed=999, config=config).run(scenario).to_text()
        assert a == b

    def test_seeds_exercise_different_interleavings(self, healing_pkg, healing_spec):
        # the point of the seeded per-tick shuffle: multi-element delivery
        # and timer phases interleave differently across seeds
        scenario = healing_pkg.scenario("no_fault", healing_spec)
        a = Runtime(healing_spec, seed=0).run(scenario).to_text()
        b = Runtime(healing_spec, seed=1).run(scenario).to_text()
        assert a != b
        # and each seed is still individually reproducible
        assert Runtime(healing_spec, seed=1).run(scenario).to_text() == b


class TestScenarioParsing:
    def test_roundtrip(self, protecting_spec):
        text = "tick 0 set messageVerdictSecure false\ntick 1 send privateMessage secureLink\ntick 2 halt\n"
        scenario = parse_scenario(text, protecting_spec, "s")
        assert scenario.render() == (
            "tick 0 set worker.messageVerdictSecure false\n"
            "tick 1 send worker.privateMessage worker.secureLink\n"
            "tick 2 halt\n"
        )

    def test_unknown_name(self, protecting_spec):
        with pytest.raises(ScenarioError, match="no event"):
            parse_scenario("tick 0 inject nothing", protecting_spec)

    def test_ambiguous_name(self, config_spec):
        with pytest.raises(ScenarioError, match="ambiguous"):
            parse_scenario("tick 0 inject newAsteroidDetected", config_spec)

    def test_decreasing_ticks_rejected(self, protecting_spec):
        text = "tick 2 halt\ntick 1 halt"
        with pytest.raises(ScenarioError, match="non-decreasing"):
            parse_scenario(text, protecting_spec)

    def test_bad_value(self, protecting_spec):
        with pytest.raises(ScenarioError):
            parse_scenario("tick 0 set messageVerdictSecure 42", protecting_spec)


class TestRecordingOff:
    def test_recording_off_walks_the_same_states(self, mission_pairs):
        # Recording only adds trace text: stepping a recording and a
        # non-recording runtime through the same stimuli and drains must
        # visit the same states, with dicts kept in layout slot order.
        recorded = compared = 0
        for pkg, spec in mission_pairs:
            for path in pkg.scenario_paths():
                scenario = pkg.scenario(path.stem, spec)
                on = Runtime(spec, seed=scenario.seed, record=True)
                off = Runtime(spec, seed=scenario.seed, record=False)
                layout = Layout(spec.program)
                pair = ((on, on.init()), (off, off.init()))

                def same(where: str) -> None:
                    nonlocal compared
                    (_, a), (_, b) = pair
                    assert layout.in_slot_order(a) and layout.in_slot_order(b)
                    assert layout.vector(a) == layout.vector(b), (pkg.name, path.stem, where)
                    compared += 1

                def drain() -> None:
                    while pair[0][1].pending:
                        for runtime, state in pair:
                            runtime.step(state)
                        same("step")

                steps = list(scenario.steps)
                index = 0
                halted = False
                while True:
                    while index < len(steps) and steps[index][0] <= pair[0][1].tick:
                        stimulus = steps[index][1]
                        index += 1
                        if isinstance(stimulus, Halt):
                            halted = True
                            break
                        for runtime, state in pair:
                            runtime.apply_stimulus(state, stimulus)
                        same(stimulus.render())
                        drain()
                    if halted or index >= len(steps) or pair[0][1].tick >= 1000:
                        break
                    for runtime, state in pair:
                        runtime.advance_tick(state)
                    same("tick")
                    drain()
                assert off.trace is None
                recorded += len(on.trace.records)
        assert recorded > 0 and compared > 0


class TestTraceInvariants:
    def test_mission_scenarios(self, mission_pairs):
        for pkg, spec in mission_pairs:
            for path in pkg.scenario_paths():
                scenario = pkg.scenario(path.stem, spec)
                trace = Runtime(spec, seed=3).run(scenario)
                assert check_alternation(trace) == []
                assert check_causality(trace) == []
                assert check_guard_soundness(spec, trace) == []
                assert check_queue_bounds(spec, trace) == []
                assert check_mapping_edges(spec, trace) == []

    def test_random_specs_run_without_faults(self):
        # soundness hook: checked specs never raise type or resolution
        # faults during execution
        rng = random.Random(1702)
        for seed in range(30):
            spec = random_checked_spec(seed)
            scenario = random_scenario(spec, rng)
            trace = Runtime(spec, seed=rng.randrange(100)).run(scenario)
            assert check_alternation(trace) == []
            assert check_guard_soundness(spec, trace) == []


def healing_text(rng: random.Random, ticks: int) -> str:
    """The worker dies and revives while relays flood its capacity-2 link."""
    lines = []
    alive = True
    for tick in range(1, ticks):
        if rng.random() < 0.05:
            alive = not alive
            lines.append(f"tick {tick} set alive {str(alive).lower()}")
        elif alive and rng.random() < 0.2:
            lines += [f"tick {tick} send heartbeatRelay workerLink"] * rng.randint(1, 3)
    return "\n".join(lines + [f"tick {ticks} halt"]) + "\n"


def wide_text(rng: random.Random, workers: int, ticks: int) -> str:
    """Each tick two to six workers get their message or a verdict flip."""
    lines = []
    for tick in range(1, ticks):
        for k in rng.sample(range(1, workers + 1), rng.randint(2, 6)):
            if rng.random() < 0.6:
                lines.append(f"tick {tick} send worker{k}.privateMessage worker{k}.secureLink")
            else:
                value = "true" if rng.random() < 0.5 else "false"
                lines.append(f"tick {tick} set worker{k}.messageVerdictSecure {value}")
    return "\n".join(lines + [f"tick {ticks} halt"]) + "\n"


class TestAdvanceTick:
    """``advance_tick`` against the full-scan oracle, trace text for trace text."""

    @staticmethod
    def assert_same(spec, scenario, seed: int, max_ticks: int = 1000) -> str:
        texts = []
        for interleave in ("seeded", "declared"):
            config = RunConfig(interleave=interleave)
            fast = Runtime(spec, seed=seed, config=config)
            slow = Runtime(spec, seed=seed, config=config)
            slow.advance_tick = lambda state, runtime=slow: reference_advance_tick(runtime, state)
            text = fast.run(scenario, max_ticks=max_ticks).to_text()
            assert text == slow.run(scenario, max_ticks=max_ticks).to_text(), (
                scenario.name, seed, interleave,
            )
            texts.append(text)
        return texts[0]

    def test_self_healing_coinciding_timers(self, healing_pkg, healing_spec):
        # the ruler's 4-tick and the worker's 2-tick timers fire together
        # every 4 ticks, so two elements act in those ticks
        for path in healing_pkg.scenario_paths():
            for seed in range(4):
                self.assert_same(healing_spec, healing_pkg.scenario(path.stem, healing_spec), seed)
        rng = random.Random(41)
        for seed in range(4):
            scenario = parse_scenario(healing_text(rng, 400), healing_spec, "healing")
            self.assert_same(healing_spec, scenario, seed)

    def test_voyager_messages(self, voyager_pkg, voyager_spec):
        for path in voyager_pkg.scenario_paths():
            for seed in range(4):
                self.assert_same(voyager_spec, voyager_pkg.scenario(path.stem, voyager_spec), seed)

    def test_wide_swarm(self):
        spec = check_all(parse_text(swarm_source(40)))
        scenario = parse_scenario(wide_text(random.Random(7), 40, 60), spec, "wide")
        seeded = {self.assert_same(spec, scenario, seed) for seed in range(3)}
        assert len(seeded) == 3  # several receivers per tick, so the shuffle shows

    def test_random_scenarios(self, mission_pairs):
        rng = random.Random(2024)
        for _pkg, spec in mission_pairs:
            for _ in range(6):
                scenario = random_scenario(spec, rng)
                self.assert_same(spec, scenario, scenario.seed)
        for seed in range(30):
            spec = random_checked_spec(seed)
            scenario = random_scenario(spec, rng)
            self.assert_same(spec, scenario, scenario.seed)

    def test_idle_swarm_draws_no_order(self, monkeypatch):
        spec = check_all(parse_text(swarm_source(40)))
        drawn: list[int] = []
        element_order = Runtime.element_order

        def counting(self, tick):
            drawn.append(tick)
            return element_order(self, tick)

        monkeypatch.setattr(Runtime, "element_order", counting)
        trace = Runtime(spec, seed=3).run(Scenario("idle", ((100, Halt()),)))
        assert drawn == [] and trace.records == []
        # control: two workers receiving in the same tick draw one order
        text = (
            "tick 0 send worker1.privateMessage worker1.secureLink\n"
            "tick 0 send worker2.privateMessage worker2.secureLink\n"
            "tick 0 send worker3.privateMessage worker3.secureLink\n"
            "tick 3 halt\n"
        )
        Runtime(spec, seed=3).run(parse_scenario(text, spec))
        assert drawn == [1]


class TestRunConfig:
    def test_unknown_interleave_is_rejected(self):
        # a misspelt mode used to run silently in declared order
        for mode in ("seded", "Seeded", "", "random"):
            with pytest.raises(ValueError, match=f"unknown interleave mode '{mode}'"):
                RunConfig(interleave=mode)

    def test_both_modes_are_accepted(self):
        assert RunConfig().interleave == "seeded"
        assert RunConfig(interleave="declared").interleave == "declared"


class TestDrainBudget:
    def test_budget_is_exact(self, protecting_pkg, protecting_spec, monkeypatch):
        # the secure scenario's longest drain is three steps
        scenario = protecting_pkg.scenario("secure", protecting_spec)
        full = Runtime(protecting_spec).run(scenario).to_text()
        monkeypatch.setattr(engine, "MAX_DRAIN_STEPS", 3)
        enough = Runtime(protecting_spec).run(scenario)
        assert enough.aborted is None
        assert enough.to_text() == full
        monkeypatch.setattr(engine, "MAX_DRAIN_STEPS", 2)
        short = Runtime(protecting_spec).run(scenario)
        assert short.aborted is not None
        assert short.aborted.startswith("livelock: not quiescent after 2 drain steps at tick ")

    def test_drain_raises_past_budget(self, figures_spec, monkeypatch):
        monkeypatch.setattr(engine, "MAX_DRAIN_STEPS", 1)
        runtime = Runtime(figures_spec)
        state = runtime.init()
        runtime.assign_metric(state, ("worker", "thereIsInsecureMsg"), True)
        assert len(state.pending) == 2
        with pytest.raises(LivelockError, match="after 1 drain steps at tick 0"):
            runtime.drain(state)


def trace_pin_texts(mission_pairs) -> dict[str, str]:
    """Trace files behind ``trace_sha256.json``, one text per pinned entry.

    Every mission scenario at seeds 0-3, the 40-worker wide-swarm scenario
    at seeds 0-3, one random scenario per random spec 0-29, and the
    every-operator scenario at seeds 0-1, each under both interleave modes.
    """

    def runs(spec, scenario, seeds) -> str:
        parts = []
        for seed in seeds:
            for interleave in ("seeded", "declared"):
                runtime = Runtime(spec, seed=seed, config=RunConfig(interleave=interleave))
                trace = runtime.run(scenario)
                parts.append(f"## {scenario.name} seed={seed} {interleave}\n{trace.to_text()}")
        return "".join(parts)

    texts = {}
    for pkg, spec in mission_pairs:
        texts[pkg.name] = "".join(
            runs(spec, pkg.scenario(path.stem, spec), range(4)) for path in pkg.scenario_paths()
        )
    swarm = check_all(parse_text(swarm_source(40)))
    wide = parse_scenario(wide_text(random.Random(7), 40, 60), swarm, "wide")
    texts["wide_swarm40"] = runs(swarm, wide, range(4))
    random_texts = []
    for seed in range(30):
        spec = random_checked_spec(seed)
        scenario = random_scenario(spec, random.Random(seed), f"random{seed}")
        random_texts.append(runs(spec, scenario, (scenario.seed,)))
    texts["random0-29"] = "".join(random_texts)
    texts["operators"] = runs(*operators_spec_and_scenario(), range(2))
    return texts


def test_traces_are_pinned(mission_pairs):
    """Trace files pinned by sha256; one entry covers the 30 random specs."""
    pinned = json.loads(
        Path(__file__).with_name("data").joinpath("trace_sha256.json").read_text()
    )
    texts = trace_pin_texts(mission_pairs)
    assert set(texts) == set(pinned)
    for key, text in texts.items():
        assert hashlib.sha256(text.encode()).hexdigest() == pinned[key], key

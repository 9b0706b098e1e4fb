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
    InjectEvent,
    LivelockError,
    Runtime,
    RuntimeState,
    Scenario,
    ScenarioError,
    SendMessage,
    SetMetric,
    parse_scenario,
)
from asslkit.runtime import engine
from asslkit.runtime.state import (
    ACTION_FAILED,
    ACTION_STARTED,
    ENSURES_VIOLATED,
    EVENT_RAISED,
    EVENT_SUPPRESSED,
    FLUENT_INITIATED,
    FLUENT_TERMINATED,
    MAPPING_FIRED,
    MESSAGE_SENT,
    METRIC_ASSIGNED,
    EventOccurrence,
)
from asslkit.verifier import Layout, Tick, build_lts
from conftest import operators_spec_and_scenario
from oracles import reference_advance_tick
from specgen import random_checked_spec, random_scenario, swarm_source
from tracecheck import (
    check_alternation,
    check_causality,
    check_guard_soundness,
    check_mapping_edges,
    check_queue_bounds,
    rows_of,
)


def occurrence(spec, runtime, name: str) -> EventOccurrence:
    elem = spec.tree.ae_tiers[0].name if spec.tree.ae_tiers else spec.tree.as_tier.name
    return EventOccurrence((elem, name), "injected")


class TestInit:
    def test_figures_initial_state(self, figures_spec):
        runtime = Runtime(figures_spec)
        state = runtime.init()
        program = figures_spec.program
        assert state.fluents[program.fluent_slot[("worker", "inSecurityCheck")]] is False
        assert state.metrics[program.metric_slot[("worker", "thereIsInsecureMsg")]] is False
        assert state.tick == 0
        assert not state.pending
        assert len(state.channels) == len(program.channel_keys) > 0
        assert all(not queue for queue in state.channels)

    def test_no_metrics_spec(self):
        spec = check_all(parse_text("AS sys { }"))
        state = Runtime(spec).init()
        assert state.metrics == []

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
        slot = figures_spec.program.fluent_slot[("worker", "inSecurityCheck")]
        assert state.fluents[slot] is True
        assert rows_of(runtime.trace, FLUENT_INITIATED, "worker.inSecurityCheck")

    def test_guard_suppression(self, figures_spec):
        runtime = Runtime(figures_spec)
        state = runtime.init()
        # thereIsInsecureMsg is false, so privateMessageSecure's guard fails
        raised = runtime.raise_event(
            state, occurrence(figures_spec, runtime, "privateMessageSecure")
        )
        assert not raised
        ((_seq, _tick, _kind, _subject, detail),) = rows_of(
            runtime.trace, EVENT_SUPPRESSED, "worker.privateMessageSecure"
        )
        assert detail == "guard false"

    def test_reinitiation_is_idempotent(self, figures_spec):
        runtime = Runtime(figures_spec)
        state = runtime.init()
        occ = occurrence(figures_spec, runtime, "privateMessageIsComming")
        runtime.raise_event(state, occ)
        runtime.raise_event(state, occ)
        assert len(rows_of(runtime.trace, FLUENT_INITIATED)) == 1


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
        slot = figures_spec.program.metric_slot[("worker", "thereIsInsecureMsg")]
        runtime.assign_metric(state, slot, True)
        pending = [occ.event[1] for occ in state.pending]
        # declaration order: Insecure first, then Secure
        assert pending == ["privateMessageInsecure", "privateMessageSecure"]
        runtime.drain(state)
        assert rows_of(runtime.trace, EVENT_SUPPRESSED, "worker.privateMessageInsecure")
        assert rows_of(runtime.trace, EVENT_RAISED, "worker.privateMessageSecure")

    def test_value_preserving_write_still_fires(self, figures_spec):
        runtime = Runtime(figures_spec)
        state = runtime.init()
        slot = figures_spec.program.metric_slot[("worker", "thereIsInsecureMsg")]
        runtime.assign_metric(state, slot, False)
        assert len(state.pending) == 2
        ((_seq, _tick, _kind, _subject, detail),) = rows_of(runtime.trace, METRIC_ASSIGNED)
        assert detail == "false -> false"

    def test_post_snapshot_guard_default(self):
        spec = check_all(parse_text(SNAPSHOT_SPEC))
        runtime = Runtime(spec)
        state = runtime.init()
        runtime.assign_metric(state, spec.program.metric_slot[("sys", "level")], True)
        runtime.drain(state)
        assert rows_of(runtime.trace, EVENT_RAISED, "sys.sawRise")


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
    ACTION doubleFault {
      DOES { fail "first"; }
      ONERR_DOES { fail "second"; METRICS.m = true; }
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

    def metric(self, name: str) -> object:
        return self.state.metrics[self.spec.program.metric_slot[("sys", name)]]

    def test_guard_rejected_runs_nothing(self):
        outcome, reason = self.runtime.execute_action(self.state, ("sys", "blocked"), "test")
        assert (outcome, reason) == (GUARD_REJECTED, None)
        assert self.runtime.trace.rows == []
        assert self.metric("m") is False

    def test_fail_statement_routes_to_error_path(self):
        outcome, reason = self.runtime.execute_action(self.state, ("sys", "failing"), "test")
        assert outcome == ERROR
        assert reason == "boom"
        ((_seq, _tick, _kind, _subject, detail),) = rows_of(
            self.runtime.trace, ACTION_FAILED, "sys.failing"
        )
        assert detail == "boom"
        assert [occ.event for occ in self.state.pending] == [("sys", "cleanup")]

    def test_ensures_violation_is_error(self):
        outcome, _reason = self.runtime.execute_action(self.state, ("sys", "brittle"), "test")
        assert outcome == ERROR
        assert rows_of(self.runtime.trace, ENSURES_VIOLATED, "sys.brittle")
        assert [occ.event for occ in self.state.pending] == [("sys", "cleanup")]

    def test_rejected_callee_binds_false_and_continues(self):
        outcome, _ = self.runtime.execute_action(self.state, ("sys", "caller"), "test")
        assert outcome == SUCCESS
        assert self.metric("sawReject") is True

    def test_failing_callee_switches_caller_to_error_path(self):
        outcome, reason = self.runtime.execute_action(self.state, ("sys", "cascade"), "test")
        assert outcome == ERROR
        assert "boom" in reason
        assert self.metric("m") is True  # ONERR_DOES ran
        # cleanup enqueued twice: once by failing, once by cascade
        assert [occ.event[1] for occ in self.state.pending] == ["cleanup", "cleanup"]

    def test_failure_in_the_error_path_stops_it_and_triggers_still_fire(self):
        outcome, reason = self.runtime.execute_action(self.state, ("sys", "doubleFault"), "test")
        assert (outcome, reason) == (ERROR, "first")
        assert self.metric("m") is False  # the statement after the second fail never ran
        assert [row[1:] for row in self.runtime.trace.rows] == [
            (ACTION_STARTED, "sys.doubleFault", "test"),
            (ACTION_FAILED, "sys.doubleFault", "first"),
        ]
        assert [occ.event for occ in self.state.pending] == [("sys", "cleanup")]


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
        assert runtime.trace.rows == []

    def test_step_returns_the_event_it_raised(self, figures_spec):
        # The event a move raised is its result, not part of the state: a
        # raised event's key, None for a suppressed one (and for an idle
        # queue, as ``test_empty_queue_is_identity`` checks), and nothing
        # from a stimulus.
        runtime = Runtime(figures_spec)
        program = figures_spec.program
        state = runtime.init()
        # thereIsInsecureMsg is false, so privateMessageSecure's guard fails
        secure = occurrence(figures_spec, runtime, "privateMessageSecure")
        coming = occurrence(figures_spec, runtime, "privateMessageIsComming")
        state.pending.extend((secure, coming))
        assert runtime.step(state) is None
        assert rows_of(runtime.trace, EVENT_SUPPRESSED, "worker.privateMessageSecure")
        assert runtime.step(state) == coming.event
        message = next(iter(program.messages))
        for stimulus in (
            InjectEvent(coming.event),
            SetMetric(program.metric_keys[0], True),
            SendMessage(message, program.channel_keys[0]),
            Tick(),
        ):
            assert runtime.apply_stimulus(state, stimulus) is None, stimulus
        assert "last_event" not in RuntimeState.__slots__

    def test_copy_of_a_working_state_is_equal_and_independent(self, healing_spec):
        # The verifier's working states hold a vector's tuples as their parts.
        lts = build_lts(healing_spec)
        occurrences = {event: EventOccurrence(event, "") for event in healing_spec.program.events}
        queued = next(index for index, vec in enumerate(lts.states) if any(vec.channels))
        for index in (1, queued):
            vec = lts.states[index]
            state = Layout.state(vec, occurrences)
            copy = state.copy()
            assert Layout.vector(copy) == Layout.vector(state) == vec
            assert copy.pending == state.pending
            copy.fluents[0] = not copy.fluents[0]
            copy.metrics[0] = "changed"
            copy.timers[0] += 1
            for queue in copy.channels:
                queue.append(("ASIP", "extra"))
            copy.pending.clear()
            assert Layout.vector(state) == vec
            assert len(state.pending) == len(vec.pending)

    def test_mapping_needs_all_conditions(self):
        spec = check_all(parse_text(CONJUNCTION_SPEC))
        runtime = Runtime(spec)
        state = runtime.init()
        state.pending.append(EventOccurrence(("unit", "goLeft"), "injected"))
        runtime.step(state)
        assert not rows_of(runtime.trace, MAPPING_FIRED)
        state.pending.append(EventOccurrence(("unit", "goRight"), "injected"))
        runtime.step(state)
        assert rows_of(runtime.trace, MAPPING_FIRED)
        assert state.metrics[spec.program.metric_slot[("unit", "fired")]] is True

    def test_mapping_fires_only_on_rising_edge(self):
        spec = check_all(parse_text(CONJUNCTION_SPEC))
        runtime = Runtime(spec)
        state = runtime.init()
        for name in ("goLeft", "goRight", "goLeft"):
            state.pending.append(EventOccurrence(("unit", name), "injected"))
        runtime.drain(state)
        # reset (from work) terminated both before the second goLeft arrived,
        # so the third occurrence re-initiates `left` alone: no second firing
        assert len(rows_of(runtime.trace, MAPPING_FIRED)) == 1


SECURE_LINK_SEND = SendMessage(("worker", "privateMessage"), ("worker", "secureLink"))


class TestSendMessage:
    def test_capacity_drop(self, figures_spec):
        runtime = Runtime(figures_spec)
        state = runtime.init()
        for _ in range(5):
            runtime.apply_stimulus(state, SECURE_LINK_SEND)
        sends = rows_of(runtime.trace, MESSAGE_SENT)
        assert len(sends) == 5
        assert sum("dropped" in detail for *_, detail in sends) == 1
        slot = figures_spec.program.channel_slot[("worker", "secureLink")]
        assert len(state.channels[slot]) == 4

    def test_sent_subscription(self, figures_spec):
        runtime = Runtime(figures_spec)
        state = runtime.init()
        runtime.apply_stimulus(state, SECURE_LINK_SEND)
        assert [occ.event for occ in state.pending] == [
            ("worker", "privateMessageIsComming")
        ]


class TestRun:
    def test_lifecycle_order(self, protecting_pkg, protecting_spec):
        runtime = Runtime(protecting_spec)
        trace = runtime.run(protecting_pkg.scenario("secure", protecting_spec))
        initiated = rows_of(trace, FLUENT_INITIATED, "worker.inSecurityCheck")
        terminated = rows_of(trace, FLUENT_TERMINATED, "worker.inSecurityCheck")
        assert len(initiated) == 1 and len(terminated) == 1
        assert initiated[0][0] < terminated[0][0]  # by seq

    def test_empty_scenario_no_records(self, figures_spec):
        runtime = Runtime(figures_spec)
        trace = runtime.run(Scenario("empty", ()))
        assert trace.rows == []

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

    @pytest.mark.parametrize(
        "line, message",
        [
            ("tick 1 halt now", "halt takes no arguments"),
            ("tick 1 inject", "inject takes one event name"),
            ("tick 1 set m", "set takes a metric name and a value"),
            ("tick 1 send one.ping", "send takes a message name and a channel name"),
            ("tick 1 wait", "unknown stimulus 'wait'"),
            ("tick -1 halt", "tick numbers are non-negative"),
            ("tick 1_0 halt", "tick number is not an integer literal: '1_0'"),
            ("tick +2 halt", "tick number is not an integer literal: '+2'"),
            ("tick \u0663 halt", "tick number is not an integer literal: '\u0663'"),
            ("tick x halt", "tick number is not an integer literal: 'x'"),
            ("at 1 halt", "expected 'tick <n> <stimulus>', got: at 1 halt"),
            ("tick 1", "expected 'tick <n> <stimulus>', got: tick 1"),
            ("tick 1 inject sys.nope", "no event named 'sys.nope'"),
            ("tick 1 send one.nope one.link", "no message named 'one.nope'"),
            ("tick 1 send one.ping one.nope", "no channel named 'one.nope'"),
            ("tick 1 send ping one.link", "'ping' is ambiguous; qualify it: one.ping, two.ping"),
            ("tick 0 halt", "ticks must be non-decreasing"),
        ],
    )
    def test_step_errors_name_the_line(self, line, message):
        spec = check_all(parse_text(TWO_PROTOCOLS_SPEC))
        assert spec.ok
        text = f"# the error is on line 3\ntick 1 inject go\n{line}\n"
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(text, spec, "s.scenario")
        assert str(exc.value) == f"s.scenario:3: {message}"


# Two AE tiers whose protocols declare a message and a channel of the same
# bare name, so a bare name is ambiguous.
TWO_PROTOCOLS_SPEC = """
AS sys {
  EVENTS { EVENT go { INJECTABLE } }
  METRICS { METRIC m { TYPE { boolean } INITIAL { false } } }
}
AE one { AEIP {
  MESSAGES { MESSAGE ping { SENDER { one } RECEIVER { two } } }
  CHANNELS { CHANNEL link { CAPACITY { 1 } } }
} }
AE two { AEIP {
  MESSAGES { MESSAGE ping { SENDER { two } RECEIVER { one } } }
  CHANNELS { CHANNEL link { CAPACITY { 1 } } }
} }
"""


class TestRecordingOff:
    def test_recording_off_walks_the_same_states(self, mission_pairs):
        # Recording only adds trace text: stepping a recording and a
        # non-recording runtime through the same stimuli and drains must
        # visit the same states.
        recorded = compared = 0
        for pkg, spec in mission_pairs:
            for path in pkg.scenario_paths():
                scenario = pkg.scenario(path.stem, spec)
                on = Runtime(spec, seed=0, record=True)
                off = Runtime(spec, seed=0, record=False)
                pair = ((on, on.init()), (off, off.init()))

                def same(where: str) -> None:
                    nonlocal compared
                    (_, a), (_, b) = pair
                    assert Layout.vector(a) == Layout.vector(b), (
                        pkg.name, path.stem, where,
                    )
                    compared += 1

                def drain() -> None:
                    while pair[0][1].pending:
                        raised = [runtime.step(state) for runtime, state in pair]
                        assert raised[0] == raised[1], (pkg.name, path.stem)
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
                recorded += len(on.trace.rows)
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
            scenario, _seed = random_scenario(spec, rng)
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
        for run_seed in (seed, None):  # seeded, then declaration order
            fast = Runtime(spec, seed=run_seed)
            slow = Runtime(spec, seed=run_seed)
            slow.advance_tick = lambda state, runtime=slow: reference_advance_tick(runtime, state)
            text = fast.run(scenario, max_ticks=max_ticks).to_text()
            assert text == slow.run(scenario, max_ticks=max_ticks).to_text(), (
                scenario.name, run_seed,
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
                scenario, run_seed = random_scenario(spec, rng)
                self.assert_same(spec, scenario, run_seed)
        for seed in range(30):
            spec = random_checked_spec(seed)
            scenario, run_seed = random_scenario(spec, rng)
            self.assert_same(spec, scenario, run_seed)

    def test_a_tick_empties_every_channel(self, mission_pairs, monkeypatch):
        """Every queued message's receiver acts in the tick, so no message
        outlives a tick: on every mission scenario and a wide swarm run."""
        advance_tick = Runtime.advance_tick
        delivered = 0

        def checking(self, state):
            nonlocal delivered
            delivered += sum(map(len, state.channels))
            advance_tick(self, state)
            assert not any(state.channels), (state.tick, state.channels)

        monkeypatch.setattr(Runtime, "advance_tick", checking)
        for pkg, spec in mission_pairs:
            for path in pkg.scenario_paths():
                for seed in (0, 1, None):
                    Runtime(spec, seed=seed).run(pkg.scenario(path.stem, spec))
        swarm = check_all(parse_text(swarm_source(40)))
        wide = parse_scenario(wide_text(random.Random(7), 40, 60), swarm, "wide")
        for seed in (0, None):
            Runtime(swarm, seed=seed).run(wide)
        assert delivered > 0

    def test_idle_swarm_draws_no_order(self, monkeypatch):
        spec = check_all(parse_text(swarm_source(40)))
        drawn: list[int] = []
        element_order = Runtime.element_order

        def counting(self, tick):
            drawn.append(tick)
            return element_order(self, tick)

        monkeypatch.setattr(Runtime, "element_order", counting)
        trace = Runtime(spec, seed=3).run(Scenario("idle", ((100, Halt()),)))
        assert drawn == [] and trace.rows == []
        # control: two workers receiving in the same tick draw one order
        text = (
            "tick 0 send worker1.privateMessage worker1.secureLink\n"
            "tick 0 send worker2.privateMessage worker2.secureLink\n"
            "tick 0 send worker3.privateMessage worker3.secureLink\n"
            "tick 3 halt\n"
        )
        Runtime(spec, seed=3).run(parse_scenario(text, spec))
        assert drawn == [1]


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
        slot = figures_spec.program.metric_slot[("worker", "thereIsInsecureMsg")]
        runtime.assign_metric(state, slot, True)
        assert len(state.pending) == 2
        with pytest.raises(LivelockError, match="after 1 drain steps at tick 0"):
            runtime.drain(state)


def trace_pin_texts(mission_pairs) -> dict[str, str]:
    """Trace files behind ``trace_sha256.json``, one text per pinned entry.

    Every mission scenario at seeds 0-3, the 40-worker wide-swarm scenario
    at seeds 0-3, one random scenario per random spec 0-29, and the
    every-operator scenario at seeds 0-1, each seeded and in declaration
    order (``seed=None``).
    """

    def runs(spec, scenario, seeds) -> str:
        parts = []
        for seed in seeds:
            for interleave, run_seed in (("seeded", seed), ("declared", None)):
                trace = Runtime(spec, seed=run_seed).run(scenario)
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
        scenario, run_seed = random_scenario(spec, random.Random(seed), f"random{seed}")
        random_texts.append(runs(spec, scenario, (run_seed,)))
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

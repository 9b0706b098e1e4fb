"""Shipped mission packages: checked, runnable, verifiable, figure-faithful."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from asslkit import check_all, parse_text
from asslkit.printer import format_event, format_policy
from asslkit.runtime import Runtime
from asslkit.runtime.state import (
    ACTION_STARTED,
    EVENT_RAISED,
    FLUENT_INITIATED,
    FLUENT_TERMINATED,
    MESSAGE_RECEIVED,
    MESSAGE_SENT,
)
from asslkit.verifier import (
    HOLDS,
    VIOLATED,
    build_lts,
    check,
    lts_to_text,
    parse_env_stimulus,
    parse_property,
    parse_property_file,
    replay_counterexample,
)
from conftest import FIG_ACTION_CALL, FIG_EVENTS, FIG_POLICY, README_ENVS, figures_wrapped
from oracles import stem_event



def test_all_packages_check_clean(mission_pairs):
    for pkg, spec in mission_pairs:
        assert spec.diagnostics == (), (
            pkg.name,
            [d.render() for d in spec.diagnostics],
        )


def test_all_scenarios_reach_quiescent_halt(mission_pairs):
    for pkg, spec in mission_pairs:
        for path in pkg.scenario_paths():
            scenario = pkg.scenario(path.stem, spec)
            runtime = Runtime(spec, seed=11)
            trace = runtime.run(scenario, max_ticks=1000)
            assert trace.aborted is None, (pkg.name, path.stem)
            assert trace.summary()["ticks"] <= 1000
            # fluents never stay active at the quiescent halt
            active: dict[str, bool] = {}
            for record in trace.records:
                if record.kind == FLUENT_INITIATED:
                    active[record.subject] = True
                elif record.kind == FLUENT_TERMINATED:
                    active[record.subject] = False
            stuck = [name for name, is_active in active.items() if is_active]
            assert stuck == [], (pkg.name, path.stem, stuck)


def test_graph_exports_are_byte_identical(mission_pairs):
    """``lts_to_text`` under each README environment, pinned by sha256."""
    pinned = json.loads(
        Path(__file__).with_name("data").joinpath("graph_sha256.json").read_text()
    )
    assert set(pinned) == {pkg.name for pkg, _spec in mission_pairs}
    for pkg, spec in mission_pairs:
        env = tuple(parse_env_stimulus(spec, t) for t in README_ENVS[pkg.name]) or None
        lts = build_lts(spec, env=env)
        text = lts_to_text(lts)
        assert lts.state_count == pinned[pkg.name]["states"], pkg.name
        assert hashlib.sha256(text.encode()).hexdigest() == pinned[pkg.name]["sha256"], pkg.name


def test_all_property_files_hold_at_default_bounds(mission_pairs):
    for pkg, spec in mission_pairs:
        env_texts = README_ENVS[pkg.name]
        env = tuple(parse_env_stimulus(spec, t) for t in env_texts) or None
        lts = build_lts(spec, env=env)
        assert not lts.truncated, pkg.name
        for prop_path in pkg.prop_paths():
            for prop in parse_property_file(prop_path.read_text(), spec):
                verdict = check(lts, prop)
                assert verdict.result == HOLDS, (pkg.name, prop.text, verdict.result)


def test_readmes_exist(mission_pairs):
    for pkg, _spec in mission_pairs:
        assert pkg.readme_path.is_file()
        assert pkg.readme_path.read_text().strip()


def test_all_specs_round_trip(mission_pairs):
    from asslkit.printer import pretty_print

    for pkg, spec in mission_pairs:
        assert parse_text(pretty_print(spec.tree)) == spec.tree, pkg.name


class TestSelfProtectingFidelity:
    def test_policy_byte_reproduces_figure(self, protecting_spec):
        published = parse_text(figures_wrapped(FIG_POLICY, FIG_EVENTS))
        figure_policy = published.ae_tiers[0].policies[0]
        shipped_policy = protecting_spec.tree.ae_tiers[0].policies[0]
        assert format_policy(shipped_policy) == format_policy(figure_policy)

    def test_events_byte_reproduce_figure(self, protecting_spec):
        published = parse_text(figures_wrapped(FIG_POLICY, FIG_EVENTS))
        figure_events = {e.name: e for e in published.ae_tiers[0].events}
        shipped_events = {e.name: e for e in protecting_spec.tree.ae_tiers[0].events}
        for name in (
            "privateMessageIsComming",
            "privateMessageInsecure",
            "privateMessageSecure",
        ):
            assert format_event(shipped_events[name]) == format_event(figure_events[name])

    def test_action_skeleton_matches_figure(self, protecting_spec):
        action = next(
            a
            for a in protecting_spec.tree.ae_tiers[0].actions
            if a.name == "checkPrivateMessage"
        )
        # the published fragment elides clause bodies; its fixed parts are
        # the clause structure and the certificate-check call
        from asslkit.printer import format_action

        text = format_action(action)
        assert FIG_ACTION_CALL in text
        assert action.guard is not None
        assert action.ensures is not None
        assert action.onerr_does
        assert action.onerr_triggers

    def test_secure_and_insecure_terminators(self, protecting_pkg, protecting_spec):
        runtime = Runtime(protecting_spec, seed=5)
        for scenario_name, terminator in (
            ("secure", "privateMessageSecure"),
            ("insecure", "privateMessageInsecure"),
        ):
            trace = runtime.run(protecting_pkg.scenario(scenario_name, protecting_spec))
            (terminated,) = trace.find(FLUENT_TERMINATED, "worker.inSecurityCheck")
            assert terminated.detail == f"by worker.{terminator}"

    def test_quarantine_on_certificate_failure(self, protecting_pkg, protecting_spec):
        runtime = Runtime(protecting_spec, seed=5)
        trace = runtime.run(protecting_pkg.scenario("quarantine", protecting_spec))
        assert trace.find(EVENT_RAISED, "worker.messageQuarantined")
        assert trace.find("ActionFailed", "worker.checkPrivateMessage")


class TestSelfHealing:
    def test_kill_worker_heals_within_two_windows(self, healing_pkg, healing_spec):
        # the timeout bound comes from the spec's own constants
        ruler = next(t for t in healing_spec.tree.ae_tiers if t.name == "ruler")
        watchdog = next(e for e in ruler.events if e.name == "watchdogFired")
        window = watchdog.activation[0].ticks
        scenario = healing_pkg.scenario("kill_worker", healing_spec)
        kill_tick = next(t for t, s in scenario.steps if "alive" in s.render())
        trace = Runtime(healing_spec, seed=2).run(scenario)
        (healing,) = trace.find(FLUENT_INITIATED, "ruler.inHealing")
        assert healing.tick <= kill_tick + 2 * window

    def test_no_fault_never_heals(self, healing_pkg, healing_spec):
        trace = Runtime(healing_spec, seed=2).run(
            healing_pkg.scenario("no_fault", healing_spec)
        )
        assert not trace.find(FLUENT_INITIATED, "ruler.inHealing")

    def test_flooded_channel_drops_but_tolerates(self, healing_pkg, healing_spec):
        trace = Runtime(healing_spec, seed=2).run(
            healing_pkg.scenario("flood_channel", healing_spec)
        )
        drops = [
            r for r in trace.records
            if r.kind == MESSAGE_SENT and "dropped" in r.detail
        ]
        assert len(drops) == 1
        assert not trace.find(FLUENT_INITIATED, "ruler.inHealing")


class TestConfiguringAndScheduling:
    def test_reassignment_once_per_worker(self, config_pkg, config_spec):
        trace = Runtime(config_spec, seed=2).run(
            config_pkg.scenario("new_asteroid", config_spec)
        )
        retargets = [
            r.subject for r in trace.records
            if r.kind == ACTION_STARTED and r.subject.endswith("retargetInstrument")
        ]
        assert sorted(retargets) == [
            "worker1.retargetInstrument",
            "worker2.retargetInstrument",
        ]

    @pytest.mark.parametrize(
        "scenario_name,priorities",
        [("schedule_alpha_first", (7, 3)), ("schedule_beta_first", (2, 9))],
    )
    def test_schedule_order_matches_priority_sort(
        self, config_pkg, config_spec, scenario_name, priorities
    ):
        trace = Runtime(config_spec, seed=2).run(
            config_pkg.scenario(scenario_name, config_spec)
        )
        observed = [
            r.subject.removeprefix("ants.explore")
            for r in trace.records
            if r.kind == ACTION_STARTED and "explore" in r.subject
        ]
        labeled = sorted(
            zip(priorities, ["Alpha", "Beta"]), key=lambda pair: -pair[0]
        )
        assert observed == [name for _p, name in labeled]

    def test_zero_workers_zero_assignments(self, config_pkg, config_spec):
        source = config_pkg.source()
        start = source.index("AE worker1")
        headless = source[:start]
        spec = check_all(parse_text(headless, "no-workers.assl"))
        assert spec.ok
        scenario_text = "tick 1 inject planRequested\ntick 2 halt\n"
        from asslkit.runtime import parse_scenario

        trace = Runtime(spec, seed=2).run(parse_scenario(scenario_text, spec))
        assert not [
            r for r in trace.records
            if r.kind == ACTION_STARTED and "retarget" in r.subject
        ]


class TestVoyager:
    def test_flyby_session_complete_after_four_segments(self, voyager_pkg, voyager_spec):
        trace = Runtime(voyager_spec, seed=2).run(
            voyager_pkg.scenario("flyby", voyager_spec)
        )
        received = trace.find(MESSAGE_RECEIVED)
        assert len(received) == 4
        (session,) = trace.find(EVENT_RAISED, "earth.sessionComplete")
        assert session.seq > max(r.seq for r in received)

    def test_no_flyby_no_session(self, voyager_pkg, voyager_spec):
        trace = Runtime(voyager_spec, seed=2).run(
            voyager_pkg.scenario("no_flyby", voyager_spec)
        )
        assert not trace.find(EVENT_RAISED, "earth.sessionComplete")

    def test_dropped_segments_violate_session_property(self, voyager_pkg):
        source = voyager_pkg.source().replace("CAPACITY { 4 }", "CAPACITY { 2 }")
        lossy = check_all(parse_text(source, "lossy.assl"))
        assert lossy.ok
        lts = build_lts(lossy)
        prop = parse_property(
            "G (implies (fluent voyager.inTakingPicture)"
            " (F (event earth.sessionComplete)))",
            lossy,
        )
        verdict = check(lts, prop)
        assert verdict.result == VIOLATED
        cex = verdict.counterexample
        vector = replay_counterexample(lossy, lts, cex)
        assert vector == lts.states[cex.violating_state]
        assert lts.events[cex.violating_state] == stem_event(lossy, lts, cex.stem)

"""Acceptance gate: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
per-criterion PASS lines).
"""

from __future__ import annotations

import random
import time
from functools import lru_cache

from asslkit import check_all, parse_text
from asslkit.missions import all_missions, ants_self_protecting
from asslkit.printer import pretty_print
from asslkit.runtime import Runtime
from asslkit.runtime.state import FLUENT_INITIATED, FLUENT_TERMINATED
from asslkit.testgen import (
    enumerate_paths,
    generate,
    generate_all,
    impact,
    measure_coverage,
    regenerate,
    run_suite,
)
from asslkit.verifier import (
    VIOLATED,
    build_lts,
    check,
    eval_prop,
    parse_env_stimulus,
    parse_property,
    replay_counterexample,
)
from oracles import all_maximal_paths, brute_force_lts, exhaustive_check, lts_as_sets, stem_event
from specgen import env_for, random_checked_spec, random_properties, random_scenario
from tracecheck import check_alternation, rows_of

PROTECTING_ENV = (
    "send privateMessage secureLink",
    "set messageVerdictSecure true",
    "set messageVerdictSecure false",
    "tick",
)


def test_criterion_1_figure_fidelity():
    """Reconstructed figures parse, check clean, and round-trip, in < 1 s."""
    start = time.time()
    pkg = ants_self_protecting()
    spec = check_all(parse_text(pkg.source(), "spec.assl"))
    assert spec.diagnostics == (), [d.render() for d in spec.diagnostics]
    reparsed = parse_text(pretty_print(spec.tree))
    assert reparsed == spec.tree
    elapsed = time.time() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    print(f"\nPASS criterion 1: figure fidelity (parse+check+round-trip, {elapsed:.2f}s)")


def test_criterion_2_fluent_lifecycle_over_randomized_scenarios():
    """>= 200 randomized mission scenarios keep strict alternation, < 30 s."""
    start = time.time()
    rng = random.Random(42)
    runs = 0
    for pkg in all_missions():
        spec = pkg.load()
        runtime = Runtime(spec, seed=7)
        for _ in range(55):
            scenario, _seed = random_scenario(spec, rng, name=f"{pkg.name}-{runs}")
            trace = runtime.run(scenario, max_ticks=200)
            assert trace.aborted is None
            problems = check_alternation(trace)
            assert problems == [], (pkg.name, scenario.render(), problems)
            runs += 1
    elapsed = time.time() - start
    assert runs >= 200
    assert elapsed < 30.0, f"took {elapsed:.2f}s"
    print(f"PASS criterion 2: fluent lifecycle over {runs} randomized scenarios ({elapsed:.1f}s)")


def test_criterion_3_determinism():
    """10 repeated runs are byte-identical; rebuilding the graph never changes verdicts."""
    for pkg in all_missions():
        spec = pkg.load()
        for path in pkg.scenario_paths():
            scenario = pkg.scenario(path.stem, spec)
            texts = {
                Runtime(spec, seed=1234).run(scenario).to_text() for _ in range(10)
            }
            assert len(texts) == 1, (pkg.name, path.stem)

    spec = ants_self_protecting().load()
    env = tuple(parse_env_stimulus(spec, t) for t in PROTECTING_ENV)
    prop = parse_property(
        "G (implies (fluent inSecurityCheck)"
        " (F (event privateMessageSecure | event privateMessageInsecure)))",
        spec,
    )
    bad = parse_property("G (! (fluent inSecurityCheck))", spec)
    results = []
    for _ in range(2):
        lts = build_lts(spec, env=env)
        results.append((check(lts, prop), check(lts, bad)))
    assert results[0] == results[1]
    assert results[0][1].result == VIOLATED
    assert results[0][1].counterexample.stem == results[1][1].counterexample.stem
    print("PASS criterion 3: determinism (10x byte-identical traces; verdicts and stems equal across 2 independent graph builds)")


@lru_cache(maxsize=1)
def _criterion_4_family():
    """>= 50 random small specs with both oracles evaluated.

    Seeds are scanned in order; a spec joins the family when its reachable
    graph stays within 512 states and its maximal-path enumeration stays
    within the oracle's cap (one dense outlier in the scan range exceeds
    millions of paths and is skipped, deterministically).
    """
    rng = random.Random(2024)
    family = []
    violated = []
    seed = 0
    while len(family) < 50:
        assert seed < 80, "seed scan budget exceeded"
        spec = random_checked_spec(seed)
        env = env_for(spec)
        lts = build_lts(spec, env=env)
        assert not lts.truncated
        assert lts.state_count <= 512
        try:
            all_maximal_paths(lts, cap=100_000)
        except AssertionError:
            seed += 1
            continue
        assert lts_as_sets(lts)[:3] == brute_force_lts(spec, env)[:3], seed
        verdicts = []
        for line in random_properties(spec, rng, count=6):
            prop = parse_property(line, spec)
            verdict = check(lts, prop)
            oracle = exhaustive_check(lts, prop)
            verdicts.append((prop.text, verdict.result, oracle))
            if verdict.result == VIOLATED:
                violated.append((spec, lts, verdict))
        family.append((seed, lts.state_count, verdicts))
        seed += 1
    return family, violated


def test_criterion_4_verifier_oracle_equivalence():
    """Graphs match brute force exactly; verdicts match path evaluation, < 2 min."""
    start = time.time()
    family, _violated = _criterion_4_family()
    assert len(family) >= 50
    mismatches = [
        (seed, text, result, oracle)
        for seed, _n, verdicts in family
        for text, result, oracle in verdicts
        if result != oracle
    ]
    assert mismatches == []
    elapsed = time.time() - start
    assert elapsed < 120.0, f"took {elapsed:.2f}s"
    checked = sum(len(verdicts) for _s, _n, verdicts in family)
    print(
        f"PASS criterion 4: oracle equivalence on {len(family)} specs,"
        f" {checked} properties ({elapsed:.1f}s)"
    )


def test_criterion_5_counterexample_soundness():
    """Every Violated verdict from criterion 4 replays to a falsifying state."""
    _family, violated = _criterion_4_family()
    assert violated, "criterion 4 produced no violations to replay"
    for spec, lts, verdict in violated:
        cex = verdict.counterexample
        vector = replay_counterexample(spec, lts, cex)
        assert vector == lts.states[cex.violating_state], verdict.prop.text
        event = stem_event(spec, lts, cex.stem)
        assert lts.events[cex.violating_state] == event, verdict.prop.text
        if verdict.prop.shape in ("G", "F"):
            assert eval_prop(verdict.prop.p, vector, event, lts.program) is False
        elif verdict.prop.shape == "G->X" and cex.kind == "deadend":
            # X q fails at a state with no successor; q itself is not at issue
            assert not lts.succ[cex.violating_state]
        else:  # response, until, and bad-next violations falsify q
            assert eval_prop(verdict.prop.q, vector, event, lts.program) is False
    print(f"PASS criterion 5: {len(violated)}/{len(violated)} counterexamples replay soundly")


def test_criterion_6_self_protecting_terminators():
    """Secure and insecure scenarios terminate via their respective events."""
    pkg = ants_self_protecting()
    spec = pkg.load()
    runtime = Runtime(spec, seed=0)
    for name, terminator in (
        ("secure", "privateMessageSecure"),
        ("insecure", "privateMessageInsecure"),
    ):
        trace = runtime.run(pkg.scenario(name, spec))
        initiated = rows_of(trace, FLUENT_INITIATED, "worker.inSecurityCheck")
        terminated = rows_of(trace, FLUENT_TERMINATED, "worker.inSecurityCheck")
        assert len(initiated) == 1 and len(terminated) == 1
        ((start, *_),) = initiated
        ((end, _tick, _kind, _subject, detail),) = terminated
        assert start < end
        assert detail == f"by worker.{terminator}", name
    print("PASS criterion 6: self-protecting terminators match the declared list")


def test_criterion_7_test_generation():
    """Exactly 6 feasible paths; suite passes 6/6; branch coverage 100%."""
    spec = ants_self_protecting().load()
    path_set = enumerate_paths(spec, ("worker", "SELF_PROTECTING"))
    assert len(path_set.paths) == 6
    suite = generate(spec, path_set)
    assert len(suite.tests) == 6
    assert suite.infeasible == ()
    results = run_suite(spec, suite)
    passed = sum(1 for _t, failures in results if not failures)
    assert passed == 6, [f for _t, f in results if f]
    covered, universe = measure_coverage(spec, suite)
    assert covered == universe and len(universe) == 3
    print("PASS criterion 7: 6 feasible paths, 6/6 pass, 3/3 branch coverage")


def test_criterion_8_change_impact():
    """Editing one action regenerates exactly its policy, equal to scratch."""
    pkg = ants_self_protecting()
    old = pkg.load()
    edited = pkg.source().replace(
        "METRICS.verdictRead = true;",
        "METRICS.verdictRead = true;\n        METRICS.certificateChecked = true;",
    )
    new = check_all(parse_text(edited, "edited.assl"))
    assert new.ok
    impact_set = impact(old, new)
    assert impact_set.policies == (("worker", "SELF_PROTECTING"),)
    assert impact_set.changed == ("worker.action.checkPrivateMessage",)
    old_suite = generate_all(old)
    incremental = regenerate(old_suite, old, new)
    assert incremental == generate_all(new)
    print("PASS criterion 8: impact = {SELF_PROTECTING}; regeneration equals from-scratch")


def test_criterion_9_self_healing_liveness():
    """Healing fires within the spec's own timeout; never without a fault."""
    from asslkit.missions import ants_self_healing

    pkg = ants_self_healing()
    spec = pkg.load()
    ruler = next(t for t in spec.tree.ae_tiers if t.name == "ruler")
    watchdog = next(e for e in ruler.events if e.name == "watchdogFired")
    window = watchdog.activation[0].ticks
    timeout = 2 * window  # one in-flight heartbeat can keep a window healthy

    kill = pkg.scenario("kill_worker", spec)
    kill_tick = next(t for t, s in kill.steps if "alive" in s.render())
    trace = Runtime(spec, seed=0).run(kill)
    healings = rows_of(trace, FLUENT_INITIATED, "ruler.inHealing")
    assert healings, "healing never initiated"
    _seq, healed_at, *_ = healings[0]
    assert healed_at <= kill_tick + timeout

    calm = Runtime(spec, seed=0).run(pkg.scenario("no_fault", spec))
    assert not rows_of(calm, FLUENT_INITIATED, "ruler.inHealing")
    print(
        f"PASS criterion 9: healing within {timeout} ticks of the kill"
        f" (at tick {healed_at}); fault-free run never heals"
    )

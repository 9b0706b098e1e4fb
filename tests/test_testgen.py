"""Path enumeration, suite generation, change impact, regeneration."""

from __future__ import annotations

import hashlib
import itertools
import json
from pathlib import Path

from asslkit import check_all, parse_text
from asslkit.runtime import Runtime, Trace
from asslkit.runtime.state import (
    ACTION_FAILED,
    ACTION_STARTED,
    EVENT_RAISED,
    FLUENT_TERMINATED,
)
from asslkit.testgen import (
    ERROR_PATH,
    GUARD_REJECT,
    SUCCESS_PATH,
    Assertion,
    _assignments,
    _build_scenario,
    _relevant_metrics,
    _stimulus_plan,
    MAX_CANDIDATES,
    _term_tick,
    check_assertions,
    enumerate_paths,
    generate,
    generate_all,
    impact,
    measure_coverage,
    policy_keys,
    regenerate,
    run_suite,
    write_suite,
)
from specgen import random_checked_spec, swarm_source


def independent_branch_product(spec, policy_key):
    """Recompute the expected path count straight from the declarations."""
    tier = next(t for t in spec.tree.tiers() if t.name == policy_key[0])
    policy = next(p for p in tier.policies if p.name == policy_key[1])
    initiators = {r.name for f in policy.fluents for r in f.initiated_by}
    terminators = {r.name for f in policy.fluents for r in f.terminated_by}
    action_names = []
    for mapping in policy.mappings:
        for ref in mapping.do_actions:
            if ref.name not in action_names:
                action_names.append(ref.name)
    actions = {a.name: a for a in tier.actions}

    def has_fail(name, seen=()):
        action = actions[name]
        if any(type(s).__name__ == "FailStmt" for s in action.does):
            return True
        callees = [
            s.action.name
            for s in action.does
            if type(s).__name__ == "CallStmt" and s.action.name not in seen
        ]
        return any(has_fail(c, (*seen, name)) for c in callees)

    choice_counts = []
    for name in action_names:
        action = actions[name]
        count = 1  # Success
        if action.guard is not None:
            count += 1  # GuardReject (guards here are never constant)
        if has_fail(name):
            count += 1  # Error
        choice_counts.append(count)
    product = 1
    for count in choice_counts:
        product *= count
    return len(initiators) * product * len(terminators)


class TestEnumerate:
    def test_self_protecting_has_six_paths(self, protecting_spec):
        policy = ("worker", "SELF_PROTECTING")
        paths = enumerate_paths(protecting_spec, policy).paths
        assert len(paths) == 6
        assert independent_branch_product(protecting_spec, policy) == 6
        choices = {p.branches[0][1] for p in paths}
        assert choices == {GUARD_REJECT, SUCCESS_PATH, ERROR_PATH}
        terminators = {p.terminating_event[1] for p in paths}
        assert terminators == {"privateMessageSecure", "privateMessageInsecure"}

    def test_constant_guard_and_no_fail_collapse_to_one_path(self):
        spec = check_all(
            parse_text(
                """
                AS sys { }
                AE unit {
                  POLICIES {
                    ONE {
                      FLUENT busy {
                        INITIATED_BY { EVENTS.go }
                        TERMINATED_BY { EVENTS.fin }
                      }
                      MAPPING { CONDITIONS { busy } DO_ACTIONS { ACTIONS.work } }
                    }
                  }
                  ACTIONS {
                    ACTION work {
                      GUARDS { true }
                      DOES { METRICS.done = true; }
                      TRIGGERS { EVENTS.fin }
                    }
                  }
                  EVENTS {
                    EVENT go { INJECTABLE }
                    EVENT fin { }
                  }
                  METRICS { METRIC done { TYPE { boolean } INITIAL { false } } }
                }
                """
            )
        )
        paths = enumerate_paths(spec, ("unit", "ONE")).paths
        assert len(paths) == 1
        assert paths[0].branches == ((("unit", "work"), SUCCESS_PATH),)

    def test_zero_mappings_warns(self):
        spec = check_all(
            parse_text(
                """
                AS sys {
                  POLICIES {
                    EMPTYISH {
                      FLUENT f {
                        INITIATED_BY { EVENTS.a }
                        TERMINATED_BY { EVENTS.b }
                      }
                    }
                  }
                  EVENTS { EVENT a { INJECTABLE } EVENT b { INJECTABLE } }
                }
                """
            )
        )
        result = enumerate_paths(spec, ("sys", "EMPTYISH"))
        assert result.paths == ()
        assert result.warnings and "no mappings" in result.warnings[0]


class TestGenerate:
    def test_suite_passes_and_covers(self, protecting_spec):
        suite = generate(
            protecting_spec, enumerate_paths(protecting_spec, ("worker", "SELF_PROTECTING"))
        )
        assert len(suite.tests) == 6
        assert suite.infeasible == ()
        results = run_suite(protecting_spec, suite)
        assert all(not failures for _test, failures in results)
        covered, universe = measure_coverage(protecting_spec, suite)
        assert covered == universe
        assert len(universe) == 3

    def test_success_path_assertions_end_with_expected_terminator(self, protecting_spec):
        suite = generate(
            protecting_spec, enumerate_paths(protecting_spec, ("worker", "SELF_PROTECTING"))
        )
        secure = next(
            t for t in suite.tests
            if t.path.branches[0][1] == SUCCESS_PATH
            and t.path.terminating_event[1] == "privateMessageSecure"
        )
        last = secure.assertions[-1]
        assert last.kind == FLUENT_TERMINATED
        assert last.detail == "by worker.privateMessageSecure"

    def test_reject_path_asserts_action_absent(self, protecting_spec):
        suite = generate(
            protecting_spec, enumerate_paths(protecting_spec, ("worker", "SELF_PROTECTING"))
        )
        reject = next(t for t in suite.tests if t.path.branches[0][1] == GUARD_REJECT)
        absences = [a for a in reject.assertions if not a.present]
        assert [a.kind for a in absences] == [ACTION_STARTED]
        trace = Runtime(protecting_spec).run(reject.scenario)
        assert not trace.find(ACTION_STARTED, "worker.checkPrivateMessage")

    def test_error_path_asserts_failure_and_quarantine(self, protecting_spec):
        suite = generate(
            protecting_spec, enumerate_paths(protecting_spec, ("worker", "SELF_PROTECTING"))
        )
        error = next(t for t in suite.tests if t.path.branches[0][1] == ERROR_PATH)
        kinds = [a.kind for a in error.assertions if a.present]
        assert ACTION_FAILED in kinds
        assert EVENT_RAISED in kinds  # the quarantine trigger
        trace = Runtime(protecting_spec).run(error.scenario)
        assert trace.find(EVENT_RAISED, "worker.messageQuarantined")

    def test_unforceable_branch_reported_infeasible(self):
        spec = check_all(
            parse_text(
                """
                AS sys { }
                AE unit {
                  POLICIES {
                    STUCKGUARD {
                      FLUENT busy {
                        INITIATED_BY { EVENTS.go }
                        TERMINATED_BY { EVENTS.fin }
                      }
                      MAPPING { CONDITIONS { busy } DO_ACTIONS { ACTIONS.work } }
                    }
                  }
                  ACTIONS {
                    ACTION work {
                      GUARDS { METRICS.a AND NOT METRICS.a }
                      DOES { METRICS.done = true; }
                      TRIGGERS { EVENTS.fin }
                    }
                  }
                  EVENTS {
                    EVENT go { INJECTABLE }
                    EVENT fin { INJECTABLE }
                  }
                  METRICS {
                    METRIC a { TYPE { boolean } INITIAL { false } }
                    METRIC done { TYPE { boolean } INITIAL { false } }
                  }
                }
                """
            )
        )
        suite = generate(spec, enumerate_paths(spec, ("unit", "STUCKGUARD")))
        # the contradictory guard makes every GuardPass branch unforceable
        assert suite.infeasible
        assert all(
            entry.path.branches[0][1] == SUCCESS_PATH for entry in suite.infeasible
        )
        # the reject path is still generated and passes
        assert all(t.path.branches[0][1] == GUARD_REJECT for t in suite.tests)
        assert all(not failures for _t, failures in run_suite(spec, suite))


    def test_literal_inside_a_nested_comparison_is_a_candidate(self):
        # count starts at 0; only a candidate above 2 passes the guard
        source = """
            AS sys { }
            AE unit {
              POLICIES {
                NESTED {
                  FLUENT busy {
                    INITIATED_BY { EVENTS.go }
                    TERMINATED_BY { EVENTS.fin }
                  }
                  MAPPING { CONDITIONS { busy } DO_ACTIONS { ACTIONS.work } }
                }
              }
              ACTIONS {
                ACTION work {
                  GUARDS { @guard }
                  DOES { METRICS.done = true; }
                  TRIGGERS { EVENTS.fin }
                }
              }
              EVENTS {
                EVENT go { INJECTABLE }
                EVENT fin { INJECTABLE }
              }
              METRICS {
                METRIC count { TYPE { integer } INITIAL { 0 } }
                METRIC done { TYPE { boolean } INITIAL { false } }
              }
            }
            """
        for guard in ("METRICS.count > 2", "(METRICS.count > 2) = true"):
            spec = check_all(parse_text(source.replace("@guard", guard)))
            assert spec.ok, guard
            suite = generate_all(spec)
            assert suite.infeasible == (), guard
            branches = sorted(t.path.branches[0][1] for t in suite.tests)
            assert branches == [GUARD_REJECT, SUCCESS_PATH], guard
            assert all(not failures for _t, failures in run_suite(spec, suite)), guard


TWO_POLICY = """
AS sys { }
AE unit {
  POLICIES {
    FIRST {
      FLUENT busyA {
        INITIATED_BY { EVENTS.goA }
        TERMINATED_BY { EVENTS.finA }
      }
      MAPPING { CONDITIONS { busyA } DO_ACTIONS { ACTIONS.workA } }
    }
    SECOND {
      FLUENT busyB {
        INITIATED_BY { EVENTS.goB }
        TERMINATED_BY { EVENTS.finB }
      }
      MAPPING { CONDITIONS { busyB } DO_ACTIONS { ACTIONS.workB } }
    }
  }
  ACTIONS {
    ACTION workA {
      DOES { METRICS.a = true; }
      TRIGGERS { EVENTS.finA }
    }
    ACTION workB {
      DOES { METRICS.b = METRICS.shared; }
      TRIGGERS { EVENTS.finB }
    }
  }
  EVENTS {
    EVENT goA { INJECTABLE }
    EVENT finA { }
    EVENT goB { INJECTABLE }
    EVENT finB { }
  }
  METRICS {
    METRIC a { TYPE { boolean } INITIAL { false } }
    METRIC b { TYPE { boolean } INITIAL { false } }
    METRIC shared { TYPE { boolean } INITIAL { true } }
  }
}
"""


class TestImpact:
    def test_identical_specs_have_empty_impact(self):
        old = check_all(parse_text(TWO_POLICY))
        new = check_all(parse_text(TWO_POLICY))
        result = impact(old, new)
        assert result.changed == ()
        assert result.policies == ()

    def test_editing_one_action_impacts_one_policy(self):
        old = check_all(parse_text(TWO_POLICY))
        new = check_all(
            parse_text(TWO_POLICY.replace("METRICS.a = true;", "METRICS.a = false;"))
        )
        result = impact(old, new)
        assert result.changed == ("unit.action.workA",)
        assert result.policies == (("unit", "FIRST"),)

    def test_renamed_metric_impacts_both_users(self):
        both = TWO_POLICY.replace(
            "METRICS.a = true;", "METRICS.shared = true;"
        )  # FIRST now also reads/writes `shared`
        old = check_all(parse_text(both))
        new = check_all(
            parse_text(
                both.replace("METRIC shared", "METRIC common").replace(
                    "METRICS.shared", "METRICS.common"
                )
            )
        )
        result = impact(old, new)
        assert set(result.policies) == {("unit", "FIRST"), ("unit", "SECOND")}

    def test_closure_follows_call_edges(self, protecting_spec, protecting_pkg):
        changed = check_all(
            parse_text(
                protecting_pkg.source().replace(
                    'fail "sender certificate invalid";', 'fail "bad certificate";'
                )
            )
        )
        result = impact(protecting_spec, changed)
        # rejectInvalidCertificate is two calls deep under checkPrivateMessage
        assert result.policies == (("worker", "SELF_PROTECTING"),)


class TestRegenerate:
    def test_unimpacted_tests_carry_over_byte_identical(self, tmp_path):
        old = check_all(parse_text(TWO_POLICY))
        new = check_all(
            parse_text(TWO_POLICY.replace("METRICS.a = true;", "METRICS.a = false;"))
        )
        old_suite = generate_all(old)
        new_suite = regenerate(old_suite, old, new)
        scratch = generate_all(new)
        assert new_suite == scratch

        write_suite(new_suite, tmp_path / "incremental")
        write_suite(scratch, tmp_path / "scratch")
        for path in sorted((tmp_path / "incremental").rglob("*")):
            if path.is_file():
                twin = tmp_path / "scratch" / path.relative_to(tmp_path / "incremental")
                assert twin.read_bytes() == path.read_bytes()

        second_policy_tests = [t for t in new_suite.tests if t.policy == ("unit", "SECOND")]
        assert second_policy_tests == list(old_suite.for_policy(("unit", "SECOND")))

    def test_added_policy_only_adds_tests(self):
        old_text = TWO_POLICY
        new_text = TWO_POLICY.replace(
            "SECOND {",
            """THIRD {
      FLUENT busyC {
        INITIATED_BY { EVENTS.goB }
        TERMINATED_BY { EVENTS.finB }
      }
      MAPPING { CONDITIONS { busyC } DO_ACTIONS { ACTIONS.workB } }
    }
    SECOND {""",
        )
        old = check_all(parse_text(old_text))
        new = check_all(parse_text(new_text))
        old_suite = generate_all(old)
        new_suite = regenerate(old_suite, old, new)
        assert new_suite == generate_all(new)
        carried = [t for t in new_suite.tests if t.policy != ("unit", "THIRD")]
        assert carried == [t for t in old_suite.tests]


def test_suite_directory_layout(tmp_path, protecting_spec):
    suite = generate_all(protecting_spec)
    written = write_suite(suite, tmp_path)
    policy_dir = tmp_path / "worker.SELF_PROTECTING"
    assert policy_dir.is_dir()
    scenarios = sorted(policy_dir.glob("*.scenario"))
    expects = sorted(policy_dir.glob("*.expect"))
    assert len(scenarios) == 6 and len(expects) == 6
    assert len(written) == 12
    expect_text = expects[0].read_text()
    for line in expect_text.splitlines():
        fields = line.split("\t")
        if fields[0] == "!":
            fields = fields[1:]
        assert len(fields) == 5
        assert fields[0] == "*" and fields[1] == "*"


def test_present_assertions_match_records_in_order():
    trace = Trace()
    trace.append(0, EVENT_RAISED, "unit.go", "injected")
    trace.append(1, ACTION_STARTED, "unit.act0", "")
    raised = Assertion(EVENT_RAISED, "unit.*")
    started = Assertion(ACTION_STARTED, "unit.act0")
    assert check_assertions((raised, started), trace) == []
    # each present assertion consumes a record: a second match must come later
    assert check_assertions((raised, raised), trace) == [
        f"missing (after seq 1): {raised.render()}"
    ]
    assert check_assertions((started, raised), trace) == [
        f"missing (after seq 2): {raised.render()}"
    ]
    absent = Assertion(ACTION_STARTED, "unit.*", present=False)
    assert check_assertions((absent,), trace) == [
        f"forbidden record present: {absent.render()}"
    ]


def test_candidate_cap_counts_repeated_assignments():
    # Nine boolean metrics give 3**9 = 19,683 combinations of the pools
    # [initial, true, false], more than the cap. The cap applies before
    # repeats are dropped, so the candidates are the distinct ones among the
    # first MAX_CANDIDATES combinations, in their first-seen order: the 256
    # with b0 at its initial value, not all 512 distinct assignments.
    names = [f"b{i}" for i in range(9)]
    metric_lines = "\n".join(
        f"    METRIC {name} {{ TYPE {{ boolean }} INITIAL {{ false }} }}" for name in names
    )
    spec = check_all(parse_text(f"AS sys {{ }}\nAE unit {{\n  METRICS {{\n{metric_lines}\n  }}\n}}\n"))
    assert spec.ok
    metrics = [(("unit", name), spec.symbols.lookup("unit", "metrics", name)) for name in names]
    capped = itertools.islice(itertools.product([False, True, False], repeat=9), MAX_CANDIDATES)
    expected = list(dict.fromkeys(capped))
    assert len(expected) == 256
    got = [tuple(value for value, _type in a.values()) for a in _assignments(spec, metrics)]
    assert got == expected


def suite_text(suite) -> str:
    """Scenario and expect text of every test, then every infeasible reason."""
    parts = []
    for test in suite.tests:
        expect = "".join(assertion.render() + "\n" for assertion in test.assertions)
        parts.append(f"{test.name}\n{test.scenario.render()}{expect}")
    for infeasible in suite.infeasible:
        parts.append(f"{infeasible.path.describe()}: {infeasible.reason}\n")
    return "".join(parts)


def pinned_specs(mission_pairs):
    """(name, checked spec): the missions, 1- and 3-worker swarms, 20 random specs."""
    out = [(pkg.name, spec) for pkg, spec in mission_pairs]
    out += [(f"swarm{n}", check_all(parse_text(swarm_source(n)))) for n in (1, 3)]
    out += [(f"random{seed}", random_checked_spec(seed)) for seed in range(20)]
    return out


def test_generated_suites_are_byte_identical(mission_pairs):
    """Generated suites pinned by sha256; one entry covers the 20 random specs."""
    pinned = json.loads(
        Path(__file__).with_name("data").joinpath("suite_sha256.json").read_text()
    )
    texts: dict[str, str] = {}
    for name, spec in pinned_specs(mission_pairs):
        key = "random0-19" if name.startswith("random") else name
        texts[key] = texts.get(key, "") + suite_text(generate_all(spec))
    assert set(texts) == set(pinned)
    for key, text in texts.items():
        assert hashlib.sha256(text.encode()).hexdigest() == pinned[key], key


def test_cut_scenario_runs_as_the_paused_prefix(mission_pairs):
    """The candidate without the terminating stimulus is the prefix of the one with it.

    Test generation checks the first candidate on the trace of the second,
    stopped at the tick of the terminating stimulus. Running the first on
    its own must give the same records and the same ``aborted`` value.
    """
    compared = 0
    for name, spec in pinned_specs(mission_pairs):
        runtime = Runtime(spec, seed=0)
        for policy in policy_keys(spec):
            for index, path in enumerate(enumerate_paths(spec, policy).paths):
                init_plan = _stimulus_plan(spec, path.initiating_event)
                term_plan = _stimulus_plan(spec, path.terminating_event)
                if init_plan is None or term_plan is None:
                    continue
                cut = _term_tick(init_plan)
                metrics = _relevant_metrics(spec, path)
                for assignment in _assignments(spec, metrics):
                    full = _build_scenario(spec, path, index, assignment, init_plan, term_plan)
                    short = _build_scenario(spec, path, index, assignment, init_plan, None)
                    paused = []

                    def capture(trace, tick):
                        if tick == cut:
                            paused.append((list(trace.records), trace.aborted))
                        return False

                    full_trace = runtime.run(
                        full, max_ticks=full.steps[-1][0] + 1, stop=capture
                    )
                    if paused:
                        (records, aborted), = paused
                    else:  # aborted before reaching the cut
                        records, aborted = full_trace.records, full_trace.aborted
                        assert aborted is not None, (name, path.describe())
                    alone = runtime.run(short, max_ticks=short.steps[-1][0] + 1)
                    assert alone.records == records, (name, path.describe(), assignment)
                    assert alone.aborted == aborted, (name, path.describe(), assignment)
                    compared += 1
    assert compared > 500

"""Path enumeration, suite generation, change impact, regeneration."""

from __future__ import annotations

import hashlib
import itertools
import json
from pathlib import Path

import pytest

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
    _candidate_values,
    _relevant_metrics,
    _stimulus_plan,
    MAX_CANDIDATES,
    _term_tick,
    _toggled,
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
from specgen import EDIT_KINDS, edit_source, random_spec_source, random_checked_spec, swarm_source


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


ONE_ACTION = """
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
    METRIC level { TYPE { real } INITIAL { 0.0 } }
    METRIC count { TYPE { integer } INITIAL { 7 } }
    METRIC done { TYPE { boolean } INITIAL { false } }
  }
}
"""


def one_action_spec(guard: str = "true", *edits: tuple[str, str]):
    source = ONE_ACTION.replace("@guard", guard)
    for old, new in edits:
        assert source.count(old) == 1, old
        source = source.replace(old, new)
    spec = check_all(parse_text(source))
    assert spec.diagnostics == ()
    return spec


class TestOneAction:
    """Generator branches on a one-action policy, each with the scenarios it emits."""

    REJECT = "tick 1 inject unit.go\ntick 2 inject unit.fin\ntick 3 halt\n"
    PASS = "tick 1 inject unit.go\ntick 2 halt\n"

    @pytest.mark.parametrize(
        "guard, scenarios",
        [
            # a guard that is always false leaves only the GuardReject branch
            ("false", {GUARD_REJECT: REJECT}),
            ("true AND false", {GUARD_REJECT: REJECT}),
            ("false OR true", {SUCCESS_PATH: PASS}),
            ("NOT (true AND false)", {SUCCESS_PATH: PASS}),
            ("false OR METRICS.done", {
                GUARD_REJECT: REJECT, SUCCESS_PATH: "tick 0 set unit.done true\n" + PASS,
            }),
        ],
    )
    def test_constant_and_or_fold(self, guard, scenarios):
        spec = one_action_spec(guard)
        suite = generate_all(spec)
        assert suite.infeasible == ()
        assert {t.path.branches[0][1]: t.scenario.render() for t in suite.tests} == scenarios
        assert all(not failures for _t, failures in run_suite(spec, suite))

    def test_real_candidates_are_widened_by_one(self):
        spec = one_action_spec("METRICS.level > 2.5")
        level = ("unit", "level")
        assert _candidate_values(spec, level, spec.program.metrics[level]) == [0.0, 2.5, 3.5, 1.5]
        suite = generate_all(spec)
        assert suite.infeasible == ()
        success = next(t for t in suite.tests if t.path.branches[0][1] == SUCCESS_PATH)
        assert success.scenario.render() == (
            "tick 0 set unit.level 3.5\ntick 1 inject unit.go\ntick 2 halt\n"
        )

    def test_integer_changed_terminator_is_written_back_unchanged(self):
        # CHANGED is write triggered, so writing the initial value raises it
        spec = one_action_spec(
            "true",
            ("      TRIGGERS { EVENTS.fin }\n", ""),
            ("EVENT fin { INJECTABLE }", "EVENT fin { ACTIVATION { CHANGED { METRICS.count } } }"),
        )
        assert _toggled(spec, ("unit", "count")) == 7
        suite = generate_all(spec)
        assert suite.infeasible == ()
        assert [t.scenario.render() for t in suite.tests] == [
            "tick 1 inject unit.go\ntick 2 set unit.count 7\ntick 3 halt\n"
        ]
        assert all(not failures for _t, failures in run_suite(spec, suite))

    def test_sent_event_without_a_channel_cannot_be_stimulated(self):
        spec = one_action_spec(
            "true",
            ("EVENT go { INJECTABLE }", "EVENT go { ACTIVATION { SENT { AEIP.MESSAGES.ping } } }"),
            ("  METRICS {", "  AEIP { MESSAGES {"
             " MESSAGE ping { SENDER { unit } RECEIVER { unit } } } }\n  METRICS {"),
        )
        assert _stimulus_plan(spec, ("unit", "go")) is None
        suite = generate_all(spec)
        assert suite.tests == ()
        assert [(entry.path.path_id(0), entry.reason) for entry in suite.infeasible] == [
            ("p00-go-success-fin", "initiating event unit.go cannot be stimulated")
        ]


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

    def test_a_guard_that_gives_candidate_values_impacts_the_policy(self):
        # FIRST's scenarios set count to the first candidate value passing
        # workA's guard. Candidates come from every guard comparing count,
        # goB's first; FIRST neither uses nor runs goB.
        source = TWO_POLICY
        for old, new in (
            ("DOES { METRICS.a = true; }", "GUARDS { METRICS.count > 2 } DOES { METRICS.a = true; }"),
            ("EVENT goB { INJECTABLE }", "EVENT goB { GUARDS { METRICS.count > 5 } INJECTABLE }"),
            ("    METRIC shared", "    METRIC count { TYPE { integer } INITIAL { 0 } }\n    METRIC shared"),
        ):
            source = source.replace(old, new)
        old, new = (check_all(parse_text(text)) for text in (source, source.replace("> 5", "> 9")))
        assert old.ok and new.ok
        assert ("unit", "FIRST") in impact(old, new).policies
        suite = regenerate(generate_all(old), old, new)
        assert suite == generate_all(new)
        assert "set unit.count 9" in suite.for_policy(("unit", "FIRST"))[0].scenario.render()

    def test_a_bound_moved_from_zero_to_negative_zero_impacts_the_policy(self):
        # The reject path sets level to the first candidate failing the
        # guard: 0.0 before the edit, -0.0 after it. The two floats are equal.
        initial = ("INITIAL { 0.0 }", "INITIAL { 5.0 }")
        old, new = (one_action_spec(f"METRICS.level > {x}", initial) for x in ("0.0", "-0.0"))
        result = impact(old, new)
        assert (result.changed, result.policies) == (("unit.action.work",), (("unit", "ONE"),))
        suite = regenerate(generate_all(old), old, new)
        assert suite_text(suite) == suite_text(generate_all(new))
        assert "tick 0 set unit.level -0.0" in suite_text(suite)


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

    def test_unchanged_mission_regenerates_to_the_from_scratch_suite(self, mission_pairs):
        # Infeasible paths and warnings of carried policies are kept too.
        for pkg, spec in mission_pairs:
            suite = generate_all(spec)
            assert regenerate(suite, spec, spec) == suite, pkg.name


# Policy P's fluent ends by an injected endP or by stopP, which nothing raises.
# P's action writes x; CHANGED x raises onX, which starts Q, whose action b
# calls c and triggers endQ. A from-scratch suite tests P's goP -> endP path.
CASCADE = """
AS sys {
  POLICIES {
    P {
      FLUENT fp { INITIATED_BY { EVENTS.goP } TERMINATED_BY { EVENTS.endP, EVENTS.stopP } }
      MAPPING { CONDITIONS { fp } DO_ACTIONS { ACTIONS.a } }
    }
    Q {
      FLUENT fq { INITIATED_BY { EVENTS.onX } TERMINATED_BY { EVENTS.endQ } }
      MAPPING { CONDITIONS { fq } DO_ACTIONS { ACTIONS.b } }
    }
  }
  ACTIONS {
    ACTION a { DOES { METRICS.x = true; } }
    ACTION b { DOES { call ACTIONS.c; } TRIGGERS { EVENTS.endQ } }
    ACTION c { DOES { METRICS.y = true; } }
  }
  EVENTS {
    EVENT goP { INJECTABLE }
    EVENT endP { INJECTABLE }
    EVENT stopP { }
    EVENT onX { ACTIVATION { CHANGED { METRICS.x } } }
    EVENT endQ { }
  }
  METRICS {
    METRIC x { TYPE { boolean } INITIAL { false } }
    METRIC y { TYPE { boolean } INITIAL { false } }
  }
}
"""
# b also triggers stopP, so P's own run ends its fluent through Q.
B_STOPS_P = ("TRIGGERS { EVENTS.endQ }", "TRIGGERS { EVENTS.endQ, EVENTS.stopP }")


def cascade_spec(*edits: tuple[str, str]):
    source = CASCADE
    for old, new in edits:
        assert source.count(old) == 1, old
        source = source.replace(old, new)
    spec = check_all(parse_text(source))
    assert spec.ok, [d.render() for d in spec.diagnostics]
    return spec


class TestCascadeImpact:
    def test_an_edit_reaching_a_policy_through_another_policy_impacts_it(self):
        old, new = cascade_spec(), cascade_spec(B_STOPS_P)
        assert [t.name for t in generate_all(old).for_policy(("sys", "P"))] == [
            "p00-goP-success-endP"
        ]
        assert ("sys", "P") in impact(old, new).policies
        suite = regenerate(generate_all(old), old, new)
        assert suite == generate_all(new)
        assert [t.name for t in suite.for_policy(("sys", "P"))] == ["p01-goP-success-stopP"]

    def test_an_edit_to_a_callee_of_such_an_action_impacts_the_policy(self):
        # c's failure fails b, so b no longer ends P's fluent. c lies on no
        # chain of edges into P's events and actions: it is used by b.
        old = cascade_spec(B_STOPS_P)
        new = cascade_spec(B_STOPS_P, ("DOES { METRICS.y = true; }", 'DOES { fail "broken"; }'))
        assert impact(old, new).policies == (("sys", "P"), ("sys", "Q"))
        suite = regenerate(generate_all(old), old, new)
        assert suite == generate_all(new)
        assert [t.name for t in suite.for_policy(("sys", "P"))] == ["p00-goP-success-endP"]


def regeneration_mismatches(source: str, seeds: range) -> tuple[int, list[tuple[int, str]]]:
    """(edited specs that check clean, (seed, kind) of each whose regenerated
    suite renders differently from the one generated from scratch: its tests,
    infeasible paths or warnings)."""
    old = check_all(parse_text(source))
    old_suite = generate_all(old)
    cases, mismatches = 0, []
    for seed in seeds:
        for index, kind in enumerate(EDIT_KINDS):
            text = edit_source(source, kind, seed * len(EDIT_KINDS) + index)
            new = check_all(parse_text(text)) if text is not None else None
            if new is None or not new.ok:
                continue
            cases += 1
            regenerated, scratch = (
                (suite_text(suite), suite.warnings)
                for suite in (regenerate(old_suite, old, new), generate_all(new))
            )
            if regenerated != scratch:
                mismatches.append((seed, kind))
    return cases, mismatches


def test_regeneration_after_random_edits_of_random_specs():
    """One edit of each kind to random specs 0-119 (one policy each)."""
    cases = 0
    for seed in range(120):
        count, mismatches = regeneration_mismatches(random_spec_source(seed), range(seed, seed + 1))
        assert mismatches == [], seed
        cases += count
    assert cases == 401


def test_regeneration_after_random_edits_of_multi_policy_specs(mission_pairs):
    """Ten edits of each kind to the missions and to the cascade spec."""
    cases = {}
    for name, source in [(pkg.name, pkg.source()) for pkg, _spec in mission_pairs] + [
        ("cascade", CASCADE)
    ]:
        cases[name], mismatches = regeneration_mismatches(source, range(10))
        assert mismatches == [], name
    assert cases == {
        "ants_self_protecting": 33, "ants_self_healing": 32,
        "ants_self_configuring_and_scheduling": 32, "voyager_image_processing": 30, "cascade": 25,
    }


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
    # Nine boolean metrics have 2**9 = 512 distinct assignments, under the
    # cap. A boolean pool is [initial, not initial], so no combination
    # repeats an earlier one, the cap counts distinct assignments, and all
    # 512 are candidates, in product order.
    names = [f"b{i}" for i in range(9)]
    metric_lines = "\n".join(
        f"    METRIC {name} {{ TYPE {{ boolean }} INITIAL {{ false }} }}" for name in names
    )
    spec = check_all(parse_text(f"AS sys {{ }}\nAE unit {{\n  METRICS {{\n{metric_lines}\n  }}\n}}\n"))
    assert spec.ok
    metrics = [(("unit", name), spec.symbols.lookup("unit", "metrics", name)) for name in names]
    expected = list(itertools.product([False, True], repeat=9))
    assert len(expected) == 512 < MAX_CANDIDATES
    got = [tuple(a.values()) for a in _assignments(spec, metrics)]
    assert got == expected


def test_guard_on_nine_boolean_metrics_is_forced():
    # Only the assignment with every metric true passes the guard: the last
    # of the 512 candidates.
    names = [f"m{i}" for i in range(9)]
    metric_lines = "\n".join(
        f"    METRIC {name} {{ TYPE {{ boolean }} INITIAL {{ false }} }}" for name in names
    )
    guard = " AND ".join(f"METRICS.{name}" for name in names)
    spec = one_action_spec(guard, ("    METRIC done", f"{metric_lines}\n    METRIC done"))
    suite = generate_all(spec)
    assert suite.infeasible == ()
    branches = sorted(t.path.branches[0][1] for t in suite.tests)
    assert branches == [GUARD_REJECT, SUCCESS_PATH]
    assert all(not failures for _t, failures in run_suite(spec, suite))


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

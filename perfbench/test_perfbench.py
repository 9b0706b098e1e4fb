"""Tests of the benchmark's own machinery: deadlines, generators, checks.

Run with ``python3 -m pytest perfbench`` from the repository root.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from asslkit.runtime import Runtime, parse_scenario  # noqa: E402

from perfbench import checks, gen, ops, run, tracer, workloads  # noqa: E402

# Passes check_all, yet a run never returns: a triggers g, g initiates h,
# h's mapping runs b, b's write of m raises e, and e re-initiates f, whose
# mapping runs a again. Runtime.drain has no step budget.
LIVELOCK = """
AS ants {
}

AE looper {
  POLICIES {
    CASCADE {
      FLUENT f {
        INITIATED_BY { EVENTS.start, EVENTS.e }
        TERMINATED_BY { EVENTS.g }
      }
      FLUENT h {
        INITIATED_BY { EVENTS.g }
        TERMINATED_BY { EVENTS.e }
      }
      MAPPING {
        CONDITIONS { f }
        DO_ACTIONS { ACTIONS.a }
      }
      MAPPING {
        CONDITIONS { h }
        DO_ACTIONS { ACTIONS.b }
      }
    }
  }
  ACTIONS {
    ACTION a {
      DOES {
        METRICS.n = true;
      }
      TRIGGERS { EVENTS.g }
    }
    ACTION b {
      DOES {
        METRICS.m = true;
      }
    }
  }
  EVENTS {
    EVENT start {
      INJECTABLE
    }
    EVENT g { }
    EVENT e {
      ACTIVATION { CHANGED { METRICS.m } }
    }
  }
  METRICS {
    METRIC n { TYPE { boolean } INITIAL { false } }
    METRIC m { TYPE { boolean } INITIAL { false } }
  }
}
"""


def test_op_past_its_deadline_is_failed_and_the_run_continues():
    spec = gen.checked(LIVELOCK, "livelock.assl")
    scenario = parse_scenario("tick 1 inject start\ntick 2 halt\n", spec, "livelock")
    log = ops.OpLog()
    result, seconds = log.run("scenario", 0.5, lambda: Runtime(spec, record=False).run(scenario))
    assert result is None
    assert 0.5 <= seconds < 5
    assert (log.attempted, log.failed) == (1, 1)
    assert "deadline" in log.failures[0]
    result, _seconds = log.run("scenario", 5.0, lambda: 42, lambda out: [])
    assert result == 42
    assert (log.attempted, log.failed) == (2, 1)


def test_failed_check_and_exception_count_as_failures():
    log = ops.OpLog()
    log.run("x", 5.0, lambda: 1, lambda out: ["wrong answer"])
    log.run("x", 5.0, lambda: 1 / 0)
    assert (log.attempted, log.failed) == (2, 2)
    assert "wrong answer" in log.failures[0] and "ZeroDivisionError" in log.failures[1]


def test_generators_depend_only_on_the_seed():
    assert gen.swarm(4, 7) == gen.swarm(4, 7)
    assert gen.swarm(4, 7).workers != gen.swarm(4, 8).workers
    assert sorted(gen.swarm(4, 7).workers) == ["worker1", "worker2", "worker3", "worker4"]
    assert gen.healing_scenario(3, 500) == gen.healing_scenario(3, 500)
    workers = gen.swarm(5, 1).workers
    assert gen.wide_scenario(workers, 3, 200) == gen.wide_scenario(workers, 3, 200)
    assert gen.properties(workers, 3) == gen.properties(workers, 3)


def test_generated_specs_check_clean_and_edits_stay_in_one_worker():
    swarm = gen.swarm(3, 5)
    gen.checked(swarm.text, "swarm.assl")
    edited = gen.edit_worker(swarm.text, "worker2")
    gen.checked(edited, "edited.assl")
    changed = [
        line for old, line in zip(swarm.text.splitlines(), edited.splitlines()) if old != line
    ]
    assert len(changed) == 1 and "INITIAL { true }" in changed[0]


def test_trace_checks_catch_broken_traces():
    rec = checks.Rec
    doubled = [rec(1, "FluentInitiated", "w.f", "by w.a"), rec(2, "FluentInitiated", "w.f", "by w.a")]
    assert checks.alternation(doubled)
    assert not checks.alternation(doubled[:1] + [rec(3, "FluentTerminated", "w.f", "by w.b")])
    sent = rec(1, "MessageSent", "w.m", "over w.link by w")
    assert checks.queue_bounds([sent, sent], {"w.link": 1})
    assert not checks.queue_bounds(
        [sent, rec(2, "MessageReceived", "w.m", "by v over w.link"), sent], {"w.link": 1}
    )


def test_wrong_verdicts_and_changed_outputs_are_caught():
    small = gen.swarm(1, 3)
    expected = gen.properties(small.workers, 3)
    out = workloads.verify_op(small.text, gen.verify_env(small.workers, 3), expected)
    assert workloads.verify_problems(out, expected) == []
    flipped = tuple(
        gen.ExpectedVerdict(
            e.shape, e.text, gen.HOLDS if e.verdict == gen.VIOLATED else gen.VIOLATED, e.reason
        )
        for e in expected
    )
    assert len(workloads.verify_problems(out, flipped)) >= len(expected)
    same = workloads._Determinism()
    assert same.check("graph", out["graph"]) == []
    assert same.check("graph", out["graph"] + 'edge 0 -> 0 "tick"\n')


def test_benchmark_json_lists_the_metrics_the_runs_print():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [m["name"] for m in declared["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: (m["unit"], m["better"]) for m in declared["per_layer"]} == tracer.PER_LAYER
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)
    assert set(run.WORKLOADS) == set(workloads.WORKLOADS)


def test_round_refs_is_the_median_round_in_reference_loops():
    # The last round was cut short by the run's budget and is left out.
    rounds = [[(1.0, 0.5), (4.0, 1.0)], [(2.0, 0.5), (3.0, 1.0)], [(3.0, 1.0), (1.0, 1.0)], [(9.0, 1.0)]]
    assert run._round_refs(rounds) == 6.0
    assert 0 < ops.reference_seconds() < 1

"""A fluent and a metric of one tier may share a name; state keeps them apart.

No shipped mission and no spec from ``tests/specgen.py`` declares such a
pair. Here tier ``unit`` has a fluent ``busy`` and a metric ``busy``, each
at a different position among its kind (``ready`` is the first fluent,
``busy`` the first metric), so reading one in place of the other changes
the run trace, the graph export and the verdicts pinned below.
"""

from __future__ import annotations

import pytest

from asslkit import check_all, parse_text
from asslkit.runtime import Runtime, parse_scenario
from asslkit.verifier import (
    build_lts,
    check,
    explain,
    lts_to_text,
    parse_env_stimulus,
    parse_property,
)

SAME_NAME_SPEC = """\
AS sys { }
AE unit {
  POLICIES {
    WORK {
      FLUENT ready {
        INITIATED_BY { EVENTS.noticed }
        TERMINATED_BY { EVENTS.finish }
      }
      FLUENT busy {
        INITIATED_BY { EVENTS.start }
        TERMINATED_BY { EVENTS.finish }
      }
      MAPPING { CONDITIONS { busy } DO_ACTIONS { ACTIONS.claim } }
      MAPPING { CONDITIONS { ready, busy } DO_ACTIONS { ACTIONS.tally } }
    }
  }
  ACTIONS {
    ACTION claim {
      GUARDS { FLUENTS.busy AND NOT METRICS.busy }
      ENSURES { METRICS.busy AND NOT FLUENTS.ready }
      DOES { METRICS.busy = true; METRICS.count = 1; }
    }
    ACTION tally { DOES { METRICS.count = 2; } }
  }
  EVENTS {
    EVENT start { INJECTABLE }
    EVENT finish { INJECTABLE }
    EVENT noticed { GUARDS { METRICS.busy } ACTIVATION { CHANGED { METRICS.busy } } }
  }
  METRICS {
    METRIC busy { TYPE { boolean } INITIAL { false } }
    METRIC count { TYPE { integer } INITIAL { 0 } }
  }
}
"""

SAME_NAME_SCENARIO = """\
tick 1 inject start
tick 2 inject finish
tick 3 set busy false
tick 4 inject start
tick 5 inject start
tick 6 halt
"""

EXPECTED_TRACE = """\
0\t1\tEventRaised\tunit.start\tinjected
1\t1\tFluentInitiated\tunit.busy\tby unit.start
2\t1\tMappingFired\tunit.WORK.mapping[0]\tconditions: unit.busy
3\t1\tActionStarted\tunit.claim\tmapping unit.WORK.mapping[0]
4\t1\tMetricAssigned\tunit.busy\tfalse -> true
5\t1\tMetricAssigned\tunit.count\t0 -> 1
6\t1\tActionSucceeded\tunit.claim\t
7\t1\tEventRaised\tunit.noticed\tactivation CHANGED unit.busy
8\t1\tFluentInitiated\tunit.ready\tby unit.noticed
9\t1\tMappingFired\tunit.WORK.mapping[1]\tconditions: unit.ready, unit.busy
10\t1\tActionStarted\tunit.tally\tmapping unit.WORK.mapping[1]
11\t1\tMetricAssigned\tunit.count\t1 -> 2
12\t1\tActionSucceeded\tunit.tally\t
13\t2\tEventRaised\tunit.finish\tinjected
14\t2\tFluentTerminated\tunit.ready\tby unit.finish
15\t2\tFluentTerminated\tunit.busy\tby unit.finish
16\t3\tMetricAssigned\tunit.busy\ttrue -> false
17\t3\tEventSuppressed\tunit.noticed\tguard false
18\t4\tEventRaised\tunit.start\tinjected
19\t4\tFluentInitiated\tunit.busy\tby unit.start
20\t4\tMappingFired\tunit.WORK.mapping[0]\tconditions: unit.busy
21\t4\tActionStarted\tunit.claim\tmapping unit.WORK.mapping[0]
22\t4\tMetricAssigned\tunit.busy\tfalse -> true
23\t4\tMetricAssigned\tunit.count\t2 -> 1
24\t4\tActionSucceeded\tunit.claim\t
25\t4\tEventRaised\tunit.noticed\tactivation CHANGED unit.busy
26\t4\tFluentInitiated\tunit.ready\tby unit.noticed
27\t4\tMappingFired\tunit.WORK.mapping[1]\tconditions: unit.ready, unit.busy
28\t4\tActionStarted\tunit.tally\tmapping unit.WORK.mapping[1]
29\t4\tMetricAssigned\tunit.count\t1 -> 2
30\t4\tActionSucceeded\tunit.tally\t
31\t5\tEventRaised\tunit.start\tinjected
"""

# Environment of the graph: the two injectable events and a reset of the metric.
ENV = ("inject start", "inject finish", "set busy false")

EXPECTED_GRAPH = """\
lts states=31 edges=55 truncated=false
state 0 initial metric:unit.busy=false metric:unit.count=0
state 1 metric:unit.busy=false metric:unit.count=0
state 2 metric:unit.busy=false metric:unit.count=0
state 3 metric:unit.busy=false metric:unit.count=0
state 4 event:unit.finish metric:unit.busy=false metric:unit.count=0
state 5 event:unit.start fluent:unit.busy metric:unit.busy=true metric:unit.count=1
state 6 event:unit.noticed fluent:unit.busy fluent:unit.ready metric:unit.busy=true metric:unit.count=2
state 7 fluent:unit.busy fluent:unit.ready metric:unit.busy=true metric:unit.count=2
state 8 fluent:unit.busy fluent:unit.ready metric:unit.busy=true metric:unit.count=2
state 9 fluent:unit.busy fluent:unit.ready metric:unit.busy=false metric:unit.count=2
state 10 event:unit.finish metric:unit.busy=true metric:unit.count=2
state 11 event:unit.start fluent:unit.busy fluent:unit.ready metric:unit.busy=true metric:unit.count=2
state 12 fluent:unit.busy fluent:unit.ready metric:unit.busy=false metric:unit.count=2
state 13 metric:unit.busy=true metric:unit.count=2
state 14 metric:unit.busy=true metric:unit.count=2
state 15 metric:unit.busy=false metric:unit.count=2
state 16 fluent:unit.busy fluent:unit.ready metric:unit.busy=false metric:unit.count=2
state 17 fluent:unit.busy fluent:unit.ready metric:unit.busy=false metric:unit.count=2
state 18 event:unit.start fluent:unit.busy metric:unit.busy=true metric:unit.count=2
state 19 metric:unit.busy=false metric:unit.count=2
state 20 event:unit.finish metric:unit.busy=false metric:unit.count=2
state 21 event:unit.start fluent:unit.busy fluent:unit.ready metric:unit.busy=false metric:unit.count=2
state 22 fluent:unit.busy metric:unit.busy=true metric:unit.count=2
state 23 fluent:unit.busy metric:unit.busy=true metric:unit.count=2
state 24 fluent:unit.busy metric:unit.busy=false metric:unit.count=2
state 25 metric:unit.busy=false metric:unit.count=2
state 26 metric:unit.busy=false metric:unit.count=2
state 27 fluent:unit.busy metric:unit.busy=false metric:unit.count=2
state 28 fluent:unit.busy metric:unit.busy=false metric:unit.count=2
state 29 fluent:unit.busy metric:unit.busy=false metric:unit.count=2
state 30 event:unit.start fluent:unit.busy metric:unit.busy=false metric:unit.count=2
edge 0 -> 1 "inject unit.finish"
edge 0 -> 2 "inject unit.start"
edge 0 -> 3 "set unit.busy false"
edge 1 -> 4 "proc unit.finish"
edge 2 -> 5 "proc unit.start"
edge 3 -> 0 "proc unit.noticed"
edge 4 -> 1 "inject unit.finish"
edge 4 -> 2 "inject unit.start"
edge 4 -> 3 "set unit.busy false"
edge 5 -> 6 "proc unit.noticed"
edge 6 -> 7 "inject unit.finish"
edge 6 -> 8 "inject unit.start"
edge 6 -> 9 "set unit.busy false"
edge 7 -> 10 "proc unit.finish"
edge 8 -> 11 "proc unit.start"
edge 9 -> 12 "proc unit.noticed"
edge 10 -> 13 "inject unit.finish"
edge 10 -> 14 "inject unit.start"
edge 10 -> 15 "set unit.busy false"
edge 11 -> 7 "inject unit.finish"
edge 11 -> 8 "inject unit.start"
edge 11 -> 9 "set unit.busy false"
edge 12 -> 16 "inject unit.finish"
edge 12 -> 17 "inject unit.start"
edge 12 -> 9 "set unit.busy false"
edge 13 -> 10 "proc unit.finish"
edge 14 -> 18 "proc unit.start"
edge 15 -> 19 "proc unit.noticed"
edge 16 -> 20 "proc unit.finish"
edge 17 -> 21 "proc unit.start"
edge 18 -> 22 "inject unit.finish"
edge 18 -> 23 "inject unit.start"
edge 18 -> 24 "set unit.busy false"
edge 19 -> 25 "inject unit.finish"
edge 19 -> 26 "inject unit.start"
edge 19 -> 15 "set unit.busy false"
edge 20 -> 25 "inject unit.finish"
edge 20 -> 26 "inject unit.start"
edge 20 -> 15 "set unit.busy false"
edge 21 -> 16 "inject unit.finish"
edge 21 -> 17 "inject unit.start"
edge 21 -> 9 "set unit.busy false"
edge 22 -> 10 "proc unit.finish"
edge 23 -> 18 "proc unit.start"
edge 24 -> 27 "proc unit.noticed"
edge 25 -> 20 "proc unit.finish"
edge 26 -> 5 "proc unit.start"
edge 27 -> 28 "inject unit.finish"
edge 27 -> 29 "inject unit.start"
edge 27 -> 24 "set unit.busy false"
edge 28 -> 20 "proc unit.finish"
edge 29 -> 30 "proc unit.start"
edge 30 -> 28 "inject unit.finish"
edge 30 -> 29 "inject unit.start"
edge 30 -> 24 "set unit.busy false"
"""

# One property per kind of atom, with its verdict on the graph above.
VERDICTS = [
    ("G ((fluent ready) -> (fluent busy))", "Holds"),  # fluent
    ("F (metric busy)", "Violated"),  # metric
    ("G (metric count < 2)", "Violated"),  # metric comparison
    ("G (implies (event start) (fluent busy))", "Holds"),  # event
]

# Fluent ``busy`` and metric ``busy`` in one atom.
SAME_NAME_PROPERTY = "G (implies (fluent busy) (metric busy))"

EXPECTED_EXPLANATION = """\
property: G (implies (fluent busy) (metric busy))
violation: ((fluent unit.busy) IMPLIES (metric unit.busy)) is false
initial state: s0 {metric:unit.busy=false}
  step 1: inject unit.start -> s2 {metric:unit.busy=false}
  step 2: proc unit.start -> s5 {event:unit.start, fluent:unit.busy, metric:unit.busy=true}
  step 3: proc unit.noticed -> s6 {event:unit.noticed, fluent:unit.busy, fluent:unit.ready, metric:unit.busy=true}
  step 4: set unit.busy false -> s9 {fluent:unit.busy, fluent:unit.ready, metric:unit.busy=false}
"""


@pytest.fixture(scope="module")
def spec():
    checked = check_all(parse_text(SAME_NAME_SPEC))
    assert checked.ok and checked.diagnostics == ()
    return checked


@pytest.fixture(scope="module")
def lts(spec):
    return build_lts(spec, env=tuple(parse_env_stimulus(spec, text) for text in ENV))


def test_trace_keeps_the_fluent_and_the_metric_apart(spec):
    trace = Runtime(spec).run(parse_scenario(SAME_NAME_SCENARIO, spec, "same_name"))
    text = trace.to_text()
    assert "\tFluentInitiated\tunit.busy\tby unit.start\n" in text
    assert "\tMetricAssigned\tunit.busy\tfalse -> true\n" in text
    assert text == EXPECTED_TRACE


def test_graph_export(lts):
    assert lts_to_text(lts) == EXPECTED_GRAPH


@pytest.mark.parametrize(("text", "result"), VERDICTS)
def test_verdict_per_kind_of_atom(spec, lts, text, result):
    assert check(lts, parse_property(text, spec)).result == result


def test_counterexample_over_both_names(spec, lts):
    verdict = check(lts, parse_property(SAME_NAME_PROPERTY, spec))
    assert explain(spec, lts, verdict)[0] == EXPECTED_EXPLANATION

"""Trace storage: plain-tuple rows, the ``records`` view, and who reads which.

A trace stores each record as an exact tuple in ``Trace.rows``, so that the
garbage collector can stop tracking it, and builds ``TraceRecord``s only when
``Trace.records`` is read. The toolchain's own paths (``asslkit run``,
``gentests``, suite runs and coverage) read the rows and never the view.
"""

from __future__ import annotations

import gc
import hashlib
import json
import platform
from collections import Counter
from pathlib import Path

import pytest

from asslkit import check_all, parse_text
from asslkit.cli import main
from asslkit.missions import ants_self_protecting
from asslkit.runtime import Runtime, Trace, TraceRecord
from asslkit.runtime.state import (
    ACTION_FAILED,
    ACTION_STARTED,
    ACTION_SUCCEEDED,
    EVENT_RAISED,
    EVENT_SUPPRESSED,
    FLUENT_INITIATED,
    FLUENT_TERMINATED,
    MAPPING_FIRED,
)
from asslkit.names import qual
from asslkit.testgen import (
    ERROR_PATH,
    GUARD_REJECT,
    SUCCESS_PATH,
    generate_all,
    measure_coverage,
    run_suite,
)
from specgen import swarm_source
from test_testgen import suite_text

SUITE_PINS = json.loads(Path(__file__).with_name("data").joinpath("suite_sha256.json").read_text())


def mission_runs(mission_pairs):
    """(package, spec, scenario path, trace) for every mission scenario at seed 0."""
    for pkg, spec in mission_pairs:
        for path in pkg.scenario_paths():
            trace = Runtime(spec, seed=0).run(pkg.scenario(path.stem, spec))
            yield pkg, spec, path, trace


def text_from_records(trace: Trace) -> str:
    """Trace file text formatted from the ``records`` view."""
    lines = [f"{r.seq}\t{r.tick}\t{r.kind}\t{r.subject}\t{r.detail}\n" for r in trace.records]
    if trace.aborted is not None:
        lines.append(f"# aborted: {trace.aborted}\n")
    return "".join(lines)


def run_stdout_from_records(trace: Trace) -> str:
    """What ``asslkit run`` prints for a trace, counted from the ``records`` view."""
    records = trace.records
    kinds = Counter(r.kind for r in records)
    return (
        f"ticks: {records[-1].tick if records else 0}\n"
        f"events: {kinds[EVENT_RAISED]} raised, {kinds[EVENT_SUPPRESSED]} suppressed\n"
        f"fluents: {kinds[FLUENT_INITIATED]} initiated, {kinds[FLUENT_TERMINATED]} terminated\n"
        f"records: {len(records)}\n"
    )


def coverage_from_records(spec, suite) -> set:
    """``measure_coverage``'s covered set, found by scanning ``records``."""
    covered = set()
    runtime = Runtime(spec, seed=0)
    for test in suite.tests:
        records = runtime.run(test.scenario, max_ticks=1000).records
        started = {r.subject for r in records if r.kind == ACTION_STARTED}
        fired = any(r.kind == MAPPING_FIRED for r in records)
        for action, choice in test.path.branches:
            name = qual(action)
            for r in records:
                if r.subject == name and r.kind == ACTION_SUCCEEDED:
                    covered.add((action, SUCCESS_PATH))
                elif r.subject == name and r.kind == ACTION_FAILED:
                    covered.add((action, ERROR_PATH))
            if choice == GUARD_REJECT and fired and name not in started:
                covered.add((action, GUARD_REJECT))
    return covered


def refuse_records_view(monkeypatch) -> None:
    """Make reading ``Trace.records`` raise, for the rest of the test."""

    def refuse(_trace):
        raise AssertionError("Trace.records was read")

    monkeypatch.setattr(Trace, "records", property(refuse))


@pytest.mark.skipif(
    platform.python_implementation() != "CPython", reason="the untracking rule is CPython's"
)
def test_rows_leave_the_garbage_collector(mission_pairs):
    traces = [trace for _pkg, _spec, _path, trace in mission_runs(mission_pairs)]
    rows = [row for trace in traces for row in trace.rows]
    assert rows
    gc.collect()
    assert [row for row in rows if gc.is_tracked(row)] == []


def test_records_view_find_and_summary_agree_with_the_rows(mission_pairs):
    for pkg, _spec, path, trace in mission_runs(mission_pairs):
        where = (pkg.name, path.stem)
        records = trace.records
        assert records == [TraceRecord(i, *row) for i, row in enumerate(trace.rows)], where
        assert all(type(r) is TraceRecord for r in records), where
        for kind in {r.kind for r in records}:
            assert trace.find(kind) == [r for r in records if r.kind == kind], where
            for subject in {r.subject for r in records if r.kind == kind}:
                assert trace.find(kind, subject) == [
                    r for r in records if r.kind == kind and r.subject == subject
                ], where
        assert trace.find("NoSuchKind") == []
        kinds = Counter(r.kind for r in records)
        assert trace.summary() == {
            "records": len(records),
            "ticks": records[-1].tick if records else 0,
            "events_raised": kinds[EVENT_RAISED],
            "events_suppressed": kinds[EVENT_SUPPRESSED],
            "fluents_initiated": kinds[FLUENT_INITIATED],
            "fluents_terminated": kinds[FLUENT_TERMINATED],
        }, where
        assert trace.to_text() == text_from_records(trace), where


class TestProductPathsReadRows:
    """With ``Trace.records`` raising, every toolchain path gives the same output."""

    def test_run_every_mission_scenario(self, mission_pairs, tmp_path, capsys, monkeypatch):
        expected = [
            (pkg, path, text_from_records(trace), run_stdout_from_records(trace))
            for pkg, _spec, path, trace in mission_runs(mission_pairs)
        ]
        refuse_records_view(monkeypatch)
        for pkg, path, text, stdout in expected:
            out = tmp_path / f"{pkg.name}-{path.stem}.trace"
            args = ["run", str(pkg.spec_path), "--scenario", str(path), "--trace", str(out)]
            assert main(args) == 0, (pkg.name, path.stem)
            assert capsys.readouterr().out == stdout, (pkg.name, path.stem)
            assert out.read_text(encoding="utf-8") == text, (pkg.name, path.stem)

    def test_gentests_on_a_mission(self, tmp_path, capsys, monkeypatch):
        refuse_records_view(monkeypatch)
        pkg = ants_self_protecting()
        spec = pkg.load()
        suite = generate_all(spec)
        assert hashlib.sha256(suite_text(suite).encode()).hexdigest() == SUITE_PINS[pkg.name]
        assert main(["gentests", str(pkg.spec_path), "--out", str(tmp_path)]) == 0
        assert "feasible" in capsys.readouterr().out
        for test in suite.tests:
            policy_dir = tmp_path / qual(test.policy)
            scenario = (policy_dir / f"{test.name}.scenario").read_text(encoding="utf-8")
            assert scenario == test.scenario.render()
            expect = (policy_dir / f"{test.name}.expect").read_text(encoding="utf-8")
            assert expect == "".join(a.render() + "\n" for a in test.assertions)

    def test_generate_run_and_cover_a_swarm(self, monkeypatch):
        spec = check_all(parse_text(swarm_source(3)))
        expected_coverage = coverage_from_records(spec, generate_all(spec))
        refuse_records_view(monkeypatch)
        suite = generate_all(spec)
        assert hashlib.sha256(suite_text(suite).encode()).hexdigest() == SUITE_PINS["swarm3"]
        results = run_suite(spec, suite)
        assert len(results) == len(suite.tests) > 0
        assert all(failures == [] for _test, failures in results)
        covered, universe = measure_coverage(spec, suite)
        assert covered == expected_coverage & universe
        assert covered

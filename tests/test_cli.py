"""Command-line behavior: exit codes, outputs, determinism, help."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest
from specgen import swap_corpora

import asslkit
from asslkit import LexError, ParseError, check_all
from asslkit.cli import build_parser, main
from asslkit.missions import (
    all_missions,
    ants_self_configuring_and_scheduling,
    ants_self_protecting,
)
from asslkit.parser import MAX_NESTING, parse_text
from asslkit.printer import pretty_print
from asslkit.program import qual
from asslkit.runtime.scenario import InjectEvent
from asslkit.verifier import build_lts, default_env, lts_to_text, parse_env_stimulus

PKG = ants_self_protecting()
SPEC = str(PKG.spec_path)
SECURE = str(PKG.root / "scenarios" / "secure.scenario")
LIVENESS = str(PKG.root / "props" / "liveness.prop")

ENV_FLAGS = [
    "--send", "privateMessage@secureLink",
    "--set", "messageVerdictSecure=true",
    "--set", "messageVerdictSecure=false",
]


@pytest.fixture(autouse=True)
def no_color(monkeypatch):
    monkeypatch.setenv("ASSLKIT_COLOR", "never")


class TestCheck:
    def test_clean_spec_exits_zero(self, capsys):
        assert main(["check", SPEC]) == 0
        assert capsys.readouterr().out == ""

    def test_undefined_reference_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.assl"
        bad.write_text(
            "AS sys { POLICIES { P { FLUENT f {"
            " INITIATED_BY { EVENTS.nope } TERMINATED_BY { EVENTS.alsoNope } } } } }"
        )
        assert main(["check", str(bad)]) == 1
        out = capsys.readouterr().out
        lines = [line for line in out.splitlines() if "E-UNDEF" in line]
        assert len(lines) == 2
        assert lines[0].startswith(f"{bad}:")

    def test_missing_file_exits_two(self, capsys):
        assert main(["check", "/nonexistent/spec.assl"]) == 2

    def test_non_utf8_spec_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "latin.assl"
        bad.write_bytes(b"AS sys { }\xff\xfe\n")
        assert main(["check", str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"cannot read {bad}: 'utf-8' codec can't decode")

    def test_parse_error_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "broken.assl"
        bad.write_text("AS sys { EVENTS { EVENT e { WHAT } } }")
        assert main(["check", str(bad)]) == 1
        assert "E-PARSE" in capsys.readouterr().out

    def test_warning_only_spec_exits_zero(self, tmp_path, capsys):
        warny = tmp_path / "warny.assl"
        warny.write_text("AS sys { EVENTS { EVENT orphan { } } }")
        assert main(["check", str(warny)]) == 0
        assert "W-UNREACHABLE" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "mode, error, warning",
        [
            ("always", "\x1b[31merror\x1b[0m", "\x1b[33mwarning\x1b[0m"),
            ("auto", "error", "warning"),  # stdout is captured, so not a terminal
            ("never", "error", "warning"),
        ],
    )
    def test_color_marks_only_the_severity(
        self, mode, error, warning, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv("ASSLKIT_COLOR", mode)
        assert not sys.stdout.isatty()
        spec = tmp_path / "both.assl"
        spec.write_text("AS sys { EVENTS { EVENT orphan { GUARDS { METRICS.nope } } } }")
        assert main(["check", str(spec)]) == 1
        assert capsys.readouterr().out.splitlines() == [
            f"{spec}:1:43: {error} E-UNDEF: undefined metric 'METRICS.nope'",
        ]
        spec.write_text("AS sys { EVENTS { EVENT orphan { } } }")
        assert main(["check", str(spec)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            f"{spec}:1:25: {warning} W-UNREACHABLE: event 'orphan' has no activation,"
            " is never triggered, and is not INJECTABLE",
        ]
        spec.write_text("AS a {")
        assert main(["check", str(spec)]) == 1
        assert capsys.readouterr().out.splitlines() == [
            f"{spec}:1:6: {error} E-PARSE: unexpected '<end of input>' in AS tier",
        ]
        spec.write_text("AS a { } @")
        assert main(["check", str(spec)]) == 1
        assert capsys.readouterr().out.splitlines() == [
            f"{spec}:1:10: {error} E-LEX: unexpected character '@'",
        ]


class TestRun:
    def test_secure_scenario_summary(self, tmp_path, capsys):
        trace_path = tmp_path / "out.trace"
        code = main(["run", SPEC, "--scenario", SECURE, "--trace", str(trace_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "fluents: 1 initiated, 1 terminated" in out
        assert trace_path.read_text().startswith("0\t")

    def test_zero_max_ticks_is_usage_error(self):
        assert main(["run", SPEC, "--scenario", SECURE, "--max-ticks", "0"]) == 2

    def test_unwritable_trace_is_usage_error(self, tmp_path, capsys):
        trace_path = tmp_path / "missing" / "out.trace"
        assert main(["run", SPEC, "--scenario", SECURE, "--trace", str(trace_path)]) == 2
        assert capsys.readouterr().err.startswith(f"cannot write trace to {trace_path}: ")

    def test_identical_invocations_identical_traces(self, tmp_path, capsys):
        paths = [tmp_path / "a.trace", tmp_path / "b.trace"]
        for path in paths:
            assert main(
                ["run", SPEC, "--scenario", SECURE, "--seed", "9", "--trace", str(path)]
            ) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_bad_scenario_is_usage_error(self, tmp_path, capsys):
        scen = tmp_path / "bad.scenario"
        scen.write_text("tick 0 inject noSuchEvent\n")
        assert main(["run", SPEC, "--scenario", str(scen)]) == 2

    def test_non_utf8_scenario_is_usage_error(self, tmp_path, capsys):
        scen = tmp_path / "latin.scenario"
        scen.write_bytes(b"tick 0 halt \xff\n")
        assert main(["run", SPEC, "--scenario", str(scen)]) == 2
        assert capsys.readouterr().err.startswith(f"cannot read {scen}: 'utf-8' codec")

    def test_steps_past_the_tick_budget_abort_the_run(self, tmp_path, capsys):
        scen = tmp_path / "late.scenario"
        scen.write_text(
            "tick 0 send privateMessage secureLink\n"
            "tick 50 send privateMessage secureLink\n"
            "tick 60 halt\n"
        )
        trace_path = tmp_path / "out.trace"
        args = ["run", SPEC, "--scenario", str(scen), "--max-ticks", "10"]
        assert main([*args, "--trace", str(trace_path)]) == 1
        reason = "tick budget: stopped at tick 10 with 2 scenario steps not applied"
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "ticks: 1" and out[-2:] == ["records: 15", f"aborted: {reason}"]
        assert trace_path.read_text().endswith(f"\n# aborted: {reason}\n")
        assert main([*args[:-1], "60"]) == 0  # the halt's tick is inside this budget


# An event cascade that never quiesces, though the spec checks clean: writing
# m raises e, e starts f, f's mapping runs a, a triggers g, g ends f and
# starts h, h's mapping runs b, b writes m, and e ends h. Every initiation is
# a rising edge, so both mappings fire again on every turn.
CASCADE_SPEC = """\
AS loop {
}
AE unit {
  POLICIES {
    SELF_HEALING {
      FLUENT f { INITIATED_BY { EVENTS.e } TERMINATED_BY { EVENTS.g } }
      FLUENT h { INITIATED_BY { EVENTS.g } TERMINATED_BY { EVENTS.e } }
      MAPPING { CONDITIONS { f } DO_ACTIONS { ACTIONS.a } }
      MAPPING { CONDITIONS { h } DO_ACTIONS { ACTIONS.b } }
    }
  }
  ACTIONS {
    ACTION a {
      DOES { METRICS.n = true; }
      TRIGGERS { EVENTS.g }
    }
    ACTION b {
      DOES { METRICS.m = true; }
    }
  }
  EVENTS {
    EVENT e { ACTIVATION { CHANGED { METRICS.m } } }
    EVENT g { }
  }
  METRICS {
    METRIC m { TYPE { boolean } INITIAL { false } }
    METRIC n { TYPE { boolean } INITIAL { false } }
  }
}
"""


def run_cli(args: list[str], timeout: float) -> subprocess.CompletedProcess:
    """The CLI in a child process, killed (and the test failed) past ``timeout``."""
    src = str(Path(asslkit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "ASSLKIT_COLOR": "never"}
    code = "import sys; from asslkit.cli import main; sys.exit(main(sys.argv[1:]))"
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, timeout=timeout, env=env,
    )


class TestCascadeLivelock:
    @pytest.fixture
    def cascade(self, tmp_path):
        spec = tmp_path / "cascade.assl"
        spec.write_text(CASCADE_SPEC)
        scenario = tmp_path / "cascade.scenario"
        scenario.write_text("tick 0 set m true\ntick 1 halt\n")
        return spec, scenario

    def test_checks_clean(self, cascade, capsys):
        assert main(["check", str(cascade[0])]) == 0
        assert capsys.readouterr().out == ""

    def test_run_stops_with_a_named_reason(self, cascade, tmp_path):
        spec, scenario = cascade
        trace_path = tmp_path / "out.trace"
        result = run_cli(
            ["run", str(spec), "--scenario", str(scenario), "--trace", str(trace_path)],
            timeout=60,
        )
        reason = "livelock: not quiescent after 10000 drain steps at tick 0"
        assert result.returncode == 1
        assert result.stdout.splitlines()[-2:] == ["records: 70000", f"aborted: {reason}"]
        lines = trace_path.read_text().splitlines()
        assert len(lines) == 70001 and lines[-1] == f"# aborted: {reason}"

    def test_verify_names_the_livelock_and_writes_no_scenario(self, cascade, tmp_path, capsys):
        spec, _scenario = cascade
        prop = tmp_path / "f.prop"
        prop.write_text("G (NOT (fluent unit.f))\n")
        cex = tmp_path / "cex.scenario"
        code = main(
            ["verify", str(spec), "--prop", str(prop), "--set", "m=true", "--cex", str(cex)]
        )
        lines = capsys.readouterr().out.splitlines()
        assert code == 1
        assert lines[0] == "Violated: G (NOT (fluent unit.f))"
        assert lines[-4:] == [
            "  livelock: the drain from s2 never becomes quiescent, so a run of this path"
            " aborts; it repeats:",
            "    ..... proc unit.g -> s3 {event:unit.g, fluent:unit.h, metric:unit.m=true,"
            " metric:unit.n=true}",
            "    ..... proc unit.e -> s2 {event:unit.e, fluent:unit.f, metric:unit.m=true,"
            " metric:unit.n=true}",
            "  no counterexample scenario written: the path ends in an event-cascade"
            " livelock, which a run aborts",
        ]
        assert not cex.exists()

    def test_gentests_finishes(self, cascade, tmp_path):
        out_dir = tmp_path / "suite"
        result = run_cli(["gentests", str(cascade[0]), "--out", str(out_dir)], timeout=120)
        assert result.returncode == 0
        assert "4 paths, 0 feasible, 4 infeasible" in result.stdout

    def test_gentests_stops_a_path_at_its_first_aborted_candidate(self, tmp_path):
        # k tautologies in the guard of ``a`` give each path 2^k candidate
        # assignments, and every candidate run livelocks.
        k = 8
        guard = " AND ".join(f"(METRICS.k{i} OR NOT METRICS.k{i})" for i in range(k))
        metrics = "".join(
            f"    METRIC k{i} {{ TYPE {{ boolean }} INITIAL {{ false }} }}\n" for i in range(k)
        )
        source = CASCADE_SPEC.replace(
            "    ACTION a {\n", f"    ACTION a {{\n      GUARDS {{ {guard} }}\n"
        ).replace("  METRICS {\n", "  METRICS {\n" + metrics)
        spec = tmp_path / "cascade.assl"
        spec.write_text(source)
        result = run_cli(["gentests", str(spec), "--out", str(tmp_path / "suite")], timeout=60)
        assert result.returncode == 0
        lines = result.stdout.splitlines()
        assert lines[0] == "policy unit.SELF_HEALING: 8 paths, 0 feasible, 8 infeasible"
        livelock = "(candidate run aborted: livelock: not quiescent after 10000 drain steps at tick 1)"
        unstimulable = "(initiating event unit.g cannot be stimulated)"
        infeasible = [line for line in lines if line.startswith("  infeasible: ")]
        assert len(infeasible) == 8
        for line in infeasible:  # only paths initiated by ``e`` get candidate runs
            assert line.endswith(livelock if ": e -> " in line else unstimulable), line


class TestVerify:
    def test_holds_exits_zero(self, capsys):
        code = main(["verify", SPEC, "--prop", LIVENESS, *ENV_FLAGS])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("Holds: ")

    def test_violation_exits_one_and_writes_cex(self, tmp_path, capsys):
        prop = tmp_path / "bad.prop"
        prop.write_text("G false\n")
        cex = tmp_path / "cex.scenario"
        code = main(["verify", SPEC, "--prop", str(prop), "--cex", str(cex), *ENV_FLAGS])
        out = capsys.readouterr().out
        assert code == 1
        assert out.startswith("Violated: ")
        assert cex.read_text().splitlines()[-1].endswith("halt")

    def test_counterexample_run_stops_at_the_stems_last_tick(self, tmp_path, capsys):
        # The stem sends the message and processes its arrival, all at tick
        # 0. A run of the scenario that advanced the clock past the stem
        # would deliver the message, a move the stem never took.
        prop = tmp_path / "bad.prop"
        prop.write_text("G (NOT (fluent inSecurityCheck))\n")
        cex = tmp_path / "cex.scenario"
        send = ["--send", "privateMessage@secureLink"]
        assert main(["verify", SPEC, "--prop", str(prop), "--cex", str(cex), *send]) == 1
        assert "step 2: proc worker.privateMessageIsComming" in capsys.readouterr().out
        assert cex.read_text().splitlines() == [
            "tick 0 send worker.privateMessage worker.secureLink", "tick 0 halt",
        ]
        trace = tmp_path / "trace.txt"
        assert main(["run", SPEC, "--scenario", str(cex), "--trace", str(trace)]) == 0
        records = [line.split("\t") for line in trace.read_text().splitlines()]
        assert records and {tick for _n, tick, *_rest in records} == {"0"}

    def test_unwritable_counterexample_is_usage_error(self, tmp_path, capsys):
        prop = tmp_path / "bad.prop"
        prop.write_text("G false\n")
        cex = tmp_path / "missing" / "cex.scenario"
        code = main(["verify", SPEC, "--prop", str(prop), "--cex", str(cex), *ENV_FLAGS])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"cannot write counterexample to {cex}: ")

    def test_tiny_bound_is_inconclusive(self, capsys):
        code = main(
            ["verify", SPEC, "--prop", LIVENESS, "--bound-states", "3", *ENV_FLAGS]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert out.startswith("Inconclusive: ")

    def test_property_file_of_comments_only_is_usage_error(self, tmp_path, capsys):
        prop = tmp_path / "empty.prop"
        prop.write_text("# only a comment\n\n   # and another\n")
        assert main(["verify", SPEC, "--prop", str(prop)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"{prop}: no properties found\n"

    def test_malformed_property_is_usage_error(self, tmp_path):
        prop = tmp_path / "syntax.prop"
        prop.write_text("G (fluent\n")
        assert main(["verify", SPEC, "--prop", str(prop)]) == 2

    def test_non_utf8_property_file_is_usage_error(self, tmp_path, capsys):
        prop = tmp_path / "latin.prop"
        prop.write_bytes(b"# caf\xe9\nG true\n")
        assert main(["verify", SPEC, "--prop", str(prop)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"cannot read {prop}: 'utf-8' codec")

    def test_jobs_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["verify", SPEC, "--prop", LIVENESS, "--jobs", "2", *ENV_FLAGS])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err

    def test_malformed_env_flag_is_usage_error(self, capsys):
        assert main(["verify", SPEC, "--prop", LIVENESS, "--set", "noequals"]) == 2
        assert main(["verify", SPEC, "--prop", LIVENESS, "--send", "nochannel"]) == 2
        assert main(["verify", SPEC, "--prop", LIVENESS, "--inject", "missing"]) == 2

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--inject", "missing", "no event named 'missing'"),
            ("--set", "messageVerdictSecure=maybe", "not a literal of type boolean: 'maybe'"),
            ("--set", "nosuch=1", "no metric named 'nosuch'"),
            ("--send", "privateMessage@nowhere", "no channel named 'nowhere'"),
        ],
    )
    def test_env_flag_errors_name_the_flag(self, flag, value, message, capsys):
        for command in ("verify", "graph"):
            extra = ["--prop", LIVENESS] if command == "verify" else ["--out", os.devnull]
            assert main([command, SPEC, *extra, flag, value]) == 2
            assert capsys.readouterr().err == f"{flag} {value}: {message}\n"

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--bound-states", "-3", "--bound-states must be at least 1"),
            ("--bound-states", "0", "--bound-states must be at least 1"),
            ("--bound-depth", "-1", "--bound-depth must be at least 0"),
        ],
    )
    def test_bounds_below_their_least_value_are_usage_errors(self, flag, value, message, capsys):
        for command in ("verify", "graph"):
            extra = ["--prop", LIVENESS] if command == "verify" else ["--out", os.devnull]
            assert main([command, SPEC, *extra, flag, value, *ENV_FLAGS]) == 2
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == ("", f"{message}\n")

    def test_least_bounds_are_accepted(self, tmp_path, capsys):
        out_file = tmp_path / "graph.txt"
        least = ["--bound-states", "1", "--bound-depth", "0"]
        assert main(["graph", SPEC, "--out", str(out_file), *least, *ENV_FLAGS]) == 0
        assert out_file.read_text().splitlines()[0] == "lts states=1 edges=2 truncated=true"
        assert main(["verify", SPEC, "--prop", LIVENESS, *least, *ENV_FLAGS]) == 1
        assert capsys.readouterr().out.splitlines()[-2].startswith("Inconclusive: ")

    def test_no_tick_shrinks_environment(self, tmp_path, capsys):
        # without the clock, the sent message is never delivered; the
        # liveness property still holds since verdicts resolve in-drain
        code = main(["verify", SPEC, "--prop", LIVENESS, "--no-tick", *ENV_FLAGS])
        assert code == 0
        assert capsys.readouterr().out.startswith("Holds: ")

    @pytest.mark.parametrize(
        "mission", ["ants_self_configuring_and_scheduling", "voyager_image_processing"]
    )
    def test_no_tick_alone_keeps_the_injectable_events(self, mission, tmp_path, capsys):
        # With no stimulus flag the environment is the declared injectable
        # events, plus the clock unless --no-tick drops it.
        pkg = next(p for p in all_missions() if p.name == mission)
        spec = pkg.load()
        injectables = tuple(InjectEvent(event) for event in spec.program.injectable)
        assert injectables
        for flags, env in (([], default_env(spec)), (["--no-tick"], injectables)):
            out_file = tmp_path / "graph.txt"
            assert main(["graph", str(pkg.spec_path), "--out", str(out_file), *flags]) == 0
            assert out_file.read_text() == lts_to_text(build_lts(spec, env=env)), flags
        capsys.readouterr()


# A policy without mappings, and one whose action guard no metric
# assignment can make true, so its Success path is infeasible.
GENTESTS_SPEC = """\
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


class TestGentests:
    def test_writes_six_feasible_tests(self, tmp_path, capsys):
        out_dir = tmp_path / "suite"
        assert main(["gentests", SPEC, "--out", str(out_dir)]) == 0
        out = capsys.readouterr().out
        assert "6 paths, 6 feasible, 0 infeasible" in out
        assert len(list(out_dir.rglob("*.scenario"))) == 6

    def test_since_identical_spec_regenerates_nothing(self, tmp_path, capsys):
        out_dir = tmp_path / "suite"
        code = main(["gentests", SPEC, "--out", str(out_dir), "--since", SPEC])
        out = capsys.readouterr().out
        assert code == 0
        assert "regenerated: 0 policies" in out

    def test_since_an_unchanged_spec_lists_what_a_from_scratch_run_lists(
        self, tmp_path, capsys
    ):
        gen = tmp_path / "gen.assl"
        gen.write_text(GENTESTS_SPEC)
        out_dir = str(tmp_path / "suite")
        for spec in [str(gen)] + [str(pkg.spec_path) for pkg in all_missions()]:
            assert main(["gentests", spec, "--out", out_dir]) == 0
            scratch = capsys.readouterr().out.splitlines()
            assert main(["gentests", spec, "--out", out_dir, "--since", spec]) == 0
            since = capsys.readouterr().out.splitlines()
            listed = since[since.index("regenerated: 0 policies") + 1 :]
            assert listed == [line for line in scratch if not line.startswith(spec)], spec

    def test_since_lists_a_regenerated_policy_whose_tests_are_unchanged(
        self, tmp_path, capsys
    ):
        # A new failure reason changes the action, so its policy is regenerated,
        # but no generated test asserts the reason: the new tests equal the old.
        source = PKG.spec_path.read_text(encoding="utf-8")
        edited = tmp_path / "edited.assl"
        edited.write_text(
            source.replace('"sender certificate invalid"', '"certificate of the sender is invalid"')
        )
        assert edited.read_text() != source
        out_dir = str(tmp_path / "suite")
        assert main(["gentests", str(edited), "--out", out_dir, "--since", SPEC]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "regenerated: 1 policies (worker.SELF_PROTECTING)"

    def test_infeasible_paths_and_empty_policies_are_listed(self, tmp_path, capsys):
        spec = tmp_path / "gen.assl"
        spec.write_text(GENTESTS_SPEC)
        out_dir = tmp_path / "suite"
        assert main(["gentests", str(spec), "--out", str(out_dir)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            f"{spec}:4:7: warning W-UNREACHABLE: fluent 'f' is not referenced by any mapping",
            "policy sys.EMPTYISH: 0 paths, 0 feasible, 0 infeasible",
            "policy unit.STUCKGUARD: 2 paths, 1 feasible, 1 infeasible",
            "  infeasible: unit.STUCKGUARD: go -> [unit.work=Success] -> fin"
            " (no metric assignment drawn from guard constants forces this path)",
            "warning: policy 'sys.EMPTYISH' has no mappings; no paths",
            f"wrote 2 files to {out_dir}",
        ]

    def test_unwritable_directory_is_usage_error(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        assert main(["gentests", SPEC, "--out", str(blocker / "nested")]) == 2


class TestGraph:
    def test_empty_spec_graph(self, tmp_path, capsys):
        spec = tmp_path / "empty.assl"
        spec.write_text("AS empty { }")
        out_file = tmp_path / "graph.txt"
        assert main(["graph", str(spec), "--out", str(out_file)]) == 0
        text = out_file.read_text()
        assert text.splitlines()[0] == "lts states=1 edges=0 truncated=false"

    def test_node_count_matches_build_lts(self, tmp_path, capsys):
        out_file = tmp_path / "graph.txt"
        assert main(["graph", SPEC, "--out", str(out_file), *ENV_FLAGS]) == 0
        spec = PKG.load()
        env = tuple(
            parse_env_stimulus(spec, t)
            for t in (
                "send privateMessage secureLink",
                "set messageVerdictSecure true",
                "set messageVerdictSecure false",
                "tick",
            )
        )
        lts = build_lts(spec, env=env)
        header = out_file.read_text().splitlines()[0]
        assert header == f"lts states={lts.state_count} edges={lts.edge_count} truncated=false"

    def test_truncated_graph_is_annotated(self, tmp_path, capsys):
        out_file = tmp_path / "graph.txt"
        assert main(
            ["graph", SPEC, "--out", str(out_file), "--bound-states", "2", *ENV_FLAGS]
        ) == 0
        assert "truncated=true" in out_file.read_text().splitlines()[0]


SCHEDULING = ants_self_configuring_and_scheduling()
SCHEDULING_GUARD = "GUARDS { NOT METRICS.alphaLeads }"


def _nested_guard(depth: int, nots: int) -> str:
    """``NOT METRICS.alphaLeads`` nested ``depth`` levels deep: ``nots`` NOTs
    (an odd number, so the guard keeps its meaning) around ``depth - nots``
    pairs of parentheses."""
    parens = depth - nots
    return f"GUARDS {{ {'NOT ' * nots}{'(' * parens}METRICS.alphaLeads{')' * parens} }}"


NOT_ALPHA = "NOT METRICS.alphaLeads"
EVENT = "event ants.scheduleReady"


def _chain(operands: list[str], op: str) -> str:
    return f" {op} ".join(operands)


def _chain_guards(extra: int) -> dict[str, str]:
    """Guards that mean ``NOT METRICS.alphaLeads`` and nest ``MAX_NESTING +
    extra`` levels, each operator of a chain counting one level for every
    operand of that chain."""
    in_parens = NOT_ALPHA
    for _ in range(48):  # two levels each: the parentheses and one AND
        in_parens = f"({in_parens}) AND {NOT_ALPHA}"
    return {
        # the deepest operands are the first ones
        "long chain": _chain([NOT_ALPHA] * (MAX_NESTING + extra), "AND"),
        "deep first operand": _chain(
            [f"{'NOT ' * 51}METRICS.alphaLeads"] + [NOT_ALPHA] * (MAX_NESTING - 51 + extra), "OR"
        ),
        "OR of AND chains": _chain([_chain([NOT_ALPHA] * (51 + extra), "AND")] * 50, "OR"),
        "chains in parentheses": _chain([f"({in_parens})"] + [NOT_ALPHA] * (2 + extra), "AND"),
    }


def _chain_props(extra: int) -> dict[str, str]:
    """Properties that mean ``F (event ants.scheduleReady)`` and nest
    ``MAX_NESTING + extra`` levels: ``F`` and the parentheses take two."""
    return {
        "long chain": f"F ({' | '.join([EVENT] * (MAX_NESTING - 1 + extra))})",
        "prefix chain": f"F (or {' '.join([EVENT] * (MAX_NESTING - 1 + extra))})",
        "OR of AND chains": f"F ({' | '.join([' & '.join([EVENT] * (50 + extra))] * 50)})",
        "deep first operand": f"F ({'! ' * 50}{EVENT}{f' & {EVENT}' * (48 + extra)})",
    }


class TestNestingLimit:
    """Specs and properties nest at most MAX_NESTING deep; at the limit every
    command works, and past it the parsers report an error instead of
    overflowing the stack."""

    def _mission(self, tmp_path, guard: str) -> Path:
        source = SCHEDULING.spec_path.read_text()
        assert source.count(SCHEDULING_GUARD) == 1
        spec = tmp_path / "nested.assl"
        spec.write_text(source.replace(SCHEDULING_GUARD, guard))
        return spec

    def _outputs(self, spec: Path, tmp_path, capsys) -> list[tuple[int, str, str]]:
        """check, run with a trace, and verify, each as (exit code, stdout, trace)."""
        scenario = SCHEDULING.root / "scenarios" / "schedule_beta_first.scenario"
        trace = tmp_path / "out.trace"
        outputs = []
        for args in (
            ["check", str(spec)],
            ["run", str(spec), "--scenario", str(scenario), "--trace", str(trace)],
            ["verify", str(spec), "--prop", str(SCHEDULING.root / "props" / "scheduling_liveness.prop")],
        ):
            code = main(args)
            captured = capsys.readouterr()
            assert captured.err == ""
            text = trace.read_text() if args[0] == "run" else ""
            outputs.append((code, captured.out, text))
        return outputs

    @pytest.mark.parametrize("nots", [1, MAX_NESTING // 2 * 2 - 1])
    def test_spec_at_the_limit_behaves_like_the_mission(self, tmp_path, capsys, nots):
        spec = self._mission(tmp_path, _nested_guard(MAX_NESTING, nots))
        tree = parse_text(spec.read_text())
        printed = pretty_print(tree)
        assert pretty_print(parse_text(printed)) == printed
        nested = self._outputs(spec, tmp_path, capsys)
        plain = self._outputs(self._mission(tmp_path, SCHEDULING_GUARD), tmp_path, capsys)
        assert nested == plain
        assert [code for code, _out, _trace in nested] == [0, 0, 0]

    @pytest.mark.parametrize(
        "depth, nots", [(MAX_NESTING + 1, 1), (MAX_NESTING + 1, MAX_NESTING + 1), (3000, 3000)]
    )
    def test_spec_past_the_limit_is_a_parse_error(self, tmp_path, capsys, depth, nots):
        spec = self._mission(tmp_path, _nested_guard(depth, nots))
        assert main(["check", str(spec)]) == 1
        out = capsys.readouterr().out
        assert f"error E-PARSE: expression nested more than {MAX_NESTING} deep" in out

    def test_property_at_the_limit_is_checked(self, tmp_path, capsys):
        prop = tmp_path / "deep.prop"

        def verify(text: str) -> tuple[int, list[str]]:
            prop.write_text(text + "\n")
            code = main(["verify", str(SCHEDULING.spec_path), "--prop", str(prop)])
            captured = capsys.readouterr()
            assert captured.err == ""
            # the failing atom is rendered from the parsed formula
            lines = captured.out.replace(text, plain).splitlines()
            return code, [line for line in lines if not line.startswith("  violation: ")]

        plain = "F (event ants.scheduleReady)"
        expected = verify(plain)
        # F counts one level, each parenthesis pair and each ! one more; an
        # even number of ! keeps the meaning
        inner = MAX_NESTING - 1
        nots = inner // 2 * 2
        for text in (
            f"F {'(' * inner}event ants.scheduleReady{')' * inner}",
            f"F {'! ' * nots}{'(' * (inner - nots)}event ants.scheduleReady{')' * (inner - nots)}",
        ):
            assert verify(text) == expected

    @pytest.mark.parametrize(
        "text",
        [
            f"F {'(' * MAX_NESTING}true{')' * MAX_NESTING}",
            f"G {'! ' * MAX_NESTING}true",
            f"G ({'true -> ' * MAX_NESTING}true)",
            f"G {'(' * 3000}true{')' * 3000}",
        ],
    )
    def test_property_past_the_limit_is_a_property_error(self, tmp_path, capsys, text):
        prop = tmp_path / "deep.prop"
        prop.write_text(text + "\n")
        assert main(["verify", str(SCHEDULING.spec_path), "--prop", str(prop)]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", f"{prop}: line 1: property nested more than {MAX_NESTING} deep\n"
        )

    @pytest.mark.parametrize("shape", list(_chain_guards(0)))
    def test_chains_at_the_limit_behave_like_the_mission(self, tmp_path, capsys, shape):
        spec = self._mission(tmp_path, f"GUARDS {{ {_chain_guards(0)[shape]} }}")
        printed = pretty_print(parse_text(spec.read_text()))
        assert pretty_print(parse_text(printed)) == printed
        nested = self._outputs(spec, tmp_path, capsys)
        plain = self._outputs(self._mission(tmp_path, SCHEDULING_GUARD), tmp_path, capsys)
        assert nested == plain
        assert [code for code, _out, _trace in nested] == [0, 0, 0]

    @pytest.mark.parametrize(
        "guard",
        [*_chain_guards(1).values(), _chain([NOT_ALPHA] * 1001, "AND")],
        ids=[*_chain_guards(1), "1000 ANDs"],
    )
    def test_chains_past_the_limit_are_a_parse_error(self, tmp_path, capsys, guard):
        spec = self._mission(tmp_path, f"GUARDS {{ {guard} }}")
        assert main(["check", str(spec)]) == 1
        out = capsys.readouterr().out
        assert f"error E-PARSE: expression nested more than {MAX_NESTING} deep" in out

    @pytest.mark.parametrize("shape", list(_chain_props(0)))
    def test_property_chains_at_the_limit_are_checked(self, tmp_path, capsys, shape):
        prop = tmp_path / "deep.prop"

        def verify(text: str) -> tuple[int, list[str]]:
            prop.write_text(text + "\n")
            code = main(["verify", str(SCHEDULING.spec_path), "--prop", str(prop)])
            captured = capsys.readouterr()
            assert captured.err == ""
            lines = captured.out.replace(text, f"F ({EVENT})").splitlines()
            return code, [line for line in lines if not line.startswith("  violation: ")]

        assert verify(_chain_props(0)[shape]) == verify(f"F ({EVENT})")

    @pytest.mark.parametrize(
        "text",
        [*_chain_props(1).values(), f"G ({' & '.join(['true'] * 3001)})"],
        ids=[*_chain_props(1), "3000 &"],
    )
    def test_property_chains_past_the_limit_are_a_property_error(self, tmp_path, capsys, text):
        prop = tmp_path / "deep.prop"
        prop.write_text(text + "\n")
        assert main(["verify", str(SCHEDULING.spec_path), "--prop", str(prop)]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", f"{prop}: line 1: property nested more than {MAX_NESTING} deep\n"
        )


def test_help_is_golden(monkeypatch):
    monkeypatch.setenv("COLUMNS", "100")
    parser = build_parser()
    sections = [parser.format_help()]
    for name, sub in parser._subparsers._group_actions[0].choices.items():
        sections.append(f"==== {name} ====\n" + sub.format_help())
    expected = Path(__file__).with_name("data").joinpath("cli_help.txt").read_text()
    assert "\n".join(sections) == expected


def test_internal_errors_exit_three(monkeypatch, capsys):
    import asslkit.cli as cli

    def boom(args):
        raise RuntimeError("synthetic fault")

    monkeypatch.setattr(cli, "cmd_check", boom)
    assert cli.main(["check", SPEC]) == 3
    assert "internal error" in capsys.readouterr().err


def test_main_calls_in_one_process_keep_their_options_apart(monkeypatch):
    import asslkit.cli as cli

    seen = []
    monkeypatch.setattr(cli, "cmd_graph", lambda args: seen.append(vars(args).copy()) or 0)
    first = ["graph", SPEC, "--out", "a.txt", "--set", "m=1", "--set", "n=2", "--inject", "e"]
    second = ["graph", "other.assl", "--out", "b.txt", "--bound-states", "7", "--no-tick"]
    third = ["graph", SPEC, "--out", "c.txt", "--set", "k=3"]
    assert [cli.main(argv) for argv in (first, second, third)] == [0, 0, 0]
    common = {"command": "graph", "send": [], "bound_depth": 10_000}
    assert seen == [
        {**common, "path": SPEC, "out": "a.txt", "set": ["m=1", "n=2"], "inject": ["e"],
         "bound_states": 100_000, "no_tick": False},
        {**common, "path": "other.assl", "out": "b.txt", "set": [], "inject": [],
         "bound_states": 7, "no_tick": True},
        {**common, "path": SPEC, "out": "c.txt", "set": ["k=3"], "inject": [],
         "bound_states": 100_000, "no_tick": False},
    ]


def test_swap_mutants_that_check_clean_run_verify_and_gentest(tmp_path, capsys):
    """Whole-pipeline fuzz: every swap mutant that checks with no diagnostic
    runs a scenario injecting each injectable event once, verifies ``G true``
    and generates tests, each exiting 0 or 1, never 3."""
    spec_path, scenario_path = tmp_path / "mutant.assl", tmp_path / "inject.scenario"
    prop_path, suite = tmp_path / "true.prop", str(tmp_path / "suite")
    prop_path.write_text("G true\n")
    commands = (
        ["run", str(spec_path), "--scenario", str(scenario_path)],
        ["verify", str(spec_path), "--prop", str(prop_path), "--bound-states", "300"],
        ["gentests", str(spec_path), "--out", suite],
    )
    clean = 0
    for corpus, mutants in swap_corpora().items():
        # Many swaps leave the source as it is; each distinct source runs once.
        for index, source in enumerate(dict.fromkeys(mutants)):
            try:
                spec = check_all(parse_text(source, "mutant.assl"))
            except (LexError, ParseError):
                continue
            if spec.diagnostics:
                continue
            clean += 1
            injectable = spec.program.injectable
            spec_path.write_text(source)
            scenario_path.write_text(
                "".join(f"tick {t} inject {qual(e)}\n" for t, e in enumerate(injectable, 1))
                + f"tick {len(injectable) + 1} halt\n"
            )
            for argv in commands:
                code = main(argv)
                output = capsys.readouterr()
                assert code in (0, 1), (corpus, index, argv[0], output)
    assert clean >= 250

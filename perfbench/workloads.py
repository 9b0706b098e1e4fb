"""The three workloads. Each builds its inputs from the seed, then runs rounds.

A round is the workload's fixed unit of work, made of ops (see ``ops.py``).
Every op's output is checked, outside its timed region.

* ``swarm_verify``: one op per round, source text to verdicts on a 2-worker
  swarm. Interleavings of independent workers make verification costly.
* ``scenario_runs``: every command from the mission READMEs through
  ``cli.main``, then seeded long runs of a timer-heavy spec (self-healing)
  and of an element-heavy one (a wide swarm without timers).
* ``swarm_toolchain``: the front end on a large swarm, full test generation
  on a smaller one, and incremental regeneration after one-worker edits.
"""

from __future__ import annotations

import hashlib
import io
import random
import statistics
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from asslkit import checker, cli, lexer, missions, parser, printer, testgen
from asslkit.runtime import engine, scenario as scenarios
from asslkit.verifier import lts as vlts, mc, props as vprops

from . import checks, gen

# Deadlines per op kind, in seconds: several times the op's measured time on
# a 2-CPU machine, so only a hang or a gross slowdown passes them.
DEADLINES = {
    "verify": 90.0, "cli": 30.0, "scenario": 30.0,
    "front": 30.0, "gen": 60.0, "regen": 30.0,
}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class _Determinism:
    """Same seed, same inputs: every repeat of an output must be byte-identical."""

    def __init__(self) -> None:
        self.first: dict[str, str] = {}

    def check(self, key: str, text: str) -> list[str]:
        digest = _digest(text)
        if self.first.setdefault(key, digest) != digest:
            return [f"{key}: output differs from the first round's"]
        return []


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


# -- swarm_verify --------------------------------------------------------------------


def verify_op(text: str, env_texts: tuple[str, ...], expected: tuple[gen.ExpectedVerdict, ...]) -> dict:
    """Source text to verdicts: front end, state graph, properties, counterexamples."""
    spec = checker.check_all(parser.parse(lexer.tokenize(text, "swarm.assl"), "swarm.assl"))
    env = tuple(mc.parse_env_stimulus(spec, stimulus) for stimulus in env_texts)
    graph = vlts.build_lts(spec, env=env, bounds=vlts.Bounds(), jobs=1)
    verdicts = []
    for want in expected:
        prop = vprops.parse_property(want.text, spec)
        verdict = mc.check(graph, prop)
        replayed = None
        if verdict.result == mc.VIOLATED and verdict.counterexample is not None:
            _steps, scenario = mc.explain(spec, graph, verdict)
            cex = verdict.counterexample
            vector = mc.replay_counterexample(spec, graph, cex)
            replayed = vector == graph.states[cex.violating_state] and bool(scenario.steps)
        verdicts.append((prop.shape, verdict.result, replayed))
    return {
        "diagnostics": len(spec.diagnostics),
        "states": graph.state_count,
        "edges": graph.edge_count,
        "truncated": graph.truncated,
        "verdicts": verdicts,
        "graph": vlts.lts_to_text(graph),
    }


def verify_problems(out: dict, expected: tuple[gen.ExpectedVerdict, ...]) -> list[str]:
    """Compare a ``verify_op`` result with the hand-written verdicts."""
    problems = []
    if out["diagnostics"]:
        problems.append(f"{out['diagnostics']} diagnostics on the generated swarm")
    if out["truncated"]:
        problems.append("state graph truncated by the default bounds")
    for want, (shape, result, replayed) in zip(expected, out["verdicts"]):
        if shape != want.shape or result != want.verdict:
            problems.append(
                f"{want.text}: {shape} {result}, expected {want.shape} {want.verdict} ({want.reason})"
            )
        if result == gen.VIOLATED and replayed is not True:
            problems.append(f"{want.text}: counterexample does not replay")
    header = f"lts states={out['states']} edges={out['edges']} truncated=false"
    if not out["graph"].startswith(header + "\n"):
        problems.append("graph text header disagrees with the graph")
    return problems


class SwarmVerify:
    WORKERS = 2

    def __init__(self, seed: int, scratch: Path) -> None:
        self.swarm = gen.swarm(self.WORKERS, seed)
        gen.checked(self.swarm.text, "swarm.assl")
        self.env = gen.verify_env(self.swarm.workers, seed)
        self.expected = gen.properties(self.swarm.workers, seed)
        self.same = _Determinism()
        self.sizes: tuple[int, int] = (0, 0)
        # Warm-up: the whole op on a one-worker swarm (67 states).
        small = gen.swarm(1, seed)
        gen.checked(small.text, "small.assl")
        verify_op(small.text, gen.verify_env(small.workers, seed), gen.properties(small.workers, seed))

    def _check(self, out: dict) -> list[str]:
        return verify_problems(out, self.expected) + self.same.check("graph", out["graph"])

    def round(self, log, budget) -> None:
        out, _seconds = log.run(
            "verify", min(DEADLINES["verify"], budget()),
            lambda: verify_op(self.swarm.text, self.env, self.expected),
            self._check,
        )
        if out is not None:
            self.sizes = (out["states"], out["edges"])

    def legs(self, log) -> list[tuple[str, float, str]]:
        return [
            ("verify_s", _median(log.seconds.get("verify", [])), "s"),
            ("states", float(self.sizes[0]), "count"),
            ("edges", float(self.sizes[1]), "count"),
        ]


# -- scenario_runs ---------------------------------------------------------------------


def _cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _prop_lines(path: Path) -> list[str]:
    return [
        line.strip() for line in path.read_text(encoding="utf-8").splitlines()
        if line.strip() and not line.strip().startswith("#")
    ]


class ScenarioRuns:
    HEALING_RUNS = 2
    HEALING_TICKS = 3000
    WIDE_WORKERS = 40
    WIDE_TICKS = 1500

    def __init__(self, seed: int, scratch: Path) -> None:
        self.seed = seed
        self.same = _Determinism()
        self.ticks = 0
        self.commands: list[tuple[list[str], object]] = []
        for package in missions.all_missions():
            self._mission_commands(package, scratch)
        healing_spec = missions.ants_self_healing().load()
        self.long: list[tuple[str, object, object, object]] = []
        for i in range(self.HEALING_RUNS):
            generated = gen.healing_scenario(seed * 7919 + i, self.HEALING_TICKS)
            parsed = scenarios.parse_scenario(generated.text, healing_spec, f"healing{i}")
            self.long.append((f"healing{i}", healing_spec, parsed, generated))
        wide = gen.swarm(self.WIDE_WORKERS, seed)
        wide_spec = gen.checked(wide.text, "wide.assl")
        generated = gen.wide_scenario(wide.workers, seed, self.WIDE_TICKS)
        parsed = scenarios.parse_scenario(generated.text, wide_spec, "wide")
        self.long.append(("wide", wide_spec, parsed, generated))
        _cli(self.commands[0][0])  # warm-up: one README command

    def _mission_commands(self, package, scratch: Path) -> None:
        name = package.name
        spec = package.load()
        spec_path = str(package.spec_path)
        env = list(checks.README_VERIFY_FLAGS[name])
        self.commands.append((["check", spec_path], self._expect_check))
        for path in package.scenario_paths():
            trace_path = scratch / f"{name}-{path.stem}.trace"
            claims = checks.README_RUNS[(name, path.stem)]
            self.commands.append((
                ["run", spec_path, "--scenario", str(path), "--trace", str(trace_path)],
                self._expect_run(spec, claims, trace_path),
            ))
        for path in package.prop_paths():
            want = [f"Holds: {line}" for line in _prop_lines(path)]
            self.commands.append((
                ["verify", spec_path, "--prop", str(path), *env], self._expect_verify(want),
            ))
        suite_dir = scratch / f"{name}-suite"
        self.commands.append((
            ["gentests", spec_path, "--out", str(suite_dir)], self._expect_gentests(suite_dir),
        ))
        graph_path = scratch / f"{name}.graph"
        self.commands.append((
            ["graph", spec_path, "--out", str(graph_path), *env], self._expect_graph(graph_path),
        ))

    # The missions package promises zero diagnostics for every shipped spec.
    @staticmethod
    def _expect_check(result) -> list[str]:
        code, out = result
        return [] if code == 0 and out == "" else [f"check: exit {code}, output {out[:200]!r}"]

    def _expect_run(self, spec, claims, trace_path: Path):
        def check(result) -> list[str]:
            code, _out = result
            if code != 0:
                return [f"run {trace_path.stem}: exit {code}"]
            text = trace_path.read_text(encoding="utf-8")
            records = checks.records_from_text(text)
            problems = checks.invariants(records, spec)
            for claim in claims:
                problems += claim(records)
            return problems + self.same.check(str(trace_path), text)
        return check

    # Every property file holds under the README environment (missions package docs).
    @staticmethod
    def _expect_verify(want: list[str]):
        def check(result) -> list[str]:
            code, out = result
            lines = out.splitlines()
            return [] if code == 0 and lines == want else [f"verify: exit {code}, {lines} != {want}"]
        return check

    @staticmethod
    def _expect_gentests(suite_dir: Path):
        def check(result) -> list[str]:
            code, out = result
            last = out.splitlines()[-1] if out else ""
            files = sum(1 for p in suite_dir.rglob("*") if p.is_file())
            if code != 0 or last != f"wrote {files} files to {suite_dir}":
                return [f"gentests: exit {code}, {last!r}, {files} files on disk"]
            return []
        return check

    def _expect_graph(self, graph_path: Path):
        def check(result) -> list[str]:
            code, out = result
            if code != 0 or not out.endswith(", truncated: no\n"):
                return [f"graph: exit {code}, {out!r}"]
            text = graph_path.read_text(encoding="utf-8")
            states, edges = (part.split(": ")[1] for part in out.split(", ")[:2])
            if not text.startswith(f"lts states={states} edges={edges} truncated=false\n"):
                return ["graph file header disagrees with the command output"]
            return self.same.check(str(graph_path), text)
        return check

    def _long_run(self, spec, parsed, ticks: int) -> tuple[object, str]:
        trace = engine.Runtime(spec, seed=self.seed).run(parsed, max_ticks=ticks + 1)
        return trace, trace.to_text()

    def _expect_long(self, name: str, spec, generated):
        def check(result) -> list[str]:
            trace, text = result
            if trace.aborted is not None:
                return [f"{name}: aborted: {trace.aborted}"]
            records = checks.records_from_trace(trace)
            problems = checks.invariants(records, spec)
            if name.startswith("healing"):
                problems += checks.healing(records, generated)
            else:
                problems += checks.wide(records, generated)
            return problems + self.same.check(name, text)
        return check

    def round(self, log, budget) -> None:
        for argv, check in self.commands:
            log.run("cli", min(DEADLINES["cli"], budget()), lambda argv=argv: _cli(argv), check)
        for name, spec, parsed, generated in self.long:
            log.run(
                "scenario", min(DEADLINES["scenario"], budget()),
                lambda spec=spec, parsed=parsed, ticks=generated.ticks: self._long_run(spec, parsed, ticks),
                self._expect_long(name, spec, generated),
            )
            self.ticks += generated.ticks

    def legs(self, log) -> list[tuple[str, float, str]]:
        cli_ms = [s * 1000 for s in log.seconds.get("cli", [])]
        sim_s = sum(log.seconds.get("scenario", []))
        p90 = statistics.quantiles(cli_ms, n=10)[-1] if len(cli_ms) >= 10 else 0.0
        return [
            ("sim_ticks_per_s", self.ticks / sim_s if sim_s else 0.0, "ticks/s"),
            ("cli_p50_ms", _median(cli_ms), "ms"),
            ("cli_p90_ms", p90, "ms"),
            ("cli_commands", float(len(cli_ms)), "count"),
        ]


# -- swarm_toolchain ----------------------------------------------------------------------


class SwarmToolchain:
    FRONT_WORKERS = 100
    GEN_WORKERS = 10
    EDITS = 4
    PATHS_PER_WORKER = 6  # 1 initiating event x 3 branches of checkPrivateMessage x 2 verdict events

    def __init__(self, seed: int, scratch: Path) -> None:
        self.front = gen.swarm(self.FRONT_WORKERS, seed)
        gen.checked(self.front.text, "front.assl")
        self.small = gen.swarm(self.GEN_WORKERS, seed)
        self.spec = gen.checked(self.small.text, "gen.assl")
        self.edits = []
        for worker in random.Random(seed).sample(self.small.workers, self.EDITS):
            text = gen.edit_worker(self.small.text, worker)
            gen.checked(text, "edited.assl")
            self.edits.append((worker, text))
        self.same = _Determinism()
        self.front_s: list[float] = []
        self.generate_s: list[float] = []
        self.tokens = 0
        # Warm-up: test generation on a one-worker swarm.
        one = gen.swarm(1, seed)
        testgen.generate_all(gen.checked(one.text, "one.assl"))

    def _front_op(self) -> dict:
        start = time.perf_counter()
        tokens = lexer.tokenize(self.front.text, "front.assl")
        tree = parser.parse(tokens, "front.assl")
        spec = checker.check_all(tree)
        self.front_s.append(time.perf_counter() - start)
        self.tokens = len(tokens)
        printed = printer.pretty_print(tree)
        again = parser.parse(lexer.tokenize(printed, "printed.assl"), "printed.assl")
        return {"tree": tree, "again": again, "diagnostics": len(spec.diagnostics),
                "printed": printed}

    def _expect_front(self, out) -> list[str]:
        problems = []
        if out["diagnostics"]:
            problems.append(f"{out['diagnostics']} diagnostics on the generated swarm")
        if out["again"] != out["tree"]:
            problems.append("printed source parses to a different tree")
        names = tuple(tier.name for tier in out["tree"].ae_tiers)
        if names != self.front.workers:
            problems.append("parsed tiers differ from the generated workers")
        return problems + self.same.check("printed", out["printed"])

    def _gen_op(self):
        start = time.perf_counter()
        suite = testgen.generate_all(self.spec)
        self.generate_s.append(time.perf_counter() - start)
        return suite, testgen.run_suite(self.spec, suite)

    def _expect_gen(self, out) -> list[str]:
        suite, results = out
        problems = []
        for worker in self.small.workers:
            got = len(suite.for_policy((worker, "SELF_PROTECTING")))
            if got != self.PATHS_PER_WORKER:
                problems.append(f"{worker}: {got} tests, expected {self.PATHS_PER_WORKER}")
        if len(suite.tests) != self.PATHS_PER_WORKER * self.GEN_WORKERS or suite.infeasible:
            problems.append(f"{len(suite.tests)} tests, {len(suite.infeasible)} infeasible")
        failing = [test.name for test, failures in results if failures]
        if failing:
            problems.append(f"run_suite: {len(failing)} tests fail, first {failing[0]}")
        rendered = "".join(t.scenario.render() for t in suite.tests)
        return problems + self.same.check("suite", rendered)

    def _regen_op(self, suite, text: str):
        new_spec = checker.check_all(parser.parse(lexer.tokenize(text, "edited.assl"), "edited.assl"))
        return testgen.regenerate(suite, self.spec, new_spec)

    def _expect_regen(self, old, worker: str):
        def check(new) -> list[str]:
            problems = []
            for policy in testgen.policy_keys(self.spec):
                before, after = old.for_policy(policy), new.for_policy(policy)
                carried = len(before) == len(after) and all(a is b for a, b in zip(before, after))
                if policy[0] == worker:
                    if carried or len(after) != self.PATHS_PER_WORKER:
                        problems.append(f"{worker}: edited policy was not regenerated")
                elif not carried:
                    problems.append(f"{policy[0]}: unedited policy was regenerated")
            return problems
        return check

    def round(self, log, budget) -> None:
        log.run("front", min(DEADLINES["front"], budget()), self._front_op, self._expect_front)
        out, _seconds = log.run("gen", min(DEADLINES["gen"], budget()), self._gen_op, self._expect_gen)
        suite = out[0] if out is not None else None
        for worker, text in self.edits:
            if suite is None:
                log.run("regen", DEADLINES["regen"], lambda: None,
                        lambda _out: ["no suite from this round's generation to start from"])
                continue
            log.run(
                "regen", min(DEADLINES["regen"], budget()),
                lambda text=text: self._regen_op(suite, text), self._expect_regen(suite, worker),
            )

    def legs(self, log) -> list[tuple[str, float, str]]:
        front = _median(self.front_s)
        return [
            ("check_lines_per_s", self.front.lines / front if front else 0.0, "lines/s"),
            ("gentests_s", _median(self.generate_s), "s"),
            ("regen_s", _median(log.seconds.get("regen", [])), "s"),
            ("front_lines", float(self.front.lines), "count"),
            ("front_tokens", float(self.tokens), "count"),
            ("gen_tests", float(self.PATHS_PER_WORKER * self.GEN_WORKERS), "count"),
        ]


WORKLOADS = {
    "swarm_verify": SwarmVerify,
    "scenario_runs": ScenarioRuns,
    "swarm_toolchain": SwarmToolchain,
}

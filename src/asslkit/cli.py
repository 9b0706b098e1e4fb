"""Command-line entry point: check, run, verify, gentests, graph.

Exit codes: 0 on success, 1 when the tool worked but the answer is negative
(diagnostic errors, a violated or inconclusive property, an aborted run),
2 on usage errors, 3 on internal errors. Diagnostics print one per line as
``file:line:col: severity CODE: message``; ASSLKIT_COLOR={auto,always,never}
controls severity coloring.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import cache
from pathlib import Path

from . import __version__
from .checker import CheckedSpec, Diagnostic, check_all
from .lexer import tokenize
from .names import NameResolutionError, qual
from .parser import ParseError, parse
from .runtime import Runtime, ScenarioError, parse_scenario
from .testgen import generate_all, impact, policy_keys, regenerate, write_suite
from .tokens import LexError
from .verifier import (
    Bounds,
    HOLDS,
    INCONCLUSIVE,
    PropertyError,
    Tick,
    VIOLATED,
    build_lts,
    check,
    default_env,
    explain,
    lts_lines,
    parse_env_stimulus,
    parse_property_file,
)

OK = 0
NEGATIVE = 1
USAGE = 2
INTERNAL = 3


class _CliFailure(Exception):
    def __init__(self, code: int, message: str = "") -> None:
        super().__init__(message)
        self.code = code
        self.message = message


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except _CliFailure as failure:
        if failure.message:
            print(failure.message, file=sys.stderr)
        return failure.code
    except BrokenPipeError:
        return OK
    except Exception as err:  # noqa: BLE001 - the CLI boundary
        print(f"internal error: {err}", file=sys.stderr)
        return INTERNAL


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use and shared by every ``main`` call.
    Parsing leaves it as it was: each call gets a new namespace, and the
    repeatable flags copy their default list before they append to it."""
    return build_parser()


def build_parser() -> argparse.ArgumentParser:
    """The argument parser. ``main`` runs the ``cmd_<command>`` function of
    this module for the subcommand given, looked up when it is called."""
    parser = argparse.ArgumentParser(
        prog="asslkit",
        description=(
            "Toolchain for autonomic-system specifications: consistency"
            " checking, deterministic policy simulation, bounded temporal"
            " verification, and policy test-suite generation."
        ),
    )
    parser.add_argument("--version", action="version", version=f"asslkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="parse and consistency-check a specification")
    p_check.add_argument("path", help="specification file (.assl)")

    p_run = sub.add_parser("run", help="run a scenario in the simulated runtime")
    p_run.add_argument("path", help="specification file (.assl)")
    p_run.add_argument("--scenario", required=True, help="scenario file")
    p_run.add_argument("--seed", type=int, default=0, help="runtime seed (default 0)")
    p_run.add_argument(
        "--max-ticks", type=int, default=1000, help="tick budget (default 1000)"
    )
    p_run.add_argument("--trace", help="write the trace to this file")

    p_verify = sub.add_parser("verify", help="check temporal properties over the state graph")
    p_verify.add_argument("path", help="specification file (.assl)")
    p_verify.add_argument("--prop", required=True, help="property file, one property per line")
    _bound_flags(p_verify)
    p_verify.add_argument("--cex", help="write the first counterexample scenario here")
    _env_flags(p_verify)

    p_gen = sub.add_parser("gentests", help="generate a path-coverage test suite")
    p_gen.add_argument("path", help="specification file (.assl)")
    p_gen.add_argument("--out", required=True, help="output directory for the suite")
    p_gen.add_argument(
        "--since", help="previous specification; regenerate only impacted policies"
    )

    p_graph = sub.add_parser("graph", help="export the state graph in text form")
    p_graph.add_argument("path", help="specification file (.assl)")
    p_graph.add_argument("--out", required=True, help="output file for the graph")
    _bound_flags(p_graph)
    _env_flags(p_graph)
    return parser


def _bound_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--bound-states", type=int, default=100_000, help="state bound (default 100000)"
    )
    sub.add_argument(
        "--bound-depth", type=int, default=10_000, help="depth bound (default 10000)"
    )


def _env_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--inject", action="append", default=[], metavar="EVENT",
        help="environment stimulus: inject this event (repeatable)",
    )
    sub.add_argument(
        "--set", action="append", default=[], metavar="METRIC=VALUE",
        help="environment stimulus: set this metric (repeatable)",
    )
    sub.add_argument(
        "--send", action="append", default=[], metavar="MESSAGE@CHANNEL",
        help="environment stimulus: send this message (repeatable)",
    )
    sub.add_argument(
        "--no-tick", action="store_true",
        help="exclude the clock-advance stimulus from the environment",
    )


# --------------------------------------------------------------------------


def _read_file(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise _CliFailure(USAGE, f"cannot read {path}: {err.strerror}") from None
    except UnicodeDecodeError as err:
        raise _CliFailure(USAGE, f"cannot read {path}: {err}") from None


def _use_color() -> bool:
    mode = os.environ.get("ASSLKIT_COLOR", "auto")
    if mode == "always":
        return True
    if mode == "never":
        return False
    return sys.stdout.isatty()


def _print_diagnostic(diag: Diagnostic) -> None:
    line = diag.render()
    if _use_color():
        color = "\x1b[31m" if diag.severity == "error" else "\x1b[33m"
        line = line.replace(diag.severity, f"{color}{diag.severity}\x1b[0m", 1)
    print(line)


def _write_lines(path: str, what: str, lines) -> None:
    try:
        with open(path, "w", encoding="utf-8") as out:
            out.writelines(lines)
    except OSError as err:
        raise _CliFailure(USAGE, f"cannot write {what} to {path}: {err}") from None


def _bounds(args: argparse.Namespace) -> Bounds:
    if args.bound_states < 1:
        raise _CliFailure(USAGE, "--bound-states must be at least 1")
    if args.bound_depth < 0:
        raise _CliFailure(USAGE, "--bound-depth must be at least 0")
    return Bounds(max_states=args.bound_states, max_depth=args.bound_depth)


def _load_checked(path: str) -> CheckedSpec:
    """Parse and check; print diagnostics and fail when errors remain."""
    source = _read_file(path)
    try:
        tree = parse(tokenize(source, path), path)
    except LexError as err:
        _print_diagnostic(Diagnostic("E-LEX", err.message, err.span))
        raise _CliFailure(NEGATIVE) from None
    except ParseError as err:
        for sub_err in err.errors:
            _print_diagnostic(Diagnostic("E-PARSE", sub_err.message, sub_err.span))
        raise _CliFailure(NEGATIVE) from None
    spec = check_all(tree)
    for diag in spec.diagnostics:
        _print_diagnostic(diag)
    if not spec.ok:
        raise _CliFailure(NEGATIVE)
    return spec


def cmd_check(args: argparse.Namespace) -> int:
    _load_checked(args.path)
    return OK


def cmd_run(args: argparse.Namespace) -> int:
    if args.max_ticks < 1:
        raise _CliFailure(USAGE, "--max-ticks must be at least 1")
    spec = _load_checked(args.path)
    try:
        scenario = parse_scenario(
            _read_file(args.scenario), spec, Path(args.scenario).stem
        )
    except ScenarioError as err:
        raise _CliFailure(USAGE, str(err)) from None
    runtime = Runtime(spec, seed=args.seed)
    trace = runtime.run(scenario, max_ticks=args.max_ticks)
    if args.trace:
        _write_lines(args.trace, "trace", [trace.to_text()])
    summary = trace.summary()
    print(f"ticks: {summary['ticks']}")
    print(
        f"events: {summary['events_raised']} raised,"
        f" {summary['events_suppressed']} suppressed"
    )
    print(
        f"fluents: {summary['fluents_initiated']} initiated,"
        f" {summary['fluents_terminated']} terminated"
    )
    print(f"records: {summary['records']}")
    if trace.aborted is not None:
        print(f"aborted: {trace.aborted}")
        return NEGATIVE
    return OK


def _environment(args: argparse.Namespace, spec: CheckedSpec):
    def stimulus(flag: str, text: str):
        try:
            return parse_env_stimulus(spec, text)
        except (ScenarioError, NameResolutionError) as err:
            raise _CliFailure(USAGE, f"{flag}: {err}") from None

    stimuli = [stimulus(f"--inject {event}", f"inject {event}") for event in args.inject]
    for setting in args.set:
        metric, sep, value = setting.partition("=")
        if not sep:
            raise _CliFailure(USAGE, f"--set needs METRIC=VALUE, got {setting!r}")
        stimuli.append(stimulus(f"--set {setting}", f"set {metric} {value}"))
    for sending in args.send:
        message, sep, channel = sending.partition("@")
        if not sep:
            raise _CliFailure(USAGE, f"--send needs MESSAGE@CHANNEL, got {sending!r}")
        stimuli.append(stimulus(f"--send {sending}", f"send {message} {channel}"))
    if not stimuli:  # the declared injectable events
        stimuli = [stim for stim in default_env(spec) if not isinstance(stim, Tick)]
    if not args.no_tick:
        stimuli += [stim for stim in default_env(spec) if isinstance(stim, Tick)]
    return tuple(stimuli)


def cmd_verify(args: argparse.Namespace) -> int:
    bounds = _bounds(args)
    spec = _load_checked(args.path)
    try:
        props = parse_property_file(_read_file(args.prop), spec)
    except PropertyError as err:
        raise _CliFailure(USAGE, f"{args.prop}: {err}") from None
    if not props:
        raise _CliFailure(USAGE, f"{args.prop}: no properties found")
    lts = build_lts(spec, env=_environment(args, spec), bounds=bounds)
    all_hold = True
    cex_written = False
    for prop in props:
        verdict = check(lts, prop)
        print(f"{verdict.result}: {prop.text}")
        if verdict.result != HOLDS:
            all_hold = False
        if verdict.result == INCONCLUSIVE and verdict.note:
            print(f"  note: {verdict.note}")
        if verdict.result == VIOLATED and verdict.counterexample is not None:
            text, scenario = explain(spec, lts, verdict)
            for line in text.rstrip("\n").splitlines():
                print(f"  {line}")
            if args.cex and not cex_written:
                if verdict.counterexample.kind == "livelock":
                    print(
                        "  no counterexample scenario written: the path ends in an"
                        " event-cascade livelock, which a run aborts"
                    )
                    continue
                _write_lines(args.cex, "counterexample", [scenario.render()])
                cex_written = True
                print(f"  counterexample scenario written to {args.cex}")
    return OK if all_hold else NEGATIVE


def cmd_gentests(args: argparse.Namespace) -> int:
    spec = _load_checked(args.path)
    out_dir = Path(args.out)
    if args.since:
        old_spec = _load_checked(args.since)
        old_suite = generate_all(old_spec)
        suite = regenerate(old_suite, old_spec, spec)
        impacted = impact(old_spec, spec)  # what ``regenerate`` regenerated
        regenerated = [qual(key) for key in policy_keys(spec) if impacted.affects(key)]
        print(f"regenerated: {len(regenerated)} policies"
              + (f" ({', '.join(sorted(regenerated))})" if regenerated else ""))
    else:
        suite = generate_all(spec)
    for policy in policy_keys(spec):
        tests = suite.for_policy(policy)
        infeasible = [i for i in suite.infeasible if i.path.policy == policy]
        print(
            f"policy {qual(policy)}: {len(tests) + len(infeasible)} paths,"
            f" {len(tests)} feasible, {len(infeasible)} infeasible"
        )
        for entry in infeasible:
            print(f"  infeasible: {entry.path.describe()} ({entry.reason})")
    for warning in suite.warnings:
        print(f"warning: {warning}")
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        written = write_suite(suite, out_dir)
    except OSError as err:
        raise _CliFailure(USAGE, f"cannot write suite to {out_dir}: {err}") from None
    print(f"wrote {len(written)} files to {out_dir}")
    return OK


def cmd_graph(args: argparse.Namespace) -> int:
    bounds = _bounds(args)
    spec = _load_checked(args.path)
    lts = build_lts(spec, env=_environment(args, spec), bounds=bounds)
    _write_lines(args.out, "graph", lts_lines(lts))
    print(
        f"states: {lts.state_count}, edges: {lts.edge_count},"
        f" truncated: {'yes' if lts.truncated else 'no'}"
    )
    return OK


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

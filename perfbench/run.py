"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload swarm_verify --seed 1 --seconds 30 --trace 0

The program under test is imported from ``src/`` next to this directory,
never from an installed copy. With ``--trace 0`` the last line of standard
output is a JSON object with the end-to-end metrics; with ``--trace 1`` it
holds the per-layer metrics of a traced run. Lines before it print every
metric by name and unit, plus each workload's own leg metrics.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402 - the clock starts before any import
import faulthandler  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

WORKLOADS = ("swarm_verify", "scenario_runs", "swarm_toolchain")
# End-to-end metrics of an untraced run: name -> unit.
END_TO_END = {"round_refs": "refs", "peak_rss_mb": "MB", "setup_s": "s"}
SETUP_REPEATS = 4  # before the rounds, and as many after them
# Stop starting ops after this long, so a run ends well within 180 s even
# when ops hang until their deadlines.
HARD_LIMIT_S = 140.0
# Set-up has no deadlines; if it hangs, the process exits with code 1.
WATCHDOG_S = 170.0

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"


def _arguments(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _fresh_import():
    """Import asslkit and the workloads anew; returns (workloads module, import seconds)."""
    for name in list(sys.modules):
        if name in ("asslkit", "perfbench") or name.startswith(("asslkit.", "perfbench.")):
            del sys.modules[name]
    start = time.perf_counter()
    asslkit_cli = importlib.import_module("asslkit.cli")
    import_s = time.perf_counter() - start
    if not Path(asslkit_cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"asslkit was imported from {asslkit_cli.__file__}, not {SRC}")
    return importlib.import_module("perfbench.workloads"), import_s


def _set_up(args, scratch: Path):
    """One set-up: fresh imports, then the workload's inputs and warm-up."""
    gc.collect()  # garbage left by an earlier set-up is not set-up work
    workloads, imported = _fresh_import()
    return workloads.WORKLOADS[args.workload](args.seed, scratch), imported


def _measure(workload, log, seconds: float, budget) -> list[list[tuple[float, float]]]:
    """Run rounds while another one fits in ``seconds``.

    Returns each round's ops as (op seconds, reference seconds) pairs. At
    least one round runs. Whether the next round fits is judged by the
    longest wall time of a round so far, output checks included.
    """
    start = time.perf_counter()
    rounds, longest = [], 0.0
    while not rounds or (
        time.perf_counter() - start + longest <= seconds and budget() > longest
    ):
        began = time.perf_counter()
        first = len(log.times)
        workload.round(log, budget)
        rounds.append(list(zip(log.times[first:], log.refs[first:])))
        longest = max(longest, time.perf_counter() - began)
    return rounds


def _round_refs(rounds: list[list[tuple[float, float]]]) -> float:
    """Median over rounds of a round's op time in reference loops.

    Each op's time is divided by the reference time around it, then the
    round's ops are summed. Rounds cut short by the run's budget are left out.
    """
    ops = max(map(len, rounds))
    return statistics.median(
        sum(op / ref for op, ref in r) for r in rounds if len(r) == ops
    )


def _bytes_per_state(tracer, budget) -> float:
    """tracemalloc peak while rebuilding the run's largest state graph, per state."""
    if tracer.largest_build is None:
        return 0.0
    states, build_s, args, kwargs = tracer.largest_build
    build_lts = importlib.import_module("asslkit.verifier.lts").build_lts
    if budget() < 6 * build_s:  # tracemalloc slows allocation-heavy code about 4x
        print("note: no time left to measure bytes_per_state", flush=True)
        return 0.0
    tracemalloc.start()
    try:
        build_lts(*args, **kwargs)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / states


def main(argv=None) -> int:
    args = _arguments(argv)
    faulthandler.dump_traceback_later(WATCHDOG_S - (time.perf_counter() - PROCESS_START), exit=True)
    if not (SRC / "asslkit" / "__init__.py").is_file():
        print(f"perfbench: no asslkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        return _run(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _run(args, scratch: Path) -> int:
    hard_end = PROCESS_START + HARD_LIMIT_S

    def budget() -> float:
        return hard_end - time.perf_counter()

    # Set-up: import, input generation and warm-up, repeated before the
    # rounds and again after them, so that its median samples the machine at
    # both ends of the run. The first repeat counts from process start.
    setup_s, import_s = [], []
    try:
        for repeat in range(SETUP_REPEATS):
            start = PROCESS_START if repeat == 0 else time.perf_counter()
            workload, imported = _set_up(args, scratch)
            setup_s.append(time.perf_counter() - start)
            import_s.append(imported)
    except ImportError as err:
        print(f"perfbench: cannot import asslkit: {err}", file=sys.stderr)
        return 2
    ops = importlib.import_module("perfbench.ops")
    log = ops.OpLog()

    if args.trace == 0:
        rounds = _measure(workload, log, args.seconds, budget)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        for _repeat in range(SETUP_REPEATS):
            start = time.perf_counter()
            _set_up(args, scratch)
            setup_s.append(time.perf_counter() - start)
        values = {
            "round_refs": _round_refs(rounds),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(setup_s),
        }
        metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
        totals = [sum(op for op, _ref in r) for r in rounds]
        print(f"{args.workload} rounds: {' '.join(f'{t:.4f}' for t in totals)} s")
        print(f"{args.workload} round median: {statistics.median(totals):.6g} s,"
              f" min {min(totals):.6g} s, max {max(totals):.6g} s,"
              f" of {len(rounds)} rounds of {len(rounds[0])} ops")
        print(f"{args.workload} set-ups: {' '.join(f'{r:.4f}' for r in setup_s)} s")
    else:
        tracer_mod = importlib.import_module("perfbench.tracer")
        untraced = _measure(workload, log, args.seconds / 3, budget)
        tracer = tracer_mod.Tracer()
        tracer.install()
        log.tracer = tracer
        try:
            traced = _measure(workload, log, args.seconds * 2 / 3, budget)
        finally:
            log.tracer = None
            tracer.uninstall()
        layer = tracer.metrics(len(traced))
        layer["verifier.lts.bytes_per_state"] = _bytes_per_state(tracer, budget)
        layer["cli.import_s"] = statistics.median(import_s)
        layer["trace.overhead"] = _round_refs(traced) / _round_refs(untraced) - 1
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.bin"
        tracer.write(spans_path)
        print(f"spans: {len(tracer.start)} written to {spans_path}")
        metrics = {name: (layer[name], unit) for name, (unit, _better) in tracer_mod.PER_LAYER.items()}

    legs = workload.legs(log) if args.trace == 0 else []
    error_rate = log.failed / log.attempted
    for name, value, unit in legs + [("error_rate", error_rate, "ratio")]:
        print(f"{args.workload} {name}: {value:.6g} {unit}")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name}: {value:.6g} {unit}")
    for failure in log.failures:
        print(f"failed: {failure}")
    result = {
        "correct": log.failed == 0,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

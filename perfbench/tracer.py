"""Spans around the public functions of each asslkit layer, from outside.

``Tracer.install`` replaces each listed function or method with a wrapper
that records one span per call: name, start, end and parent span. Spans are
kept in memory in flat arrays and written out at the end of the run. The
program's own code is not changed; a wrapped function is replaced wherever
an asslkit or perfbench module holds a reference to it.

A span's self time is its duration minus the durations of its direct child
spans; a layer's self time is the sum over its spans.
"""

from __future__ import annotations

import gc
import importlib
import json
import sys
import time
from array import array
from pathlib import Path

# (layer, module, function or Class.method). The layer is the module that
# owns the function; the runtime methods are also the verifier's inner loop.
TARGETS = (
    ("lexer", "asslkit.lexer", "tokenize"),
    ("parser", "asslkit.parser", "parse"),
    ("parser", "asslkit.parser", "parse_text"),
    ("checker", "asslkit.checker", "check_all"),
    ("printer", "asslkit.printer", "pretty_print"),
    ("printer", "asslkit.printer", "format_expr"),
    ("runtime", "asslkit.runtime.engine", "Runtime.run"),
    ("runtime", "asslkit.runtime.engine", "Runtime.step"),
    ("runtime", "asslkit.runtime.engine", "Runtime.advance_tick"),
    ("runtime", "asslkit.runtime.engine", "Runtime.apply_stimulus"),
    ("runtime", "asslkit.runtime.state", "RuntimeState.copy"),
    ("runtime", "asslkit.runtime.state", "Trace.to_text"),
    ("runtime", "asslkit.runtime.scenario", "parse_scenario"),
    ("verifier.lts", "asslkit.verifier.lts", "build_lts"),
    ("verifier.lts", "asslkit.verifier.lts", "lts_to_text"),
    ("verifier.lts", "asslkit.verifier.lts", "Layout.vector"),
    ("verifier.lts", "asslkit.verifier.lts", "default_env"),
    ("verifier.mc", "asslkit.verifier.mc", "check"),
    ("verifier.mc", "asslkit.verifier.mc", "explain"),
    ("verifier.mc", "asslkit.verifier.mc", "replay_counterexample"),
    ("verifier.mc", "asslkit.verifier.mc", "parse_env_stimulus"),
    ("verifier.props", "asslkit.verifier.props", "parse_property"),
    ("verifier.props", "asslkit.verifier.props", "parse_property_file"),
    ("testgen", "asslkit.testgen", "generate_all"),
    ("testgen", "asslkit.testgen", "generate"),
    ("testgen", "asslkit.testgen", "enumerate_paths"),
    ("testgen", "asslkit.testgen", "regenerate"),
    ("testgen", "asslkit.testgen", "impact"),
    ("testgen", "asslkit.testgen", "run_suite"),
    ("testgen", "asslkit.testgen", "write_suite"),
    ("cli", "asslkit.cli", "main"),
)

# Calls whose spans set the context of the calls nested in them.
_CONTEXTS = ("build_lts", "Runtime.run", "generate_all", "regenerate")

LAYERS = (
    "lexer", "parser", "checker", "printer", "runtime",
    "verifier.lts", "verifier.mc", "verifier.props", "testgen", "cli",
)

# Property shape -> metric name stem.
SHAPES = {"G": "G", "F": "F", "G->F": "G_F", "G->X": "G_X", "U": "U"}

# Every per-layer metric of a traced run: name -> (unit, which way is better).
# Times and counts are per traced round; rates are totals over totals.
PER_LAYER = {
    "lexer.tokens_per_s": ("tokens/s", "higher"),
    "parser.tokens_per_s": ("tokens/s", "higher"),
    "checker.s": ("s", "lower"),
    "printer.s": ("s", "lower"),
    "runtime.events_per_s": ("events/s", "higher"),
    "runtime.records_per_s": ("records/s", "higher"),
    "runtime.advance_tick_s": ("s", "lower"),
    "runtime.to_text_s": ("s", "lower"),
    "verifier.lts.step_s": ("s", "lower"),
    "verifier.lts.copy_s": ("s", "lower"),
    "verifier.lts.vector_s": ("s", "lower"),
    "verifier.lts.build_s": ("s", "lower"),
    "verifier.lts.states": ("count", "lower"),
    "verifier.lts.edges": ("count", "lower"),
    "verifier.lts.states_per_s": ("states/s", "higher"),
    "verifier.lts.bytes_per_state": ("B/state", "lower"),
    "verifier.lts.truncated": ("count", "lower"),
    "verifier.lts_to_text_s": ("s", "lower"),
    **{f"verifier.mc.{stem}_s": ("s", "lower") for stem in SHAPES.values()},
    "verifier.mc.explain_s": ("s", "lower"),
    "verifier.mc.replay_s": ("s", "lower"),
    "verifier.props.parse_s": ("s", "lower"),
    "gc.s": ("s", "lower"),
    "gc.gen2_collections": ("count", "lower"),
    "testgen.paths": ("count", "lower"),
    "testgen.tests": ("count", "higher"),
    "testgen.infeasible": ("count", "lower"),
    "testgen.runs": ("count", "lower"),
    "testgen.tests_per_run": ("ratio", "higher"),
    "testgen.enumerate_s": ("s", "lower"),
    "testgen.impact_s": ("s", "lower"),
    "testgen.regenerated_policies": ("count", "lower"),
    "testgen.run_suite_s": ("s", "lower"),
    "cli.import_s": ("s", "lower"),
    **{f"self.{layer}_s": ("s", "lower") for layer in LAYERS},
    "self.bench_s": ("s", "lower"),
    "trace.coverage": ("ratio", "higher"),
    "trace.spans": ("count", "lower"),
    "trace.overhead": ("ratio", "lower"),
}


class Tracer:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.values: dict[int, object] = {}  # span index -> counts taken from its result
        self.largest_build: tuple[int, float, tuple, dict] | None = None
        self.gc_s = 0.0
        self.gc_gen2 = 0
        self._gc_start = 0.0
        self._undo: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- op spans, opened by the benchmark itself ---------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name_of.append(self.name_id(name))
        self.parent.append(self.stack[-1])
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.stack.append(idx)
        return idx

    def close_op(self, idx: int) -> None:
        """End a top-level op span, and any span an interrupted op left open."""
        now = time.perf_counter()
        for open_idx in self.stack[1:]:
            if self.end[open_idx] == 0.0:
                self.end[open_idx] = now
        self.end[idx] = now
        self.stack[1:] = []

    # -- wrappers ---------------------------------------------------------------------

    def _wrap(self, fn, name: str, after=None, namer=None):
        name_id = self.name_id(name)
        names, parents, starts, ends, stack = (
            self.name_of, self.parent, self.start, self.end, self.stack,
        )
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(namer(args) if namer is not None else name_id)
            parents.append(stack[-1])
            starts.append(clock())
            ends.append(0.0)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(idx, result, args, kwargs)
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def _after_hooks(self):
        values = self.values

        def tokens(idx, result, args, kwargs):
            values[idx] = len(result)

        def parsed(idx, result, args, kwargs):
            values[idx] = len(args[0])

        def run(idx, result, args, kwargs):
            summary = result.summary()
            values[idx] = (
                summary["events_raised"] + summary["events_suppressed"], summary["records"]
            )

        def built(idx, result, args, kwargs):
            values[idx] = (result.state_count, result.edge_count, int(result.truncated))
            if self.largest_build is None or result.state_count > self.largest_build[0]:
                seconds = self.end[idx] - self.start[idx]
                self.largest_build = (result.state_count, seconds, args, kwargs)

        def suite(idx, result, args, kwargs):
            values[idx] = (len(result.tests), len(result.infeasible))

        def paths(idx, result, args, kwargs):
            values[idx] = len(result.paths)

        return {
            "tokenize": tokens, "parse": parsed, "Runtime.run": run,
            "build_lts": built, "generate_all": suite, "enumerate_paths": paths,
        }

    def install(self) -> None:
        hooks = self._after_hooks()
        shape_ids = {
            shape: self.name_id(f"verifier.mc:check[{shape}]") for shape in SHAPES
        }
        for layer, module_name, qualname in TARGETS:
            module = importlib.import_module(module_name)
            namer = None
            if qualname == "check":
                def namer(args, _ids=shape_ids):
                    return _ids[args[1].shape]
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[attr]
                wrapper = self._wrap(original, f"{layer}:{qualname}", hooks.get(qualname), namer)
                self._undo.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            original = getattr(module, qualname)
            wrapper = self._wrap(original, f"{layer}:{qualname}", hooks.get(qualname), namer)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not mod_name.startswith(("asslkit", "perfbench")):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_s += time.perf_counter() - self._gc_start
            if info.get("generation") == 2:
                self.gc_gen2 += 1

    # -- analysis -----------------------------------------------------------------------

    def write(self, path: Path) -> None:
        """Spans as four little-endian column arrays plus a JSON header."""
        header = {
            "names": self.names,
            "spans": len(self.start),
            "columns": [["name", "i32"], ["parent", "i32"], ["start_s", "f64"], ["end_s", "f64"]],
        }
        with open(path, "wb") as out:
            blob = json.dumps(header).encode()
            out.write(len(blob).to_bytes(4, "little"))
            out.write(blob)
            for column in (self.name_of, self.parent, self.start, self.end):
                if sys.byteorder != "little":
                    column = array(column.typecode, column)
                    column.byteswap()
                column.tofile(out)

    def metrics(self, rounds: int) -> dict[str, float]:
        """Per-layer metrics, as totals per traced round or as rates."""
        n = len(self.start)
        names = self.names
        name_of, parent = self.name_of, self.parent
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        ctx = [""] * n
        for i in range(n):
            p = parent[i]
            short = names[name_of[i]].split(":", 1)[-1]
            if p >= 0:
                child[p] += dur[i]
            ctx[i] = short if short in _CONTEXTS else (ctx[p] if p >= 0 else "")

        total: dict[str, float] = {}
        calls: dict[str, int] = {}
        under: dict[tuple[str, str], float] = {}
        layer_self = {layer: 0.0 for layer in LAYERS}
        bench_self = 0.0
        op_time = 0.0
        for i in range(n):
            name = names[name_of[i]]
            layer, short = name.split(":", 1)
            total[short] = total.get(short, 0.0) + dur[i]
            calls[short] = calls.get(short, 0) + 1
            outer = ctx[parent[i]] if parent[i] >= 0 else ""
            under[(short, outer)] = under.get((short, outer), 0.0) + dur[i]
            self_time = dur[i] - child[i]
            if layer == "op":
                bench_self += self_time
                op_time += dur[i]
            else:
                layer_self[layer] += self_time

        def sum_values(short: str, outer: str | None = None, pick=lambda v: v) -> float:
            out = 0.0
            for i, value in self.values.items():
                if names[name_of[i]].split(":", 1)[-1] != short:
                    continue
                if outer is not None and (parent[i] < 0 or ctx[parent[i]] != outer):
                    continue
                out += pick(value)
            return out

        def rate(amount: float, seconds: float) -> float:
            return amount / seconds if seconds > 0 else 0.0

        def count_under(short: str, outer: str) -> int:
            return sum(
                1 for i in range(n)
                if names[name_of[i]].endswith(":" + short)
                and parent[i] >= 0 and ctx[parent[i]] == outer
            )

        per = 1.0 / max(rounds, 1)
        steps = ("Runtime.step", "Runtime.advance_tick", "Runtime.apply_stimulus")
        states = sum_values("build_lts", pick=lambda v: v[0])
        tests = sum_values("generate_all", pick=lambda v: v[0])
        runs = count_under("Runtime.run", "generate_all")
        out = {
            "lexer.tokens_per_s": rate(sum_values("tokenize"), total.get("tokenize", 0.0)),
            "parser.tokens_per_s": rate(sum_values("parse"), total.get("parse", 0.0)),
            "checker.s": layer_self["checker"] * per,
            "printer.s": layer_self["printer"] * per,
            "runtime.events_per_s": rate(
                sum_values("Runtime.run", pick=lambda v: v[0]), total.get("Runtime.run", 0.0)
            ),
            "runtime.records_per_s": rate(
                sum_values("Runtime.run", pick=lambda v: v[1]), total.get("Runtime.run", 0.0)
            ),
            "runtime.advance_tick_s": under.get(("Runtime.advance_tick", "Runtime.run"), 0.0) * per,
            "runtime.to_text_s": total.get("Trace.to_text", 0.0) * per,
            "verifier.lts.step_s": sum(under.get((s, "build_lts"), 0.0) for s in steps) * per,
            "verifier.lts.copy_s": under.get(("RuntimeState.copy", "build_lts"), 0.0) * per,
            "verifier.lts.vector_s": under.get(("Layout.vector", "build_lts"), 0.0) * per,
            "verifier.lts.build_s": total.get("build_lts", 0.0) * per,
            "verifier.lts.states": states * per,
            "verifier.lts.edges": sum_values("build_lts", pick=lambda v: v[1]) * per,
            "verifier.lts.states_per_s": rate(states, total.get("build_lts", 0.0)),
            "verifier.lts.truncated": sum_values("build_lts", pick=lambda v: v[2]) * per,
            "verifier.lts_to_text_s": total.get("lts_to_text", 0.0) * per,
        }
        for shape, stem in SHAPES.items():
            out[f"verifier.mc.{stem}_s"] = total.get(f"check[{shape}]", 0.0) * per
        out.update({
            "verifier.mc.explain_s": total.get("explain", 0.0) * per,
            "verifier.mc.replay_s": total.get("replay_counterexample", 0.0) * per,
            "verifier.props.parse_s": layer_self["verifier.props"] * per,
            "gc.s": self.gc_s * per,
            "gc.gen2_collections": self.gc_gen2 * per,
            "testgen.paths": sum_values("enumerate_paths", "generate_all") * per,
            "testgen.tests": tests * per,
            "testgen.infeasible": sum_values("generate_all", pick=lambda v: v[1]) * per,
            "testgen.runs": runs * per,
            "testgen.tests_per_run": tests / runs if runs else 0.0,
            "testgen.enumerate_s": total.get("enumerate_paths", 0.0) * per,
            "testgen.impact_s": total.get("impact", 0.0) * per,
            "testgen.regenerated_policies": count_under("generate", "regenerate") * per,
            "testgen.run_suite_s": total.get("run_suite", 0.0) * per,
        })
        for layer in LAYERS:
            out[f"self.{layer}_s"] = layer_self[layer] * per
        out["self.bench_s"] = bench_self * per
        out["trace.coverage"] = 1.0 - bench_self / op_time if op_time > 0 else 0.0
        out["trace.spans"] = n * per
        return out

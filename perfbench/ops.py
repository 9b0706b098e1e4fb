"""Timed operations with deadlines and output checks.

Every call into the program that the benchmark times is an op. An op fails
when it raises, when its output check reports a problem, or when it passes
its deadline. Failures are counted, not fatal: the run continues.

Deadlines use ``SIGALRM``, so they interrupt pure-Python loops such as a
``Runtime.drain`` that never empties its queue; they work in the main thread
only, which is where the benchmark runs.

Right before and right after each op, untimed for the op, the log times a
fixed reference loop of the benchmark's own. Other tenants of a shared host
slow the op and the loop alike for spells of seconds, so op time over
reference time reads nearly the same in a slow spell and in a fast one.
"""

from __future__ import annotations

import gc
import signal
import time
from dataclasses import dataclass, field
from typing import Callable


class DeadlineExceeded(BaseException):
    """Raised inside an op that ran past its deadline.

    A ``BaseException`` so that ``except Exception`` boundaries inside the
    program (such as the CLI's) cannot swallow it.
    """


def _on_alarm(_signum, _frame):
    raise DeadlineExceeded()


REFERENCE_ITERATIONS = 3000  # about 3 ms on the 2-CPU guest the benchmark was built on


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key: str, value: tuple[int, int]) -> None:
        self.key = key
        self.value = value


def _reference_work() -> int:
    """Fixed interpreter work of the program's kind: calls, small objects, dicts, sets, strings."""
    table: dict[str, _Cell] = {}
    seen: set[tuple[int, int]] = set()
    for i in range(REFERENCE_ITERATIONS):
        cell = _Cell(f"k{i % 97}", (i, i & 7))
        table[cell.key] = cell
        seen.add(cell.value)
    return sum(cell.value[0] for cell in table.values()) + len(sorted(seen))


def reference_seconds() -> float:
    """Wall time of the reference loop, with the garbage collector held off.

    A collection of the program's garbage must not land inside the loop.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _reference_work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


@dataclass
class OpLog:
    """Counts, failures, wall times and reference times of the ops of one run."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    seconds: dict[str, list[float]] = field(default_factory=dict)
    times: list[float] = field(default_factory=list)  # every op's time, in run order
    refs: list[float] = field(default_factory=list)  # the mean reference time around each op
    tracer: object | None = None  # a Tracer during the traced part of a run

    def run(
        self,
        kind: str,
        deadline_s: float,
        fn: Callable[[], object],
        check: Callable[[object], list[str]] | None = None,
    ) -> tuple[object | None, float]:
        """Time ``fn()`` under a deadline, then check its result untimed.

        Returns (result, seconds); result is None when the op failed before
        returning one.
        """
        self.attempted += 1
        if deadline_s <= 0:
            self._fail(kind, "no time left in the run's budget")
            return None, 0.0
        ref_before = reference_seconds()
        previous = signal.signal(signal.SIGALRM, _on_alarm)
        result = None
        problem = None
        span = self.tracer.open(f"op:{kind}") if self.tracer is not None else None
        start = time.perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, deadline_s)
            try:
                result = fn()
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except DeadlineExceeded:
            problem = f"passed its {deadline_s:.1f} s deadline"
        except Exception as err:  # noqa: BLE001 - a failing op is counted, not fatal
            problem = f"raised {type(err).__name__}: {err}"
        finally:
            signal.signal(signal.SIGALRM, previous)
        elapsed = time.perf_counter() - start
        if span is not None:
            self.tracer.close_op(span)
        self.refs.append((ref_before + reference_seconds()) / 2)
        self.seconds.setdefault(kind, []).append(elapsed)
        self.times.append(elapsed)
        if problem is None and elapsed > deadline_s:
            problem = f"took {elapsed:.2f} s, past its {deadline_s:.1f} s deadline"
        if problem is None and check is not None:
            problems = check(result)
            if problems:
                problem = "; ".join(problems[:3])
        if problem is not None:
            self._fail(kind, problem)
            return None, elapsed
        return result, elapsed

    def _fail(self, kind: str, problem: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{kind}: {problem}")

"""The closed-loop client: one goal in flight, every answer multiset checked.

The client drives an engine only through the five public ``api`` calls. It
sends the next goal only after ``par_get_answers`` has returned ``None`` for
the previous one. Every goal has a deadline: a goal that overruns it, raises,
or returns a multiset other than the oracle's is counted as failed, and the
engine is freed and created afresh so one bad goal cannot stall the rest.
"""

from __future__ import annotations

import math
import os
import time
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter
from typing import Optional

from layered_or import api
from layered_or.config import EngineOptions
from layered_or.errors import EngineError, GoalError, ProtocolViolation

from machine import engine_peak_rss_mb, engine_processes, stop_leftovers
from spans import SpanLog
from workloads import Workload

POLL_S = 0.0002      # the pause api.par_get_answers takes between pumps in exact mode
BATCH = 1 << 16
WALL_CAP = 3         # once a goal has passed, a phase starts no goal after WALL_CAP x its seconds
SEQ_SHARE = 0.25     # sequential reference passes take at most this share of a phase


class GoalDeadline(Exception):
    pass


@dataclass
class GoalResult:
    goal: str
    wall_s: float
    first_s: Optional[float]
    answers: int
    run_goal_s: float
    get_calls: int
    wait_s: float            # in par_get_answers calls that returned nothing, and the pause after
    error: Optional[str]     # None when the goal returned exactly the oracle's multiset


@dataclass
class Phase:
    results: list[GoalResult] = field(default_factory=list)   # measured goals that passed
    attempted: int = 0
    failed: int = 0
    elapsed_s: float = 0.0      # measured time, less failures, restarts and sequential passes
    lost_s: float = 0.0         # what failed goals and restarts took
    seq_s: dict[str, list[float]] = field(default_factory=dict)   # sequential pass times
    rss_mb: float = 0.0
    trace_kinds: Counter = field(default_factory=Counter)
    errors: list[str] = field(default_factory=list)


class Client:
    """One workload's engine, created, driven and freed through ``api``."""

    def __init__(self, workload: Workload, spans: SpanLog, trace: bool = False):
        self.workload = workload
        self.spans = spans
        self.options = EngineOptions(trace=trace)
        self.engine = None
        self.leftovers_killed = 0
        self._created = 0
        self._goal_ids = 0

    def create(self) -> float:
        self._created += 1
        kind = "traced" if self.options.trace else "plain"
        name = f"bench-{self.workload.name}-{kind}-{os.getpid()}-{self._created}"
        t0 = perf_counter()
        self.engine = api.par_create_parallel_engine(
            name, self.workload.teams(), strategy=self.workload.strategy,
            transport=self.workload.transport, options=self.options)
        t1 = perf_counter()
        self.spans.record("api.create_engine", t0, t1)
        return t1 - t0

    def free(self) -> float:
        procs = engine_processes()
        t0 = perf_counter()
        api.par_free_parallel_engine(self.engine)
        t1 = perf_counter()
        self.spans.record("api.free_engine", t0, t1)
        self.engine = None
        self.leftovers_killed += stop_leftovers(procs)
        return t1 - t0

    def close(self) -> None:
        if self.engine is not None:
            self.free()

    def run_goal(self, goal: str, expected: Counter) -> GoalResult:
        spans = self.spans
        self._goal_ids += 1
        goal_id = self._goal_ids
        span = spans.new_id()
        answers: list = []
        first = None
        calls = 0
        wait = 0.0
        run_goal_s = 0.0
        error = None
        t0 = perf_counter()
        deadline = t0 + self.workload.deadline_s
        try:
            api.par_run_goal(self.engine, goal)
            run_goal_s = perf_counter() - t0
            spans.record("api.run_goal", t0, t0 + run_goal_s, span, goal_id)
            while True:
                c0 = perf_counter()
                if c0 > deadline:
                    raise GoalDeadline(f"still running after {self.workload.deadline_s} s")
                got = api.par_get_answers(self.engine, ("max", BATCH))
                c1 = perf_counter()
                calls += 1
                spans.record("api.get_answers", c0, c1, span, goal_id)
                if got is None:
                    break
                if got[1]:
                    if first is None:
                        first = c1 - t0
                    answers.extend(got[0])
                else:
                    time.sleep(POLL_S)
                    c2 = perf_counter()
                    spans.record("client.wait", c1, c2, span, goal_id)
                    wait += c2 - c0
        except (GoalDeadline, GoalError, EngineError, ProtocolViolation) as exc:
            error = f"{type(exc).__name__}: {exc}"
        end = perf_counter()
        spans.record("goal", t0, end, 0, goal_id, span_id=span)
        if error is None:
            got = Counter(answers)
            if got != expected:
                error = (f"answer multiset differs from the oracle's: "
                         f"{sum(got.values())} answers, {sum(expected.values())} "
                         f"expected, {sum((got - expected).values())} extra, "
                         f"{sum((expected - got).values())} missing")
        return GoalResult(goal, end - t0, first, len(answers), run_goal_s, calls,
                          wait, error)

    def _restart(self) -> None:
        try:
            self.free()
        except (EngineError, OSError):
            pass
        self.create()

    def run_phase(self, goals: list[str], expected: dict[str, Counter],
                  seconds: float, sequential=None, stop_by: float = math.inf) -> Phase:
        """Warm the engine up with one goal, then run goals for ``seconds``.

        The warm-up goal counts as attempted and is checked, but it is not
        timed: freshly forked workers are not the benchmark. Failed goals,
        and the restarts after them, count in ``attempted``/``failed`` but
        not in the measured time, so one stall does not skew every timing.
        No goal starts after ``stop_by`` (a ``perf_counter`` time), which
        bounds the run however many goals fail.

        ``sequential(goal)`` returns the time of one in-process sequential
        pass. After a goal passes, the phase runs it sequentially too while
        those passes stay within ``SEQ_SHARE`` of the time: the host's speed
        drifts within seconds, so the reference for ``speedup`` is sampled
        across the phase rather than once beside it.
        """
        phase = Phase()

        def attempt(goal):
            res = self.run_goal(goal, expected[goal])
            phase.attempted += 1
            if res.error is not None:
                phase.failed += 1
                phase.errors.append(f"{goal}: {res.error}")
                self._restart()
            return res

        if self.engine is None:
            self.create()
        attempt(goals[0])
        if self.options.trace:
            self.engine.trace_events()          # drop the warm-up's events
        start = now = perf_counter()
        seq_total = 0.0
        i = 0
        while (now - start - phase.lost_s - seq_total < seconds
               and (now - start < WALL_CAP * seconds or not phase.results)
               and now < stop_by):
            goal = goals[i % len(goals)]
            i += 1
            engine = self.engine
            t0 = perf_counter()
            res = attempt(goal)
            now = perf_counter()
            if res.error is not None:
                phase.lost_s += now - t0
                continue
            phase.results.append(res)
            if self.options.trace:
                phase.trace_kinds.update(ev[2] for ev in engine.trace_events())
            if sequential is not None and seq_total < SEQ_SHARE * (now - start):
                s0 = perf_counter()
                phase.seq_s.setdefault(goal, []).append(sequential(goal))
                now = perf_counter()
                self.spans.record("engine.run_loop", s0, now)
                seq_total += now - s0
        phase.elapsed_s = now - start - phase.lost_s - seq_total
        phase.rss_mb = engine_peak_rss_mb()
        return phase

"""Stress loop: the c1 goals, many times over, each checked against the oracle.

    PYTHONPATH=src python tests/stress.py --rounds 4 --seed 1
    PYTHONPATH=src python tests/stress.py --kill --rounds 13 --seed 1

Each round runs every c1 goal (``test_acceptance.BENCHMARKS``) on the
topologies ``[2]``, ``[4]``, ``[2,2]`` and ``[1,1,1,1]``, over the inproc and
tcp transports and with ``vs`` and ``hs`` splitting: 96 goal runs, in an
order shuffled by the seed. Every run gets a fresh engine, which is freed
after it. A run is

- *wrong* if its answers are not the oracle's multiset,
- *hung* if the goal has not finished within ``DEADLINE_S``,
- *errored* if creating the engine, running the goal or freeing it raised,
  or if a process of the engine outlived its free.

With ``--kill`` each round runs ``KILL_GOALS`` on ``[2]``, ``[2,2]`` and
``[1,1,1,1]``, over both transports and with both strategies (24 runs), and
SIGKILLs one process of the engine, picked at random, at a random moment up
to ``KILL_WINDOW_S`` into the goal: a master, a teammate, or, in half the
tcp runs, the master of a team hosted by a ``serve-agent`` that the loop
starts itself. Half the runs hold every frame for 0 to 2 ms. A run passes if
it returns the oracle's multiset or raises ``EngineError`` within
``ERROR_WITHIN_S`` of the kill. It is *wrong* if it ends with another answer
set and no error, *hung* if it does neither, and *errored* if it raises
before the kill or later than that, or if a process outlives its free.

The counts are printed at the end; the exit status is 1 if any is not 0.
pytest does not collect this file (its name has no ``test_`` prefix).
"""

from __future__ import annotations

import argparse
import multiprocessing
import os
import random
import signal
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
sys.path.insert(0, SRC)

from conftest import children_of  # noqa: E402
from layered_or import api, oracle  # noqa: E402
from layered_or.config import EngineOptions  # noqa: E402
from layered_or.errors import EngineError  # noqa: E402
from layered_or.programs import get_program  # noqa: E402
from test_acceptance import BENCHMARKS as GOALS  # noqa: E402  (the c1 goals)

TOPOLOGIES = [[2], [4], [2, 2], [1, 1, 1, 1]]
TRANSPORTS = ["inproc", "tcp"]
STRATEGIES = ["vs", "hs"]
# every c1 goal takes well under a second on any topology
DEADLINE_S = 20.0

KILL_TOPOLOGIES = [[2], [2, 2], [1, 1, 1, 1]]
# goals that run longer than the kill window, so that most kills fall while they run
KILL_GOALS = [("queens(12)", "queens", [12]), ("spread(4,16)", "spread", [4, 16])]
KILL_WINDOW_S = 0.2
ERROR_WITHIN_S = 2.0


def run_once(name, teams, transport, strategy, goal, want) -> str:
    """One goal on a fresh engine: "ok", "wrong", "hung" or "errored"."""
    handle = api.par_create_parallel_engine(
        name, [("local", w, "builtin") for w in teams],
        strategy=strategy, transport=transport)
    try:
        api.par_run_goal(handle, goal)
        got = Counter()
        deadline = time.monotonic() + DEADLINE_S
        while time.monotonic() < deadline:
            batch = api.par_get_answers(handle, ("max", 4096))
            if batch is None:
                return "ok" if got == want else "wrong"
            got.update(batch[0])
            if not batch[1]:
                time.sleep(0.001)
        return "hung"
    finally:
        api.par_free_parallel_engine(handle)


def _alive(pid) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] not in ("Z", "X")
    except OSError:
        return False


def _forked_by_agent(agent, before, n) -> list:
    """The pids of the ``n`` processes that the agent forked for a team since
    ``before``, its master first (the agent forks the master first). The
    master can report ready before the agent has forked every teammate."""
    deadline = time.monotonic() + 2.0
    while len(new := sorted(set(children_of(agent.proc.pid)) - before)) < n \
            and time.monotonic() < deadline:
        time.sleep(0.005)
    return new


class Agent:
    """A ``serve-agent`` process of this loop's own, on a free port."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "layered_or.cli", "serve-agent", "--port", "0"],
            stdout=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(
                filter(None, [SRC, os.environ.get("PYTHONPATH")]))))
        self.port = int(self.proc.stdout.readline().rsplit(" ", 1)[1])

    def close(self):
        self.proc.terminate()
        self.proc.wait(timeout=10)
        self.proc.stdout.close()


def run_killed(name, teams, transport, strategy, goal, want, rng, agent) -> tuple[str, str]:
    """One goal on a fresh engine with one of its processes SIGKILLed: the
    outcome, and what was killed ("" if the goal ended first)."""
    spec = [("local", w, "builtin") for w in teams]
    hosted = None
    if transport == "tcp" and rng.random() < 0.5:
        hosted = rng.randrange(len(teams))
        spec[hosted] = (f"127.0.0.1:{agent.port}", teams[hosted], "builtin")
    options = EngineOptions(delay=(rng.randrange(1 << 16), 0.0, 0.002)) \
        if rng.random() < 0.5 else None
    before = set(children_of(agent.proc.pid))
    handle = api.par_create_parallel_engine(name, spec, strategy=strategy,
                                            transport=transport, options=options)
    # the client and the agent fork every process of a team, its master first
    local = iter(handle._procs)
    victims = []
    for team, n in enumerate(teams):
        if team == hosted:
            master, *mates = _forked_by_agent(agent, before, n)
            victims.append((master, "agent-hosted master"))
        else:
            master, *mates = [next(local).pid for _ in range(n)]
            victims.append((master, "master"))
        victims += [(pid, "teammate") for pid in mates]
    engine = [pid for pid, _ in victims]
    victim, role = rng.choice(victims)
    kill_at = time.monotonic() + rng.uniform(0.0, KILL_WINDOW_S)
    killed_at = None
    try:
        api.par_run_goal(handle, goal)
        got = Counter()
        deadline = time.monotonic() + DEADLINE_S
        while True:
            now = time.monotonic()
            if killed_at is None and now >= kill_at:
                os.kill(victim, signal.SIGKILL)
                killed_at = now
            if now > (deadline if killed_at is None else killed_at + ERROR_WITHIN_S):
                outcome = "hung"
                break
            try:
                batch = api.par_get_answers(handle, ("max", 4096))
            except EngineError:
                late = killed_at is None or time.monotonic() - killed_at > ERROR_WITHIN_S
                outcome = "errored" if late else "ok"
                break
            if batch is None:
                outcome = "ok" if got == want else "wrong"
                break
            got.update(batch[0])
            if not batch[1]:
                time.sleep(0.001)
    finally:
        api.par_free_parallel_engine(handle)
    deadline = time.monotonic() + 3.0
    while any(_alive(pid) for pid in engine) and time.monotonic() < deadline:
        time.sleep(0.01)
    if any(_alive(pid) for pid in engine):
        outcome = "errored"
        print(f"{name}: a process outlived its free", flush=True)
        for pid in engine:
            if _alive(pid):
                os.kill(pid, signal.SIGKILL)
    where = "" if killed_at is None else role + (f" of team {hosted}" if role.startswith("agent")
                                                 else "")
    return outcome, where


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--rounds", type=int, default=1)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--kill", action="store_true",
                        help="SIGKILL one engine process in every run")
    args = parser.parse_args(argv)
    rng = random.Random(args.seed)
    goals = KILL_GOALS if args.kill else GOALS
    want = {goal: oracle.enumerate_answers(get_program(prog), a) for goal, prog, a in goals}
    combos = [(teams, transport, strategy, goal)
              for teams in (KILL_TOPOLOGIES if args.kill else TOPOLOGIES)
              for transport in TRANSPORTS
              for strategy in STRATEGIES for goal, _, _ in goals]
    counts = Counter()
    kills = Counter()
    agent = Agent() if args.kill else None
    t0 = time.monotonic()
    try:
        for rnd in range(args.rounds):
            rng.shuffle(combos)
            for i, (teams, transport, strategy, goal) in enumerate(combos):
                label = f"round {rnd} {goal} on {teams} {transport} {strategy}"
                try:
                    if args.kill:
                        outcome, killed = run_killed(f"stress-{rnd}-{i}", teams, transport,
                                                     strategy, goal, want[goal], rng, agent)
                        kills[killed or "nothing (the goal ended first)"] += 1
                        label += f", killed {killed or 'nothing'}"
                    else:
                        outcome = run_once(f"stress-{rnd}-{i}", teams, transport, strategy,
                                           goal, want[goal])
                except Exception as exc:
                    outcome = "errored"
                    print(f"{label}: {type(exc).__name__}: {exc}", flush=True)
                left = multiprocessing.active_children()
                if left:
                    outcome = "errored"
                    print(f"{label}: {len(left)} engine processes outlived the free", flush=True)
                    for proc in left:
                        proc.kill()
                        proc.join(timeout=5.0)
                if outcome in ("wrong", "hung"):
                    print(f"{label}: {outcome}", flush=True)
                counts[outcome] += 1
    finally:
        if agent is not None:
            agent.close()
    runs = sum(counts.values())
    print(f"runs {runs} wrong {counts['wrong']} hung {counts['hung']} "
          f"errored {counts['errored']} in {time.monotonic() - t0:.0f} s (seed {args.seed})")
    if args.kill:
        print("killed: " + ", ".join(f"{what} {n}" for what, n in sorted(kills.items())))
    return 0 if counts["ok"] == runs else 1


if __name__ == "__main__":
    sys.exit(main())

"""Stress loop: the c1 goals, many times over, each checked against the oracle.

    PYTHONPATH=src python tests/stress.py --rounds 4 --seed 1

Each round runs every c1 goal (``test_acceptance.BENCHMARKS``) on the
topologies ``[2]``, ``[4]``, ``[2,2]`` and ``[1,1,1,1]``, over the inproc and
tcp transports and with ``vs`` and ``hs`` splitting: 96 goal runs, in an
order shuffled by the seed. Every run gets a fresh engine, which is freed
after it. A run is

- *wrong* if its answers are not the oracle's multiset,
- *hung* if the goal has not finished within ``DEADLINE_S``,
- *errored* if creating the engine, running the goal or freeing it raised,
  or if a process of the engine outlived its free.

The counts are printed at the end; the exit status is 1 if any is not 0.
pytest does not collect this file (its name has no ``test_`` prefix).
"""

from __future__ import annotations

import argparse
import multiprocessing
import random
import sys
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from layered_or import api, oracle  # noqa: E402
from layered_or.programs import get_program  # noqa: E402
from test_acceptance import BENCHMARKS as GOALS  # noqa: E402  (the c1 goals)

TOPOLOGIES = [[2], [4], [2, 2], [1, 1, 1, 1]]
TRANSPORTS = ["inproc", "tcp"]
STRATEGIES = ["vs", "hs"]
# every c1 goal takes well under a second on any topology
DEADLINE_S = 20.0


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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--rounds", type=int, default=1)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    rng = random.Random(args.seed)
    want = {goal: oracle.enumerate_answers(get_program(prog), a) for goal, prog, a in GOALS}
    combos = [(teams, transport, strategy, goal)
              for teams in TOPOLOGIES for transport in TRANSPORTS
              for strategy in STRATEGIES for goal, _, _ in GOALS]
    counts = Counter()
    t0 = time.monotonic()
    for rnd in range(args.rounds):
        rng.shuffle(combos)
        for i, (teams, transport, strategy, goal) in enumerate(combos):
            label = f"round {rnd} {goal} on {teams} {transport} {strategy}"
            try:
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
    runs = sum(counts.values())
    print(f"runs {runs} wrong {counts['wrong']} hung {counts['hung']} "
          f"errored {counts['errored']} in {time.monotonic() - t0:.0f} s (seed {args.seed})")
    return 0 if counts["ok"] == runs else 1


if __name__ == "__main__":
    sys.exit(main())

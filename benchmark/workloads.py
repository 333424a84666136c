"""The benchmark's workloads: topology, transport and the goals each runs.

Every workload keeps within 2 workers in total, the core count of the
machine the benchmark was defined on. The reasons for each choice are in
README.md next to this file.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import Callable


@dataclass(frozen=True)
class Workload:
    name: str
    topology: tuple[int, ...]           # workers per team
    strategy: str
    transport: str
    make_goals: Callable[[Random], list[str]]
    deadline_s: float                   # a goal still running after this is failed;
                                        # about ten times its normal wall time or more

    def teams(self) -> list[tuple]:
        return [("local", n, "builtin") for n in self.topology]

    def goals(self, seed: int) -> list[str]:
        return self.make_goals(Random(seed))


BURST_TREES = 384


def _burst_goals(rng: Random) -> list[str]:
    seeds = rng.sample(range(1 << 31), BURST_TREES)
    return [f"rand_tree({s},8,4)" for s in seeds]


WORKLOADS = {w.name: w for w in (
    Workload("queens-team", (2,), "vs", "inproc",
             lambda rng: ["queens(11)"], deadline_s=20.0),
    Workload("queens-teams-tcp", (1, 1), "hs", "tcp",
             lambda rng: ["queens(11)"], deadline_s=20.0),
    Workload("answer-stream", (2,), "vs", "inproc",
             lambda rng: ["spread(4,12)"], deadline_s=5.0),
    Workload("goal-burst", (1, 1), "hs", "inproc", _burst_goals, deadline_s=5.0),
)}

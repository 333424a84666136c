"""The team protocol checked over every delivery order up to a depth bound.

The checker runs a whole engine in this process: 3, then 4 teams, team 0
with two workers, every worker over a real ``WorkerState`` and every team
over a real ``TeamShared`` region. Its processes are the drivers of
``worker`` with their I/O replaced: mail and frames go into one FIFO
channel per (sender, receiver, mail or frame), and a worker runs
``STEPS`` engine steps between its service ticks. The decisions are the
cores' of ``protocol``; the drivers' action handlers carry them out.

A transition is one of: a process carries out its pending actions up to and
including the next one that mails or sends; a busy worker runs to its next
tick; or the oldest message of a channel is delivered. The depth-first
search takes every choice up to a depth bound and a seeded random one
beyond it, replaying from the start for each path (stateless model
checking, Godefroid, POPL 1997); hypothesis draws whole schedules, and a
failure shrinks to a short list of choices that replays.

Checked at every state:
- a running worker is flagged busy, and open alternatives in a team's frames
  leave some worker of that team flagged busy;
- a busy team holds credit, and the credit held, in flight and recovered
  sums to exactly 1 while the goal runs;
- once team 0 has ended the goal, no worker runs.

Checked at every terminal state: the client got the oracle's answer
multiset and then one TERMINATE, every other team got one TERMINATE, every
worker parked, and team 0 recovered all credit. A ``ProtocolViolation`` or
any other error fails the path.
"""

import copy
import random
import time
from collections import Counter, deque
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from layered_or import boot, oracle, transport
from layered_or.config import EngineOptions
from layered_or.engine import run_loop
from layered_or.programs import get_program
from layered_or.protocol import (
    ANSWER,
    CLIENT_ID,
    GOAL,
    N_DELEGATE_ACCEPT,
    N_DELEGATE_REFUSE,
    N_DELEGATE_REQUEST,
    N_GOAL_DONE,
    N_HAS_WORK,
    SHARE_ACCEPT,
    SHARE_REFUSE,
    SHARE_REQUEST,
    TERMINATE,
    TeamCore,
    WorkerCore,
)
from layered_or.team import TeamShared
from layered_or.worker import GoalDone, Master, TeamContext, Worker, unpack_answers

STEPS = 6                     # engine steps between two ticks of a simulated worker
MAX_TRANSITIONS = 20_000      # a path this long is a livelock
GOALS = [("queens", [4]), ("spread", [2, 3]), ("rand_tree", [3, 4, 3]),
         ("rand_tree", [5, 4, 3]), ("rand_tree", [11, 5, 3])]


class _Pause(Exception):
    """A simulated worker reached a service tick."""


class _Endpoint(transport.Endpoint):
    """A master's endpoint: frames go, encoded, into the checker's channels."""

    def __init__(self, sim, team):
        super().__init__("checked", team, sim.n_teams)
        self.sim = sim

    def send(self, dest, kind, meta=None, raw=b""):
        self._credit = (meta or {}).get("credit")
        super().send(dest, kind, meta, raw)

    def _transmit(self, dest, frame):
        self.sim.put(self.team_id, "client" if dest == CLIENT_ID else (dest, 0), "frame",
                     (frame, self._credit))


class _Process:
    """A driver whose waits and polls are the checker's transitions."""

    def __init__(self, sim, team, rank):
        shared = copy.copy(sim.shared[team])          # one rank binding per process
        ctx = TeamContext("checked", team, sim.n_teams, sim.topology[team],
                          EngineOptions(), shared, None, None)
        ws = boot._worker_state(shared, team, rank)
        if rank:
            Worker.__init__(self, ctx, ws, rank)
        else:
            Master.__init__(self, ctx, ws, _Endpoint(sim, team))
        self.sim, self.pid = sim, (team, rank)
        self.pending = deque()        # actions not carried out yet
        self.running = False          # it has stacks to run
        self.start_tag = None
        self.turn_due = False         # an idle turn follows its pending actions
        self.check_due = False        # then, at a master, a look at the whole team
        self.terminates = 0           # TERMINATE frames it got

    def _a_mail(self, rank, kind, meta, raw=None):
        self.sim.put(self.pid, (self.pid[0], rank), "mail", (kind, dict(meta), raw))

    def _a_copy(self, meta, then):
        # what follows a copy, such as a flag and a mail, is a step of its own
        self.pending.extendleft(reversed(then(meta, self._copy(meta))))

    def _a_install(self, raw, local):
        super()._a_install(raw, local)
        self.running = True

    def _a_begin(self, meta):
        self._begin_goal(meta)
        if self.rank == 0:
            self.pending.extendleft(reversed(self.team.start(meta)))
            if self.pid == (0, 0):
                self.running, self.start_tag = True, self.ws.program.root_tag
                return
        self._park_on_dead_root()
        self.pending.extend(self.core.idle())
        self.turn_due = True

    # -- transitions ----------------------------------------------------------------
    def act(self):
        try:
            while self.pending:
                name, *args = self.pending.popleft()
                getattr(self, "_a_" + name)(*args)
                if name in ("mail", "send", "answers"):
                    break
        except GoalDone:
            self.pending.clear()
            self.running, self.start_tag = False, None
            self.ws.reset_to_base()
            self.core.start(None)
        self.settle()

    def run(self):
        shared = self.ctx.shared
        try:
            run_loop(self.ws, self._emit, start_tag=self.start_tag,
                     service=self._tick, service_every=STEPS)
        except _Pause:
            self.start_tag = None
            acts = self.core.tick(self.ws.load)
            if self.rank == 0:
                acts += self.team.offer(shared.loads(), shared.idle_flags())
                self._forward_answers(now=True)
            else:
                self._flush_answers()
            self.pending.extend(acts)
            return
        self.start_tag, self.running = None, False
        self._flush_answers()
        self.ws.reset_to_base()
        self.pending.extend(self.core.idle())
        self.turn_due = True
        self.settle()

    def _tick(self):
        raise _Pause

    def feed(self, kind, item):
        if kind == "frame":
            msg = transport.decode_frame(item[0])
            self.terminates += msg.kind == TERMINATE
            acts = self.team.frame(msg.kind, msg.sender, msg.meta, msg.loads, msg.raw)
        elif self.rank == 0 and self.core.goal is None:
            acts = []                 # a parked master drops mail
        else:
            acts = self._core_for(item[0], item[1]).mail(*item)
        self.pending.extend(acts)
        self.turn_due = True
        self.settle()

    def settle(self):
        """Once its actions are done, an idle worker takes an idle turn: as
        ``Worker._acquire_locally`` does, it offers what its team holds (a
        master) and lets its core ask a busy teammate. A master that finds
        none then, once those actions are done, lets its team go idle
        after reading the last answer mail."""
        if self.pending or self.core.goal is None or self.running \
                or self.core.asking is not None:
            return
        shared = self.ctx.shared
        if self.turn_due:
            self.turn_due = False
            self.check_due = self.rank == 0
            if self.rank == 0:
                self.pending.extend(self.team.offer(shared.loads(), shared.idle_flags()))
            self.pending.extend(self.core.seek(shared.loads(), shared.idle_flags()))
            if self.pending:
                return
        if self.check_due and self.core.asking is None:
            self.check_due = False
            if self.team.out_of_work(shared.idle_flags(), shared.public_alts()):
                for kind, meta, raw in self.sim.take_mail(self.pid):
                    self.pending.extend(self._core_for(kind, meta).mail(kind, meta, raw))
                self.pending.extend(self.team.go_idle())


class _Teammate(_Process, Worker):
    pass


class _Master(_Process, Master):
    pass


class Sim:
    """One engine's processes, channels and client, driven transition by transition."""

    def __init__(self, topology, program, args, strategy):
        self.n_teams = len(topology)
        self.topology = topology
        self.shared = [TeamShared(n, n_frames=256) for n in topology]
        self.chans: dict = {}         # (sender, receiver, "mail" or "frame") -> deque
        self.client = []              # frames that reached the client, decoded
        self.procs = {}
        for team, n in enumerate(topology):
            for rank in range(n):
                self.procs[(team, rank)] = (_Teammate if rank else _Master)(self, team, rank)
        self.masters = [self.procs[(t, 0)] for t in range(self.n_teams)]
        meta = {"goal": 1, "program": program, "args": args, "strategy": strategy}
        self.put("client", (0, 0), "frame", (transport.encode_frame(
            GOAL, CLIENT_ID, [], transport.encode_payload(meta)), None))
        self.transitions = 0

    def close(self):
        for shared in self.shared:
            shared.close()

    def put(self, sender, receiver, kind, item):
        if receiver == "client":
            self.client.append(transport.decode_frame(item[0]))
        else:
            self.chans.setdefault((sender, receiver, kind), deque()).append(item)

    def take_mail(self, pid):
        """Every mail that waits for ``pid``, channel by channel."""
        out = []
        for (_, receiver, kind), queue in self.chans.items():
            if receiver == pid and kind == "mail":
                out += queue
                queue.clear()
        return out

    def enabled(self):
        out = []
        for pid, proc in self.procs.items():
            if proc.pending:
                out.append(("act", pid))
            elif proc.running:
                out.append(("run", pid))
        for key, queue in self.chans.items():
            if queue and not self.procs[key[1]].pending:
                out.append(("deliver", key))
        return out

    def step(self, transition):
        what, key = transition
        if what == "deliver":
            self.procs[key[1]].feed(key[2], self.chans[key].popleft())
        else:
            getattr(self.procs[key], what)()
        self.transitions += 1
        self.check()

    # -- invariants -------------------------------------------------------------------
    def check(self):
        for team, shared in enumerate(self.shared):
            flags = shared.idle_flags()
            for rank in range(self.topology[team]):
                assert not (self.procs[(team, rank)].running and flags[rank]), \
                    f"worker {rank} of team {team} runs flagged idle"
            assert not (shared.public_alts() and all(flags)), \
                f"team {team} has open alternatives in frames and every worker flagged idle"
        t0 = self.masters[0].team
        if t0.goal is None:
            assert not any(p.running for p in self.procs.values()), \
                "a worker runs after team 0 ended the goal"
            return
        total = Fraction(t0.recovered, 1 << t0.scale)
        for master in self.masters:
            team = master.team
            assert team.idle or team.credit is not None, \
                f"team {team.team} works holding no credit"
            if team.credit is not None:
                total += Fraction(1, 1 << team.credit)
            for act in master.pending:
                credit = act[1] if act[0] == "answers" else \
                    act[3].get("credit") if act[0] == "send" else None
                if credit is not None:
                    total += Fraction(1, 1 << credit)
        for (_, _, kind), queue in self.chans.items():
            if kind == "frame":
                total += sum(Fraction(1, 1 << c) for _, c in queue if c is not None)
        assert total == 1, f"credit held, in flight and recovered sums to {total}"

    def check_end(self, want):
        kinds = [msg.kind for msg in self.client]
        assert kinds.count(TERMINATE) == 1 and kinds[-1] == TERMINATE, \
            f"the client got {kinds}"
        got = Counter()
        for msg in self.client:
            if msg.kind == ANSWER:
                got.update(unpack_answers(msg.raw))
        assert got == want, f"{sum(got.values())} answers, the oracle has {sum(want.values())}"
        for master in self.masters[1:]:
            assert master.terminates == 1, \
                f"team {master.ctx.team_id} got {master.terminates} TERMINATE frames"
        assert all(p.core.goal is None for p in self.procs.values()), "a worker never parked"
        t0 = self.masters[0].team
        assert t0.recovered == 1 << t0.scale, "team 0 ended without all its credit"
        assert all(m.team.credit is None for m in self.masters)


def run_schedule(topology, goal, strategy, choose):
    """Run one path: ``choose(depth, n)`` picks among the ``n`` transitions
    enabled at each state. Returns the number of transitions taken."""
    program, args = goal
    sim = Sim(topology, program, args, strategy)
    try:
        while transitions := sim.enabled():
            assert sim.transitions < MAX_TRANSITIONS, "no end in sight: a livelock"
            sim.step(transitions[choose(sim.transitions, len(transitions))])
        sim.check_end(oracle.enumerate_answers(get_program(program), args))
    finally:
        sim.close()
    return sim.transitions


def explore(topology, goal, strategy, bound):
    """Every choice at the first ``bound`` states that offer one, then a
    random one seeded by the path so far; returns how many paths ran to
    their end."""
    prefix, paths = [], 0
    while True:
        widths = []
        rng = random.Random(repr(prefix))

        def choose(depth, n):
            # a state with one transition enabled is no choice: it does not count
            if n == 1:
                return 0
            if len(widths) < bound:
                widths.append(n)
                return prefix[len(widths) - 1] if len(widths) <= len(prefix) else 0
            return rng.randrange(n)

        try:
            run_schedule(topology, goal, strategy, choose)
        except AssertionError as exc:
            raise AssertionError(f"{exc} on {topology} {goal} {strategy}, "
                                 f"first choices {prefix}") from exc
        paths += 1
        path = prefix + [0] * (len(widths) - len(prefix))
        while path and path[-1] + 1 >= widths[len(path) - 1]:
            path.pop()
        if not path:
            return paths
        path[-1] += 1
        prefix = path


# (topology, depth bound) of the exhaustive part: 3 teams, then 4
CONFIGS = [([2, 1, 1], 6), ([2, 1, 1, 1], 5)]


def test_every_delivery_order_up_to_the_bound_keeps_the_invariants():
    t0 = time.monotonic()
    paths = Counter()
    for topology, bound in CONFIGS:
        for goal in GOALS:
            for strategy in ("vs", "hs"):
                paths[len(topology)] += explore(topology, goal, strategy, bound)
    elapsed = time.monotonic() - t0
    print(f"PROTOCOL CHECKER: {paths[3]} interleavings on 3 teams and {paths[4]} on 4, "
          f"every choice at the first {CONFIGS[0][1]} and {CONFIGS[1][1]} states that offer "
          f"one, {len(GOALS)} goals x vs/hs ({elapsed:.1f}s)")
    assert elapsed < 60


@settings(max_examples=150, deadline=None)
@given(topology=st.sampled_from([c for c, _ in CONFIGS]), goal=st.sampled_from(GOALS),
       strategy=st.sampled_from(["vs", "hs"]),
       schedule=st.lists(st.integers(0, 15), max_size=400))
def test_drawn_delivery_orders_keep_the_invariants(topology, goal, strategy, schedule):
    # a failure shrinks to a short schedule that replays: the transition
    # picked at each step is schedule[step] modulo the number enabled, and
    # past its end a random one seeded by the schedule's length
    rng = random.Random(len(schedule))

    def choose(depth, n):
        return schedule[depth] % n if depth < len(schedule) else rng.randrange(n)

    run_schedule(topology, goal, strategy, choose)


def test_a_worker_core_holds_serves_and_refuses_requests():
    core = WorkerCore(1)
    core.start(7)
    local, delegated = {"goal": 7, "local": 2}, {"goal": 7, "req": 3, "team": 1, "strategy": "hs"}
    assert core.mail(N_DELEGATE_REQUEST, {"goal": 6, "local": 2}) == \
        [("mail", 2, N_DELEGATE_REFUSE, {"goal": 6, "local": 2}, None)], "another goal's request"
    assert core.mail(N_DELEGATE_REQUEST, local) == []
    assert core.mail(N_DELEGATE_REQUEST, delegated) == []
    # a busy tick without private load serves the delegated request at once
    # and holds the teammate's until a tick with private load
    (copy_delegated,) = core.tick(0)
    assert copy_delegated[:2] == ("copy", delegated) and core.held == [local]
    assert copy_delegated[2](delegated, None) == \
        [("mail", 0, N_DELEGATE_REFUSE, delegated, None)], "a delegate refuses to its master"
    (copy_local,) = core.tick(5)
    assert copy_local[:2] == ("copy", local) and core.held == []
    # the sharer flags its requester busy before it mails the copy
    assert copy_local[2](local, b"stacks") == \
        [("flag", 2, False), ("mail", 2, N_DELEGATE_ACCEPT, local, b"stacks")]
    # an idle turn refuses what is held, then asks the busiest busy teammate
    core.mail(N_DELEGATE_REQUEST, local)
    assert core.idle() == [("flag", 1, True)]
    assert core.seek([0, 0, 4, 9], [False, True, False, True]) == [
        ("mail", 2, N_DELEGATE_REFUSE, local, None),
        ("mail", 2, N_DELEGATE_REQUEST, {"goal": 7, "local": 1}, None)]
    assert core.asking == 2
    assert core.mail(N_DELEGATE_ACCEPT, {"goal": 7, "local": 1}, b"copy") == \
        [("install", b"copy", True)] and core.asking is None
    assert core.mail(N_GOAL_DONE, {"goal": 7}) == [("flag", 1, False), ("end",)]
    core.start(None)
    assert core.mail(N_HAS_WORK, {"goal": 8}) == [("begin", {"goal": 8})]


def test_a_team_core_delegates_held_requests_and_returns_its_credit_on_going_idle():
    team = TeamCore(1, 3, 3)
    assert team.start({"goal": 4, "strategy": "vs"}) == [], "every other team looks idle"
    # a frame shows team 0 busy: the idle team asks it
    (ask,) = team.frame(SHARE_REFUSE, 0, {"goal": 4, "req": 9}, [(5, 2), (-1, 0), (-1, 0)])
    assert ask == ("send", 0, SHARE_REQUEST, {"goal": 4, "req": 0}, b"")
    assert team.frame(SHARE_ACCEPT, 0, {"goal": 4, "req": 0, "credit": 3}, [], b"stacks") == [
        ("install", b"stacks", False), ("flag", 0, False),
        ("mail", 1, N_HAS_WORK, {"goal": 4, "strategy": "vs"}, None),
        ("mail", 2, N_HAS_WORK, {"goal": 4, "strategy": "vs"}, None)]
    assert not team.idle and team.credit == 3
    # team 2's request is held, then offered to the busy teammate with load
    assert team.frame(SHARE_REQUEST, 2, {"goal": 4, "req": 0}, []) == []
    (delegate,) = team.offer([0, 3, 1], [True, False, False])
    assert delegate == ("mail", 1, N_DELEGATE_REQUEST,
                        {"goal": 4, "req": 0, "team": 2, "strategy": "vs"}, None)
    assert not team.out_of_work([True] * 3, 0), "a delegation may still ship stacks"
    assert team.mail(N_DELEGATE_REFUSE, delegate[3]) == [] and team.asked == [(2, 0)]
    assert team.out_of_work([True] * 3, 0)
    # going idle refuses what it holds and hands its credit back behind its answers
    assert team.go_idle() == [("send", 2, SHARE_REFUSE, {"goal": 4, "req": 0}, b""),
                              ("answers", 3),
                              ("send", 0, SHARE_REQUEST, {"goal": 4, "req": 1}, b"")]
    assert team.frame(TERMINATE, 0, {"goal": 4}, []) == [
        ("answers", None), ("mail", 1, N_GOAL_DONE, {"goal": 4}, None),
        ("mail", 2, N_GOAL_DONE, {"goal": 4}, None), ("flag", 0, False), ("end",)]

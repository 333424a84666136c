"""The team protocol checked over every delivery order up to a depth bound.

The checker runs a whole engine in this process, on four topologies:
``[2,1,1]``, ``[2,1,1,1]``, ``[2,2,1]`` (a team other than 0 with a
teammate) and ``[3,1]`` (a team of three), every worker over a real
``WorkerState`` and every team over a real ``TeamShared`` region. Its
processes are the drivers of ``worker`` with their I/O replaced: mail and
frames go into one FIFO channel per (sender, receiver, mail or frame),
which is exactly the order the links give, since mail and frames travel
on links of their own per pair of workers or teams, and a worker runs
``STEPS`` engine steps between its service ticks. The
decisions are the cores' of ``protocol``; the drivers' action handlers
carry them out.

A transition is one of: a process carries out its pending actions up to and
including the next one that mails or sends; a busy worker runs to its next
tick; or the oldest message of a channel is delivered. The depth-first
search takes every choice up to a depth bound and a seeded random one
beyond it, replaying from the start for each path (stateless model
checking, Godefroid, POPL 1997); hypothesis draws whole schedules, and a
failure shrinks to a short list of choices that replays.

Checked at every state:
- a running worker is flagged busy and holds worker credit, and open
  alternatives in a team's frames (read from its frame pool) leave some
  worker of that team flagged busy;
- the team credit held, in flight and recovered sums to exactly 1 while
  the goal runs (a team is busy exactly while it holds credit);
- a busy team's worker credit held, in flight and recovered by its master
  sums to exactly 1, and an idle team's workers hold none and have none in
  flight;
- once team 0 has ended the goal, no worker runs.

Checked at every terminal state: the client got the oracle's answer
multiset and then one TERMINATE, every other team got one TERMINATE, every
worker parked, and team 0 recovered all credit. A ``ProtocolViolation`` or
any other error fails the path.
"""

import random
import time
from collections import Counter, deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layered_or import boot, oracle, transport
from layered_or.config import EngineOptions
from layered_or.engine import count_open, run_loop
from layered_or.errors import ProtocolViolation
from layered_or.programs import get_program
from layered_or.protocol import (
    ANSWER,
    CLIENT_ID,
    ENGINE_FREE,
    GOAL,
    ROOT_INFO,
    SHARE_ACCEPT,
    SHARE_REFUSE,
    SHARE_REQUEST,
    TERMINATE,
    WAKE,
    TeamCore,
    WorkerCore,
)
from layered_or.team import TeamShared
from layered_or.worker import GoalDone, Master, TeamContext, Worker, unpack_answers

ONE = 1 << 128                # credit 1 in units of 2**-128: exact for exponents up to 128
STEPS = 6                     # engine steps between two ticks of a simulated worker
MAX_TRANSITIONS = 20_000      # a path this long is a livelock
GOALS = [("queens", [4]), ("spread", [2, 3]), ("rand_tree", [3, 4, 3]),
         ("rand_tree", [5, 4, 3]), ("rand_tree", [11, 5, 3])]


class _Pause(Exception):
    """A simulated worker reached a service tick."""


class _Shared(TeamShared):
    """A team region that knows how far into its frame pool frames were made."""

    top = 0

    def publish(self, *args):
        made = super().publish(*args)
        self.top = max([self.top, *(idx + 1 for idx in made)])
        return made

    def open_alts(self):
        return sum(count_open(*self.read_locked(idx)) for idx in range(self.top))


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
        shared = sim.shared[team]
        ctx = TeamContext("checked", team, sim.n_teams, sim.topology[team],
                          EngineOptions(), shared, None, None)
        ws = boot._worker_state(shared, team, rank)
        if rank:
            Worker.__init__(self, ctx, ws, rank, None)
        else:
            Master.__init__(self, ctx, ws, _Endpoint(sim, team), None)
        self.sim, self.pid = sim, (team, rank)
        self.pending = deque()        # actions not carried out yet
        self.running = False          # it has stacks to run
        self.start_tag = None
        self.turn_due = False         # an idle turn follows its pending actions
        self.terminates = 0           # TERMINATE frames it got

    def _do(self, actions):
        # what follows an action, such as a copy's flag and mail, is a step of its own
        self.pending.extendleft(reversed(actions))

    def _a_mail(self, rank, kind, meta, raw=b""):
        self.sim.put(self.pid, (self.pid[0], rank), "mail", (kind, self.rank, dict(meta), raw))

    def _a_install(self, raw, local):
        super()._a_install(raw, local)
        self.running = True

    def _a_begin(self, meta):
        self._begin_goal(meta)
        if self.rank == 0:
            self._do(self.team.start(meta))
            if self.pid == (0, 0):
                # team 0's master runs the root once the start's actions are done
                self.pending.append(("root",))
                return
        self._park_on_dead_root()
        self.pending.extend(self.core.idle())
        self.turn_due = True

    def _a_root(self):
        self.running, self.start_tag = True, self.ws.program.root_tag

    # -- transitions ----------------------------------------------------------------
    def act(self):
        try:
            while self.pending:
                name, *args = self.pending.popleft()
                getattr(self, "_a_" + name)(*args)
                if name in ("mail", "send", "answers", "flush"):
                    break
        except GoalDone:
            self.pending.clear()
            self.running, self.start_tag = False, None
            self.ws.reset_to_base()
            self.core.start(None)
        self.settle()

    def run(self):
        try:
            run_loop(self.ws, self._emit, start_tag=self.start_tag,
                     service=self._tick, service_every=STEPS)
        except _Pause:
            self.start_tag = None
            acts = self.core.tick(self.ws.load)
            if self.rank == 0:
                acts += self.team.serve()
                self._a_answers()
            else:
                self._a_flush()
            self.pending.extend(acts)
            return
        self.start_tag, self.running = None, False
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
            acts = self._core_for(item[0]).mail(*item)
        self.pending.extend(acts)
        self.turn_due = True
        self.settle()

    def settle(self):
        """Once its actions are done, an idle worker takes an idle turn: as
        ``Worker._acquire_locally`` does, it offers what its team holds (a
        master) and lets its core ask a busy teammate."""
        if self.pending or self.core.goal is None or self.running \
                or self.core.asking is not None or not self.turn_due:
            return
        shared = self.ctx.shared
        self.turn_due = False
        if self.rank == 0:
            self.pending.extend(self.team.serve())
        self.pending.extend(self.core.seek(shared.loads(), shared.idle_flags()))


class _Teammate(_Process, Worker):
    pass


class _Master(_Process, Master):
    pass


class Sim:
    """One engine's processes, channels and client, driven transition by transition."""

    def __init__(self, topology, program, args, strategy):
        self.n_teams = len(topology)
        self.topology = topology
        self.shared = [_Shared(n, n_frames=256) for n in topology]
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
                proc = self.procs[(team, rank)]
                assert not (proc.running and flags[rank]), \
                    f"worker {rank} of team {team} runs flagged idle"
                assert not proc.running or proc.core.credit is not None, \
                    f"worker {rank} of team {team} runs holding no credit"
            assert not (all(flags) and shared.open_alts()), \
                f"team {team} has open alternatives in frames and every worker flagged idle"
        self.check_worker_credit()
        t0 = self.masters[0].team
        if t0.goal is None:
            assert not any(p.running for p in self.procs.values()), \
                "a worker runs after team 0 ended the goal"
            return
        total = _back(t0.recovered)
        for master in self.masters:
            team = master.team
            total += _units(team.credit)
            for act in master.pending:
                total += _units(act[1] if act[0] == "answers" else
                                act[3].get("credit") if act[0] == "send" else None)
        for (_, _, kind), queue in self.chans.items():
            if kind == "frame" and queue:
                total += sum(_units(c) for _, c in queue)
        assert total == ONE, f"credit held, in flight and recovered sums to {total / ONE}"

    def check_worker_credit(self):
        totals = [0] * self.n_teams
        for (team, _), proc in self.procs.items():
            totals[team] += _units(proc.core.credit)
            if proc.pending:
                totals[team] += sum(map(_worker_credit, proc.pending))
        for (_, receiver, kind), queue in self.chans.items():
            if kind == "mail" and queue:
                totals[receiver[0]] += sum(_units(item[2].get("credit")) for item in queue)
        for team, total in enumerate(totals):
            core = self.masters[team].team
            if core.goal is None:
                continue
            if core.idle:
                assert total == 0, \
                    f"idle team {team} has worker credit {total / ONE} held or in flight"
            else:
                total += _back(core.workers_back)
                assert total == ONE, f"team {team}'s worker credit sums to {total / ONE}"

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
        assert t0.recovered.whole(), "team 0 ended without all its credit"
        assert all(m.team.credit is None for m in self.masters)


def _units(k):
    """Credit ``2**-k`` (none if ``k`` is None) in units of ``2**-128``."""
    return 0 if k is None else ONE >> k


def _back(credit):
    return credit.total << (128 - credit.scale)


def _worker_credit(act):
    """The worker credit that a pending action carries."""
    name, *args = act
    k = args[0] if name in ("flush", "hold") else \
        args[0].get("credit") if name == "begin" else \
        args[2].get("credit") if name == "mail" else None
    return _units(k)


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


# (topology, depth bound) of the exhaustive part
CONFIGS = [([2, 1, 1], 6), ([2, 1, 1, 1], 5), ([2, 2, 1], 4), ([3, 1], 4)]


def test_every_delivery_order_up_to_the_bound_keeps_the_invariants():
    t0 = time.monotonic()
    paths = Counter()
    for topology, bound in CONFIGS:
        for goal in GOALS:
            for strategy in ("vs", "hs"):
                paths[str(topology)] += explore(topology, goal, strategy, bound)
    elapsed = time.monotonic() - t0
    counts = ", ".join(f"{paths[str(topology)]} on {topology} (every choice at the first "
                       f"{bound} states that offer one)" for topology, bound in CONFIGS)
    print(f"PROTOCOL CHECKER: interleavings {counts}; {len(GOALS)} goals x vs/hs "
          f"({elapsed:.1f}s)")
    assert elapsed < 60


@settings(max_examples=300, deadline=None)
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


def test_an_idle_teammate_gets_work_in_each_busy_spell_of_its_team():
    """Team 0 of ``[2, 1]`` shares with team 1, runs out and gets work back:
    each busy spell's WAKE wakes its idle teammate, which asks for a
    copy of the master's stacks in every spell. Whether a spell's master
    still has a node to split when the request arrives depends on the tree,
    so installs are required only in the first spell and in some later one."""
    sim = Sim([2, 1], "queens", [7], "vs")
    team, mate = sim.masters[0].team, sim.procs[(0, 1)]
    spells, asks, installs = 0, [], []
    install, mail = mate._a_install, mate._a_mail
    mate._a_install = lambda raw, local: (installs.append(spells), install(raw, local))

    def asking_mail(rank, kind, meta, raw=b""):
        if kind == SHARE_REQUEST:
            asks.append(spells)
        mail(rank, kind, meta, raw)

    mate._a_mail = asking_mail

    def order(transition):
        # mail and frames first; team 1 runs only while team 0 is idle
        what, key = transition
        return 0 if what != "run" else 1 if key[0] == 0 or team.idle else 2

    try:
        while transitions := sim.enabled():
            assert sim.transitions < MAX_TRANSITIONS, "no end in sight: a livelock"
            idle = team.idle
            sim.step(min(transitions, key=order))
            spells += idle and not team.idle
        sim.check_end(oracle.enumerate_answers(get_program("queens"), [7]))
    finally:
        sim.close()
    assert spells > 2, f"team 0 had {spells} busy spells"
    assert set(asks) >= set(range(1, spells + 1)), \
        f"team 0's teammate asked for work in spells {sorted(set(asks))} of {spells}"
    assert 1 in installs and max(installs) > 1, \
        f"team 0's teammate installed copies in spells {installs} of {spells}"


def test_an_idle_master_asks_no_parked_teammate_for_work():
    """Team 1 of ``[1, 2]`` takes every transition it has before team 0
    takes one: its master, idle from the start, must not ask its teammate
    for work before that teammate joins the goal."""
    sim = Sim([1, 2], "queens", [5], "vs")
    master, mate = sim.procs[(1, 0)], sim.procs[(1, 1)]
    mail = master._a_mail

    def checked_mail(rank, kind, meta, raw=b""):
        assert kind != SHARE_REQUEST or mate.core.goal is not None, \
            "team 1's master asked its parked teammate for work"
        mail(rank, kind, meta, raw)

    def team(transition):
        what, key = transition
        return key[1][0] if what == "deliver" else key[0]

    master._a_mail = checked_mail
    try:
        while transitions := sim.enabled():
            assert sim.transitions < MAX_TRANSITIONS, "no end in sight: a livelock"
            sim.step(max(transitions, key=team))
        sim.check_end(oracle.enumerate_answers(get_program("queens"), [5]))
    finally:
        sim.close()


class _WorkerLevel:
    """The table's events at the worker level: worker 1 of a team of four."""

    post, copy, local = "mail", "copy", True

    def __init__(self):
        self.core = WorkerCore(1)
        self.core.start(7)

    def request(self, peer, goal=7):
        meta = {"goal": goal, "req": 5}
        return meta, self.core.mail(SHARE_REQUEST, peer, meta)

    def ask(self):
        # worker 3 has more load than worker 2, but it is idle
        return self.core.seek([0, 0, 4, 9], [False, True, False, True])

    def asked(self, req):
        return {"goal": 7, "req": req}

    def reply(self, kind, meta, raw=b""):
        return self.core.mail(kind, 2, meta, raw)

    def serve(self):
        return self.core.tick(5)

    def read_busy(self, peer, done):
        return done == [("flag", peer, False)]

    def go_idle(self):
        return self.core.idle()


class _TeamLevel:
    """The table's events at the team level: team 1 of four, with one worker."""

    post, copy, local = "send", "split", False
    loads = [(0, 1), (-1, 1), (4, 1), (-1, 1)]   # team 3 reads idle

    def __init__(self):
        self.core = TeamCore(1, 4, 1)
        assert self.core.start({"goal": 7, "strategy": "vs"}) == [], "every team looks idle"

    def request(self, peer, goal=7):
        meta = {"goal": goal, "req": 5}
        return meta, self.core.frame(SHARE_REQUEST, peer, meta, [])

    def ask(self):
        # any frame updates the load arrays; an idle team then looks again
        return self.core.frame(SHARE_REFUSE, 0, {"goal": 7, "req": 99}, self.loads)

    def asked(self, req):
        return {"goal": 7, "req": req}

    def reply(self, kind, meta, raw=b""):
        return self.core.frame(kind, 2, meta, [], raw)

    def serve(self):
        return self.core.serve()

    def read_busy(self, peer, done):
        return done == [] and self.core.loads[peer][0] == 4

    def go_idle(self):
        # the master's worker hands its worker credit back: the team is out of work
        return self.core.mail(ANSWER, 0, {"goal": 7, "credit": 0})


@pytest.mark.parametrize("level", [_WorkerLevel, _TeamLevel], ids=["worker", "team"])
def test_both_levels_pull_work_by_the_same_rules(level):
    level = level()
    core, post = level.core, level.post
    # holding no credit, a core has no work: a request is refused at once
    meta, got = level.request(3)
    assert got == [(post, 3, SHARE_REFUSE, meta)] and core.held == []
    # an idle core asks the busiest busy peer, with one request out
    assert level.ask() == [(post, 2, SHARE_REQUEST, level.asked(0))]
    assert core.asking == (2, 0)
    assert level.ask() == [], "a second request went out"
    # only the reply to that request counts, and it carries the credit
    assert level.reply(SHARE_ACCEPT, dict(level.asked(7), credit=3), b"copy") == []
    assert core.asking == (2, 0) and core.credit is None
    # a copy whose credit is not a natural number is a protocol violation
    for credit in (None, -1, "3", 2.5):
        with pytest.raises(ProtocolViolation):
            level.reply(SHARE_ACCEPT, dict(level.asked(0), credit=credit), b"copy")
    assert core.asking == (2, 0) and core.credit is None
    got = level.reply(SHARE_ACCEPT, dict(level.asked(0), credit=3), b"copy")
    assert got[0] == ("install", b"copy", level.local)
    assert core.asking is None and core.credit == 3
    # another goal's request is refused; this goal's are held
    meta, got = level.request(3, goal=6)
    assert got == [(post, 3, SHARE_REFUSE, meta)], "another goal's request"
    first, got = level.request(0)
    assert got == []
    second, got = level.request(3)
    assert got == [] and core.held == [(0, first), (3, second)]
    # a tick serves the oldest; a copy that could not be made holds it again
    (copy,) = level.serve()
    assert copy[:3] == (level.copy, 0, first) and core.held == [(3, second)]
    assert copy[3](0, first, None) == [] and core.held == [(0, first), (3, second)]
    assert core.credit == 3
    # a copy goes out with half the credit held, once its receiver reads busy
    (copy,) = level.serve()
    assert copy[:3] == (level.copy, 0, first)
    *busy, accept = copy[3](0, first, b"stacks", 4)
    assert level.read_busy(0, busy), f"the receiver was not marked busy first: {busy}"
    assert accept == (post, 0, SHARE_ACCEPT, dict(first, credit=4), b"stacks")
    assert core.credit == 4 and core.held == [(3, second)]
    # going idle gives the credit up and refuses everything held
    got = level.go_idle()
    assert [act for act in got if act[2:3] == (SHARE_REFUSE,)] == \
        [(post, 3, SHARE_REFUSE, second)]
    assert core.credit is None and core.held == []
    meta, got = level.request(0)
    assert got == [(post, 0, SHARE_REFUSE, meta)] and core.held == []


def test_a_worker_core_holds_serves_and_refuses_requests():
    core = WorkerCore(1)
    core.start(7, credit=2)
    local = {"goal": 7, "req": 0}
    # a busy tick without private load holds the request: only private
    # load can be copied, and the copy publishes it
    assert core.mail(SHARE_REQUEST, 2, local) == []
    assert core.tick(0) == [] and core.held == [(2, local)]
    (copy,) = core.tick(1)
    assert copy[:3] == ("copy", 2, local)
    # the sharer flags its requester busy before it mails the copy
    assert copy[3](2, local, b"stacks") == \
        [("flag", 2, False), ("mail", 2, SHARE_ACCEPT, dict(local, credit=3), b"stacks")]
    # an idle turn hands the credit back with the answers before the idle
    # flag, and refuses what is held after it
    core.mail(SHARE_REQUEST, 2, local)
    assert core.idle() == [("flush", 3), ("flag", 1, True), ("mail", 2, SHARE_REFUSE, local)]
    assert core.credit is None
    assert core.seek([0, 0, 4, 9], [False, True, False, True]) == \
        [("mail", 2, SHARE_REQUEST, {"goal": 7, "req": 0})]
    assert core.mail(SHARE_ACCEPT, 2, {"goal": 7, "req": 0, "credit": 4}, b"copy") == \
        [("install", b"copy", True)] and core.asking is None and core.credit == 4
    # a later busy spell's WAKE, which carries no credit, only wakes it
    assert core.mail(WAKE, 0, {"goal": 7}) == [] and core.credit == 4
    # the goal's end parks it flagged idle, so nobody asks it for work
    assert core.mail(TERMINATE, 0, {"goal": 7}) == [("flag", 1, True), ("end",)]
    core.start(None)
    assert core.mail(SHARE_REQUEST, 2, {"goal": 8}) == [("mail", 2, SHARE_REFUSE, {"goal": 8})]
    assert core.mail(WAKE, 0, {"goal": 8, "credit": 1}) == [("begin", {"goal": 8, "credit": 1})]
    assert core.mail(ENGINE_FREE, 0, {}) == [("shutdown",)]


def test_a_goal_number_that_is_not_a_natural_number_is_a_protocol_violation():
    # a running idle team compares a ROOT_INFO's goal with its own
    team = TeamCore(1, 2, 1)
    assert team.start({"goal": 4, "strategy": "vs"}) == []
    for goal in ("5", None, 5.0):
        with pytest.raises(ProtocolViolation):
            team.frame(ROOT_INFO, 0, {"goal": goal}, [])
    with pytest.raises(ProtocolViolation):
        TeamCore(1, 2, 1).start({"goal": "5", "strategy": "vs"})


def test_a_team_core_splits_held_requests_from_its_own_stack_and_refuses_them_on_going_idle():
    team = TeamCore(1, 3, 3)
    assert team.start({"goal": 4, "strategy": "vs"}) == [], "every other team looks idle"
    # a frame shows team 0 busy: the idle team asks it
    (ask,) = team.frame(SHARE_REFUSE, 0, {"goal": 4, "req": 9}, [(5, 2), (-1, 0), (-1, 0)])
    assert ask == ("send", 0, SHARE_REQUEST, {"goal": 4, "req": 0})
    # the master's worker holds worker credit 1 less the halves it mails
    # its teammates with WAKE
    assert team.frame(SHARE_ACCEPT, 0, {"goal": 4, "req": 0, "credit": 3}, [], b"stacks") == [
        ("install", b"stacks", False), ("flag", 0, False), ("hold", 2),
        ("mail", 1, WAKE, {"goal": 4, "strategy": "vs", "credit": 1}),
        ("mail", 2, WAKE, {"goal": 4, "strategy": "vs", "credit": 2})]
    assert not team.idle and team.credit == 3
    # team 2's request is held, then offered to a split of the master's own
    # stack, which marks team 2 busy in the load arrays
    assert team.frame(SHARE_REQUEST, 2, {"goal": 4, "req": 0}, []) == []
    (split,) = team.serve()
    assert split[:3] == ("split", 2, {"goal": 4, "req": 0})
    assert split[3](*split[1:3], b"split", 4) == [
        ("send", 2, SHARE_ACCEPT, {"goal": 4, "req": 0, "credit": 4}, b"split")]
    assert team.credit == 4 and team.loads[2][0] == 4
    assert team.frame(SHARE_REQUEST, 2, {"goal": 4, "req": 1}, []) == []
    # every worker hands its credit back, on its last answers or alone
    assert team.mail(ANSWER, 1, {"goal": 4, "credit": 2}) == []
    assert team.mail(ANSWER, 2, {"goal": 4, "credit": 2}, b"batch") == [("forward", 1, b"batch")]
    # going idle refuses what it holds and hands the team credit back
    # behind its answers
    assert team.mail(ANSWER, 0, {"goal": 4, "credit": 1}) == [
        ("send", 2, SHARE_REFUSE, {"goal": 4, "req": 1}), ("trace", "team_idle"),
        ("answers", 4), ("send", 0, SHARE_REQUEST, {"goal": 4, "req": 1})]
    # a later busy spell's WAKE wakes the idle teammates, which are in the
    # goal already: the master's worker holds all worker credit
    assert team.frame(SHARE_ACCEPT, 0, {"goal": 4, "req": 1, "credit": 5}, [], b"more") == [
        ("install", b"more", False), ("flag", 0, False), ("hold", 0),
        ("mail", 1, WAKE, {"goal": 4, "strategy": "vs"}),
        ("mail", 2, WAKE, {"goal": 4, "strategy": "vs"})]
    assert team.mail(ANSWER, 0, {"goal": 4, "credit": 0})[:2] == \
        [("trace", "team_idle"), ("answers", 5)]
    assert team.frame(TERMINATE, 0, {"goal": 4}, []) == [
        ("answers", None), ("mail", 1, TERMINATE, {"goal": 4}),
        ("mail", 2, TERMINATE, {"goal": 4}), ("flag", 0, True), ("end",)]
    assert team.frame(ENGINE_FREE, 0, {}, []) == [
        ("mail", 1, ENGINE_FREE, {}), ("mail", 2, ENGINE_FREE, {}), ("shutdown",)]

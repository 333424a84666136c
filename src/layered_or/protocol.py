"""The team protocol as two pure state machines.

A ``WorkerCore`` holds one worker's rules for sharing inside its team; a
``TeamCore`` holds a team master's rules for sharing between teams and for
ending a goal. Each is fed events (a mail, a frame, a service tick, an idle
turn, the result of a copy) and returns the actions that follow, as tuples
``(name, *args)`` that the drivers in ``worker`` carry out in order, each by
its method ``_a_<name>``: ``mail`` and ``send`` put a mail into a teammate's
box or a frame on a link; ``flag`` writes an idle register; ``copy`` makes
a stack copy for a teammate's request, or a split of the master's stack for
another team's, and feeds it, or None, to the callback it names;
``install`` installs one; ``flush`` mails a worker's answers and worker
credit to its master, and ``hold`` hands the master's worker its credit;
``forward`` buffers packed answers and ``answers`` sends them on, with any
team credit; ``begin``, ``end``, ``shutdown``, ``push_back`` and ``trace``
run a goal, end it, stop the process, read the frame just fed again, and
record a trace event.

A core does no I/O, reads no clock and never touches a team's shared
region: a worker's driver reads the idle and load registers and passes them
to its idle turn, and the team core reads none. The same cores run in the
engine's processes and, all in one process, in the tier-1 checker that
feeds them every delivery order up to a depth bound.

Work is pulled at both levels. An idle worker asks the busy teammate with
the highest load register; that teammate answers at its first tick with
private load, or refuses when it goes idle. A sharer flags its requester
busy before it mails the copy, so open work always has a worker flagged
busy; a parked worker is flagged idle. Only a team's master splits work for
another team: a busy team's master holds another team's SHARE_REQUEST until
its own stack can split, one split per tick, and refuses it only for
another goal or when its team goes idle; an idle team asks the busiest
other team, one request at a time.

Both levels end their work by one rule, credit recovery (Mattern, IPL
30(4), 1989). Credit is kept as an exponent ``k`` meaning ``2**-k``, and a
``Credit`` sums what comes back exactly. Team 0 starts a goal holding team
credit 1, and every SHARE_ACCEPT carries half of the sharer's; a team going
idle hands its credit back to team 0 on an ANSWER frame behind its last
answers, and team 0 broadcasts TERMINATE once it holds credit 1 again. In
the same way a team's master starts each busy spell (team 0's GOAL, another
team's SHARE_ACCEPT) holding worker credit 1, and each HAS_WORK and each
teammate's copy carries half of its sender's; a worker out of work hands
its credit back on the answer mail it sends before it flags itself idle,
and the team goes idle once its master holds worker credit 1 again. Then
no worker (team) runs, no copy is in flight, and every answer has reached
the master (team 0): on the FIFO path a worker's (team's) answers go before
its credit. Termination reads no register; idle flags, load registers and
load arrays only pick whom to ask for work.
"""

from __future__ import annotations

from .errors import ProtocolViolation
from .scheduler import (merge_load_arrays, record_receiver_busy, select_request_target,
                        select_sharer)

CLIENT_ID = 0xFFFF

# inter-team message kinds (the client link uses GOAL/ANSWER/TERMINATE/FAULT)
GOAL = 1
ROOT_INFO = 2
SHARE_REQUEST = 3
SHARE_ACCEPT = 4
SHARE_REFUSE = 5
ANSWER = 6
TERMINATE = 7
ENGINE_FREE = 8
FAULT = 9

# intra-team mail kinds
N_HAS_WORK = "team_has_work"
N_DELEGATE_REQUEST = "delegate_request"
N_DELEGATE_ACCEPT = "delegate_accept"
N_DELEGATE_REFUSE = "delegate_refuse"
N_GOAL_DONE = "goal_done"
N_FAULT = "fault"
N_ANSWERS = "answers"


class Credit:
    """Credit handed back, summed exactly as ``total / 2**scale``."""

    def __init__(self):
        self.total = self.scale = 0

    def add(self, k) -> None:
        """Add a returned ``2**-k``, rescaling when ``k`` passes the scale."""
        if not isinstance(k, int) or k < 0:
            raise ProtocolViolation(f"credit exponent {k!r} is not a natural number")
        if k > self.scale:
            self.total, self.scale = self.total << (k - self.scale), k
        self.total += 1 << (self.scale - k)

    def whole(self) -> bool:
        return self.total == 1 << self.scale


def _refusal(meta: dict) -> tuple:
    """Refuse a teammate's request."""
    return ("mail", meta["local"], N_DELEGATE_REFUSE, meta, None)


class WorkerCore:
    """One worker's share protocol inside its team (the master's too).

    A teammate's request of the running goal is held until a busy tick
    with private load serves it, one per tick; an idle turn refuses what is
    held. A worker holding no credit has no work and refuses a request at
    once. An idle worker asks one busy teammate at a time.
    """

    def __init__(self, rank: int):
        self.rank = rank
        self.start(None)

    def start(self, goal, credit=None) -> None:
        """Join ``goal`` holding worker credit ``credit``, or park if it is None."""
        self.goal = goal              # the goal this worker is in, None while parked
        self.credit = credit          # exponent k of the worker credit 2**-k held, or None
        self.held: list[dict] = []    # requests of this goal not answered yet
        self.asking = None            # the teammate whose reply this worker waits for

    def mail(self, kind: str, meta: dict, raw=None) -> list:
        if kind == N_DELEGATE_REQUEST:
            if self.goal is None or meta.get("goal") != self.goal or self.credit is None:
                return [_refusal(meta)]
            self.held.append(meta)
        elif kind in (N_DELEGATE_ACCEPT, N_DELEGATE_REFUSE):
            # a reply to a request abandoned when its goal ended is dropped
            if self.asking is not None and meta.get("local") == self.rank \
                    and meta.get("goal") == self.goal:
                self.asking = None
                if kind == N_DELEGATE_ACCEPT:
                    if self.credit is not None:
                        raise ProtocolViolation(f"worker {self.rank} got a copy while it works")
                    self.credit = meta["credit"]
                    return [("install", raw, True)]
        elif kind == N_GOAL_DONE:
            if meta.get("shutdown"):
                return [("shutdown",)]
            if self.goal is not None and meta.get("goal") == self.goal:
                return [("flag", self.rank, True), ("end",)]
        elif kind == N_HAS_WORK and self.goal is None:
            return [("begin", meta)]
        return []

    def tick(self, load: int) -> list:
        """A busy tick with ``load`` private alternatives: serve the oldest
        held request (the copy publishes every private node)."""
        if load <= 0 or not self.held:
            return []
        return [("copy", self.held.pop(0), self.copied)]

    def copied(self, meta: dict, raw) -> list:
        if raw is None:
            return [_refusal(meta)]
        if self.credit is None:
            raise ProtocolViolation(f"worker {self.rank} shared work holding no credit")
        self.credit += 1
        # open work always has a worker flagged busy, also while its copy travels
        requester = meta["local"]
        return [("flag", requester, False),
                ("mail", requester, N_DELEGATE_ACCEPT, dict(meta, credit=self.credit), raw)]

    def idle(self) -> list:
        """Out of work: mail the answers and the credit back, then flag idle."""
        k, self.credit = self.credit, None
        return [("flush", k), ("flag", self.rank, True)]

    def seek(self, loads, idle_flags) -> list:
        """An idle turn: refuse every held request, then ask the busy
        teammate with the highest load register, if there is one. The
        registers are read after ``idle``'s flag is written, so two idle
        workers never pick each other."""
        acts = [_refusal(meta) for meta in self.held]
        self.held = []
        target = select_sharer(loads, idle_flags, self.rank)
        if target is not None:
            self.asking = target
            acts.append(("mail", target, N_DELEGATE_REQUEST,
                         {"goal": self.goal, "local": self.rank}, None))
        return acts


class TeamCore:
    """A team master's protocol: requests between teams, credit, goal end."""

    def __init__(self, team: int, n_teams: int, n_workers: int):
        self.team = team
        self.peers = [t for t in range(n_teams) if t != team]
        self.mates = range(1, n_workers)
        self.loads = [(-1, 0)] * n_teams     # the endpoint stamps its own entry
        self.goal = None                     # the running goal, None while parked
        self.meta: dict = {}
        self.idle = True
        self.credit = None                   # exponent k of the team credit 2**-k held, or None
        self.recovered = Credit()            # team 0: the teams' credit back
        self.workers_back = Credit()         # this busy spell's worker credit back
        self.asked: list[tuple[int, int]] = []   # (requesting team, req) held
        self.outstanding = None              # (req, target team) asked and not answered
        self.next_req = 0
        self.client_done = False

    def start(self, meta: dict) -> list:
        """Team 0 starts the goal at its root; the others start idle and ask."""
        self.goal, self.meta = meta["goal"], meta
        self.asked, self.outstanding = [], None
        self.recovered = Credit()
        self.parked = self.mates             # teammates not yet in the goal
        self.client_done = False
        if self.team != 0:
            self.idle, self.credit = True, None
            return self._seek()
        return [("send", t, ROOT_INFO, meta, b"") for t in self.peers] + self._work(0)

    # -- events -------------------------------------------------------------------
    def frame(self, kind: int, sender: int, meta: dict, loads, raw: bytes = b"") -> list:
        if sender != CLIENT_ID and len(loads) == len(self.loads):
            self.loads[:] = merge_load_arrays(self.loads, loads, keep=self.team)
        acts = self._frame(kind, sender, meta, raw)
        if self.idle and self.goal is not None:
            # load arrays change only on frames: an idle team looks again
            acts += self._seek()
        return acts

    def _frame(self, kind: int, sender: int, meta: dict, raw: bytes) -> list:
        goal = meta.get("goal", -1)
        if kind == ENGINE_FREE:
            return [("send", t, ENGINE_FREE, {}, b"") for t in self.peers if self.team == 0] \
                + [("mail", r, N_GOAL_DONE, {"shutdown": True}, None) for r in self.mates] \
                + [("shutdown",)]
        req = meta.get("req", -1)
        if kind == SHARE_REQUEST and (goal != self.goal or self.idle):
            return [("send", sender, SHARE_REFUSE, {"goal": goal, "req": req}, b"")]
        if self.goal is None:
            # parked: a GOAL or ROOT_INFO starts one; other frames of an ended goal are dropped
            return [("begin", meta)] if kind == (ROOT_INFO if self.team else GOAL) else []
        if kind == SHARE_REQUEST:
            self.asked.append((sender, req))     # held until it can be served
            return []
        if kind == GOAL or (kind == ROOT_INFO and not (goal > self.goal and self.idle)):
            raise ProtocolViolation(f"a frame of kind {kind} reached a running team")
        if kind == ROOT_INFO:
            # the previous goal ended by a FAULT still on its way here
            return [("push_back",)] + self._end()
        if goal != self.goal:
            return []
        if kind == ANSWER:
            if self.team != 0:
                raise ProtocolViolation("answers routed to a non-master team")
            acts = [("forward", sender, raw)] if raw else []
            if meta.get("credit") is not None:
                self.recovered.add(meta["credit"])
            return acts
        if kind == TERMINATE:
            if not self.idle:
                raise ProtocolViolation(f"TERMINATE for goal {goal} reached a busy team")
            return self._end()
        if kind == FAULT:
            return self._client_fault(meta.get("error", "")) + self._end()
        if self.outstanding != (req, sender):
            return []
        self.outstanding = None              # SHARE_ACCEPT or SHARE_REFUSE
        if kind == SHARE_REFUSE:
            return []
        return [("install", raw, False)] + self._work(meta.get("credit"))

    def mail(self, kind: str, meta: dict, raw=None) -> list:
        """Teammates' answer batches, with their worker credit, and faults."""
        if meta.get("goal") != self.goal:
            return []
        if kind == N_FAULT:
            return self.fault(meta.get("error", ""))
        acts = [("forward", self.team, raw)] if raw else []
        if meta.get("credit") is not None:
            self.workers_back.add(meta["credit"])
            acts += self._spent()
        return acts

    def offer(self) -> list:
        """Offer the oldest held request to this master's own stack."""
        if not self.asked:
            return []
        team, req = self.asked.pop(0)
        return [("copy", {"goal": self.goal, "req": req, "team": team,
                          "strategy": self.meta.get("strategy", "vs")}, self.copied)]

    def copied(self, meta: dict, raw) -> list:
        """Accept the request with the split ``raw`` and half the held
        credit, or hold it again if the stack could not split."""
        key = (meta["team"], meta["req"])
        if raw is None:
            self.asked.insert(0, key)
            return []
        if self.credit is None:
            raise ProtocolViolation(f"team {self.team} shared work holding no credit")
        self.credit += 1
        record_receiver_busy(self.loads, key[0], meta["load"])
        return [("send", key[0], SHARE_ACCEPT,
                 {"goal": self.goal, "req": key[1], "credit": self.credit}, raw)]

    def fault(self, error: str) -> list:
        """A worker of this team faulted: the goal ends engine-wide."""
        return [("send", t, FAULT, {"goal": self.goal, "error": error}, b"") for t in self.peers] \
            + self._client_fault(error) + self._end()

    # -- rules ------------------------------------------------------------------------
    def _work(self, credit) -> list:
        """A busy spell holds team credit ``2**-credit`` and worker credit 1; HAS_WORK wakes
        each teammate, and gives one that joins the goal half of the worker credit held."""
        self.idle, self.credit, self.workers_back = False, credit, Credit()
        parked, self.parked = self.parked, ()
        return [("flag", 0, False), ("hold", len(parked))] + [("mail", r, N_HAS_WORK, dict(
            self.meta, credit=r) if r in parked else self.meta, None) for r in self.mates]

    def _spent(self) -> list:
        """Go idle once all worker credit is back."""
        if self.idle or not self.workers_back.whole():
            return []
        self.idle = True
        acts = [("send", team, SHARE_REFUSE, {"goal": self.goal, "req": req}, b"")
                for team, req in self.asked]
        self.asked = []
        k, self.credit = self.credit, None
        if k is None:
            raise ProtocolViolation(f"team {self.team} went idle holding no credit")
        if self.team == 0:
            self.recovered.add(k)
            k = None
        return acts + [("trace", "team_idle"), ("answers", k)] + self._seek()

    def _seek(self) -> list:
        """An idle team: end the goal once team 0 holds all credit again,
        else ask the busiest other team unless a request is out."""
        if self.team == 0 and self.recovered.whole():
            return [("send", t, TERMINATE, {"goal": self.goal}, b"") for t in self.peers] \
                + self._end()
        target = select_request_target(self.loads, self.team)
        if self.outstanding is not None or target is None:
            return []
        self.outstanding = (req := self.next_req, target)
        self.next_req += 1
        return [("send", target, SHARE_REQUEST, {"goal": self.goal, "req": req}, b"")]

    def _client_fault(self, error: str) -> list:
        if self.team != 0 or self.client_done:
            return []
        self.client_done = True
        return [("send", CLIENT_ID, FAULT, {"goal": self.goal, "error": error}, b"")]

    def _end(self) -> list:
        """The goal is over here: send the last answers on, tell the client
        (team 0) and the teammates, and park flagged idle."""
        acts = [("answers", None)]
        if self.team == 0 and not self.client_done:
            acts.append(("send", CLIENT_ID, TERMINATE, {"goal": self.goal}, b""))
        acts += [("mail", r, N_GOAL_DONE, {"goal": self.goal}, None) for r in self.mates]
        self.goal, self.idle = None, True
        return acts + [("flag", 0, True), ("end",)]

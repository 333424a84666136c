"""The pull protocol of both levels as pure state machines.

Work is pulled at both levels by one set of rules, written once in
``PullCore``. A core holds a peer's request of the running goal and serves
the oldest at a tick that can copy: it marks the receiver busy in its
level's view, then accepts with half the credit it holds. A copy that could
not be made leaves the request held for a later tick. A core holding no
credit has no work: it refuses a request at once, and going idle it refuses
all it holds. An idle core asks the busiest peer, one request at a time,
and takes only the reply that carries that request's number. What differs:
- ``WorkerCore``, between teammates: a copy is an or-frame copy of the
  stacks (``copy``), mailed; the idle and load registers pick whom to ask,
  and a receiver is marked busy by its idle flag.
- ``TeamCore``, between teams' masters: a copy is a ``vs``/``hs`` split of
  the master's stack (``split``), sent as a frame; the load arrays pick
  whom to ask and mark a receiver busy. It also starts and ends goals,
  forwards answers, spreads faults and recovers credit.
A mail is a frame on a team's links, of the kind that means the same
between teams (SHARE_*, ANSWER, FAULT, TERMINATE for a goal's end,
ENGINE_FREE for shutdown); only ``WAKE`` is mail alone. At both levels a
request's frame names its requester as its sender.

Each event (a mail, a frame, a tick, an idle turn, a copy's result) returns
actions ``(name, *args)`` that the drivers in ``worker`` carry out in order
by their methods ``_a_<name>``: ``mail``, ``send``, ``flag`` (an idle
register), ``copy`` and ``split`` (each feeds its copy, or None, to the
callback it names), ``install``, ``flush`` (a worker's answers and credit
to its master), ``hold`` (the master's worker's credit), ``forward`` and
``answers`` (buffer packed answers, send them on with any team credit),
``begin``, ``end``, ``shutdown``, ``push_back`` (read the frame just fed
again) and ``trace``. A core does no I/O, reads no clock and never touches
a team's shared region, so the same cores run in the engine's processes
and, all in one process, in the tier-1 checker that feeds them every
delivery order up to a depth bound.

Both levels end their work by one rule, credit recovery (Mattern, IPL
30(4), 1989). Credit is kept as an exponent ``k`` meaning ``2**-k``, and a
``Credit`` sums what comes back exactly. Team 0 starts a goal holding team
credit 1, and every SHARE_ACCEPT carries half of the sharer's; a team going
idle hands its credit back to team 0 on an ANSWER frame behind its last
answers, and team 0 broadcasts TERMINATE once it holds credit 1 again. In
the same way a team's master starts each busy spell (team 0's GOAL, another
team's SHARE_ACCEPT) holding worker credit 1, and each WAKE and each
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

# message kinds: frames between teams and to the client, and mail inside a team
GOAL = 1
ROOT_INFO = 2
SHARE_REQUEST = 3
SHARE_ACCEPT = 4
SHARE_REFUSE = 5
ANSWER = 6
TERMINATE = 7
ENGINE_FREE = 8
FAULT = 9
WAKE = 10          # mail only: a busy spell began, so teammates look for work


def natural(k, what: str) -> int:
    """``k``, if it is a natural number; else a ``ProtocolViolation``."""
    if not isinstance(k, int) or k < 0:
        raise ProtocolViolation(f"{what} {k!r} is not a natural number")
    return k


class Credit:
    """Credit handed back, summed exactly as ``total / 2**scale``."""

    def __init__(self):
        self.total = self.scale = 0

    def add(self, k) -> None:
        """Add a returned ``2**-k``, rescaling when ``k`` passes the scale."""
        if natural(k, "credit exponent") > self.scale:
            self.total, self.scale = self.total << (k - self.scale), k
        self.total += 1 << (self.scale - k)

    def whole(self) -> bool:
        return self.total == 1 << self.scale


class PullCore:
    """The pull rules both levels share. A level names the action that
    posts a message to a peer (``POST``) and the one that copies work for
    it (``COPY``), says whether a copy it installs is a teammate's
    (``LOCAL``), and marks a receiver busy in its own view (``_mark_busy``)."""

    POST = COPY = LOCAL = None

    def __init__(self, rank: int):
        self.rank = rank              # this worker's rank in its team, or this team's id
        self.next_req = 0             # the number of this core's next request
        PullCore.start(self, None)

    def start(self, goal, credit=None) -> None:
        """Join ``goal`` holding credit ``2**-credit``, or park if it is None."""
        self.goal = goal              # the goal this core is in, None while parked
        self.credit = credit          # exponent k of the credit 2**-k held, None without work
        self.held: list[tuple] = []   # (peer, request) of this goal not answered yet
        self.asking = None            # (peer, req) whose reply this core waits for

    def request(self, peer: int, meta: dict) -> list:
        """Hold a peer's request of the running goal until a tick can serve
        it; refuse it at once while holding no credit."""
        if self.credit is None or self.goal is None or meta.get("goal") != self.goal:
            return [(self.POST, peer, SHARE_REFUSE, meta)]
        self.held.append((peer, meta))
        return []

    def serve(self) -> list:
        """Copy this core's work for the oldest held request."""
        return [(self.COPY, *self.held.pop(0), self.copied)] if self.held else []

    def copied(self, peer: int, meta: dict, raw, load: int = 0) -> list:
        """Accept with the copy ``raw`` (of ``load`` alternatives) and half
        the credit held, once the receiver reads busy: open work always has
        a worker (team) marked busy, also while its copy travels. If no
        copy could be made, hold the request again for a later tick."""
        if raw is None:
            self.held.insert(0, (peer, meta))
            return []
        if self.credit is None:
            raise ProtocolViolation(f"{type(self).__name__} {self.rank} shared work "
                                    f"holding no credit")
        self.credit += 1
        return self._mark_busy(peer, load) + [
            (self.POST, peer, SHARE_ACCEPT, dict(meta, credit=self.credit), raw)]

    def release(self) -> tuple:
        """Out of work: give up the credit held, returned as ``k``, and
        refuse every held request."""
        k, self.credit = self.credit, None
        refusals = [(self.POST, peer, SHARE_REFUSE, meta) for peer, meta in self.held]
        self.held = []
        return k, refusals

    def ask(self, target) -> list:
        """Ask ``target``, the busiest peer (None if no peer is busy),
        unless a request is out."""
        if self.asking is not None or target is None:
            return []
        self.asking = (target, self.next_req)
        self.next_req += 1
        return [(self.POST, target, SHARE_REQUEST, {"goal": self.goal, "req": self.asking[1]})]

    def reply(self, kind: int, meta: dict, raw) -> list:
        """The reply to this core's request: install an accepted copy and
        hold the credit it carries. A reply to another request, such as one
        of an ended goal, is dropped."""
        if self.asking is None or (meta.get("goal"), meta.get("req")) != \
                (self.goal, self.asking[1]):
            return []
        if kind == SHARE_ACCEPT:
            if self.credit is not None:
                raise ProtocolViolation(f"{type(self).__name__} {self.rank} got a copy "
                                        f"while it works")
            self.credit = natural(meta.get("credit"), "credit exponent")
        self.asking = None
        return [("install", raw, self.LOCAL)] if kind == SHARE_ACCEPT else []

    def _mark_busy(self, peer: int, load: int) -> list:
        raise NotImplementedError


class WorkerCore(PullCore):
    """One worker's pulling inside its team (the master's worker too): a
    copy publishes every private node and is mailed, and a requester is
    marked busy by its idle flag. Only a worker with private load copies."""

    POST, COPY, LOCAL = "mail", "copy", True

    def mail(self, kind: int, sender: int, meta: dict, raw: bytes = b"") -> list:
        if kind == SHARE_REQUEST:
            return self.request(sender, meta)
        if kind in (SHARE_ACCEPT, SHARE_REFUSE):
            return self.reply(kind, meta, raw)
        if kind == ENGINE_FREE:
            return [("shutdown",)]
        if kind == TERMINATE and self.goal is not None and meta.get("goal") == self.goal:
            # the goal's end parks it flagged idle, so nobody asks it for work
            return [("flag", self.rank, True), ("end",)]
        if kind == WAKE and self.goal is None:
            return [("begin", meta)]
        return []

    def tick(self, load: int) -> list:
        """A busy tick with ``load`` private alternatives."""
        return self.serve() if load > 0 else []

    def idle(self) -> list:
        """Out of work: mail the answers and the credit back, flag idle,
        and refuse what is held."""
        k, refusals = self.release()
        return [("flush", k), ("flag", self.rank, True)] + refusals

    def seek(self, loads, idle_flags) -> list:
        """An idle turn: ask the busy teammate with the highest load
        register, if there is one. The registers are read after ``idle``'s
        flag is written, so two idle workers never pick each other."""
        return self.ask(select_sharer(loads, idle_flags, self.rank))

    def _mark_busy(self, peer: int, load: int) -> list:
        return [("flag", peer, False)]


class TeamCore(PullCore):
    """A team master's protocol: pulling between teams, credit, goal end.
    Only a team's master splits work for another team, from its own stack."""

    POST, COPY, LOCAL = "send", "split", False

    def __init__(self, team: int, n_teams: int, n_workers: int):
        super().__init__(team)
        self.peers = [t for t in range(n_teams) if t != team]
        self.mates = range(1, n_workers)
        self.loads = [(-1, 0)] * n_teams     # the endpoint stamps its own entry
        self.meta: dict = {}
        self.recovered = Credit()            # team 0: the teams' credit back
        self.workers_back = Credit()         # this busy spell's worker credit back
        self.client_done = False

    @property
    def idle(self) -> bool:
        return self.credit is None

    def start(self, meta: dict) -> list:
        """Team 0 starts the goal at its root; the others start idle and ask."""
        super().start(natural(meta.get("goal"), "goal"))
        self.meta = meta
        self.recovered = Credit()
        self.parked = self.mates             # teammates not yet in the goal
        self.client_done = False
        if self.rank != 0:
            return self._seek()
        self.credit = 0
        return [("send", t, ROOT_INFO, meta) for t in self.peers] + self._work()

    # -- events -------------------------------------------------------------------
    def frame(self, kind: int, sender: int, meta: dict, loads, raw: bytes = b"") -> list:
        if sender != CLIENT_ID and len(loads) == len(self.loads):
            self.loads[:] = merge_load_arrays(self.loads, loads, keep=self.rank)
        acts = self._frame(kind, sender, meta, raw)
        if self.idle and self.goal is not None:
            # load arrays change only on frames: an idle team looks again
            acts += self._seek()
        return acts

    def _frame(self, kind: int, sender: int, meta: dict, raw: bytes) -> list:
        goal = meta.get("goal", -1)
        if kind == ENGINE_FREE:
            return [("send", t, ENGINE_FREE, {}) for t in self.peers if self.rank == 0] \
                + [("mail", r, ENGINE_FREE, {}) for r in self.mates] + [("shutdown",)]
        if kind == SHARE_REQUEST:
            return self.request(sender, meta)
        if self.goal is None:
            # parked: a GOAL or ROOT_INFO starts one; other frames of an ended goal are dropped
            return [("begin", meta)] if kind == (ROOT_INFO if self.rank else GOAL) else []
        if kind == ROOT_INFO and natural(goal, "goal") > self.goal and self.idle:
            # the previous goal ended by a FAULT still on its way here
            return [("push_back",)] + self._end()
        if kind in (GOAL, ROOT_INFO):
            raise ProtocolViolation(f"a frame of kind {kind} reached a running team")
        if goal != self.goal:
            return []
        if kind == ANSWER:
            if self.rank != 0:
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
        # SHARE_ACCEPT or SHARE_REFUSE: an accepted copy starts a busy spell
        acts = self.reply(kind, meta, raw)
        return acts + self._work() if acts else acts

    def mail(self, kind: int, sender: int, meta: dict, raw: bytes = b"") -> list:
        """Teammates' answer batches, with their worker credit, and faults."""
        if meta.get("goal") != self.goal:
            return []
        if kind == FAULT:
            return self.fault(meta.get("error", ""))
        acts = [("forward", self.rank, raw)] if raw else []
        if meta.get("credit") is not None:
            self.workers_back.add(meta["credit"])
            acts += self._spent()
        return acts

    def fault(self, error: str) -> list:
        """A worker of this team faulted: the goal ends engine-wide."""
        return [("send", t, FAULT, {"goal": self.goal, "error": error}) for t in self.peers] \
            + self._client_fault(error) + self._end()

    # -- rules ------------------------------------------------------------------------
    def _mark_busy(self, peer: int, load: int) -> list:
        record_receiver_busy(self.loads, peer, load)
        return []

    def _work(self) -> list:
        """A busy spell holds worker credit 1; WAKE wakes each teammate, and
        gives one that joins the goal half of the worker credit held."""
        self.workers_back = Credit()
        parked, self.parked = self.parked, ()
        return [("flag", 0, False), ("hold", len(parked))] + [("mail", r, WAKE, dict(
            self.meta, credit=r) if r in parked else self.meta) for r in self.mates]

    def _spent(self) -> list:
        """Go idle once all worker credit is back, handing the team credit
        back behind the last answers."""
        if self.idle or not self.workers_back.whole():
            return []
        k, acts = self.release()
        if self.rank == 0:
            self.recovered.add(k)
            k = None
        return acts + [("trace", "team_idle"), ("answers", k)] + self._seek()

    def _seek(self) -> list:
        """An idle team: end the goal once team 0 holds all credit again,
        else ask the busiest other team."""
        if self.rank == 0 and self.recovered.whole():
            return [("send", t, TERMINATE, {"goal": self.goal}) for t in self.peers] \
                + self._end()
        return self.ask(select_request_target(self.loads, self.rank))

    def _client_fault(self, error: str) -> list:
        if self.rank != 0 or self.client_done:
            return []
        self.client_done = True
        return [("send", CLIENT_ID, FAULT, {"goal": self.goal, "error": error})]

    def _end(self) -> list:
        """The goal is over here: send the last answers on, tell the client
        (team 0) and the teammates, and park flagged idle."""
        acts = [("answers", None)]
        if self.rank == 0 and not self.client_done:
            acts.append(("send", CLIENT_ID, TERMINATE, {"goal": self.goal}))
        acts += [("mail", r, TERMINATE, {"goal": self.goal}) for r in self.mates]
        self.goal = self.credit = None
        return acts + [("flag", 0, True), ("end",)]

"""Team processes: worker loops, intra-team sharing, and the master's
idle/busy scheduling.

Every worker of a team is a forked process sharing the team's ``TeamShared``
region; ``boot`` starts them. Worker 0 is the team master: an ordinary
worker that alone owns the transport endpoint and also runs the two
inter-team scheduler halves (the idle scheduler when the whole team is out
of work, the busy scheduler woven into its execution loop). It runs and
waits in its teammates' loops, through three hooks: a pump that serves the
transport and forwards answers while it waits, a wait for mail that blocks
in the endpoint's poller, and the test that tells it the whole team is out
of work. The client's goals enter through the master of team 0, and every
worker parks in ``getwork_first_time`` between goals.

A worker's one intra-team channel is its mailbox: every mail is a
``(kind, meta, payload)`` triple whose payload is checked bytes. A stack
copy is a ``splitting`` aux area with a frames column, checked and
unpacked by ``install_aux`` as a copy from another team is.

Answers travel packed. A teammate mails the answers it found to its master
as one batch: a little-endian ``u32`` answer count, then per answer a
``u32`` length and that many ``i64`` values. It mails a batch at most
every ``ANSWER_FLUSH_S``, at once for a goal's first answer, and before it
raises its idle flag. A master packs its own answers straight into its
forward buffer, next to its teammates' batches of the goal and the ANSWER
payloads of other teams. It sends the lot as one ANSWER frame, at most
every ``ANSWER_FLUSH_S`` while its team works and at once when the team
goes idle or the goal ends. Nothing between worker and client unpacks it.

Work is pulled, and nothing waits on a timer. An idle worker asks the busy
teammate with the highest load register and blocks until the reply, which
comes at that teammate's first tick with private load, or as a refusal when
it goes idle. A sharer flags its requester busy before it mails the copy,
so open work always has a worker flagged busy: an idle worker that sees
none waits for mail. A busy team's master likewise holds a SHARE_REQUEST
until a teammate with positive load, or its own stack, can split, and
refuses it only for another goal or when its team goes idle; a refused
idle team asks the next busiest team at once, or waits for a frame.

Every wait is one blocking ``poll(2)``: a teammate's on its mailbox pipe,
a master's in its endpoint's poller, which also watches its mailbox pipe
and its teammates' sentinels. Only the shutdown mail stops a worker. A
reader reads its ``Mailbox`` without blocking and takes a mail once all
its bytes have come, so a teammate that dies mid-put hangs nobody. Only a
mailbox's reader holds its read end, so a put to a dead reader raises
``EngineError`` instead of blocking. This cannot deadlock: a writer blocks
only on a full pipe, which its reader empties at its next tick or wake. A
copy's reader asked for it and mails nothing until the reply is in;
batches go to the master, which reads mail on every tick and every turn of
its waits, and whose own puts go to a waiting requester or to busy
teammates, whose pipes hold only short mail.

Ticks space themselves out while nobody asks for work. Each run starts
ticking every ``k_backtracks`` steps. A tick that finds no mail but answers
(and, at a master, no frame but ANSWER frames) and holds no request doubles
the spacing, up to ``TICK_SPACING_CAP`` × ``k_backtracks`` steps; any other
tick brings it back to ``k_backtracks``. A request to a busy worker is
therefore seen within ``TICK_SPACING_CAP`` × ``k_backtracks`` steps, and a
held one is looked at again every ``k_backtracks`` steps.

A goal ends by credit recovery (Mattern, IPL 30(4), 1989). Team 0 starts
it holding credit 1. Every SHARE_ACCEPT carries half of the sharer's
credit, kept as an exponent ``k`` meaning ``2**-k``, so a team that works
always holds some and a team that is idle holds none. A team going idle
hands its credit back to team 0 on an ANSWER frame behind its last answers;
on the FIFO link to team 0 that frame also ends the team's answer stream.
Team 0 sums what comes back exactly, as an integer over ``2**k`` for the
largest ``k`` yet, and broadcasts TERMINATE once it holds credit 1 again:
then no team works, no stacks are in flight, and every answer has arrived.
Load arrays only pick whom to ask for work.
"""

from __future__ import annotations

import os
import pickle
import select
import struct
import time
import traceback
from functools import lru_cache

from . import scheduler, splitting, transport
from .config import EngineOptions
from .engine import WorkerState, allocate_dead_root, run_loop, setup_goal
from .errors import EngineError, EngineShutdown, ProtocolViolation
from .programs import get_program
from .team import FramePoolExhausted, RecordLock, TeamShared, publish_private_nodes
from .transport import CLIENT_ID, TeamMessage

# intra-team notification kinds
N_HAS_WORK = "team_has_work"
N_DELEGATE_REQUEST = "delegate_request"
N_DELEGATE_ACCEPT = "delegate_accept"
N_DELEGATE_REFUSE = "delegate_refuse"
N_GOAL_DONE = "goal_done"
N_FAULT = "fault"
N_ANSWERS = "answers"

# A busy master sends its buffered answers on at most this often, and a busy
# teammate mails them to its master at most this often; a team going idle
# and a goal ending send them at once. Each ANSWER frame or batch costs
# every process on its path tens of microseconds, far more than the answers
# in it; at one per tick, sparse answers (queens) paid it per answer.
ANSWER_FLUSH_S = 0.01
# A busy worker's quiet ticks double their spacing up to this many times
# ``k_backtracks`` steps. Almost every tick of a large goal is quiet, and
# each costs a few microseconds; the cap bounds how long a request waits.
TICK_SPACING_CAP = 32


class GoalDone(Exception):
    """The current goal ended (termination, fault, or a newer goal appeared)."""


class Mailbox:
    """A pipe that many processes put mail into and one reads. A mail is a
    little-endian ``u64`` length and a pickle, kept whole in the pipe by a
    ``RecordLock``, which the kernel drops when its holder dies, so a writer
    killed inside a put blocks no other writer. ``get`` never blocks: it
    keeps the bytes of a mail that has not all come, so such a writer hangs
    no reader either. Build it before forking the processes that use it; once
    only the reader holds the read end, a put to a dead reader raises."""

    def __init__(self):
        self.fd, self._wfd = os.pipe()
        os.set_blocking(self.fd, False)
        self._wlock = RecordLock("mailbox")
        self._inbox = bytearray()          # the reader's bytes of a mail not yet whole

    def put(self, mail) -> None:
        raw = pickle.dumps(mail)
        view = memoryview(len(raw).to_bytes(8, "little") + raw)
        try:
            with self._wlock:
                while view:
                    view = view[os.write(self._wfd, view):]
        except BrokenPipeError:
            raise EngineError("a mailbox's reader died") from None

    def get(self):
        """The next whole mail, or None if its bytes have not all come."""
        buf = self._inbox
        while len(buf) < 8 or len(buf) < (end := 8 + int.from_bytes(buf[:8], "little")):
            try:
                buf += os.read(self.fd, 1 << 16)
            except BlockingIOError:
                return None
        mail = pickle.loads(buf[8:end])
        del buf[:end]
        return mail

    def close_reader(self) -> None:
        """Close this process's copy of the read end."""
        os.close(self.fd)
        self.fd = -1

    def close(self) -> None:
        if self.fd >= 0:
            os.close(self.fd)
        os.close(self._wfd)
        self._wlock.close()


class TeamContext:
    """Per-team plumbing inherited by every worker at fork time."""

    def __init__(self, engine_id, team_id, n_teams, n_workers, options,
                 shared, mailboxes, trace_queue):
        self.master_pid = os.getpid()      # built by the master, before it forks
        self.engine_id = engine_id
        self.team_id = team_id
        self.n_teams = n_teams
        self.n_workers = n_workers
        self.options: EngineOptions = options
        self.shared: TeamShared = shared
        self.mailboxes = mailboxes
        self.trace_queue = trace_queue

    def notify(self, rank: int, kind: str, meta: dict, payload=None) -> None:
        self.mailboxes[rank].put((kind, meta, payload))

    def close_others(self, rank: int) -> None:
        """Close the read end of every mailbox but worker ``rank``'s own."""
        for r, box in enumerate(self.mailboxes):
            if r != rank:
                box.close_reader()

    def trace(self, rank: int, kind: str, **data) -> None:
        if self.trace_queue is not None:
            self.trace_queue.put((self.team_id, rank, kind, data))


# ---------------------------------------------------------------------------
# workers
# ---------------------------------------------------------------------------

class Worker:
    """A team worker: local scheduling plus delegated inter-team shares.

    The master runs the same loops. It overrides three hooks: ``_pump``,
    which keeps its transport and answer forwarding going while it waits,
    ``_await_mail``, which blocks in its endpoint's poller so that frames
    wake it too, and ``_team_out_of_work``, which lets ``_acquire_locally``
    give up.
    """

    def __init__(self, ctx: TeamContext, ws: WorkerState, rank: int):
        self.ctx = ctx
        self.ws = ws
        self.rank = rank
        self.goal_id = -1
        self.goal_meta = None
        self._answers: list[tuple] = []    # found since the last flush
        self._last_flush = 0.0
        self._spacing = 0                  # steps from the last service tick to the next
        self._held: list[dict] = []        # requests of this goal not answered yet

    def _tell(self, rank: int, kind: str, meta: dict, payload=None) -> None:
        self.ctx.notify(rank, kind, meta, payload)

    # -- hooks ------------------------------------------------------------------
    def _pump(self) -> None:
        """Work done on every turn of a wait loop besides the mailbox."""

    def _team_out_of_work(self) -> bool:
        """True once the whole team is out of work; a teammate never decides it."""
        return False

    def _await_mail(self) -> None:
        """Wait for mail, blocking in poll(2) on the mailbox's read end."""
        poller = select.poll()
        poller.register(self.ctx.mailboxes[self.rank].fd, select.POLLIN)
        poller.poll()

    # -- Alg. getwork: park, run, repeat ------------------------------------
    def getwork_first_time(self) -> None:
        ctx = self.ctx
        while True:
            self._begin_goal(self._wait_for_work_in_team())
            self._park_on_dead_root()
            try:
                while True:
                    self._acquire_locally()       # its sharer flagged this worker busy
                    self._run()
                    self._flush_answers()
                    self.ws.reset_to_base()
                    ctx.shared.set_idle(self.rank, True)
            except GoalDone:
                pass
            self.ws.reset_to_base()
            ctx.shared.set_idle(self.rank, False)

    def _wait_for_work_in_team(self) -> dict:
        while True:
            mail = self._next_mail()
            if mail is None:
                self._await_mail()
                continue
            kind, meta, payload = mail
            if kind == N_HAS_WORK:
                return meta
            if kind == N_GOAL_DONE and meta.get("shutdown"):
                raise EngineShutdown
            if kind == N_DELEGATE_REQUEST:
                self._refuse(meta)
            # stale notifications of a finished goal are dropped

    def _begin_goal(self, meta: dict) -> None:
        self.goal_id = meta["goal"]
        self.goal_meta = meta
        self._answers.clear()
        self._held.clear()
        self._last_flush = float("-inf")   # a goal's first answer goes out at once
        setup_goal(self.ws, get_program(meta["program"]), list(meta["args"]),
                   meta.get("template"))

    def _park_on_dead_root(self) -> None:
        allocate_dead_root(self.ws)
        self.ctx.shared.set_idle(self.rank, True)
        self.ctx.trace(self.rank, "root_allocated", goal=self.goal_id)

    # -- execution --------------------------------------------------------------
    def _run(self, start_tag=None) -> None:
        self._spacing = k = self.ctx.options.k_backtracks
        try:
            run_loop(self.ws, self._emit, start_tag=start_tag, service=self._service,
                     service_every=k)
        except (GoalDone, EngineShutdown, EngineError):
            # a dead teammate or link breaks the team, not just this goal
            raise
        except Exception:
            # a program fault aborts the goal engine-wide, not this worker
            self._propagate_fault({"goal": self.goal_id, "error": traceback.format_exc()})

    def _propagate_fault(self, meta: dict) -> None:
        self._tell(0, N_FAULT, meta)
        raise GoalDone

    def _emit(self, answer: tuple) -> None:
        self._answers.append(answer)

    def _take_batch(self) -> bytes:
        """Pack the buffered answers into one batch and empty the buffer."""
        raw = pack_answers(self._answers)
        self._answers.clear()
        return raw

    def _flush_answers(self) -> None:
        if self._answers:
            self._tell(0, N_ANSWERS, {"goal": self.goal_id}, self._take_batch())
            self._last_flush = time.monotonic()

    def _service(self) -> int:
        if self._answers and time.monotonic() - self._last_flush >= ANSWER_FLUSH_S:
            self._flush_answers()
        served = self._drain_mailbox()
        self._serve_held()
        return self._next_spacing(served)

    def _next_spacing(self, served: bool) -> int:
        """Steps to the next tick: ``k_backtracks`` after a tick that ``served``
        a message or still holds a request, else twice the last spacing, up
        to the cap."""
        served = served or bool(self._held)
        k = self.ctx.options.k_backtracks
        self._spacing = k if served else min(2 * self._spacing, TICK_SPACING_CAP * k)
        return self._spacing

    def _next_mail(self):
        """The next whole mail of this worker's mailbox, or None."""
        return self.ctx.mailboxes[self.rank].get()

    def _drain_mailbox(self) -> bool:
        """Dispatch every whole mail; True if any was not answers."""
        served = False
        while (mail := self._next_mail()) is not None:
            self._dispatch(*mail)
            served |= mail[0] != N_ANSWERS
        return served

    def _dispatch(self, kind, meta, payload) -> None:
        if kind == N_DELEGATE_REQUEST:
            # held until a busy tick serves it or this worker goes idle
            if meta.get("goal") == self.goal_id:
                self._held.append(meta)
            else:
                self._refuse(meta)
        elif kind == N_GOAL_DONE:
            if meta.get("shutdown"):
                raise EngineShutdown
            if meta.get("goal") == self.goal_id:
                raise GoalDone
        # a delegate reply here answers a request abandoned when its goal ended

    def _refuse(self, meta: dict) -> None:
        self._tell(0 if "req" in meta else meta["local"], N_DELEGATE_REFUSE, meta)

    def _refuse_held(self) -> None:
        """This worker is idle: refuse every request it holds."""
        held, self._held = self._held, []
        for meta in held:
            self._refuse(meta)

    # -- sharing: this worker is the sharer ------------------------------------
    def _serve_held(self) -> None:
        """At a busy tick: answer a delegated request now, with a split or a
        refusal (its master holds it then), and a teammate's once this
        worker has private load to share; keep holding the rest."""
        held, self._held = self._held, []
        for meta in held:
            if "req" in meta:
                self._serve_remote(meta)
            elif self.ws.load > 0:
                self._serve_local(meta)
            else:
                self._held.append(meta)

    def _serve_local(self, meta: dict) -> None:
        requester = meta["local"]
        ws = self.ws
        try:
            publish_private_nodes(ws, self.ctx.shared)
        except FramePoolExhausted:
            self._tell(requester, N_DELEGATE_REFUSE, meta)
            return
        aux = splitting.snapshot_to_aux(ws, self.goal_id)
        aux.frames = [cp.frame for cp in ws.cps]
        # open work always has a worker flagged busy, also while its copy travels
        self.ctx.shared.set_idle(requester, False)
        self._tell(requester, N_DELEGATE_ACCEPT, meta, splitting.serialize_aux(aux))
        self.ctx.trace(self.rank, "shared_locally", requester=requester,
                       frames=[f for f in aux.frames if f >= 0])

    def _serve_remote(self, meta: dict) -> None:
        raw = self._split_remote(meta)
        if raw is None:
            self._tell(0, N_DELEGATE_REFUSE, meta)
            return
        self._tell(0, N_DELEGATE_ACCEPT, meta, raw)
        self.ctx.trace(self.rank, "shared_remotely", req=meta["req"], load=meta["load"])

    def _split_remote(self, meta: dict):
        """Split off work for the team a delegated request came from: the
        packed copy, its load set in ``meta``, or None if there is none."""
        aux = splitting.split_for_transfer(self.ws, self.goal_id, meta["strategy"])
        if aux.load <= 0:
            return None
        meta["load"] = aux.load
        return splitting.serialize_aux(aux)

    # -- this worker is the requester -------------------------------------------
    def _acquire_locally(self) -> bool:
        """Pull work from a busy teammate; False once the team is out of work."""
        shared = self.ctx.shared
        while True:
            self._drain_mailbox()
            self._refuse_held()
            self._pump()
            target = scheduler.select_sharer(shared.loads(), shared.idle_flags(), self.rank)
            if target is not None:
                if self._request_from(target):
                    return True
            elif self._team_out_of_work():
                return False
            else:
                # open work always has a busy worker, so only mail (N_HAS_WORK
                # or the goal's end) can bring some
                self._await_mail()

    def _request_from(self, target: int) -> bool:
        """Ask teammate ``target`` for work; True once its copy is installed.
        Requests that come meanwhile are held: this worker mails nothing
        until the reply is in."""
        self._tell(target, N_DELEGATE_REQUEST, {"goal": self.goal_id, "local": self.rank})
        while True:
            self._pump()
            mail = self._next_mail()
            if mail is None:
                # the target answers at its first tick with private load, or when it goes idle
                self._await_mail()
                continue
            kind, m, payload = mail
            if kind in (N_DELEGATE_ACCEPT, N_DELEGATE_REFUSE) \
                    and m.get("local") == self.rank and m.get("goal") == self.goal_id:
                break
            self._dispatch(kind, m, payload)
        if kind == N_DELEGATE_ACCEPT:
            self._install(payload, local=True)
            self.ctx.trace(self.rank, "installed_locally", load=self.ws.load)
        return kind == N_DELEGATE_ACCEPT

    def _install(self, raw: bytes, local: bool) -> None:
        """Install a teammate's (``local``) or another team's stack copy."""
        aux = splitting.deserialize_aux(raw, frames=local)
        if aux.goal_id != self.goal_id:
            raise ProtocolViolation("installed stacks belong to another goal")
        self.ws.reset_to_base()
        splitting.install_aux(self.ws, aux, local)


# ---------------------------------------------------------------------------
# the team master (worker 0)
# ---------------------------------------------------------------------------

class Master(Worker):
    """Worker 0: also runs the inter-team idle/busy scheduler halves."""

    def __init__(self, ctx: TeamContext, ws: WorkerState, endpoint):
        super().__init__(ctx, ws, rank=0)
        self.ep = endpoint
        self.team_idle = False
        self._next_req = 0
        self._outstanding = None          # (req_id, target team)
        self._asked: list[tuple[int, int]] = []   # (requesting team, req_id) held
        self._delegations = set()         # (requesting team, req_id) a teammate serves
        self._client_done_sent = False
        self._install_pending = None
        self._credit = None               # exponent k of the held 2**-k, or None
        self._recovered = 0               # team 0: credit handed back so far,
        self._scale = 0                   # ... as _recovered / 2**_scale
        self._forward: list[tuple[int, bytes]] = []   # (origin team, packed batches)
        self._last_forward = 0.0          # when the last ANSWER frame went out

    # -- load array stamping -----------------------------------------------------
    def own_load(self) -> int:
        if self.team_idle:
            return -1
        return self.ctx.shared.team_load()

    # -- the hooks -----------------------------------------------------------------
    def _pump(self) -> None:
        self._drain_transport(busy=False)
        self._offer_asked()
        self._forward_answers()

    def _await_mail(self) -> None:
        # the poller watches the mailbox too; held answers bound the wait
        timeout = None
        if self._forward:
            timeout = max(0.0, self._last_forward + ANSWER_FLUSH_S - time.monotonic())
        self.ep.wait(timeout)

    def _team_out_of_work(self) -> bool:
        shared = self.ctx.shared
        if shared.idle_count() < self.ctx.n_workers or shared.public_alts() \
                or self._delegations:
            # a pending delegation may still ship stacks, under this team's credit
            return False
        # workers mail their last answers before they raise their idle flags
        self._drain_mailbox()
        return True

    # -- Alg. getwork, master branches ---------------------------------------------
    def getwork_first_time(self) -> None:
        ctx = self.ctx
        while True:
            goal = self._wait_for_goal(transport.GOAL if ctx.team_id == 0
                                       else transport.ROOT_INFO)
            try:
                self._run_goal(goal)
            except (KeyError, ValueError) as exc:
                # the client validates goals, so this is defensive only
                self.goal_id = goal.get("goal", -1)
                self._client_done_sent = False
                self._client_fault(f"goal rejected: {exc}")

    def _wait_for_goal(self, kind: int) -> dict:
        """Park between goals until a ``kind`` frame (GOAL or ROOT_INFO) starts one.

        The master blocks in its poller with no timeout. Mail here belongs to
        the goal that ended and is dropped; unread, it would keep the poll
        readable. A dead teammate or peer raises ``EngineError`` at the poll.
        """
        while True:
            while self._next_mail() is not None:
                pass
            msg = self.ep.poll()
            if msg is None:
                self.ep.wait(None)
                continue
            self._merge(msg)
            if msg.kind == kind:
                return msg.meta
            if msg.kind == transport.ENGINE_FREE:
                self._engine_free(rebroadcast=self.ctx.team_id == 0)
            if msg.kind == transport.SHARE_REQUEST:
                self.ep.send(msg.sender, transport.SHARE_REFUSE,
                             {"goal": msg.goal_id, "req": msg.meta.get("req")})
            # other stale frames of the previous goal are dropped here

    # -- goal execution ---------------------------------------------------------
    def _begin_goal(self, meta: dict) -> None:
        self._client_done_sent = False
        self._outstanding = None
        self._asked.clear()
        self._delegations.clear()
        self._install_pending = None
        self._credit = None
        self._recovered = self._scale = 0
        self._forward.clear()
        self._last_forward = float("-inf")   # a goal's first answers go out at once
        super()._begin_goal(meta)

    def _run_goal(self, meta: dict) -> None:
        """Team 0 starts the goal at its root; the others start idle."""
        ctx = self.ctx
        self._begin_goal(meta)
        try:
            if ctx.team_id == 0:
                self.team_idle = False
                self._credit = 0
                ctx.shared.set_idle(0, False)    # before any teammate looks for work
                for team in range(1, ctx.n_teams):
                    self.ep.send(team, transport.ROOT_INFO, meta)
                for rank in range(1, ctx.n_workers):
                    self._tell(rank, N_HAS_WORK, meta)
                ctx.trace(0, "goal_started", goal=self.goal_id)
                start_tag = self.ws.program.root_tag
            else:
                self._park_on_dead_root()
                self._team_idle_scheduler()     # returns once stacks were installed
                start_tag = None
            self._master_cycle(start_tag)
        except GoalDone:
            pass
        except EngineError as exc:
            # a teammate that faulted mailed why before it died
            faults = [m[1]["error"] for m in iter(self._next_mail, None) if m[0] == N_FAULT]
            if faults:
                raise EngineError("\n".join([str(exc), *faults])) from exc
            raise
        self._finish_goal()

    def _master_cycle(self, start_tag) -> None:
        """Run own work, then keep the team fed until the goal ends."""
        # flagged busy at the goal's start, by its install or by its sharer
        shared = self.ctx.shared
        while True:
            self._run(start_tag)
            start_tag = None
            self.ws.reset_to_base()
            shared.set_idle(0, True)
            if not self._acquire_locally():
                # team out of work: enter the inter-team idle scheduler
                self.team_idle = True
                self.ctx.trace(0, "team_idle", goal=self.goal_id)
                self._refuse_asked()
                self._return_credit()
                self._team_idle_scheduler()

    def _service(self) -> int:
        served = self._drain_mailbox()
        polled = self._drain_transport(busy=True)
        self._serve_held()
        self._offer_asked()
        self._forward_answers()
        return self._next_spacing(served or polled or bool(self._asked))

    # -- answers -------------------------------------------------------------------
    def _flush_answers(self) -> None:
        """A master packs its own answers straight into its forward buffer."""
        if self._answers:
            self._forward.append((self.ctx.team_id, self._take_batch()))

    def _forward_answers(self, now: bool = False, credit: int | None = None) -> None:
        """Send everything buffered as one ANSWER frame: to the client from
        the master team, to the master team from the others.

        The frame goes out at most every ``ANSWER_FLUSH_S`` unless ``now``
        is set. A ``credit`` goes out at once on the frame, answers or not.
        """
        ctx = self.ctx
        self._flush_answers()
        if not self._forward and credit is None:
            return
        t = time.monotonic()
        if not now and credit is None and t - self._last_forward < ANSWER_FLUSH_S:
            return
        self._last_forward = t
        if ctx.team_id != 0:
            dest = 0
        else:
            dest = CLIENT_ID
            if ctx.trace_queue is not None:
                for origin, raw in self._forward:
                    for answer in unpack_answers(raw):
                        ctx.trace(0, "client_answer", origin=origin, answer=answer)
        raw = b"".join(raw for _, raw in self._forward)
        self._forward.clear()
        meta = {"goal": self.goal_id}
        if credit is not None:
            meta["credit"] = credit
        self.ep.send(dest, transport.ANSWER, meta, raw)

    # -- credit ---------------------------------------------------------------------
    def _return_credit(self) -> None:
        """The team went idle: send its answers on, and its credit with them."""
        k, self._credit = self._credit, None
        if k is None:
            raise ProtocolViolation(f"team {self.ctx.team_id} went idle holding no credit")
        if self.ctx.team_id == 0:
            self._recover(k)
            self._forward_answers(now=True)
        else:
            self._forward_answers(now=True, credit=k)

    def _recover(self, k: int) -> None:
        """Team 0 adds a returned 2**-k to the credit it recovered, rescaling
        the numerator when ``k`` passes the scale."""
        if k > self._scale:
            self._recovered <<= k - self._scale
            self._scale = k
        self._recovered += 1 << (self._scale - k)

    def _halve_credit(self) -> int:
        """Split off the half of the held credit that travels with a share."""
        if self._credit is None:
            raise ProtocolViolation(f"team {self.ctx.team_id} shared work holding no credit")
        self._credit += 1
        return self._credit

    # -- intra-team servicing ----------------------------------------------------
    def _dispatch(self, kind, meta, payload) -> None:
        if kind == N_ANSWERS:
            # a batch of a goal that has ended is dropped
            if meta.get("goal") == self.goal_id:
                self._forward.append((self.ctx.team_id, payload))
        elif kind in (N_DELEGATE_ACCEPT, N_DELEGATE_REFUSE) and "req" in meta:
            self._delegate_reply(meta, payload)
        elif kind == N_FAULT:
            self._propagate_fault(meta)
        else:
            super()._dispatch(kind, meta, payload)

    def _delegate_reply(self, meta: dict, aux_bytes) -> None:
        """A teammate served a delegated request, or refused it: then the
        request is held again."""
        # request ids are per requesting team; the pair is the unique key
        team, req = meta.get("team"), meta["req"]
        if (team, req) not in self._delegations:
            return
        self._delegations.remove((team, req))
        if meta.get("goal") != self.goal_id:
            return
        if aux_bytes is None:
            self._asked.append((team, req))
        else:
            self._share(team, req, aux_bytes, meta["load"])

    def _share(self, team: int, req: int, aux_bytes: bytes, load: int) -> None:
        """Accept ``team``'s request ``req`` with a copy and half the credit."""
        self.ep.send(team, transport.SHARE_ACCEPT,
                     {"goal": self.goal_id, "req": req, "credit": self._halve_credit()},
                     aux_bytes)
        scheduler.record_receiver_busy(self.ep.loads, team, load)
        self.ctx.trace(0, "share_accepted", to=team, load=load)

    def _propagate_fault(self, meta: dict) -> None:
        if meta.get("goal") != self.goal_id:
            return
        for team in self.ep.peers():
            self.ep.send(team, transport.FAULT,
                         {"goal": self.goal_id, "error": meta.get("error", "")})
        if self.ctx.team_id == 0:
            self._client_fault(meta.get("error", ""))
        raise GoalDone

    def _client_fault(self, error: str) -> None:
        if not self._client_done_sent:
            self.ep.send(CLIENT_ID, transport.FAULT,
                         {"goal": self.goal_id, "error": error})
            self._client_done_sent = True

    # -- transport servicing -------------------------------------------------------
    def _drain_transport(self, busy: bool) -> bool:
        """Handle every frame that has arrived; True if any was not ANSWER,
        as ``_drain_mailbox`` counts answer mail."""
        served = False
        # a pending install flips this team to busy; traffic behind it in
        # the inbox must be answered from the post-install state
        while self._install_pending is None and (msg := self.ep.poll()) is not None:
            self._handle_message(msg, busy)
            served |= msg.kind != transport.ANSWER
        return served

    def _merge(self, msg: TeamMessage) -> None:
        if msg.sender != CLIENT_ID and len(msg.loads) == self.ep.n_teams:
            self.ep.loads = scheduler.merge_load_arrays(
                self.ep.loads, msg.loads, keep=self.ctx.team_id)

    def _handle_message(self, msg: TeamMessage, busy: bool) -> None:
        self._merge(msg)
        kind = msg.kind
        if kind == transport.SHARE_REQUEST:
            # held until it can be served (``_offer_asked``)
            if msg.goal_id != self.goal_id or self.team_idle:
                self.ep.send(msg.sender, transport.SHARE_REFUSE,
                             {"goal": msg.goal_id, "req": msg.meta.get("req", -1)})
            else:
                self._asked.append((msg.sender, msg.meta.get("req", -1)))
        elif kind == transport.ANSWER:
            if self.ctx.team_id != 0:
                raise ProtocolViolation("answers routed to a non-master team")
            if msg.goal_id == self.goal_id:
                if msg.raw:
                    self._forward.append((msg.sender, msg.raw))
                credit = msg.meta.get("credit")
                if credit is not None:
                    self._recover(credit)
        elif kind == transport.TERMINATE:
            if msg.goal_id == self.goal_id:
                if busy:
                    raise ProtocolViolation(
                        f"TERMINATE for goal {msg.goal_id} reached a busy team")
                raise GoalDone
        elif kind == transport.FAULT:
            if msg.goal_id == self.goal_id:
                if self.ctx.team_id == 0:
                    self._client_fault(msg.meta.get("error", ""))
                raise GoalDone
        elif kind == transport.ENGINE_FREE:
            self._engine_free(rebroadcast=self.ctx.team_id == 0)
        elif kind in (transport.SHARE_ACCEPT, transport.SHARE_REFUSE):
            self._share_reply(msg, busy)
        elif kind == transport.GOAL:
            raise ProtocolViolation("GOAL frame reached a running team")
        elif kind == transport.ROOT_INFO:
            if msg.goal_id > self.goal_id and not busy:
                self.ep.push_back(msg)
                raise GoalDone
            raise ProtocolViolation("ROOT_INFO during a running goal")

    def _offer_asked(self) -> None:
        """Offer each held request to the busy worker with the highest load
        register while that load is positive, else to this master's own
        stack while it can yield; hold what neither can serve yet. A
        teammate that cannot split refuses, and the request is held again."""
        shared = self.ctx.shared
        while self._asked:
            loads = shared.loads()
            target = scheduler.select_sharer(loads, shared.idle_flags())
            if target is None:
                return
            team, req = self._asked[0]
            meta = {"goal": self.goal_id, "req": req, "team": team,
                    "strategy": self.goal_meta.get("strategy", "vs")}
            if target != 0 and loads[target] > 0:
                self._delegations.add((team, req))
                self._tell(target, N_DELEGATE_REQUEST, meta)
            elif (raw := self._split_remote(meta)) is not None:
                self._share(team, req, raw, meta["load"])
                target = 0
            else:
                return
            del self._asked[0]
            self.ctx.trace(0, "delegated", req=req, worker=target, team=team)

    def _refuse_asked(self) -> None:
        """The team went idle: refuse every request it holds."""
        for team, req in self._asked:
            self.ep.send(team, transport.SHARE_REFUSE, {"goal": self.goal_id, "req": req})
        self._asked.clear()

    def _share_reply(self, msg: TeamMessage, busy: bool) -> None:
        if self._outstanding is None or msg.goal_id != self.goal_id:
            return
        req_id, target = self._outstanding
        if msg.meta.get("req") != req_id or msg.sender != target:
            return
        self._outstanding = None
        if msg.kind == transport.SHARE_ACCEPT:
            if busy:
                raise ProtocolViolation("SHARE_ACCEPT while this team is busy")
            self._credit = msg.meta["credit"]
            self._install_pending = msg.raw

    # -- the team idle scheduler ---------------------------------------------------
    def _team_idle_scheduler(self) -> None:
        """All workers idle: hunt other teams for work, or end the goal."""
        ctx = self.ctx
        self.team_idle = True
        while True:
            self._drain_mailbox()
            self._refuse_held()
            self._pump()
            if self._install_pending is not None:
                self._install_stacks(self._install_pending)
                self._install_pending = None
                return
            if self._recovered == 1 << self._scale:
                self._terminate_peers()
                raise GoalDone
            if self._outstanding is None:
                target = scheduler.select_request_target(self.ep.loads, ctx.team_id)
                if target is not None:
                    req = self._next_req
                    self._next_req += 1
                    self._outstanding = (req, target)
                    self.ep.send(target, transport.SHARE_REQUEST,
                                 {"goal": self.goal_id, "req": req})
                    ctx.trace(0, "share_requested", team=target, req=req)
            # a busy team holds a request until it can share, and a refusal
            # retargets at once; load arrays change only on frames, which wake this
            self._await_mail()

    def _terminate_peers(self) -> None:
        """Team 0 holds all credit again: the goal is over everywhere."""
        for team in self.ep.peers():
            self.ep.send(team, transport.TERMINATE, {"goal": self.goal_id})
        self.ctx.trace(0, "terminate_broadcast", goal=self.goal_id)

    def _install_stacks(self, aux_bytes: bytes) -> None:
        """Unpack received stacks, wake the team, resume with a fail."""
        ctx = self.ctx
        self._install(aux_bytes, local=False)
        self.team_idle = False
        ctx.shared.set_idle(0, False)
        for rank in range(1, ctx.n_workers):
            self._tell(rank, N_HAS_WORK, self.goal_meta)
        ctx.trace(0, "installed", load=self.ws.load, goal=self.goal_id)

    # -- goal wind-down ---------------------------------------------------------
    def _finish_goal(self) -> None:
        ctx = self.ctx
        # answers already queued locally must reach the client; the other
        # teams' answers all arrived ahead of their credit
        self._forward_answers(now=True)
        if ctx.team_id == 0:
            if not self._client_done_sent:
                # trace first: its queue write completes before the client
                # can possibly observe the TERMINATE that ends the goal
                ctx.trace(0, "goal_done", goal=self.goal_id)
                self.ep.send(CLIENT_ID, transport.TERMINATE, {"goal": self.goal_id})
                self._client_done_sent = True
        for rank in range(1, ctx.n_workers):
            self._tell(rank, N_GOAL_DONE, {"goal": self.goal_id})
        self.ws.reset_to_base()
        self.team_idle = True
        ctx.shared.set_idle(0, True)

    def _engine_free(self, rebroadcast: bool) -> None:
        ctx = self.ctx
        if rebroadcast:
            for team in self.ep.peers():
                self.ep.send(team, transport.ENGINE_FREE, {})
        for rank in range(1, ctx.n_workers):
            self._tell(rank, N_GOAL_DONE, {"shutdown": True})
        raise EngineShutdown


# ---------------------------------------------------------------------------
# answer batch codec (ANSWER frame payload)
# ---------------------------------------------------------------------------

_U32 = struct.Struct("<I")


@lru_cache(maxsize=64)
def _answer_record(n: int) -> struct.Struct:
    """Length prefix plus ``n`` values: one packed answer."""
    return struct.Struct(f"<I{n}q")


def pack_answers(batch) -> bytes:
    """Pack one batch: the answer count, then each answer's length and values."""
    out = [_U32.pack(len(batch))]
    for answer in batch:
        n = len(answer)
        out.append(_answer_record(n).pack(n, *answer))
    return b"".join(out)


def unpack_answers(raw: bytes) -> list[tuple]:
    """Unpack a concatenation of packed batches into one answer list.

    Every count and length is checked against the bytes left before it is
    used, so a malformed payload raises ``ProtocolViolation`` and never
    builds a record format larger than the payload itself.
    """
    answers = []
    off = 0
    end = len(raw)
    while off < end:
        if end - off < 4:
            raise ProtocolViolation("answer payload ends inside a batch count")
        (count,) = _U32.unpack_from(raw, off)
        off += 4
        if 4 * count > end - off:
            raise ProtocolViolation(f"answer batch of {count} runs past the payload")
        for _ in range(count):
            if end - off < 4:
                raise ProtocolViolation("answer payload ends inside an answer length")
            (n,) = _U32.unpack_from(raw, off)
            size = 4 + 8 * n
            if size > end - off:
                raise ProtocolViolation(f"answer of {n} values runs past the payload")
            answers.append(_answer_record(n).unpack_from(raw, off)[1:])
            off += size
    return answers

"""Team processes: worker loops, intra-team sharing, and the master's
idle/busy scheduling.

Every worker of a team is a forked process sharing the team's ``TeamShared``
region; ``boot`` starts them. Worker 0 is the team master: an ordinary
worker that alone owns the transport endpoint and also runs the two
inter-team scheduler halves (the idle scheduler when the whole team is out
of work, the busy scheduler woven into its execution loop). It runs and
waits in its teammates' loops, through three hooks: a pump that serves the
transport and forwards answers while it waits, a wait for mail that naps
instead of blocking on the mailbox, and the test that tells it the whole
team is out of work. The client's goals enter through the master
team's master, and every worker parks in ``getwork_first_time`` between
goals.

Answers travel packed. A teammate buffers the answers it finds and puts
them into the team's answer pipe as one packed batch: a little-endian
``u32`` answer count, then per answer a ``u32`` length and that many
``i64`` values. It puts a batch at most every ``ANSWER_FLUSH_S``, and at
once for a goal's first answer, before the batch would pass
``ANSWER_BATCH_CAP`` bytes, and before it raises its idle flag. A master
never writes into that pipe: it drains the pipe on every tick and packs its
own answers straight into its forward buffer, next to its teammates'
batches and the ANSWER payloads of other teams. It sends the lot as one
ANSWER frame, at most every ``ANSWER_FLUSH_S`` while its team works and at
once when the team goes idle or the goal ends. An ANSWER payload is
therefore a concatenation of packed batches; nothing between the worker
and the client unpacks it.

A quiet service tick makes no syscall besides the master's one ``poll(2)``
on its transport. Every put into a team queue (a mailbox or the answer
pipe) is counted in ``TeamShared`` after it completes, so a reader that
sees a count move by ``k`` reads exactly ``k`` messages and never asks the
pipe whether it holds one.

Ticks space themselves out while nobody asks for work. Each run starts
ticking every ``k_backtracks`` steps. A tick that finds no mail (and, at a
master, no frame on its transport) doubles the spacing, up to
``TICK_SPACING_CAP`` × ``k_backtracks`` steps; a tick that finds any brings
it back to ``k_backtracks``. A request to a busy worker is therefore seen
within ``TICK_SPACING_CAP`` × ``k_backtracks`` steps, and the requests
that follow it within ``k_backtracks``. A teammate waiting for a reply
blocks on its mailbox meanwhile.

A goal ends by credit recovery (Mattern, IPL 30(4), 1989). Team 0 starts
it holding credit 1. Every SHARE_ACCEPT carries half of the sharer's
credit, kept as an exponent ``k`` meaning ``2**-k``, so a team that works
always holds some and a team that is idle holds none. A team going idle
hands its credit back to team 0 on an ANSWER frame behind its last answers;
on the FIFO link to team 0 that frame also ends the team's answer stream.
Team 0 sums what comes back exactly and broadcasts TERMINATE once it holds
credit 1 again: then no team works, no stacks are in flight, and every
answer has arrived. Load arrays only pick whom to ask for work.
"""

from __future__ import annotations

import os
import struct
import time
import traceback
from fractions import Fraction
from functools import lru_cache

from . import scheduler, splitting, transport
from .config import EngineOptions
from .engine import WorkerState, allocate_dead_root, install_segments, run_loop, setup_goal
from .errors import EngineShutdown, ProtocolViolation
from .programs import get_program
from .team import FramePoolExhausted, TeamShared, publish_private_nodes
from .transport import CLIENT_ID, TeamMessage

# intra-team notification kinds
N_HAS_WORK = "team_has_work"
N_DELEGATE_REQUEST = "delegate_request"
N_DELEGATE_ACCEPT = "delegate_accept"
N_DELEGATE_REFUSE = "delegate_refuse"
N_GOAL_DONE = "goal_done"
N_FAULT = "fault"

# A busy master sends its buffered answers on at most this often, and a busy
# teammate puts them into the answer pipe at most this often; a team going
# idle and a goal ending send them at once. Each ANSWER frame or batch costs
# every process on its path tens of microseconds, far more than the answers
# in it; at one per tick, sparse answers (queens) paid it per answer.
ANSWER_FLUSH_S = 0.01
# A teammate puts its buffered answers at once when one more would take the
# packed batch past this many bytes. Every put then fits an empty answer pipe
# (64 KiB), so a put never blocks on a batch its master has not been told
# of: the master reads exactly the batches that are counted.
ANSWER_BATCH_CAP = 32 * 1024
# A parked teammate blocks on its mailbox and wakes at least this often to
# see whether a failing master aborted the team, which sends no mail. Each
# wake costs about 0.1 ms of CPU; the master waits 2 s for its teammates.
PARKED_WAKE_S = 0.25
# A busy worker's quiet ticks double their spacing up to this many times
# ``k_backtracks`` steps. Almost every tick of a large goal is quiet, and
# each costs a few microseconds; the cap bounds how long a request waits.
TICK_SPACING_CAP = 32


class GoalDone(Exception):
    """The current goal ended (termination, fault, or a newer goal appeared)."""


class TeamContext:
    """Per-team plumbing inherited by every worker at fork time."""

    def __init__(self, engine_id, team_id, n_teams, n_workers, options,
                 shared, mailboxes, answers, trace_queue):
        self.master_pid = os.getpid()      # built by the master, before it forks
        self.engine_id = engine_id
        self.team_id = team_id
        self.n_teams = n_teams
        self.n_workers = n_workers
        self.options: EngineOptions = options
        self.shared: TeamShared = shared
        self.mailboxes = mailboxes
        self.answers = answers
        self.trace_queue = trace_queue

    def notify(self, sender: int, rank: int, kind: str, meta: dict, payload=None) -> None:
        self.mailboxes[rank].put((kind, meta, payload))
        self.shared.count_mail(sender, rank)

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
    ``_await_mail``, which naps instead of blocking so the pump keeps
    running, and
    ``_team_out_of_work``, which lets ``_acquire_locally`` give up.
    """

    def __init__(self, ctx: TeamContext, ws: WorkerState, rank: int):
        self.ctx = ctx
        self.ws = ws
        self.rank = rank
        self.goal_id = -1
        self.goal_meta = None
        self._answers: list[tuple] = []    # found since the last flush
        self._answer_bytes = 0             # their packed size, batch header aside
        self._last_flush = 0.0
        self._mail_seen = 0                # messages read from the mailbox
        self._spacing = 0                  # steps from the last service tick to the next

    def _tell(self, rank: int, kind: str, meta: dict, payload=None) -> None:
        self.ctx.notify(self.rank, rank, kind, meta, payload)

    # -- hooks ------------------------------------------------------------------
    def _pump(self) -> None:
        """Work done on every turn of a wait loop besides the mailbox."""

    def _team_out_of_work(self) -> bool:
        """True once the whole team is out of work; a teammate never decides it."""
        return False

    def _await_mail(self) -> None:
        """Wait for mail, blocking in poll(2) on the mailbox's read end."""
        self.ctx.mailboxes[self.rank]._reader.poll(PARKED_WAKE_S)

    # -- Alg. getwork: park, run, repeat ------------------------------------
    def getwork_first_time(self) -> None:
        ctx = self.ctx
        ctx.shared.set_ready(self.rank)
        while True:
            self._begin_goal(self._wait_for_work_in_team())
            self._park_on_dead_root()
            try:
                while True:
                    self._acquire_locally()
                    ctx.shared.set_idle(self.rank, False)
                    self._run()
                    self._flush_answers()
                    self.ws.reset_to_base()
                    ctx.shared.set_idle(self.rank, True)
            except GoalDone:
                pass
            self.ws.reset_to_base()
            ctx.shared.set_idle(self.rank, False)

    def _wait_for_work_in_team(self) -> dict:
        ctx = self.ctx
        while True:
            if ctx.shared.aborted():
                raise EngineShutdown
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
        self._answer_bytes = 0
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
        except (GoalDone, EngineShutdown, ProtocolViolation):
            raise
        except Exception:
            # a program fault aborts the goal engine-wide, not this worker
            self._propagate_fault({"goal": self.goal_id, "error": traceback.format_exc()})

    def _propagate_fault(self, meta: dict) -> None:
        self._tell(0, N_FAULT, meta)
        raise GoalDone

    def _emit(self, answer: tuple) -> None:
        size = 4 + 8 * len(answer)
        if self._answer_bytes + size > ANSWER_BATCH_CAP - 4:
            self._flush_answers()
        self._answers.append(answer)
        self._answer_bytes += size

    def _take_batch(self) -> bytes:
        """Pack the buffered answers into one batch and empty the buffer."""
        raw = pack_answers(self._answers)
        self._answers.clear()
        self._answer_bytes = 0
        return raw

    def _flush_answers(self) -> None:
        if self._answers:
            self.ctx.answers.put((self.goal_id, self._take_batch()))
            self.ctx.shared.count_answer_batch(self.rank)
            self._last_flush = time.monotonic()

    def _service(self) -> int:
        if self.ctx.shared.aborted():
            raise EngineShutdown
        if self._answers and time.monotonic() - self._last_flush >= ANSWER_FLUSH_S:
            self._flush_answers()
        return self._next_spacing(self._drain_mailbox())

    def _next_spacing(self, served: bool) -> int:
        """Steps to the next tick: ``k_backtracks`` after a tick that ``served``
        a message, else twice the last spacing, up to the cap."""
        k = self.ctx.options.k_backtracks
        self._spacing = k if served else min(2 * self._spacing, TICK_SPACING_CAP * k)
        return self._spacing

    def _next_mail(self):
        """The next message of this worker's mailbox, or None if none is counted.

        Every put into a mailbox is counted after it completes, so a counted
        message can be read without asking the pipe whether it holds one.
        """
        if self._mail_seen == self.ctx.shared.mail_count(self.rank):
            return None
        self._mail_seen += 1
        return self.ctx.mailboxes[self.rank].get()

    def _drain_mailbox(self) -> bool:
        """Dispatch every counted message; True if there was any."""
        seen = self._mail_seen
        while (mail := self._next_mail()) is not None:
            self._dispatch(*mail)
        return self._mail_seen != seen

    def _dispatch(self, kind, meta, payload) -> None:
        if kind == N_DELEGATE_REQUEST:
            if meta.get("goal") != self.goal_id:
                self._refuse(meta)
            elif "req" in meta:
                self._serve_remote(meta)
            else:
                self._serve_local(meta)
        elif kind == N_GOAL_DONE:
            if meta.get("shutdown"):
                raise EngineShutdown
            if meta.get("goal") == self.goal_id:
                raise GoalDone
        # a delegate reply here answers a request abandoned when its goal ended

    def _refuse(self, meta: dict) -> None:
        self._tell(0 if "req" in meta else meta["local"], N_DELEGATE_REFUSE, meta)

    # -- sharing: this worker is the sharer ------------------------------------
    def _serve_local(self, meta: dict) -> None:
        requester = meta["local"]
        ws = self.ws
        if ws.load <= 0:
            self._tell(requester, N_DELEGATE_REFUSE, meta)
            return
        try:
            publish_private_nodes(ws, self.ctx.shared)
        except FramePoolExhausted:
            self._tell(requester, N_DELEGATE_REFUSE, meta)
            return
        segments = splitting.snapshot_segments(ws)
        self._tell(requester, N_DELEGATE_ACCEPT, meta, segments)
        self.ctx.trace(self.rank, "shared_locally", requester=requester,
                       frames=[f for f in segments["frames"] if f >= 0])

    def _has_live_public_node(self) -> bool:
        for cp in self.ws.cps:
            if cp.frame >= 0:
                n, c, _, _ = self.ctx.shared.frame_state(cp.frame)
                if c < n:
                    return True
        return False

    def _serve_remote(self, meta: dict) -> None:
        ws = self.ws
        opts = self.ctx.options
        if ws.load < opts.l_min and not self._has_live_public_node():
            self._tell(0, N_DELEGATE_REFUSE, meta)
            return
        aux = splitting.split_for_transfer(ws, meta["goal"], meta.get("strategy", "vs"))
        if aux.load <= 0:
            self._tell(0, N_DELEGATE_REFUSE, meta)
            return
        meta["load"] = aux.load
        self._tell(0, N_DELEGATE_ACCEPT, meta, splitting.serialize_aux(aux))
        self.ctx.trace(self.rank, "shared_remotely", req=meta["req"], load=aux.load)

    # -- this worker is the requester -------------------------------------------
    def _acquire_locally(self) -> bool:
        """Pull work from a teammate; False once the team is out of work."""
        ctx = self.ctx
        shared = ctx.shared
        tries = 0
        while True:
            if shared.aborted():
                raise EngineShutdown
            self._drain_mailbox()
            self._pump()
            target = scheduler.select_local_target(shared.loads(), self.rank)
            if target is not None:
                if self._request_from(target):
                    return True
                tries = 0
                continue
            if self._team_out_of_work():
                return False
            time.sleep(min(ctx.options.backoff_min_s * (1 << min(tries, 10)),
                           ctx.options.backoff_max_s))
            tries += 1

    def _request_from(self, target: int) -> bool:
        ctx = self.ctx
        self._tell(target, N_DELEGATE_REQUEST, {"goal": self.goal_id, "local": self.rank})
        while True:
            if ctx.shared.aborted():
                raise EngineShutdown
            # a teammate may be blocked putting answers into a full pipe
            self._pump()
            mail = self._next_mail()
            if mail is None:
                # the reply may wait for the target's next tick, up to the cap
                self._await_mail()
                continue
            kind, m, payload = mail
            if kind in (N_DELEGATE_ACCEPT, N_DELEGATE_REFUSE) \
                    and m.get("local") == self.rank and m.get("goal") == self.goal_id:
                if kind == N_DELEGATE_REFUSE:
                    return False
                self._install_local(payload)
                return True
            self._dispatch(kind, m, payload)

    def _install_local(self, seg: dict) -> None:
        ws = self.ws
        ws.reset_to_base()
        install_segments(ws, seg["store_lo"], seg["store_cells"], seg["cp_records"],
                         seg["trail_lo"], seg["trail_entries"], frames=seg["frames"])
        self.ctx.trace(self.rank, "installed_locally", load=ws.load)


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
        self._delegations = set()         # (requesting team, req_id) being served
        self._next_poll_count = 0
        self._goal_finished = False
        self._client_done_sent = False
        self._install_pending = None
        self._credit = None               # exponent k of the held 2**-k, or None
        self._recovered = Fraction(0)     # team 0: credit handed back so far
        self._forward: list[tuple[int, bytes]] = []   # (origin team, packed batches)
        self._batches_seen = 0            # answer batch count at the last drain
        self._last_forward = 0.0          # when the last ANSWER frame went out

    # -- load array stamping -----------------------------------------------------
    def own_load(self) -> int:
        if self.team_idle:
            return -1
        return self.ctx.shared.team_load()

    # -- the hooks -----------------------------------------------------------------
    def _pump(self) -> None:
        self._drain_transport(busy=False)
        self._forward_answers()

    def _await_mail(self) -> None:
        # blocking on the mailbox would leave the transport unserved; nap
        # and pump again
        time.sleep(0.00002)

    def _team_out_of_work(self) -> bool:
        shared = self.ctx.shared
        if shared.idle_count() < self.ctx.n_workers or shared.public_alts() \
                or self._delegations:
            # a pending delegation may still ship stacks, under this team's credit
            return False
        # workers flush their answers before they raise their idle flags
        self._collect_batches()
        return shared.answer_batches() == self._batches_seen

    # -- Alg. getwork, master branches ---------------------------------------------
    def getwork_first_time(self) -> None:
        ctx = self.ctx
        self._wait_for_teammates()
        self.ep.barrier(ctx.options.barrier_timeout_s)
        ctx.trace(0, "barrier_passed")
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

    def _wait_for_teammates(self) -> None:
        ctx = self.ctx
        deadline = time.monotonic() + ctx.options.ready_timeout_s
        want = ctx.n_workers - 1
        while ctx.shared.ready_count() < want:
            if time.monotonic() >= deadline:
                raise ProtocolViolation(f"only {ctx.shared.ready_count()} of "
                                        f"{want} teammates became ready")
            if ctx.shared.aborted():
                raise EngineShutdown
            time.sleep(0.0005)
        ctx.trace(0, "teammates_ready", count=ctx.shared.ready_count())

    def _wait_for_goal(self, kind: int) -> dict:
        """Park between goals until a ``kind`` frame (GOAL or ROOT_INFO) starts one.

        The master blocks in its poller with no timeout. Waking to read the
        abort flag would find nothing: only the master itself raises it. A
        local master dies with its parent, and a tcp peer that dies closes
        its connection, which wakes the poller and raises ``EngineError``.
        """
        while True:
            msg = self.ep.poll_wait(None)
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
        self._goal_finished = False
        self._client_done_sent = False
        self._outstanding = None
        self._delegations.clear()
        self._install_pending = None
        self._credit = None
        self._recovered = Fraction(0)
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
        self._finish_goal()

    def _master_cycle(self, start_tag) -> None:
        """Run own work, then keep the team fed until the goal ends."""
        shared = self.ctx.shared
        while True:
            shared.set_idle(0, False)
            self._run(start_tag)
            start_tag = None
            self.ws.reset_to_base()
            shared.set_idle(0, True)
            if not self._acquire_locally():
                # team out of work: enter the inter-team idle scheduler
                self.team_idle = True
                self.ctx.trace(0, "team_idle", goal=self.goal_id)
                self._return_credit()
                self._team_idle_scheduler()

    def _service(self) -> int:
        # no abort check: only the master itself raises that flag
        served = self._drain_mailbox()
        polled = self._next_poll_count
        self._drain_transport(busy=True)
        self._forward_answers()
        return self._next_spacing(served or self._next_poll_count != polled)

    # -- answers -------------------------------------------------------------------
    def _flush_answers(self) -> None:
        """A master packs its own answers straight into its forward buffer."""
        if self._answers:
            self._forward.append((self.ctx.team_id, self._take_batch()))

    def _collect_batches(self) -> None:
        """Move teammates' counted batches from the answer pipe to the forward buffer."""
        ctx = self.ctx
        sent = ctx.shared.answer_batches()
        for _ in range(sent - self._batches_seen):
            goal_id, raw = ctx.answers.get()
            if goal_id == self.goal_id:
                self._forward.append((ctx.team_id, raw))
        self._batches_seen = sent

    def _forward_answers(self, now: bool = False, credit: int | None = None) -> None:
        """Send everything buffered as one ANSWER frame: to the client from
        the master team, to the master team from the others.

        The answer pipe is drained on every call, so no teammate stays
        blocked on it. The frame itself goes out at most every
        ``ANSWER_FLUSH_S`` unless ``now`` is set. A ``credit`` goes out at
        once on the frame, answers or not.
        """
        ctx = self.ctx
        self._collect_batches()
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
            self._recovered += Fraction(1, 1 << k)
            self._forward_answers(now=True)
        else:
            self._forward_answers(now=True, credit=k)

    def _halve_credit(self) -> int:
        """Split off the half of the held credit that travels with a share."""
        if self._credit is None:
            raise ProtocolViolation(f"team {self.ctx.team_id} shared work holding no credit")
        self._credit += 1
        return self._credit

    # -- intra-team servicing ----------------------------------------------------
    def _dispatch(self, kind, meta, payload) -> None:
        if kind in (N_DELEGATE_ACCEPT, N_DELEGATE_REFUSE) and "req" in meta:
            self._delegate_reply(meta, payload)
        elif kind == N_FAULT:
            self._propagate_fault(meta)
        else:
            super()._dispatch(kind, meta, payload)

    def _delegate_reply(self, meta: dict, aux_bytes) -> None:
        """A teammate served (or refused) a delegated request: reply to its team."""
        # request ids are per requesting team; the pair is the unique key
        team, req = meta.get("team"), meta["req"]
        if (team, req) not in self._delegations:
            return
        self._delegations.remove((team, req))
        if meta.get("goal") != self.goal_id:
            return
        if aux_bytes is None:
            self.ep.send(team, transport.SHARE_REFUSE, {"goal": self.goal_id, "req": req})
        else:
            self.ep.send(team, transport.SHARE_ACCEPT,
                         {"goal": self.goal_id, "req": req, "credit": self._halve_credit()},
                         aux_bytes)
            scheduler.record_receiver_busy(self.ep.loads, team, meta["load"])
            self.ctx.trace(0, "share_accepted", to=team, load=meta["load"])

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
    def _drain_transport(self, busy: bool) -> None:
        while self._install_pending is None:
            # a pending install flips this team to busy; traffic behind it in
            # the inbox must be answered from the post-install state
            msg = self.ep.poll()
            if msg is None:
                return
            self._next_poll_count += 1
            self._handle_message(msg, busy)

    def _merge(self, msg: TeamMessage) -> None:
        if msg.sender != CLIENT_ID and len(msg.loads) == self.ep.n_teams:
            self.ep.loads = scheduler.merge_load_arrays(
                self.ep.loads, msg.loads, keep=self.ctx.team_id)

    def _handle_message(self, msg: TeamMessage, busy: bool) -> None:
        self._merge(msg)
        kind = msg.kind
        if kind == transport.SHARE_REQUEST:
            self._delegate_request(msg)
        elif kind == transport.ANSWER:
            if self.ctx.team_id != 0:
                raise ProtocolViolation("answers routed to a non-master team")
            if msg.goal_id == self.goal_id:
                if msg.raw:
                    self._forward.append((msg.sender, msg.raw))
                credit = msg.meta.get("credit")
                if credit is not None:
                    self._recovered += Fraction(1, 1 << credit)
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

    def _delegate_request(self, msg: TeamMessage) -> None:
        """Pick the best-placed worker for an inbound request, or refuse now."""
        ctx = self.ctx
        req = msg.meta.get("req", -1)
        if msg.goal_id != self.goal_id or self.team_idle:
            self.ep.send(msg.sender, transport.SHARE_REFUSE,
                         {"goal": msg.goal_id, "req": req})
            return
        shared = ctx.shared
        target = scheduler.select_delegate(
            shared.loads(), [shared.public_nodes_of(r) for r in range(ctx.n_workers)],
            shared.idle_flags())
        if target is None:
            self.ep.send(msg.sender, transport.SHARE_REFUSE,
                         {"goal": msg.goal_id, "req": req})
            return
        self._delegations.add((msg.sender, req))
        meta = {"goal": self.goal_id, "req": req, "team": msg.sender,
                "strategy": self.goal_meta.get("strategy", "vs")}
        if target == 0:
            aux = None
            if self.ws.load >= ctx.options.l_min or self.ws.public_node_count():
                got = splitting.split_for_transfer(self.ws, self.goal_id,
                                                   meta["strategy"])
                if got.load > 0:
                    aux = splitting.serialize_aux(got)
                    meta["load"] = got.load
            self._delegate_reply(meta, aux)
        else:
            self._tell(target, N_DELEGATE_REQUEST, meta)
        ctx.trace(0, "delegated", req=req, worker=target, team=msg.sender)

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
        opts = ctx.options
        self.team_idle = True
        retry_at = 0.0
        # back off while nothing arrives: idle masters must not starve the
        # busy teams' workers of cpu
        nap = 0.00001
        while True:
            if ctx.shared.aborted():
                raise EngineShutdown
            self._drain_mailbox()
            before = self._next_poll_count
            self._pump()
            if self._next_poll_count != before:
                nap = 0.00001
            if self._install_pending is not None:
                self._install_stacks(self._install_pending)
                self._install_pending = None
                return
            if self._recovered == 1:
                self._terminate_peers()
                raise GoalDone
            if self._outstanding is None and time.monotonic() >= retry_at:
                target = scheduler.select_request_target(self.ep.loads, ctx.team_id)
                if target is not None:
                    req = self._next_req
                    self._next_req += 1
                    self._outstanding = (req, target)
                    self.ep.send(target, transport.SHARE_REQUEST,
                                 {"goal": self.goal_id, "req": req})
                    ctx.trace(0, "share_requested", team=target, req=req)
                retry_at = time.monotonic() + opts.retry_delay_s
            time.sleep(nap)
            nap = min(nap * 2, 0.0005)

    def _terminate_peers(self) -> None:
        """Team 0 holds all credit again: the goal is over everywhere."""
        for team in self.ep.peers():
            self.ep.send(team, transport.TERMINATE, {"goal": self.goal_id})
        self.ctx.trace(0, "terminate_broadcast", goal=self.goal_id)

    def _install_stacks(self, aux_bytes: bytes) -> None:
        """Unpack received stacks, wake the team, resume with a fail."""
        ctx = self.ctx
        aux = splitting.deserialize_aux(aux_bytes)
        if aux.goal_id != self.goal_id:
            raise ProtocolViolation("installed stacks belong to another goal")
        ws = self.ws
        ws.reset_to_base()
        splitting.install_aux(ws, aux)
        self.team_idle = False
        ctx.shared.set_idle(0, False)
        for rank in range(1, ctx.n_workers):
            self._tell(rank, N_HAS_WORK, self.goal_meta)
        ctx.trace(0, "installed", load=ws.load, goal=self.goal_id)

    # -- goal wind-down ---------------------------------------------------------
    def _finish_goal(self) -> None:
        ctx = self.ctx
        if self._goal_finished:
            return
        self._goal_finished = True
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
        ctx.shared.signal_abort()
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

"""Team processes: the drivers that run the protocol cores of ``protocol``.

Every worker of a team is a forked process sharing the team's ``TeamShared``
region; ``boot`` starts them. Worker 0 is the team master: an ordinary
worker that alone owns the transport endpoint and also drives its team's
``TeamCore``. A driver turns what happens (mail, frames, service ticks, idle
turns, the registers it reads) into events for its cores, and carries out
the actions they return: it mails, sends, copies and installs stacks, writes
idle flags, and starts or ends goals. It makes no scheduling decision of its
own. The client's goals enter through the master of team 0, and every
worker parks between goals in ``getwork_first_time``.

A worker's one intra-team channel is its endpoint on the team's links
(``transport.TeamLinks``). Every mail is a wire frame of one of
``protocol``'s message kinds, its payload checked bytes such as a stack
copy (a ``splitting`` aux area with a frames column).

Answers travel packed. A batch is a little-endian ``u32`` count and ``u32``
width (all answers of a goal have its template's width), then count × width
little-endian ``i64`` values; an ANSWER payload is a concatenation of
batches. A worker keeps the answers it found and one flush timer. A
teammate mails them to its master as one batch at most every
``ANSWER_FLUSH_S``, at once for a goal's first answer, and with its worker
credit before it raises its idle flag. A master buffers the batches it is
sent and sends them, its own answers packed last, as one ANSWER frame by
the same timer, and at once when its team goes idle or the goal ends. Only
the client unpacks a batch; team 0 reads the headers, for its trace.

Every wait is one blocking ``poll(2)``: a teammate's on its links, a
master's in its endpoint's poller, which also watches its links. No
process watches a teammate's sentinel: a dead teammate reads as end of
file on its links, and a dead master on its teammates' links. A worker
stops at the shutdown mail or at such an end of file. A mail is taken once
all its bytes have come, so a teammate that dies mid-send hangs nobody,
and a send to a dead worker, or a read past its last mail, raises
``EngineError``. Blocked sends form no cycle (see ``transport``).

Ticks space themselves out while nobody asks for work. Each run starts
ticking every ``k_backtracks`` steps. A tick that finds no mail but answers
(and, at a master, no frame but ANSWER frames) and holds no request doubles
the spacing, up to ``TICK_SPACING_CAP`` × ``k_backtracks`` steps; any other
tick brings it back to ``k_backtracks``. A request to a busy worker is
therefore seen within ``TICK_SPACING_CAP`` × ``k_backtracks`` steps, and a
held one is looked at again every ``k_backtracks`` steps.
"""

from __future__ import annotations

import os
import struct
import time
import traceback
from contextlib import suppress
from itertools import chain

from . import splitting
from .config import EngineOptions
from .engine import WorkerState, allocate_dead_root, run_loop, setup_goal
from .errors import EngineError, EngineShutdown, ProtocolViolation
from .programs import get_program
from .protocol import (ANSWER, CLIENT_ID, FAULT, SHARE_ACCEPT, SHARE_REQUEST, TERMINATE,
                       TeamCore, WorkerCore)
from .team import FramePoolExhausted, TeamShared, publish_private_nodes
from .transport import TeamLinks, TcpEndpoint

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


class TeamContext:
    """Per-team plumbing inherited by every worker at fork time."""

    def __init__(self, engine_id, team_id, n_teams, n_workers, options,
                 shared, links, trace_queue):
        self.parent_pid = os.getpid()      # built by the starter, before it forks
        self.engine_id = engine_id
        self.team_id = team_id
        self.n_teams = n_teams
        self.n_workers = n_workers
        self.options: EngineOptions = options
        self.shared: TeamShared = shared
        self.links: TeamLinks = links
        self.trace_queue = trace_queue

    def trace(self, rank: int, kind: str, **data) -> None:
        if self.trace_queue is not None:
            self.trace_queue.put((self.team_id, rank, kind, data))


# ---------------------------------------------------------------------------
# workers
# ---------------------------------------------------------------------------

class Worker:
    """A teammate's driver: it runs stacks and feeds its ``WorkerCore``.

    The master runs the same loops. It overrides three hooks: ``_pump``,
    which also keeps its transport going, ``_a_flush``, which keeps its
    answers for its own ANSWER frame, and ``_await_mail``, which blocks in
    its endpoint's poller so that frames wake it too.
    """

    def __init__(self, ctx: TeamContext, ws: WorkerState, rank: int, links: TcpEndpoint):
        self.ctx = ctx
        self.ws = ws
        self.rank = rank
        self.links = links
        self.core = WorkerCore(rank)
        self.goal_id = -1
        self._answers: list[tuple] = []    # found since the last flush
        self._last_flush = 0.0             # when answers last went out
        self._spacing = 0                  # steps from the last service tick to the next
        self._got_work = False             # a stack copy was installed since the last look

    # -- hooks ------------------------------------------------------------------
    def _pump(self) -> bool:
        """Work done on every service tick and idle turn besides the mail:
        send the answers held once a flush is due. True if asked for work."""
        if self._flush_wait() <= 0:
            self._a_flush()
        return False

    def _await_mail(self) -> None:
        """Wait for mail, blocking in poll(2) on this worker's links."""
        self.links.wait(None)

    def _core_for(self, kind: int):
        return self.core

    # -- carrying out the cores' actions ------------------------------------------
    def _do(self, actions) -> None:
        for name, *args in actions:
            getattr(self, "_a_" + name)(*args)

    def _a_mail(self, rank: int, kind: int, meta: dict, raw: bytes = b"") -> None:
        self.links.send(rank, kind, meta, raw)

    def _a_flag(self, rank: int, idle: bool) -> None:
        self.ctx.shared.set_idle(rank, idle)

    def _a_flush(self, credit=None) -> None:
        """Mail the answers held as one batch, with any worker credit."""
        if self._answers or credit is not None:
            self._a_mail(0, ANSWER, {"goal": self.goal_id, "credit": credit},
                         pack_answers(self._answers))
            self._answers.clear()
            self._last_flush = time.monotonic()

    def _a_copy(self, rank: int, meta: dict, then) -> None:
        """Teammate ``rank``'s request: a packed copy of this worker's
        stacks, or None if the frame pool cannot take its private nodes. It
        names the frames of every live node, published first."""
        ws, raw = self.ws, None
        try:
            publish_private_nodes(ws, self.ctx.shared)
        except FramePoolExhausted:
            pass
        else:
            aux = splitting.snapshot_to_aux(ws, self.goal_id)
            aux.frames = [cp.frame for cp in ws.cps]
            self.ctx.trace(self.rank, "shared_locally", requester=rank,
                           frames=[f for f in aux.frames if f >= 0])
            raw = splitting.serialize_aux(aux)
        self._do(then(rank, meta, raw))

    def _a_install(self, raw: bytes, local: bool) -> None:
        """Install a teammate's (``local``) or another team's stack copy."""
        aux = splitting.deserialize_aux(raw, frames=local)
        if aux.goal_id != self.goal_id:
            raise ProtocolViolation("installed stacks belong to another goal")
        self.ws.reset_to_base()
        splitting.install_aux(self.ws, aux, local)
        self._got_work = True
        if not local:
            self.ctx.trace(self.rank, "installed", load=self.ws.load, goal=self.goal_id)

    def _a_trace(self, kind: str) -> None:
        self.ctx.trace(self.rank, kind, goal=self.goal_id)

    def _a_end(self) -> None:
        raise GoalDone

    def _a_shutdown(self) -> None:
        raise EngineShutdown

    def _a_begin(self, meta: dict) -> None:
        """WAKE: join the goal on a dead root and look for work."""
        self._begin_goal(meta)
        self._park_on_dead_root()
        self._run_goal(None)

    # -- Alg. getwork: park, run, repeat ------------------------------------
    def getwork_first_time(self) -> None:
        """Park between goals; a WAKE mail runs one (``_a_begin``)."""
        while True:
            self._drain_mail()
            self._await_mail()

    def _begin_goal(self, meta: dict) -> None:
        self.goal_id = meta["goal"]
        self._answers.clear()
        self._last_flush = float("-inf")   # a goal's first answer goes out at once
        setup_goal(self.ws, get_program(meta["program"]), list(meta["args"]),
                   meta.get("template"))
        self.core.start(self.goal_id, meta.get("credit"))

    def _park_on_dead_root(self) -> None:
        allocate_dead_root(self.ws)
        self.ctx.trace(self.rank, "root_allocated", goal=self.goal_id)

    def _run_goal(self, start_tag) -> None:
        """Run from ``start_tag``, or look for work first if it is None, and
        again each time the stacks run out, until the goal ends."""
        try:
            while True:
                if start_tag is None:
                    self._acquire_locally()
                self._run(start_tag)
                start_tag = None
                self.ws.reset_to_base()
        except GoalDone:
            pass
        self.ws.reset_to_base()
        self.core.start(None)

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
            self._propagate_fault(traceback.format_exc())

    def _propagate_fault(self, error: str) -> None:
        self._a_mail(0, FAULT, {"goal": self.goal_id, "error": error})
        raise GoalDone

    def _emit(self, answer: tuple) -> None:
        self._answers.append(answer)

    def _flush_wait(self) -> float:
        """Seconds until the answers held are due to go out (none: now)."""
        return self._last_flush + ANSWER_FLUSH_S - time.monotonic()

    def _service(self) -> int:
        served = self._drain_mail()
        self._do(self.core.tick(self.ws.load))
        return self._next_spacing(self._pump() | served)

    def _next_spacing(self, served: bool) -> int:
        """Steps to the next tick, by the rule of the module docstring."""
        served = served or bool(self.core.held)
        k = self.ctx.options.k_backtracks
        self._spacing = k if served else min(2 * self._spacing, TICK_SPACING_CAP * k)
        return self._spacing

    def _drain_mail(self) -> bool:
        """Feed every whole mail to the cores; True if any was not answers."""
        served = False
        while (msg := self.links.poll()) is not None:
            self._do(self._core_for(msg.kind).mail(msg.kind, msg.sender, msg.meta, msg.raw))
            served |= msg.kind != ANSWER
        return served

    def _acquire_locally(self) -> bool:
        """Idle turns until a stack copy is installed (then True). Each turn
        feeds the cores the mail (and, at a master, the frames) that came,
        and lets the worker core ask the busy teammate it picks. With nobody
        busy it waits for mail: open work always has a worker flagged busy,
        so only mail (WAKE, a stack copy or the goal's end) or, at a
        master, a frame can bring some."""
        shared = self.ctx.shared
        self._got_work = False
        self._do(self.core.idle())
        while True:
            self._drain_mail()
            self._pump()
            if self._got_work:
                return True
            if self.core.asking is None:
                self._do(self.core.seek(shared.loads(), shared.idle_flags()))
            self._await_mail()


# ---------------------------------------------------------------------------
# the team master (worker 0)
# ---------------------------------------------------------------------------

class Master(Worker):
    """Worker 0: also owns the endpoint and drives its team's ``TeamCore``."""

    def __init__(self, ctx: TeamContext, ws: WorkerState, endpoint, links: TcpEndpoint):
        super().__init__(ctx, ws, 0, links)
        self.ep = endpoint
        self.team = TeamCore(ctx.team_id, ctx.n_teams, ctx.n_workers)
        endpoint.loads = self.team.loads  # the endpoint stamps this team's own entry
        endpoint.own_load_fn = self.own_load
        self._msg = None                  # the frame being fed to the team core
        self._forward = bytearray()       # batches to send on, own answers not yet packed

    def own_load(self) -> int:
        """This team's entry in the load arrays it stamps on its frames."""
        return -1 if self.team.idle else self.ctx.shared.team_load()

    # -- the hooks -----------------------------------------------------------------
    def _pump(self) -> bool:
        """Feed the frames that came to the team core, serve, and send the
        answers held once a flush is due. True if asked for work."""
        asked = self._drain_transport()
        self._do(self.team.serve())
        if self._flush_wait() <= 0:
            self._a_answers()
        return asked or bool(self.team.held)

    def _await_mail(self) -> None:
        # the poller watches the links too; held answers bound the wait
        held = self._answers or self._forward
        self.ep.wait(max(0.0, self._flush_wait()) if held else None)

    def _core_for(self, kind: int):
        return self.team if kind in (ANSWER, FAULT) else self.core

    # -- the team core's actions ---------------------------------------------------
    def _a_send(self, dest: int, kind: int, meta: dict, raw: bytes = b"") -> None:
        if kind == SHARE_REQUEST:
            self.ctx.trace(0, "share_requested", team=dest, req=meta["req"])
        elif kind == SHARE_ACCEPT:
            self.ctx.trace(0, "share_accepted", to=dest)
        elif kind == TERMINATE and dest == CLIENT_ID:
            # trace first: its queue write completes before the client can
            # possibly observe the TERMINATE that ends the goal
            self.ctx.trace(0, "goal_done", goal=self.goal_id)
        self.ep.send(dest, kind, meta, raw)

    def _a_split(self, team: int, meta: dict, then) -> None:
        """For another team's request, a packed split of this master's
        stack, or None if it cannot yield."""
        aux = splitting.split_for_transfer(self.ws, self.goal_id,
                                           self.team.meta.get("strategy", "vs"))
        self._do(then(team, meta, splitting.serialize_aux(aux) if aux.load > 0 else None,
                      aux.load))

    def _a_flush(self, credit=None) -> None:
        """Hand the worker credit to the team core; the answers wait."""
        self._do(self.team.mail(ANSWER, 0, {"goal": self.goal_id, "credit": credit}))

    def _a_forward(self, origin: int, raw: bytes) -> None:
        if self.ctx.team_id == 0 and self.ctx.trace_queue is not None:
            for count, _, _ in answer_batches(raw):
                self.ctx.trace(0, "client_answer", origin=origin, count=count)
        self._forward += raw

    def _a_hold(self, credit: int) -> None:
        self.core.credit = credit

    def _a_answers(self, credit=None) -> None:
        """Send the batches held and this master's own answers as one ANSWER
        frame to the client (team 0) or team 0, with any team credit."""
        if self._answers:
            self._a_forward(self.ctx.team_id, pack_answers(self._answers))
            self._answers.clear()
        if self._forward or credit is not None:
            self.ep.send(0 if self.ctx.team_id else CLIENT_ID, ANSWER,
                         {"goal": self.goal_id, "credit": credit}, bytes(self._forward))
            self._forward.clear()
            self._last_flush = time.monotonic()

    def _a_push_back(self) -> None:
        self.ep.push_back(self._msg)

    def _a_begin(self, meta: dict) -> None:
        """GOAL or ROOT_INFO: team 0 runs the goal from its root, the
        others once stacks come."""
        try:
            self._begin_goal(meta)
        except (KeyError, ValueError) as exc:
            # the client validates goals, so this is defensive only
            self.ep.send(CLIENT_ID, FAULT, {"goal": meta.get("goal", -1),
                                            "error": f"goal rejected: {exc}"})
            return
        try:
            self._do(self.team.start(meta))
            if self.ctx.team_id == 0:
                self._run_goal(self.ws.program.root_tag)
            else:
                self._park_on_dead_root()
                self._run_goal(None)
        except EngineError as exc:
            # a teammate that faulted mailed why before it died; its link's
            # end of file follows its last mail
            faults = []
            with suppress(EngineError):
                while (msg := self.links.poll()) is not None:
                    if msg.kind == FAULT:
                        faults.append(msg.meta["error"])
            if faults:
                raise EngineError("\n".join([str(exc), *faults])) from exc
            raise

    # -- goal execution ---------------------------------------------------------
    def getwork_first_time(self) -> None:
        """Park between goals; a GOAL or ROOT_INFO frame runs one (``_a_begin``).

        The master blocks in its poller with no timeout. Mail here belongs to
        the goal that ended and is dropped; unread, it would keep the poll
        readable. A dead teammate or peer raises ``EngineError`` at the poll.
        """
        while True:
            while self.links.poll() is not None:
                pass
            self._drain_transport()
            self.ep.wait(None)

    def _propagate_fault(self, error: str) -> None:
        self._do(self.team.fault(error))

    def _drain_transport(self) -> bool:
        """Feed every frame that has arrived to the team core; True if any
        was not ANSWER, as ``_drain_mail`` counts answer mail."""
        served = False
        while (msg := self.ep.poll()) is not None:
            self._msg = msg
            self._do(self.team.frame(msg.kind, msg.sender, msg.meta, msg.loads, msg.raw))
            served |= msg.kind != ANSWER
        return served


# ---------------------------------------------------------------------------
# answer batch codec (ANSWER frame payload)
# ---------------------------------------------------------------------------

_HEAD = struct.Struct("<II")      # a batch's answer count and width


def pack_answers(answers) -> bytes:
    """Pack answers of one width as one batch; no answers make no batch."""
    if not answers:
        return b""
    count, width = len(answers), len(answers[0])
    return struct.pack(f"<II{count * width}q", count, width, *chain.from_iterable(answers))


def answer_batches(raw: bytes):
    """Each batch of an ANSWER payload as (count, width, offset of its values),
    its header checked against the bytes left before its block is read."""
    off, end = 0, len(raw)
    while off < end:
        if end - off < _HEAD.size:
            raise ProtocolViolation("answer payload ends inside a batch header")
        count, width = _HEAD.unpack_from(raw, off)
        off += _HEAD.size
        if not count or not width or 8 * count * width > end - off:
            raise ProtocolViolation(f"answer batch of {count} x {width} values "
                                    f"does not fit the payload")
        yield count, width, off
        off += 8 * count * width


def unpack_answers(raw: bytes) -> list[tuple]:
    """Unpack a concatenation of batches into one answer list."""
    answers = []
    for count, width, off in answer_batches(raw):
        values = struct.unpack_from(f"<{count * width}q", raw, off)
        answers += zip(*[iter(values)] * width)
    return answers

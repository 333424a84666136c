"""Client-side engine registry and the five-call engine lifecycle.

The client process creates engines (forking each local team's master and
teammates side by side, ``boot.start_team``), submits goals, and drains
answers. All calls are non-blocking except ``par_get_answers`` in
``exact`` mode, which waits until enough answers exist or the goal
finishes. It blocks in the client endpoint's poller, which also watches
the trace pipe and every local master's sentinel: a dead master raises
``EngineError`` at the next read, with what failed masters reported on
their ctrl channels.

Worker processes are forked, so engines must be created from a process
without running threads (the POSIX fork constraint). Remote teams are hosted
by ``layered-or serve-agent`` processes and require the tcp transport.
"""

from __future__ import annotations

import atexit
import logging
# at its first import this registers the atexit hook that joins every live
# engine process; atexit runs hooks last-registered first, so importing it
# before _free_all is registered lets _free_all stop them before that join
import multiprocessing.util
import os
import pickle
import re
import socket
import time
from collections import deque
from dataclasses import asdict, dataclass, field
from typing import Optional, Sequence, Union

from .boot import READY_TIMEOUT_S, MasterBoot, SocketChannel, start_team
from .config import EngineOptions
from .engine import WorkerState
from .errors import EngineCreationError, EngineError, GoalError
from .programs import get_program
from .team import RecordLock
from .transport import (
    ANSWER,
    CLIENT_ID,
    ENGINE_FREE,
    FAULT,
    GOAL,
    TERMINATE,
    QueueMesh,
    TcpEndpoint,
)
from .worker import unpack_answers

log = logging.getLogger("layered_or")

READY = "ready"
RUNNING = "running"
FINISHED = "finished"
FREED = "freed"

_REGISTRY: dict[str, "EngineHandle"] = {}
_LOCAL_HOSTS = ("local", "localhost", "127.0.0.1")


class Mailbox:
    """The trace pipe: an engine's processes put events, the client gets
    them. An event is a ``u64`` length and a pickle, kept whole by a
    ``RecordLock`` (the kernel drops a dead holder's lock); ``get`` never
    blocks and keeps the bytes of an event not yet whole, so a writer
    killed mid-put hangs nobody. Build it before forking its writers."""

    def __init__(self):
        self.fd, self._wfd = os.pipe()
        os.set_blocking(self.fd, False)
        self._wlock = RecordLock("mailbox")
        self._inbox = bytearray()          # the reader's bytes of an event not yet whole

    def put(self, mail) -> None:
        raw = pickle.dumps(mail)
        view = memoryview(len(raw).to_bytes(8, "little") + raw)
        try:
            with self._wlock:
                while view:
                    view = view[os.write(self._wfd, view):]
        except BrokenPipeError:
            raise EngineError("the trace pipe's reader died") from None

    def get(self):
        """The next whole event, or None if its bytes have not all come."""
        buf = self._inbox
        while len(buf) < 8 or len(buf) < (end := 8 + int.from_bytes(buf[:8], "little")):
            try:
                buf += os.read(self.fd, 1 << 16)
            except BlockingIOError:
                return None
        mail = pickle.loads(buf[8:end])
        del buf[:end]
        return mail

    def close(self) -> None:
        os.close(self.fd)
        os.close(self._wfd)
        self._wlock.close()


@dataclass
class TeamSpec:
    """One team of the engine topology: where, how many workers, which programs."""
    host: str = "local"
    n_workers: int = 1
    program: str = "builtin"


@dataclass
class GoalSpec:
    program: str
    args: list = field(default_factory=list)
    template: Optional[str] = None


# ---------------------------------------------------------------------------
# goal parsing
# ---------------------------------------------------------------------------

_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_INT = re.compile(r"-?[0-9]+")


def parse_goal(text: str) -> GoalSpec:
    """Parse ``name``, ``name(arg, ...)``, optionally with ``-> slot``.

    Arguments are integers or atoms; whitespace is insignificant. Raises
    ``GoalError`` naming the 1-based column of the first offending character.
    """
    s = text
    i = 0

    def skip_ws():
        nonlocal i
        while i < len(s) and s[i].isspace():
            i += 1

    def fail(expected):
        raise GoalError(f"syntax error at column {i + 1}: expected {expected}")

    skip_ws()
    m = _NAME.match(s, i)
    if not m:
        fail("a program name")
    name = m.group()
    i = m.end()
    args: list = []
    skip_ws()
    if i < len(s) and s[i] == "(":
        i += 1
        while True:
            skip_ws()
            m = _INT.match(s, i)
            if m:
                args.append(int(m.group()))
                i = m.end()
            else:
                m = _NAME.match(s, i)
                if not m:
                    fail("an integer or atom argument")
                args.append(m.group())
                i = m.end()
            skip_ws()
            if i < len(s) and s[i] == ",":
                i += 1
                continue
            if i < len(s) and s[i] == ")":
                i += 1
                break
            fail("',' or ')'")
    template = None
    skip_ws()
    if i < len(s):
        if s.startswith("->", i):
            i += 2
            skip_ws()
            m = _NAME.match(s, i)
            if not m:
                fail("a template slot name")
            template = m.group()
            i = m.end()
            skip_ws()
        if i < len(s):
            fail("end of goal")
    return GoalSpec(name, args, template)


def _validate_goal(goal: GoalSpec) -> None:
    try:
        program = get_program(goal.program)
    except KeyError as exc:
        raise GoalError(exc.args[0]) from None
    if len(goal.args) != program.arity:
        raise GoalError(f"{goal.program} takes {program.arity} argument(s), "
                        f"got {len(goal.args)}")
    try:
        program.setup(WorkerState(), goal.args)
        slots = program.slots(goal.args)
    except (ValueError, TypeError) as exc:
        raise GoalError(f"bad arguments for {goal.program}: {exc}") from None
    if not slots:
        raise GoalError(f"{goal.program}{tuple(goal.args)} has no cell to report answers by")
    if goal.template is not None and goal.template not in slots:
        raise GoalError(f"unknown template slot {goal.template!r}; "
                        f"slots: {sorted(slots)}")


# ---------------------------------------------------------------------------
# the engine handle and the five calls
# ---------------------------------------------------------------------------

class EngineHandle:
    """A created engine: topology, lifecycle state, and the answer buffer."""

    def __init__(self, name: str, topology: list[TeamSpec], strategy: str,
                 options: EngineOptions, transport_kind: str):
        self.name = name
        self.topology = topology
        self.strategy = strategy
        self.options = options
        self.transport_kind = transport_kind
        self.state = READY
        self.answers: deque = deque()
        self.goal_seq = 0
        self.current_goal: Optional[GoalSpec] = None
        self._ep = None
        self._mesh = None
        self._procs: list = []            # every local team's processes, each master first
        self._channels: list = []
        self._trace_queue = None
        self._trace_buffer: list = []
        self._error: Optional[str] = None

    # -- client-side message pump ---------------------------------------------
    def _pump(self) -> None:
        """Handle every message that has arrived."""
        if self._ep is None:
            return
        self._drain_trace()
        try:
            while (msg := self._ep.poll()) is not None:
                if msg.kind == ANSWER and msg.goal_id == self.goal_seq:
                    self.answers.extend(unpack_answers(msg.raw))
                elif msg.kind == TERMINATE and msg.goal_id == self.goal_seq:
                    self.state = FINISHED
                elif msg.kind == FAULT and msg.goal_id == self.goal_seq:
                    self.state = FINISHED
                    self._error = msg.meta.get("error", "engine fault")
        except EngineError as exc:
            # a failed master reports why on its ctrl channel before its links close
            why = [] if self._error is None else [f"goal fault:\n{self._error}"]
            for team_id, chan in enumerate(self._channels):
                try:
                    why.append(f"team {team_id} reported:\n{chan.get(0)['error']}")
                except Exception:
                    pass              # no report: the master is alive or was killed
            raise EngineError("\n".join([str(exc), *why])) from None

    def _drain_trace(self) -> None:
        # tracing processes block once the trace pipe fills, so the client
        # moves events into this buffer on every pump
        if self._trace_queue is not None:
            while (event := self._trace_queue.get()) is not None:
                self._trace_buffer.append(event)

    def _raise_if_faulted(self) -> None:
        if self._error is not None:
            err, self._error = self._error, None
            raise GoalError(f"goal aborted by an engine fault:\n{err}")

    def trace_events(self) -> list:
        self._drain_trace()
        events = list(self._trace_buffer)
        self._trace_buffer.clear()
        return events

    def __repr__(self):
        return f"EngineHandle({self.name!r}, {self.state}, {len(self.topology)} teams)"


def par_create_parallel_engine(name: str, teams: Sequence[Union[TeamSpec, tuple]],
                               strategy: str = "vs",
                               transport: Optional[str] = None,
                               options: Optional[EngineOptions] = None) -> EngineHandle:
    """Create and launch the teams and workers of a new engine.

    ``teams`` is a sequence of ``TeamSpec`` (or ``(host, n_workers, program)``
    tuples). The first team is the master team; its master worker receives
    goals and returns answers. The back-end comes from ``transport``, the
    LAYERED_OR_TRANSPORT environment variable, or defaults to ``inproc``.
    """
    if name in _REGISTRY:
        raise EngineCreationError(f"engine name {name!r} is already in use")
    specs = []
    for t in teams:
        spec = t if isinstance(t, TeamSpec) else TeamSpec(*t)
        if spec.n_workers < 1:
            raise EngineCreationError("every team needs at least one worker")
        specs.append(spec)
    if not specs:
        raise EngineCreationError("an engine needs at least one team")
    if strategy not in ("vs", "hs"):
        raise EngineCreationError(f"unknown strategy {strategy!r}")
    transport_kind = transport or os.environ.get("LAYERED_OR_TRANSPORT", "inproc")
    if transport_kind not in ("inproc", "tcp"):
        raise EngineCreationError(f"unknown transport {transport_kind!r}")
    remote = [s for s in specs if s.host not in _LOCAL_HOSTS]
    if remote and transport_kind != "tcp":
        raise EngineCreationError("remote hosts require the tcp transport")
    options = options or EngineOptions()

    handle = EngineHandle(name, specs, strategy, options, transport_kind)
    if options.trace:
        handle._trace_queue = Mailbox()
    if transport_kind == "inproc":
        handle._mesh = QueueMesh(len(specs), delay=options.delay)
    try:
        _launch_teams(handle)
    except Exception:
        _teardown(handle, force=True)
        raise
    _REGISTRY[name] = handle
    return handle


def _launch_teams(handle: EngineHandle) -> None:
    opts = handle.options
    n_teams = len(handle.topology)
    masters = {}
    for team_id, spec in enumerate(handle.topology):
        if spec.host in _LOCAL_HOSTS:
            ours, theirs = (SocketChannel(s) for s in socket.socketpair())
            handle._channels.append(ours)
            team = start_team(MasterBoot(
                engine_id=handle.name, team_id=team_id, n_teams=n_teams,
                n_workers=spec.n_workers, options=opts,
                transport_kind=handle.transport_kind, channel=theirs,
                mesh=handle._mesh, trace_queue=handle._trace_queue))
            handle._procs += team
            masters[team_id] = team[0]
        else:
            host, _, port = spec.host.partition(":")
            if not port:
                raise EngineCreationError(
                    f"remote host {spec.host!r} must be '<host>:<port>'")
            try:
                sock = socket.create_connection((host, int(port)), timeout=10)
            except OSError as exc:
                raise EngineCreationError(
                    f"cannot reach agent at {spec.host}: {exc}") from None
            chan = SocketChannel(sock)
            chan.put({"cmd": "create_team", "engine": handle.name,
                      "team_id": team_id, "n_teams": n_teams,
                      "n_workers": spec.n_workers, "options": asdict(opts),
                      "bind_host": "0.0.0.0"})
            handle._channels.append(chan)

    if handle.transport_kind == "tcp":
        portmap = {}
        for team_id, (spec, chan) in enumerate(zip(handle.topology, handle._channels)):
            reply = _ctrl_get(chan, team_id)
            host = spec.host.partition(":")[0] if spec.host not in _LOCAL_HOSTS \
                else "127.0.0.1"
            portmap[str(team_id)] = (host, reply["port"])
        for chan in handle._channels:
            chan.put({"portmap": portmap})
        # team 0 reports ready only after accepting the client, so dial first
        handle._ep = TcpEndpoint(handle.name, CLIENT_ID, n_teams, delay=opts.delay)
        host, port = portmap["0"]
        handle._ep.dial(0, host, port)
    else:
        handle._ep = handle._mesh.endpoint(handle.name, CLIENT_ID)
        handle._mesh.close_others(CLIENT_ID)    # every process is forked by now
    for team_id, proc in masters.items():
        handle._ep.watch(proc.sentinel, f"master of team {team_id} died")
    if handle._trace_queue is not None:
        handle._ep.watch(handle._trace_queue.fd)

    for team_id, chan in enumerate(handle._channels):
        _ctrl_get(chan, team_id, expect="ready")


def _ctrl_get(chan, team_id: int, expect: Optional[str] = None):
    try:
        reply = chan.get(READY_TIMEOUT_S)
    except OSError as exc:          # end of file or timeout: the master is gone or stuck
        raise EngineCreationError(f"team {team_id} failed to start: {exc}") from None
    if "error" in reply:
        raise EngineCreationError(f"team {team_id} failed to start:\n{reply['error']}")
    if expect is not None and expect not in reply:
        raise EngineCreationError(f"unexpected ctrl reply {reply!r}")
    return reply


def par_run_goal(engine: EngineHandle, goal: Union[GoalSpec, str]) -> None:
    """Asynchronously start a goal; answers stream back while you poll."""
    _check_live(engine)
    if engine.state == RUNNING:
        raise GoalError("engine is already running a goal")
    if engine.state not in (READY, FINISHED):
        raise GoalError(f"engine is {engine.state}")
    spec = parse_goal(goal) if isinstance(goal, str) else goal
    _validate_goal(spec)
    engine.goal_seq += 1
    engine.current_goal = spec
    engine.answers.clear()
    engine._error = None
    engine.state = RUNNING
    engine._ep.send(0, GOAL, {
        "goal": engine.goal_seq, "program": spec.program, "args": spec.args,
        "template": spec.template, "strategy": engine.strategy,
    })


def par_probe_answers(engine: EngineHandle) -> bool:
    """True iff unread answers exist or the goal finished. Never blocks."""
    _check_live(engine)
    if engine.current_goal is None:
        raise GoalError("no goal was ever submitted to this engine")
    engine._pump()
    engine._raise_if_faulted()
    return bool(engine.answers) or engine.state == FINISHED


def par_get_answers(engine: EngineHandle, mode: tuple[str, int]):
    """Retrieve answers: ("max", n) returns at once, ("exact", n) blocks.

    Returns ``(answers, count)``; returns ``None`` once every answer has been
    consumed and the goal has finished (the retrieval "fails").
    """
    _check_live(engine)
    if engine.current_goal is None:
        raise GoalError("no goal was ever submitted to this engine")
    kind, n = mode
    if kind not in ("max", "exact") or n < 1:
        raise GoalError(f"bad retrieval mode {mode!r}")
    engine._pump()
    engine._raise_if_faulted()
    if kind == "exact":
        while len(engine.answers) < n and engine.state != FINISHED:
            engine._ep.wait(None)     # until a frame, a trace event or a death
            engine._pump()
            engine._raise_if_faulted()
    take = min(n, len(engine.answers))
    if take == 0:
        if engine.state == FINISHED:
            return None
        return [], 0
    batch = [engine.answers.popleft() for _ in range(take)]
    return batch, take


def par_free_parallel_engine(engine: Union[EngineHandle, str]) -> None:
    """Terminate all workers and teams; the engine name becomes reusable."""
    handle = _REGISTRY.get(engine) if isinstance(engine, str) else engine
    if handle is None or handle.state == FREED:
        log.warning("par_free_parallel_engine: engine already freed")
        return
    _teardown(handle, force=False)


def _teardown(handle: EngineHandle, force: bool) -> None:
    if handle.state == FREED:
        return
    try:
        if handle._ep is not None and not force:
            handle._ep.send(0, ENGINE_FREE, {})
    except EngineError:
        pass
    deadline = time.monotonic() + 5.0
    for proc in handle._procs:
        proc.join(timeout=max(0.1, deadline - time.monotonic()))
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=1.0)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=1.0)
    handle._procs.clear()         # a collected Process closes its sentinel pipe
    handle._drain_trace()         # the trace pipe closes with the links
    for link in handle._channels + [handle._ep, handle._mesh, handle._trace_queue]:
        if link is not None:
            link.close()
    handle._trace_queue = None
    handle.state = FREED
    _REGISTRY.pop(handle.name, None)


def _check_live(engine: EngineHandle) -> None:
    if engine.state == FREED:
        raise GoalError(f"engine {engine.name!r} was freed")


@atexit.register
def _free_all() -> None:
    for handle in list(_REGISTRY.values()):
        _teardown(handle, force=False)

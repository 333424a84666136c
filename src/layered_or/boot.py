"""Process start-up: team masters, their teammates and the ctrl channel.

A team master is started by the client (local teams) or by a
``serve-agent`` process (agent-hosted teams). Either way it gets a
``MasterBoot`` and a ``SocketChannel`` back to the process that built the
boot record: a ``socket.socketpair`` end for a local team, the client's
connection for an agent-hosted one. Over that channel it reports its
listening port, receives the port map (tcp), and says when it is ready or
why it failed. The master then forks its teammates.

Every process of a team dies with the process that started it: a master
with the client or agent that built its boot record, a teammate with its
master. On Linux the kernel sends the ``PR_SET_PDEATHSIG`` signal, so a
killed client leaves no process behind. A dead teammate raises
``EngineError`` in its master, and a master that fails terminates its team.

Start-up cost is paid once in the client, not in every fork. Importing
this module imports everything a master and its teammates use and resolves
``prctl`` through ``ctypes``; forked processes inherit both. Each master
then pays for its own work only: the team's ``TeamShared`` region (an
anonymous map and one memfd for its team lock), one mailbox per worker (a
pipe and a memfd for its write lock), one fork per teammate, closing the
inproc links it does not own (or setting up its tcp links), and one
``prctl`` call. It builds no semaphore: every team lock is a kernel record
lock (``team.RecordLock``). Each teammate pays one ``prctl`` call.

A master reports ready once it has forked its teammates and built its
links. Nothing waits for them to run: what is sent early waits in a socket
or pipe, and a death is an fd that the master's poller watches.
"""

from __future__ import annotations

# imported here, not in each forked process: a fork then pays nothing for it
import ctypes
import json
import multiprocessing
import os
import signal
import socket
import sys
import traceback
from dataclasses import dataclass, field

from .config import EngineOptions
from .engine import WorkerState
from .errors import EngineShutdown
from .team import TeamShared
from .transport import CLIENT_ID, TcpEndpoint
from .worker import N_FAULT, Mailbox, Master, TeamContext, Worker

# how long start-up waits for a ctrl reply and for its tcp peers to connect
READY_TIMEOUT_S = 30.0


class SocketChannel:
    """Ctrl channel as newline-delimited json over a socket."""

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self._buf = b""

    def put(self, obj) -> None:
        self._sock.sendall(json.dumps(obj).encode() + b"\n")

    def get(self, timeout: float):
        self._sock.settimeout(timeout)
        while b"\n" not in self._buf:
            chunk = self._sock.recv(4096)
            if not chunk:
                raise TimeoutError("ctrl channel closed")
            self._buf += chunk
        line, self._buf = self._buf.split(b"\n", 1)
        return json.loads(line.decode())

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass


@dataclass
class MasterBoot:
    """What a team master needs to start; built by the process that starts it."""
    engine_id: str
    team_id: int
    n_teams: int
    n_workers: int
    options: EngineOptions
    transport_kind: str
    channel: SocketChannel         # ctrl channel back to the parent
    mesh: object = None            # inproc transport only
    bind_host: str = "127.0.0.1"
    trace_queue: object = None
    parent_pid: int = field(default_factory=os.getpid)


def _resolve_prctl():
    if not sys.platform.startswith("linux"):
        return None
    prctl = ctypes.CDLL(None, use_errno=True).prctl
    prctl.argtypes = [ctypes.c_int, ctypes.c_ulong, ctypes.c_ulong,
                      ctypes.c_ulong, ctypes.c_ulong]
    prctl.restype = ctypes.c_int
    return prctl


_PRCTL = _resolve_prctl()      # resolved once; every forked process inherits it
_PR_SET_PDEATHSIG = 1


def _die_with_parent(parent_pid: int) -> None:
    """Have the kernel kill this process when its parent dies (Linux only).

    Exits at once if the parent is already gone: the signal is only armed
    for a parent that is still alive.
    """
    if _PRCTL is not None and _PRCTL(_PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0) != 0:
        err = ctypes.get_errno()
        raise OSError(err, f"prctl(PR_SET_PDEATHSIG): {os.strerror(err)}")
    if os.getppid() != parent_pid:
        os._exit(0)


def _worker_state(shared: TeamShared, team_id: int, rank: int) -> WorkerState:
    shared.bind(rank)
    ws = WorkerState(team_id=team_id, worker_id=rank)
    ws.frames = shared
    ws.load_sink = lambda load: shared.set_load(rank, load)
    ws.public_sink = lambda n: shared.set_public_nodes(rank, n)
    return ws


def worker_process_main(ctx: TeamContext, rank: int) -> None:
    """Entry point of a teammate (worker ``rank`` > 0), forked by its master."""
    _die_with_parent(ctx.master_pid)
    ctx.close_others(rank)
    w = Worker(ctx, _worker_state(ctx.shared, ctx.team_id, rank), rank)
    try:
        w.getwork_first_time()
    except EngineShutdown:
        pass
    except Exception:
        ctx.trace(rank, "worker_crash", error=traceback.format_exc())
        ctx.notify(0, N_FAULT, {"goal": w.goal_id, "error": traceback.format_exc()})


def master_entry(boot: MasterBoot) -> None:
    """Entry point of a team-master process."""
    _die_with_parent(boot.parent_pid)
    chan = boot.channel
    workers = []
    ep = None
    try:
        ctx = multiprocessing.get_context("fork")
        shared = TeamShared(boot.n_workers)
        mailboxes = [Mailbox() for _ in range(boot.n_workers)]
        tctx = TeamContext(boot.engine_id, boot.team_id, boot.n_teams,
                           boot.n_workers, boot.options, shared, mailboxes,
                           boot.trace_queue)
        if boot.transport_kind == "inproc":
            # once only its owner holds an end, a dead owner reads as EOF
            ep = boot.mesh.endpoint(boot.engine_id, boot.team_id)
            boot.mesh.close_others(boot.team_id)
        for rank in range(1, boot.n_workers):
            p = ctx.Process(target=worker_process_main, args=(tctx, rank),
                            daemon=True, name=f"{boot.engine_id}-t{boot.team_id}w{rank}")
            p.start()
            workers.append(p)
        tctx.close_others(0)

        if boot.transport_kind == "tcp":
            ep = TcpEndpoint(boot.engine_id, boot.team_id, boot.n_teams,
                             delay=boot.options.delay)
            srv, port = ep.listen(boot.bind_host)
            chan.put({"port": port})
            portmap = chan.get(READY_TIMEOUT_S)["portmap"]
            for peer in range(boot.team_id):
                host, pport = portmap[str(peer)]
                ep.dial(peer, host, pport)
            expected = set(range(boot.team_id + 1, boot.n_teams))
            if boot.team_id == 0:
                expected.add(CLIENT_ID)
            ep.accept_peers(srv, expected, READY_TIMEOUT_S)
            srv.close()
        # one poll(2) wakes the master for frames, mail and teammate deaths
        ep.watch(mailboxes[0].fd)
        for rank, p in enumerate(workers, 1):
            ep.watch(p.sentinel, f"worker {rank} of team {boot.team_id} died")
        chan.put({"ready": True})

        master = Master(tctx, _worker_state(shared, boot.team_id, 0), ep)
        ep.own_load_fn = master.own_load
        master.getwork_first_time()
    except EngineShutdown:
        pass                          # each teammate was mailed the shutdown
    except Exception:
        for p in workers:             # no mail will stop them
            p.terminate()
        if boot.trace_queue is not None:
            boot.trace_queue.put((boot.team_id, 0, "master_crash",
                                  {"error": traceback.format_exc()}))
        try:
            chan.put({"error": traceback.format_exc()})
        except Exception:
            pass
    finally:
        for p in workers:
            p.join(timeout=2.0)
        for p in workers:
            if p.is_alive():
                p.terminate()
        if ep is not None:
            ep.close()

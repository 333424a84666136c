"""Process start-up: a team's processes, the class they run in, and the ctrl channel.

The process that starts a team (the client for a local team, a
``serve-agent`` for a hosted one) builds its ``MasterBoot``, ``TeamShared``
region and ``TeamLinks``, forks the master and then every teammate side
by side (``start_team``), and closes its copies of the region, the links
and the master's end of the ctrl channel: a ``socket.socketpair`` end for
a local team, the client's connection for a hosted one. Over that channel
the master reports its listening port, receives the port map (tcp), and
says when it is ready or why it failed. Masters fork nothing.

Each process closes the ends it does not own. A master closes the inproc
mesh ends of other teams and its team's links between other ranks. A
teammate closes every inproc mesh end, its team's ctrl channel, and the
links between other ranks. Only a link's owner then holds its end, so
every death reads as an end of file:

- a dead teammate, on its links: its master raises ``EngineError``, says
  why on its ctrl channel and exits;
- a dead master, on its links: its teammates leave; and the client's
  poller watches a local master's sentinel, or reads end of file on an
  agent-hosted master's connection;
- a dead starter: on Linux the kernel kills every master and teammate it
  forked with the ``PR_SET_PDEATHSIG`` signal, so a killed client leaves
  no process behind.

Every engine process is an ``EngineProcess``, a ``multiprocessing``
child without the child bootstrap, so ``join``, ``sentinel`` and
``active_children()`` work on it as on any child.

Start-up cost is paid once in the starter: importing this module imports
everything a team's processes use and resolves ``prctl`` through
``ctypes``, and the starter builds each team's region (an anonymous map
and a ``team.RecordLock`` memfd) and links (a socket pair per pair of
workers). A forked process pays for its closes, one ``prctl`` call and, at
a tcp master, its connections. A master reports ready once its links are
built; nothing waits for its teammates to run, as what is sent early waits
in a socket.
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
from contextlib import suppress
from dataclasses import dataclass

from .config import EngineOptions
from .engine import WorkerState
from .errors import EngineError, EngineShutdown
from .team import TeamShared
from .transport import CLIENT_ID, TcpEndpoint, TeamLinks
from .protocol import FAULT
from .worker import Master, TeamContext, Worker

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
    """What a team's processes need to start; built by the process that starts them."""
    engine_id: str
    team_id: int
    n_teams: int
    n_workers: int
    options: EngineOptions
    transport_kind: str
    channel: SocketChannel         # ctrl channel back to the starter
    mesh: object = None            # inproc transport only
    bind_host: str = "127.0.0.1"
    trace_queue: object = None


class EngineProcess(multiprocessing.context.ForkProcess):
    """A fork-start process whose child runs its target at once, flushes
    stdio and leaves by ``os._exit``. Like ``BaseProcess._bootstrap``, it
    makes itself ``multiprocessing``'s current process, with no children,
    so it reads its own name and not its starter's earlier children. It
    skips the bootstrap steps that no engine process uses (stdin reopened
    on ``/dev/null``, the after-fork hooks, the finalizer registry): about
    0.5 ms a child on a 2-vCPU host."""

    def _bootstrap(self, parent_sentinel=None):
        multiprocessing.process._current_process = self
        multiprocessing.process._children = set()
        code = 1
        try:
            self.run()
            code = 0
        except BaseException:
            sys.stderr.write(f"Process {self.name}:\n")
            traceback.print_exc()
        finally:
            for stream in (sys.stdout, sys.stderr):
                with suppress(AttributeError, ValueError, OSError):
                    stream.flush()
            os._exit(code)


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
    ws = WorkerState(team_id=team_id, worker_id=rank)
    ws.frames = shared
    ws.load_sink = lambda load: shared.set_load(rank, load)
    return ws


def start_team(boot: MasterBoot) -> list:
    """Fork a team's master, then each teammate, and close this process's
    copies of the team's region, links and ctrl channel end. Returns the
    processes, the master first; a failed fork kills those already started."""
    tctx = TeamContext(boot.engine_id, boot.team_id, boot.n_teams, boot.n_workers,
                       boot.options, TeamShared(boot.n_workers), TeamLinks(boot.n_workers),
                       boot.trace_queue)
    inherited = [end for end in (boot.channel, boot.mesh) if end is not None]
    procs = []
    try:
        for rank in range(boot.n_workers):
            target, args = ((master_entry, (boot, tctx)) if rank == 0 else
                            (worker_process_main, (tctx, rank, *inherited)))
            proc = EngineProcess(target=target, args=args,
                                 name=f"{boot.engine_id}-t{boot.team_id}w{rank}")
            proc.start()
            procs.append(proc)
    except BaseException:
        for proc in procs:
            proc.kill()
            proc.join()
        raise
    finally:
        tctx.shared.close()
        tctx.links.close()
        boot.channel.close()
    return procs


def worker_process_main(ctx: TeamContext, rank: int, *inherited) -> None:
    """Entry point of a teammate (worker ``rank`` > 0). It closes what it
    ``inherited`` from its starter but does not own (the inproc mesh, its
    team's ctrl channel) and its team's links between other ranks, and
    leaves when its master's links reach end of file."""
    _die_with_parent(ctx.parent_pid)
    for end in inherited:
        end.close()
    w = Worker(ctx, _worker_state(ctx.shared, ctx.team_id, rank), rank,
               ctx.links.endpoint(ctx.engine_id, rank))
    ctx.links.close_others(rank)
    try:
        w.getwork_first_time()
    except EngineShutdown:
        pass
    except Exception:
        ctx.trace(rank, "worker_crash", error=traceback.format_exc())
        with suppress(EngineError):   # a dead master leaves nobody to tell
            w._a_mail(0, FAULT, {"goal": w.goal_id, "error": traceback.format_exc()})


def master_entry(boot: MasterBoot, tctx: TeamContext) -> None:
    """Entry point of a team-master process."""
    _die_with_parent(tctx.parent_pid)
    chan = boot.channel
    ep = None
    try:
        if boot.transport_kind == "inproc":
            ep = boot.mesh.endpoint(boot.engine_id, boot.team_id)
            boot.mesh.close_others(boot.team_id)
        links = tctx.links.endpoint(boot.engine_id, 0)
        tctx.links.close_others(0)

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
        for fd in links.fds():
            ep.watch(fd)
        chan.put({"ready": True})

        Master(tctx, _worker_state(tctx.shared, boot.team_id, 0), ep, links).getwork_first_time()
    except EngineShutdown:
        pass                          # each teammate was mailed the shutdown
    except Exception:
        if boot.trace_queue is not None:
            boot.trace_queue.put((boot.team_id, 0, "master_crash",
                                  {"error": traceback.format_exc()}))
        try:
            chan.put({"error": traceback.format_exc()})
        except Exception:
            pass
    finally:
        if ep is not None:
            ep.close()

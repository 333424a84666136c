import multiprocessing
import os
import pickle
import socket
import subprocess
import sys
from pathlib import Path

import pytest

import layered_or
from layered_or import api, programs, team
from layered_or.engine import EXPAND_ANSWER, EXPAND_CHOICE
from layered_or.transport import QueueMesh, TcpEndpoint


class Faulty:
    """Binary tree that raises once a node tag passes the threshold.

    Exists to exercise the engine-wide abort path: a fault inside ``expand``
    must surface to the client as a goal error, whichever worker hits it.
    """

    name = "faulty"
    arity = 1
    root_tag = 0

    def setup(self, store, args):
        store.push_cell(int(args[0]))

    def slots(self, args):
        return {"t": 0}

    def expand(self, store, tag):
        threshold = store.store[0]
        if tag >= threshold:
            raise RuntimeError(f"synthetic fault at node {tag}")
        return (EXPAND_CHOICE, [2 * tag + 1, 2 * tag + 2])


class Wide:
    """Binary tree of ``depth`` levels whose every choice expansion pushes
    ``width`` cells; with 10,000 cells every copy of a live stack, which
    holds the root's cells, is larger than a 64 KiB pipe."""

    name = "wide"
    arity = 2
    root_tag = 0

    def setup(self, store, args):
        depth = int(args[0])
        store.push_cell(depth)
        store.push_cell(int(args[1]))
        for _ in range(depth):
            store.push_cell(-1)

    def slots(self, args):
        return {f"p{i}": 2 + i for i in range(int(args[0]))}

    def expand(self, store, tag):
        depth, width = store.store[:2]
        level = 0
        if tag:
            level, pick = divmod(tag - 1, 2)
            store.write(2 + level, pick)
            level += 1
            if level == depth:
                return (EXPAND_ANSWER, None)
        store.store.extend([level] * width)
        return (EXPAND_CHOICE, [1 + 2 * level, 2 + 2 * level])


# engine processes are forked from the test process, so they see them too
programs.register(Faulty())
programs.register(Wide())


def pytest_collection_modifyitems(items):
    """Fail an engine test that leaks a file or socket.

    A leak shows as a ``ResourceWarning``, mostly raised in a finalizer,
    where pytest reports it as an unraisable exception. The benchmark
    surface test is left out: ``benchmark/layers.py`` leaves its inproc
    mesh open.
    """
    for item in items:
        if item.path.name != "test_benchmark_surface.py":
            item.add_marker(pytest.mark.filterwarnings("error::ResourceWarning"))
            item.add_marker(pytest.mark.filterwarnings(
                "error::pytest.PytestUnraisableExceptionWarning"))


def children_of(pid):
    """Pids of the live (not yet exited) child processes of ``pid`` (Linux)."""
    kids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid and fields[0] not in ("Z", "X"):
            kids.append(int(entry))
    return kids


def frame_state(shared, idx):
    """(n_alts, cursor, split_offset, members) of or-frame ``idx`` of a
    ``TeamShared``, read under its lock."""
    with shared.lock(idx):
        n, c, s = shared.read_locked(idx)
        return n, c, s, shared._mv[shared._base(idx) + team._F_MEMBERS]


def _describe(pid):
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            argv = f.read().split(b"\0")
    except OSError:
        return str(pid)
    return f"{pid} ({b' '.join(argv).decode(errors='replace').strip()})"


@pytest.fixture(scope="session", autouse=True)
def no_process_outlives_the_session():
    """Fail the session if a child process of the test process is still alive
    once every engine is freed."""
    yield
    api._free_all()
    if sys.platform.startswith("linux"):
        left = children_of(os.getpid())
        assert not left, "processes outlived the tests: " + ", ".join(map(_describe, left))


@pytest.fixture(autouse=True)
def reap_engines():
    yield
    for handle in list(api._REGISTRY.values()):
        api._teardown(handle, force=False)
    for child in multiprocessing.active_children():
        child.terminate()
        child.join(timeout=2.0)


@pytest.fixture
def wire_log(tmp_path, monkeypatch):
    """Log every frame an endpoint sends or receives, in any process.

    Wraps ``TcpEndpoint._transmit`` and ``_receive`` here, so engine
    processes forked later inherit the wrappers; each process appends
    pickled records to its own file. The fixture's value returns every
    record so far as ``(team, "send" or "recv", frame bytes)``.
    """
    transmit, receive = TcpEndpoint._transmit, TcpEndpoint._receive

    def log(team, direction, frame):
        with open(tmp_path / f"wire-{os.getpid()}.pickle", "ab") as f:
            pickle.dump((team, direction, frame), f)

    def logged_transmit(self, dest, frame):
        log(self.team_id, "send", frame)
        transmit(self, dest, frame)

    def logged_receive(self):
        frame = receive(self)
        if frame is not None:
            log(self.team_id, "recv", frame)
        return frame

    monkeypatch.setattr(TcpEndpoint, "_transmit", logged_transmit)
    monkeypatch.setattr(TcpEndpoint, "_receive", logged_receive)

    def records():
        out = []
        for path in sorted(tmp_path.glob("wire-*.pickle")):
            with open(path, "rb") as f:
                while True:
                    try:
                        out.append(pickle.load(f))
                    except EOFError:
                        break
        return out

    return records


@pytest.fixture
def agent_process():
    """A ``serve-agent`` process that hosts up to four teams; its stdout
    carries the port line."""
    # the agent imports the sources under test, installed or not
    src = str(Path(layered_or.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    with subprocess.Popen(
            [sys.executable, "-m", "layered_or.cli", "serve-agent", "--port", "0",
             "--max-teams", "4"],
            stdout=subprocess.PIPE, text=True, env=dict(os.environ, PYTHONPATH=path)) as proc:
        yield proc
        proc.terminate()
        proc.wait(timeout=10)


@pytest.fixture
def agent(agent_process):
    """The port of a running ``serve-agent``."""
    line = agent_process.stdout.readline()
    return int(line.rsplit(" ", 1)[1])


@pytest.fixture
def tiny_socket_buffers(monkeypatch):
    """Give every inproc link and every team's mail link 4 KiB socket
    buffers each way, so that a large frame fills its link and its send
    blocks until the peer reads."""
    build = QueueMesh.__init__

    def tiny(self, *args, **kw):
        build(self, *args, **kw)
        for end in self.ends.values():
            end.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
            end.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)

    monkeypatch.setattr(QueueMesh, "__init__", tiny)

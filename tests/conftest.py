import multiprocessing
import os
import pickle
import sys

import pytest

from layered_or import api, programs
from layered_or.engine import EXPAND_CHOICE
from layered_or.transport import TcpEndpoint


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


# engine processes are forked from the test process, so they see it too
programs.register(Faulty())


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

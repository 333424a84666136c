"""Team runtime: spawning, intra-team sharing, or-frame arbitration, answers."""

import json
import multiprocessing
import multiprocessing.synchronize
import os
import random
import resource
import select
import signal
import subprocess
import sys
import threading
import time
from collections import Counter, deque
from pathlib import Path

import pytest
from conftest import children_of

from layered_or import api, boot, oracle, protocol, splitting, transport, worker
from layered_or.config import EngineOptions
from layered_or.engine import (
    EXPAND_ANSWER,
    EXPAND_CHOICE,
    ChoicePoint,
    WorkerState,
    count_open,
    run_loop,
    setup_goal,
)
from layered_or.errors import EngineCreationError, EngineError, GoalError
from layered_or.programs import get_program
from layered_or.team import FramePoolExhausted, TeamShared, publish_private_nodes
from layered_or.protocol import TeamCore
from layered_or.transport import TeamLinks, TeamMessage
from layered_or.worker import (
    GoalDone,
    Master,
    TeamContext,
    Worker,
    unpack_answers,
)


def drain(handle):
    got = Counter()
    while True:
        batch = api.par_get_answers(handle, ("exact", 256))
        if batch is None:
            return got
        got.update(batch[0])


def make_engine(name, worker_counts, **kw):
    return api.par_create_parallel_engine(
        name, [("local", w, "builtin") for w in worker_counts], **kw)


# -- spawning / startup (Alg. getwork) -------------------------------------------

def test_single_worker_team_runs_a_goal_alone():
    h = make_engine("lone", [1])
    api.par_run_goal(h, "queens(6)")
    got = drain(h)
    assert sum(got.values()) == 4
    api.par_free_parallel_engine(h)


def test_zero_worker_team_rejected_at_creation():
    with pytest.raises(EngineCreationError):
        make_engine("zero", [0])


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
@pytest.mark.parametrize("kind", ["inproc", "tcp"])
def test_a_master_that_dies_before_ready_fails_the_create(monkeypatch, kind):
    monkeypatch.setattr(api, "master_entry", lambda _boot: os._exit(1))
    before = set(children_of(os.getpid()))
    with pytest.raises(EngineCreationError, match="team 0 failed to start"):
        make_engine(f"stillborn-{kind}", [1, 1], transport=kind)
    assert f"stillborn-{kind}" not in api._REGISTRY
    assert set(children_of(os.getpid())) <= before, "a dead create left a process behind"


# a fresh client that creates a [2] engine and prints the names its master
# imported between its fork and its ready reply, as one json list
_IMPORTING_CLIENT = """
import json, sys
from layered_or import api, boot
at_fork, replies = {}, []
entry, put, ctrl_get = boot.master_entry, boot.SocketChannel.put, api._ctrl_get

def snapshot_entry(b):
    at_fork["modules"] = set(sys.modules)
    entry(b)

def put_with_imports(self, obj):
    if "ready" in obj:
        obj = dict(obj, imported=sorted(set(sys.modules) - at_fork["modules"]))
    put(self, obj)

def recording_get(chan, team_id, expect=None):
    replies.append(ctrl_get(chan, team_id, expect))
    return replies[-1]

api.master_entry, boot.SocketChannel.put, api._ctrl_get = (
    snapshot_entry, put_with_imports, recording_get)
h = api.par_create_parallel_engine("imports", [("local", 2, "builtin")],
                                   transport=sys.argv[1])
api.par_free_parallel_engine(h)
print(json.dumps([r["imported"] for r in replies if "ready" in r]))
"""


@pytest.mark.parametrize("kind", ["inproc", "tcp"])
def test_a_master_imports_no_module_between_its_fork_and_ready(kind):
    # in a fresh client: this test process has long imported everything
    src = str(Path(api.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", _IMPORTING_CLIENT, kind],
                         capture_output=True, text=True, timeout=60,
                         env=dict(os.environ, PYTHONPATH=path))
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == [[]], "a master imported modules after its fork"


def test_a_team_region_builds_one_semaphore(monkeypatch):
    made = []
    init = multiprocessing.synchronize.SemLock.__init__

    def counting_init(self, *args, **kwargs):
        made.append(type(self).__name__)
        init(self, *args, **kwargs)

    monkeypatch.setattr(multiprocessing.synchronize.SemLock, "__init__", counting_init)
    shared = TeamShared(4)
    try:
        assert len(made) <= 1, f"TeamShared(4) built {len(made)} semaphores: {made}"
    finally:
        shared.close()


def test_a_team_builds_no_semaphore(monkeypatch):
    # the team lock and the trace pipe's write lock are record locks on
    # memfds, and the team's links are socket pairs
    made = []
    init = multiprocessing.synchronize.SemLock.__init__

    def counting_init(self, *args, **kwargs):
        made.append(type(self).__name__)
        init(self, *args, **kwargs)

    monkeypatch.setattr(multiprocessing.synchronize.SemLock, "__init__", counting_init)
    shared = TeamShared(4)
    links = TeamLinks(4)
    trace = api.Mailbox()
    try:
        assert made == [], f"a team built semaphores: {made}"
    finally:
        shared.close()
        links.close()
        trace.close()


def _stop_reading(_self):
    time.sleep(60)                        # a teammate busy in a long run


def _send_raises_engine_error(ep, dest, raw):
    with pytest.raises(EngineError):
        ep.send(dest, protocol.SHARE_ACCEPT, {}, raw)


def _hold_until_killed(lock, ready_fd):
    with lock:
        os.write(ready_fd, b"x")
        time.sleep(60)


def _killed_inside(lock):
    """Fork a process that takes ``lock`` and is SIGKILLed while it holds it."""
    r, w = os.pipe()
    holder = multiprocessing.get_context("fork").Process(
        target=_hold_until_killed, args=(lock, w))
    holder.start()
    os.close(w)
    try:
        assert os.read(r, 1) == b"x", "the holder died before it took the lock"
    finally:
        os.close(r)
        holder.kill()
        holder.join(timeout=5.0)
    assert holder.exitcode == -signal.SIGKILL


def _finishes_within(seconds, call, *args):
    """Run ``call(*args)`` in a forked process; True if it returned within
    ``seconds``. A process still blocked then is killed, so a lock that
    outlives its holder fails the caller instead of hanging it."""
    proc = multiprocessing.get_context("fork").Process(target=call, args=args)
    proc.start()
    proc.join(timeout=seconds)
    if proc.is_alive():
        proc.kill()
        proc.join(timeout=5.0)
        return False
    return proc.exitcode == 0


def test_a_holder_killed_inside_the_team_lock_blocks_no_take():
    shared = TeamShared(2, n_frames=16)
    try:
        idx = shared.alloc(n_alts=3, cursor=0, split_offset=1, depth=0)
        _killed_inside(shared.lock(idx))
        assert _finishes_within(2.0, shared.take, idx), "a take hung on a dead holder's lock"
        assert shared.frame_state(idx)[1] == 1, "the take handed out no alternative"
    finally:
        shared.close()


def test_a_writer_killed_inside_a_mailbox_lock_blocks_no_put():
    box = api.Mailbox()                   # the trace pipe
    try:
        _killed_inside(box._wlock)
        assert _finishes_within(2.0, box.put, ("note", {}, b"after")), \
            "a put hung on a dead writer's lock"
        assert _await(box) == ("note", {}, b"after")
    finally:
        box.close()


def test_a_send_into_a_dead_teammates_full_link_raises(monkeypatch):
    # teammate 1 stops reading and its link from the master fills; once it
    # dies, a send blocked on that link must fail, which it does only if
    # neither the master nor teammate 2 still holds teammate 1's end
    shared = TeamShared(3, n_frames=16)
    tctx = TeamContext("epipe", 0, 1, 3, EngineOptions(), shared, TeamLinks(3), None)
    monkeypatch.setattr(Worker, "getwork_first_time", _stop_reading)
    fork = multiprocessing.get_context("fork")
    procs = [fork.Process(target=boot.worker_process_main, args=(tctx, rank))
             for rank in (1, 2)]
    for proc in procs:
        proc.start()
    try:
        master = tctx.links.endpoint("epipe", 0)
        tctx.links.close_others(0)        # as a master does after its forks
        sender = fork.Process(target=_send_raises_engine_error,
                              args=(master, 1, bytes(1 << 22)))
        procs.append(sender)
        sender.start()
        time.sleep(0.2)                   # until the link is full
        assert sender.is_alive(), "the send did not block on the full link"
        procs[0].kill()
        sender.join(timeout=2.0)
        assert not sender.is_alive(), "a send to a dead teammate's full link hung"
        assert sender.exitcode == 0, "the send did not raise EngineError"
    finally:
        for proc in procs:
            proc.kill()
            proc.join(timeout=5.0)
        shared.close()
        tctx.links.close()


def test_a_teammate_whose_master_is_gone_exits_quietly(capfd):
    # its master's link reads end of file, and the FAULT it would report
    # has nobody to go to: the teammate returns instead of raising, which
    # would have multiprocessing print a traceback
    shared = TeamShared(2, n_frames=16)
    tctx = TeamContext("orphan", 0, 1, 2, EngineOptions(), shared, TeamLinks(2), None)
    teammate = multiprocessing.get_context("fork").Process(
        target=boot.worker_process_main, args=(tctx, 1))
    teammate.start()
    tctx.links.close()                    # the master's end with the rest
    teammate.join(timeout=5.0)
    try:
        assert not teammate.is_alive(), "the teammate outlived its master's link"
        assert teammate.exitcode == 0, "worker_process_main raised"
        assert "Traceback" not in capfd.readouterr().err
    finally:
        teammate.kill()
        teammate.join(timeout=5.0)
        shared.close()


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/fd")
def test_a_freed_engine_leaves_no_file_descriptor_open():
    # memfds and raw pipes raise no ResourceWarning when they leak
    before = len(os.listdir("/proc/self/fd"))
    for i in range(3):
        for teams, kw in (([2], {"options": EngineOptions(trace=True)}),
                          ([1, 1], {"transport": "tcp"})):
            h = make_engine(f"fds{i}-{len(teams)}", teams, **kw)
            api.par_run_goal(h, "queens(6)")
            assert sum(drain(h).values()) == 4
            api.par_free_parallel_engine(h)
    assert len(os.listdir("/proc/self/fd")) == before


def test_workers_without_work_never_allocate_a_root():
    # a goal this small finishes before the second team can win any work;
    # its non-master workers must stay parked in the pre-root wait
    h = make_engine("starved", [1, 3], options=EngineOptions(trace=True))
    api.par_run_goal(h, "spread(1,1)")
    assert sum(drain(h).values()) == 1
    events = h.trace_events()
    team1_installed = any(e[0] == 1 and e[2] == "installed" for e in events)
    if not team1_installed:
        worker_roots = [e for e in events
                        if e[0] == 1 and e[1] > 0 and e[2] == "root_allocated"]
        assert not worker_roots
    api.par_free_parallel_engine(h)


def test_team_sizes_all_reproduce_the_oracle():
    expect = oracle.enumerate_answers(get_program("queens"), [7])
    for w in (1, 2, 4, 8):
        h = make_engine(f"size{w}", [w])
        api.par_run_goal(h, "queens(7)")
        assert drain(h) == expect, f"team of {w} lost answers"
        api.par_free_parallel_engine(h)


# -- intra-team sharing over the real shared region --------------------------------

def paused_on_shared(shared, backtracks=20):
    ws = WorkerState()
    ws.frames = shared
    ws.load_sink = lambda v: shared.set_load(0, v)
    prog = get_program("rand_tree")
    setup_goal(ws, prog, [11, 7, 4], None)

    class _Pause(Exception):
        pass

    def service():
        if ws.backtracks >= backtracks and ws.cps and ws.load > 0:
            raise _Pause

    got = Counter()
    try:
        run_loop(ws, lambda a: got.update([a]), start_tag=prog.root_tag,
                 service=service, service_every=1)
    except _Pause:
        pass
    return ws, prog, got


def test_publish_moves_load_into_frames_conserving_open_count():
    shared = TeamShared(2)
    ws, _, _ = paused_on_shared(shared)
    private_before = ws.load
    moved = publish_private_nodes(ws, shared)
    assert moved == private_before
    assert ws.load == 0
    for cp in ws.cps:
        if cp.frame >= 0:
            n, c, s, members = shared.frame_state(cp.frame)
            assert members == 2
            assert (n, c, s) == (cp.n_alts, cp.cursor, cp.split_offset)
    shared.close()


class _Pause(Exception):
    """A paused run reached the tick it stops at."""


def _run_ticks(ws, n, start_tag=None):
    """Run ``ws`` one step per tick and stop it at its ``n``th tick."""
    ticks = []

    def service():
        ticks.append(1)
        if len(ticks) == n:
            raise _Pause

    with pytest.raises(_Pause):
        run_loop(ws, lambda a: None, start_tag=start_tag, service=service, service_every=1)


def test_a_publish_the_frame_pool_cannot_hold_changes_nothing():
    # queens(8) publishes its two nodes into a pool of three frames, then
    # runs on to three private nodes, one more than the pool holds: that
    # publish takes no frame, joins none and moves no load, so the retry of
    # a held request finds the pool as it was
    shared = TeamShared(2, n_frames=3)
    ws = _team_state(shared, 0)
    setup_goal(ws, get_program("queens"), [8], None)
    _run_ticks(ws, 3, ws.program.root_tag)
    assert publish_private_nodes(ws, shared) == 13 and ws.load == 0
    _run_ticks(ws, 4)
    private = [cp for cp in ws.cps if cp.frame < 0]
    assert len(private) == 3 and ws.load == 7
    with pytest.raises(FramePoolExhausted):
        publish_private_nodes(ws, shared)
    try:
        assert [cp.frame for cp in ws.cps] == [0, 1, -1, -1, -1]
        assert [shared.frame_state(idx)[3] for idx in (0, 1)] == [2, 2], \
            "a failed publish joined a frame"
        assert ws.load == sum(cp.open_count() for cp in private) == 7
        assert shared.loads()[0] == 7
        assert shared.alloc(1, 0, 1, 0) == 2, "a failed publish kept a frame"
    finally:
        shared.close()


def test_publish_refused_semantics_when_nothing_open():
    shared = TeamShared(2)
    ws = WorkerState()
    ws.frames = shared
    prog = get_program("spread")
    setup_goal(ws, prog, [2, 2], None)
    cp = ChoicePoint(0, 2, 2, 1, ws.H, ws.TR, 0, alts=[1, 2])
    ws.cps.append(cp)        # only a dead node
    assert publish_private_nodes(ws, shared) == 0
    assert cp.frame == -1    # dead nodes get no frame
    shared.close()


def test_concurrent_backtracking_on_one_frame_yields_disjoint_alternatives():
    shared = TeamShared(2)
    idx = shared.alloc(n_alts=9, cursor=1, split_offset=1, depth=0)
    taken = []
    while True:
        got = shared.take(idx)
        if got < 0:
            break
        taken.append(got)
    assert taken == [1, 2, 3, 4, 5, 6, 7, 8]
    assert shared.take(idx) == -1
    shared.close()


def test_frame_take_respects_split_offset_stepping():
    shared = TeamShared(2)
    idx = shared.alloc(n_alts=9, cursor=1, split_offset=2, depth=0)
    taken = []
    while True:
        got = shared.take(idx)
        if got < 0:
            break
        taken.append(got)
    assert taken == [1, 3, 5, 7]
    shared.close()


def test_frame_hands_out_disjoint_alternatives_across_processes():
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    shared = TeamShared(4)
    idx = shared.alloc(n_alts=400, cursor=0, split_offset=1, depth=0)
    out = ctx.SimpleQueue()

    def hammer(rank):
        taken = []
        while True:
            got = shared.take(idx)
            if got < 0:
                break
            taken.append(got)
        out.put(taken)

    procs = [ctx.Process(target=hammer, args=(rank,)) for rank in (1, 2, 3)]
    for p in procs:
        p.start()
    chunks = [out.get() for _ in procs]
    for p in procs:
        p.join()
    everything = [i for chunk in chunks for i in chunk]
    assert sorted(everything) == list(range(400))
    shared.close()


def test_per_worker_alt_counters_sum_to_the_open_alternatives_of_live_frames():
    # three forked workers on two cores, started together, each counting
    # what it moves into and out of frames: they take from frames they all
    # use and allocate, split and kill frames of their own; a lost update
    # to a frame breaks the sum
    import random

    ctx = multiprocessing.get_context("fork")
    shared = TeamShared(4, n_frames=256)
    common = [shared.alloc(n_alts=200_000, cursor=0, split_offset=1, depth=0)
              for _ in range(16)]
    start = ctx.Event()
    out = ctx.Queue()
    moved = [0]                           # a worker's net count of alternatives into frames

    def alloc(n_alts, cursor, split_offset):
        moved[0] += count_open(n_alts, cursor, split_offset)
        return shared.alloc(n_alts, cursor, split_offset, depth=1)

    def worker(rank):
        rnd = random.Random(rank)
        mine = [alloc(3000, 0, 1)]
        start.wait(10)
        for _ in range(20_000):
            op = rnd.randrange(100)
            if op < 90:
                if shared.take(rnd.choice(common + mine)) >= 0:
                    moved[0] -= 1
            elif op < 94:
                if len(mine) < 40:
                    mine.append(alloc(rnd.randrange(1, 3000), rnd.randrange(0, 5),
                                      rnd.choice((1, 2, 4))))
            else:
                idx = rnd.choice(mine)
                with shared.lock(idx):
                    n, c, s = shared.read_locked(idx)
                    if op < 97:
                        if s < 1 << 20:
                            shared.hsplit_locked(idx)
                            moved[0] -= count_open(n, c + s, 2 * s)
                    else:
                        shared.kill_locked(idx)
                        moved[0] -= count_open(n, c, s)
        out.put((mine, moved[0]))

    procs = [ctx.Process(target=worker, args=(rank,)) for rank in (1, 2, 3)]
    for p in procs:
        p.start()
    start.set()
    live = list(common)
    total = 16 * 200_000
    for _ in procs:
        mine, net = out.get(timeout=60)
        live.extend(mine)
        total += net
    for p in procs:
        p.join(timeout=30)
        assert not p.is_alive() and p.exitcode == 0
    assert len(set(live)) == len(live)
    assert sum(count_open(*shared.frame_state(idx)[:3]) for idx in live) == total
    shared.close()


def _fields(msg):
    return msg.kind, msg.sender, msg.meta, msg.raw


def test_a_mail_cut_short_is_read_once_whole_without_blocking():
    # a teammate killed inside a send leaves a mail cut short: its reader
    # must go on serving, not wait for bytes that never come
    shared = TeamShared(2, n_frames=16)
    links = TeamLinks(2)
    tctx = TeamContext("cut", 0, 1, 2, EngineOptions(), shared, links, None)
    teammate = Worker(tctx, WorkerState(team_id=0, worker_id=1), 1, links.endpoint("cut", 1))
    master, end = links.endpoint("cut", 0), links.ends[(0, 1)]
    cut = bytes(range(256)) * 4096        # 1 MiB: more than a socket buffer holds
    raw = transport.encode_frame(protocol.ANSWER, 0, master.stamp(),
                                 transport.encode_payload({"goal": 1}, cut))
    writer = threading.Thread(target=end.sendall, args=(raw[4096:],))
    try:
        master.send(1, protocol.ANSWER, {"goal": 1}, b"x")
        end.sendall(raw[:4096])
        assert _fields(teammate.links.poll()) == (protocol.ANSWER, 0, {"goal": 1}, b"x")
        assert teammate.links.poll() is None, "a mail cut short was returned"
        writer.start()                    # blocks on the full link until it is read
        while (got := teammate.links.poll()) is None:
            teammate._await_mail()
        writer.join()
        assert _fields(got) == (protocol.ANSWER, 0, {"goal": 1}, cut)
        assert teammate.links.poll() is None
    finally:
        shared.close()
        links.close()


def test_answer_batches_mail_a_goals_first_answer_at_once(monkeypatch):
    # with the flush interval out of reach, a teammate mails its master a
    # batch at the goal's first answer and the rest when its run ends;
    # together they are the oracle's answers
    monkeypatch.setattr(worker, "ANSWER_FLUSH_S", 3600.0)
    boxes = [_Box(), _Box()]
    shared = TeamShared(2, n_frames=16)
    opts = EngineOptions()
    tctx = TeamContext("batches", 0, 1, 2, opts, shared, None, None)
    teammate = Worker(tctx, WorkerState(team_id=0, worker_id=1), 1, _Links(boxes, 1))
    teammate._begin_goal({"program": "spread", "args": [6, 5], "goal": 1})
    try:
        teammate._run(start_tag=teammate.ws.program.root_tag)
        teammate._a_flush()
    finally:
        shared.close()
    puts = boxes[0].items
    assert len(puts) == 2
    assert {(msg.kind, msg.meta["goal"]) for msg in puts} == {(protocol.ANSWER, 1)}
    assert len(unpack_answers(puts[0].raw)) <= opts.k_backtracks, \
        "the goal's first answer waited for the flush interval"
    got = Counter(unpack_answers(b"".join(msg.raw for msg in puts)))
    assert got == oracle.enumerate_answers(get_program("spread"), [6, 5])


class _Box:
    """One worker's in-process inbox, which notes the step of ``steps`` (if
    given) at which each message came."""

    def __init__(self, steps=None):
        self.steps = steps
        self.items = deque()
        self.log = []                     # (step, message kind)

    def put(self, msg):
        self.items.append(msg)
        self.log.append((self.steps and self.steps.count, msg.kind))

    def get(self):
        return self.items.popleft() if self.items else None


class _Links:
    """A worker's links in this process: what it sends to rank ``d`` goes
    into ``boxes[d]``, and it reads its own box."""

    def __init__(self, boxes, rank):
        self.boxes, self.rank = boxes, rank

    def send(self, dest, kind, meta=None, raw=b""):
        self.boxes[dest].put(TeamMessage(kind, self.rank, [], meta, raw))

    def poll(self):
        return self.boxes[self.rank].get()


def _mail(kind, meta, sender=0):
    return TeamMessage(kind, sender, [], meta)


class _Counted:
    """A program that counts its expansions, one per ``run_loop`` step, and
    calls ``at_step`` before each."""

    def __init__(self, program, at_step=lambda step: None):
        self.program = program
        self.root_tag = program.root_tag
        self.at_step = at_step
        self.count = 0

    def expand(self, store, tag):
        self.count += 1
        self.at_step(self.count)
        return self.program.expand(store, tag)


def no_fork_teammate(goal, args, n_frames=16):
    """Worker 1 of a two-worker team, driven in this process; worker 0's
    box only records what it is sent."""
    shared = TeamShared(2, n_frames=n_frames)
    steps = _Counted(get_program(goal))
    boxes = [_Box(steps), _Box(steps)]
    tctx = TeamContext("ticks", 0, 1, 2, EngineOptions(), shared, None, None)
    teammate = Worker(tctx, WorkerState(team_id=0, worker_id=1), 1, _Links(boxes, 1))
    # it runs the goal's root, so it holds the team's worker credit
    teammate._begin_goal({"program": goal, "args": args, "goal": 1, "credit": 0})
    teammate.ws.program = steps
    return teammate, steps


def test_quiet_ticks_widen_and_one_message_narrows_them():
    teammate, steps = no_fork_teammate("queens", [10])
    shared, box = teammate.ctx.shared, teammate.links.boxes[1]
    k = teammate.ctx.options.k_backtracks
    cap = worker.TICK_SPACING_CAP * k
    service = teammate._service
    ticks = []                            # (step at the tick, spacing returned)
    mail_at = [7]                         # the first run's eighth tick finds mail

    def watched():
        if mail_at and len(ticks) == mail_at[0]:
            mail_at.clear()
            # a stale goal's notice: mail that asks for nothing
            box.put(_mail(protocol.TERMINATE, {"goal": 0}))
        spacing = service()
        ticks.append((steps.count + 1, spacing))
        return spacing

    teammate._service = watched
    try:
        teammate._run(start_tag=steps.root_tag)
        first_run = list(ticks)
        ticks.clear()
        steps.count = 0
        teammate.ws.reset_to_base()
        teammate._run(start_tag=steps.root_tag)
    finally:
        shared.close()
    assert len(ticks) > 8, \
        f"queens(10) ran for {len(ticks)} ticks; the mail at the eighth needs a longer goal"
    widening = [min(k << i, cap) for i in range(1, 1 + max(len(first_run), len(ticks)))]
    for run in (first_run, ticks):
        assert run[0][0] == k, "a run's first tick did not fall after k_backtracks steps"
        # each tick falls the spacing its predecessor returned after it
        assert [b[0] - a[0] for a, b in zip(run, run[1:])] == [s for _, s in run[:-1]]
    assert [s for _, s in first_run] == widening[:7] + [k] + widening[:len(first_run) - 8]
    assert [s for _, s in ticks] == widening[:len(ticks)]
    assert ticks[-2][1] == cap


def test_a_busy_teammate_answers_a_share_request_within_the_widest_spacing():
    # requests come in at arbitrary steps, after gaps long enough for the
    # spacing to widen to the cap; every one is answered at the next tick
    rng = random.Random(7)
    teammate, steps = no_fork_teammate("queens", [10], n_frames=4096)
    shared, box = teammate.ctx.shared, teammate.links.boxes[1]
    teammate.ws.frames = shared
    cap = worker.TICK_SPACING_CAP * teammate.ctx.options.k_backtracks
    asked = []
    replies = teammate.links.boxes[0].log
    next_ask = [rng.randrange(1, 3 * cap)]

    def at_step(step):
        if step >= next_ask[0] and len(replies) == len(asked):
            asked.append(step)
            box.put(_mail(protocol.SHARE_REQUEST, {"goal": 1}))
            next_ask[0] = step + rng.randrange(1, 3 * cap)

    steps.at_step = at_step
    got = Counter()
    teammate._emit = lambda a: got.update([a])
    try:
        teammate._run(start_tag=steps.root_tag)
    finally:
        shared.close()
    if len(replies) < len(asked):
        asked.pop()                       # asked after the run's last tick
    assert len(asked) >= 8
    assert {kind for _, kind in replies} >= {protocol.SHARE_ACCEPT}
    waits = [answered - at for at, (answered, _) in zip(asked, replies)]
    assert max(waits) < cap, f"a request waited {max(waits)} steps"
    # nobody took the published work, so this worker found every answer
    assert got == oracle.enumerate_answers(get_program("queens"), [10])


def test_a_teammate_holds_a_request_its_full_frame_pool_cannot_copy_for():
    # a request comes while every frame of the pool is taken: each busy
    # tick's copy fails, and the request stays held, not refused; once the
    # frames are free again, the next busy tick serves it
    teammate, steps = no_fork_teammate("queens", [10], n_frames=64)
    shared, box = teammate.ctx.shared, teammate.links.boxes[1]
    mailed = teammate.links.boxes[0].log
    taken = [shared.alloc(2, 2, 1, 0) for _ in range(64)]   # dead, with two members each
    service = teammate._service
    held = []                             # requests held after each tick
    replies = []

    def watched():
        spacing = service()
        held.append(len(teammate.core.held))
        replies.extend(kind for _, kind in mailed if kind != protocol.ANSWER)
        mailed.clear()
        if replies:
            raise GoalDone
        if held == [1, 1, 1]:
            for idx in taken:             # both members leave: the frame is free again
                shared.leave(idx)
                shared.leave(idx)
        return spacing

    teammate._service = watched
    box.put(_mail(protocol.SHARE_REQUEST, {"goal": 1, "req": 0}))
    try:
        with pytest.raises(GoalDone):
            teammate._run(start_tag=steps.root_tag)
    finally:
        shared.close()
    assert replies == [protocol.SHARE_ACCEPT], \
        f"the request got {replies} after ticks holding {held}"
    assert held == [1, 1, 1, 0]


def _team_state(shared, rank):
    ws = WorkerState(team_id=0, worker_id=rank)
    ws.frames = shared
    ws.load_sink = lambda load: shared.set_load(rank, load)
    return ws


def test_an_idle_teammate_gets_its_copy_from_a_busy_teammate_with_load_0():
    # worker 0 is busy but has published all it had, so its load register
    # reads 0; worker 1, idle, asks it all the same and gets a copy at
    # worker 0's first tick with private load, from one request
    shared = TeamShared(2, n_frames=4096)
    boxes = [_Box(), _Box()]
    tctx = TeamContext("held", 0, 1, 2, EngineOptions(), shared, None, None)
    sharer, requester = (Worker(tctx, _team_state(shared, rank), rank, _Links(boxes, rank))
                         for rank in (0, 1))
    service = sharer._service

    def run_sharer(until, start_tag=None):
        """Run the sharer until a tick after which ``until()`` holds."""
        def tick():
            spacing = service()
            if until():
                raise GoalDone
            return spacing
        sharer._service = tick
        with pytest.raises(GoalDone):
            sharer._run(start_tag)

    turns = []

    def bounded_pump():
        turns.append(1)
        assert len(turns) < 100, "the idle teammate never got work"

    # the requester waits for mail: the sharer runs until it has replied
    requester._await_mail = lambda: run_sharer(lambda: boxes[1].items)
    requester._pump = bounded_pump
    try:
        for w in (sharer, requester):
            w._begin_goal({"program": "queens", "args": [8], "goal": 1})
        sharer.core.credit = 0            # the sharer holds the team's worker credit
        run_sharer(lambda: True, sharer.ws.program.root_tag)   # one tick into the goal
        publish_private_nodes(sharer.ws, shared)
        shared.set_idle(0, False)
        shared.set_idle(1, True)
        assert shared.loads() == [0, 0]
        assert requester._acquire_locally()
        flags = shared.idle_flags()
    finally:
        shared.close()
    requests = [kind for _, kind in boxes[0].log if kind == protocol.SHARE_REQUEST]
    assert len(requests) == 1
    assert [kind for _, kind in boxes[1].log] == [protocol.SHARE_ACCEPT]
    assert flags == [False, False], "the sharer did not flag its requester busy"
    assert requester.ws.cps


class _Stop(Exception):
    """A driven master reached a wait."""


def test_a_team_stays_busy_while_its_work_hops_between_idle_flag_reads(monkeypatch):
    # The master of a three-worker team, driven in this process, reads its
    # teammates' idle flags one at a time. Between its reads of worker 1's
    # flag and worker 2's, worker 2 flags worker 1 busy and mails it a copy,
    # worker 1 installs it and takes every frame alternative, and worker 2
    # flags itself idle; before worker 1's flag, worker 1 hands the work back
    # the same way. Every flag the master reads is idle and no frame holds
    # an open alternative, yet a teammate always runs: the team must stay
    # busy until worker 1 hands its credit back, and the client must get
    # every answer.
    meta = {"program": "spread", "args": [10, 2], "template": "p0", "goal": 1,
            "strategy": "vs"}
    mesh, links = transport.QueueMesh(1), TeamLinks(3)
    shared = TeamShared(3, n_frames=4096)
    ctx = TeamContext("window", 0, 1, 3, EngineOptions(), shared, links, None)
    master = Master(ctx, boot._worker_state(shared, 0, 0), mesh.endpoint("window", 0),
                    links.endpoint("window", 0))
    w1, w2 = (Worker(ctx, boot._worker_state(shared, 0, rank), rank,
                     links.endpoint("window", rank)) for rank in (1, 2))
    client = mesh.endpoint("window", transport.CLIENT_ID)

    def stop():
        raise _Stop

    def run(w, until, start_tag=None):
        """Run ``w`` until ``until()`` holds at a step (True) or its stacks run out."""
        def step():
            return stop() if until() else 1
        try:
            run_loop(w.ws, w._emit, start_tag=start_tag, service=step, service_every=1)
        except _Stop:
            return True
        w.ws.reset_to_base()
        return False

    def hand(sharer, requester, ask_back=True):
        """``sharer`` serves ``requester``'s request, the requester takes
        every frame alternative, and the sharer runs out and goes idle."""
        sharer._drain_mail()                             # the request is held
        sharer._do(sharer.core.tick(sharer.ws.load))     # flag, then copy
        requester._drain_mail()                          # install it
        frames = [cp.frame for cp in requester.ws.cps if cp.frame >= 0]
        assert frames and run(requester, lambda: requester.ws.load > 0 and all(
            c >= n for n, c, _, _ in map(shared.frame_state, frames)))
        assert not run(sharer, lambda: False), "the sharer kept work of its own"
        sharer._a_flush()
        sharer._do(sharer.core.idle())
        if ask_back:
            sharer._do(sharer.core.seek(shared.loads(), shared.idle_flags()))
            assert sharer.core.asking[0] == requester.rank

    reading = TeamShared.idle_flags
    hops = []                                            # the worker each hop left running
    in_hop = []

    def idle_flags(self):
        flags = []
        for rank in range(self.n_workers):
            if not in_hop:                               # a hop's own reads make no hop
                in_hop.append(True)
                if rank == 1 and w2.core.asking and w2.core.asking[0] == 1:
                    hand(w1, w2)
                    hops.append(2)
                elif rank == 2 and w1.core.asking and w1.core.asking[0] == 2:
                    hand(w2, w1)
                    hops.append(1)
                in_hop.clear()
            flags.append(reading(self)[rank])
        return flags

    try:
        master._begin_goal(meta)
        master._do(master.team.start(meta))              # WAKE to workers 1 and 2
        for w in (w1, w2):
            wake = w.links.poll()
            assert wake.kind == protocol.WAKE
            w._begin_goal(wake.meta)
            w._park_on_dead_root()
            w._do(w.core.idle())
        assert run(master, lambda: master.ws.load > 0, master.ws.program.root_tag)
        w2._do(w2.core.seek(shared.loads(), shared.idle_flags()))
        hand(master, w2, ask_back=False)
        w1._do(w1.core.seek(shared.loads(), shared.idle_flags()))
        assert w1.core.asking[0] == 2
        # the master's idle turn, with the hops between its flag reads
        monkeypatch.setattr(TeamShared, "idle_flags", idle_flags)
        master._await_mail = stop
        try:
            master._acquire_locally()
        except GoalDone:
            pytest.fail(f"the team went idle while worker {hops[-1]} ran")
        except _Stop:
            pass
        assert hops, "no work hopped during the master's reads"
        monkeypatch.undo()
        master._drain_mail()
        assert not master.team.idle, "the team went idle while a teammate ran"
        # the last hop left worker 1 running: its credit ends the goal
        assert hops[-1] == 1 and not run(w1, lambda: False)
        w1._a_flush()
        w1._do(w1.core.idle())
        with pytest.raises(GoalDone):
            master._drain_mail()
        got = Counter(a for msg in iter(client.poll, None) if msg.kind == transport.ANSWER
                      for a in unpack_answers(msg.raw))
    finally:
        shared.close()
        mesh.close()
        links.close()
    assert got == oracle.enumerate_answers(get_program("spread"), [10, 2], "p0")


def _await(box):
    """The next event of the trace pipe ``box``, blocking in poll(2) until
    it is whole."""
    poller = select.poll()
    poller.register(box.fd, select.POLLIN)
    while (mail := box.get()) is None:
        poller.poll()
    return mail


def test_mails_larger_than_a_pipe_from_several_writers_arrive_whole():
    ctx = multiprocessing.get_context("fork")
    links = TeamLinks(4)
    per_writer = 8

    def writer(rank):
        ep = links.endpoint("writers", rank)
        for i in range(per_writer):
            ep.send(0, protocol.ANSWER, {"i": i}, bytes([rank * per_writer + i]) * 100_000)

    procs = [ctx.Process(target=writer, args=(r,)) for r in (1, 2, 3)]
    for p in procs:
        p.start()
    reader = links.endpoint("writers", 0)
    got = []
    while len(got) < 3 * per_writer:
        if (msg := reader.poll()) is None:
            reader.wait(None)
        else:
            got.append((msg.sender, msg.meta["i"], msg.raw))
    for p in procs:
        p.join(timeout=5.0)
        assert not p.is_alive()
    # each writer's mails come in the order it sent them
    for rank in (1, 2, 3):
        assert [i for r, i, _ in got if r == rank] == list(range(per_writer))
    assert all(blob == bytes([r * per_writer + i]) * 100_000 for r, i, blob in got)
    assert reader.poll() is None
    links.close()


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RUSAGE_THREAD is Linux-only")
def test_a_teammate_waiting_for_a_reply_blocks_in_poll():
    # worker 1 asks busy worker 2, which refuses at its next tick, 0.3 s
    # later, and goes idle; then nobody is busy and the master ends the goal
    shared = TeamShared(3, n_frames=16)
    links = TeamLinks(3)
    tctx = TeamContext("wait", 0, 1, 3, EngineOptions(), shared, links, None)
    requester = Worker(tctx, WorkerState(team_id=0, worker_id=1), 1, links.endpoint("wait", 1))
    master, busy = links.endpoint("wait", 0), links.endpoint("wait", 2)
    requester.goal_id = 1
    requester.core.start(1)
    for rank, idle in enumerate((True, True, False)):
        shared.set_idle(rank, idle)

    def busy_target():
        while (request := busy.poll()) is None:
            busy.wait(None)
        time.sleep(0.3)                   # until the target's next tick
        shared.set_idle(2, True)
        busy.send(1, protocol.SHARE_REFUSE, request.meta)
        master.send(1, protocol.TERMINATE, {"goal": 1})

    target = threading.Thread(target=busy_target)
    # a requester that misses the reply shuts down instead of hanging
    watchdog = threading.Timer(10.0, master.send, (1, protocol.ENGINE_FREE, {}))
    target.start()
    watchdog.start()
    try:
        before = resource.getrusage(resource.RUSAGE_THREAD).ru_nvcsw
        t0 = time.monotonic()
        with pytest.raises(GoalDone):
            requester._acquire_locally()
        waited = time.monotonic() - t0
        switches = resource.getrusage(resource.RUSAGE_THREAD).ru_nvcsw - before
    finally:
        watchdog.cancel()
        target.join(timeout=5.0)
        shared.close()
        links.close()
    assert not target.is_alive()
    assert waited >= 0.3
    assert switches < 20, f"a requester woke {switches} times waiting 0.3 s for a reply"


def test_frame_recycled_after_last_member_leaves():
    shared = TeamShared(2, n_frames=4)
    idx = shared.alloc(2, 2, 1, 0)     # dead on arrival
    shared.leave(idx)
    shared.leave(idx)                  # members hit zero; slot recycled
    again = shared.alloc(3, 0, 1, 0)
    assert again == idx
    shared.close()


def drain_within(handle, seconds):
    """The running goal's answers, and whether it finished within ``seconds``."""
    got = Counter()
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        batch = api.par_get_answers(handle, ("max", 4096))
        if batch is None:
            return got, True
        got.update(batch[0])
        if not batch[1]:
            time.sleep(0.001)
    return got, False


@pytest.mark.parametrize("workers,transport_kind", [([2], "inproc"), ([4], "inproc"),
                                                    ([2, 2], "tcp")])
@pytest.mark.parametrize("strategy", ["vs", "hs"])
def test_stack_copies_larger_than_a_pipe_reach_their_teammates(workers, transport_kind,
                                                              strategy):
    # the goal runs for a few milliseconds and can end before a teammate is
    # scheduled, so it runs until a teammate copies a stack, up to 5 times
    want = oracle.enumerate_answers(get_program("wide"), [6, 10000])
    h = make_engine(f"wide-{len(workers)}-{transport_kind}-{strategy}", workers,
                    strategy=strategy, transport=transport_kind,
                    options=EngineOptions(trace=True))
    shares = []
    try:
        for _ in range(5):
            api.par_run_goal(h, "wide(6,10000)")
            got, finished = drain_within(h, 10.0)
            assert finished, f"{sum(got.values())} of 64 answers within 10 s"
            assert got == want
            shares = [e for e in h.trace_events() if e[2] == "shared_locally"]
            if shares:
                break
    finally:
        api.par_free_parallel_engine(h)
    assert shares, "no teammate copied a stack in 5 goals"


def test_local_share_conserves_alternatives_end_to_end():
    expect = oracle.enumerate_answers(get_program("rand_tree"), [5, 8, 5])
    h = make_engine("conserve", [4], options=EngineOptions(trace=True))
    api.par_run_goal(h, "rand_tree(5,8,5)")
    got = drain(h)
    events = h.trace_events()
    assert got == expect
    shares = [e for e in events if e[2] == "shared_locally"]
    assert shares, "scenario must exercise intra-team sharing"
    api.par_free_parallel_engine(h)


# -- answer collection ---------------------------------------------------------------

def test_single_team_answers_reach_the_client_buffer():
    h = make_engine("collect1", [2])
    api.par_run_goal(h, "queens(6)")
    assert sum(drain(h).values()) == 4
    api.par_free_parallel_engine(h)


def test_remote_answers_arrive_tagged_with_origin_team():
    # team 0 can finish queens(8) before another team wins work, so the
    # goal runs until a remote team contributes answers, up to 5 times
    want = oracle.enumerate_answers(get_program("queens"), [8])
    h = make_engine("collect2", [1, 1, 1, 1], options=EngineOptions(trace=True))
    origins = set()
    try:
        for _ in range(5):
            api.par_run_goal(h, "queens(8)")
            assert drain(h) == want
            origins = {e[3]["origin"] for e in h.trace_events() if e[2] == "client_answer"}
            if origins - {0}:
                break
    finally:
        api.par_free_parallel_engine(h)
    assert origins - {0}, "remote teams contributed no answers in 5 goals"


@pytest.mark.parametrize("topology", [[2, 2], [1, 1, 1, 1]], ids=["2,2", "1,1,1,1"])
def test_client_answer_events_count_every_answer_the_client_got(topology):
    # team 0 traces each batch it forwards by the count in its header
    h = make_engine(f"counted{len(topology)}", topology, options=EngineOptions(trace=True))
    try:
        api.par_run_goal(h, "queens(8)")
        got = drain(h)
        counts = [e[3]["count"] for e in h.trace_events() if e[2] == "client_answer"]
    finally:
        api.par_free_parallel_engine(h)
    assert sum(got.values()) == 92 and sum(counts) == 92, counts


def test_each_share_request_resolves_to_exactly_one_reply(wire_log):
    # request ids are per requesting team; concurrent requests from two
    # teams may collide on the id alone, so replies are matched by pair
    from layered_or import transport as tr

    h = make_engine("uniq", [1, 1, 1, 1])
    for _ in range(3):
        api.par_run_goal(h, "queens(8)")
        assert sum(drain(h).values()) == 92
    api.par_free_parallel_engine(h)
    events = wire_log()
    sent_requests = Counter()
    received_replies = Counter()
    for team, direction, blob in events:
        msg = tr.decode_frame(blob)
        if direction == "send" and msg.kind == tr.SHARE_REQUEST:
            sent_requests[(team, msg.goal_id, msg.meta.get("req"))] += 1
        if direction == "recv" and msg.kind in (tr.SHARE_ACCEPT, tr.SHARE_REFUSE):
            received_replies[(team, msg.goal_id, msg.meta.get("req"))] += 1
    assert sent_requests
    # uniqueness: no request is resolved twice, no reply answers a request
    # that was never made; requests racing a goal's termination may
    # legitimately end up unanswered (the requester has already moved on)
    for key, n in received_replies.items():
        assert n == 1, f"request {key} resolved {n} times"
        assert key in sent_requests, f"reply {key} answers no known request"
    resolved = sum(1 for key in sent_requests if key in received_replies)
    assert resolved >= len(sent_requests) / 2, \
        f"only {resolved} of {len(sent_requests)} requests resolved"


def _own_credit_back(team):
    """The master's own worker runs out of work and hands its worker credit
    1 (a one-worker team's) to its team core."""
    return lambda: team.mail(protocol.ANSWER, 0, {"goal": team.goal, "credit": 0})


def _credit_return(sender, k, n_teams=3):
    # sent by an idle team, so its whole view reads idle
    return (transport.ANSWER, sender, {"goal": 1, "credit": k}, [(-1, 9)] * n_teams)


def _feed(team, events, ws=None):
    """Feed ``team`` (a TeamCore) its ``events``, frames as (kind, sender,
    meta, loads), and carry out what it returns: a split is one of ``ws``,
    or stands for a split of load 3 without one; the rest is only
    recorded, as (action, dest, kind, meta)."""
    done = []

    def do(actions):
        for act in actions:
            if act[0] == "split":
                peer, meta, then = act[1:]
                aux = splitting.split_for_transfer(ws, team.goal, team.meta["strategy"]) \
                    if ws else splitting.AuxArea(0, 0, 0, 0, 3, team.goal, 0, [], [], [])
                do(then(peer, meta, splitting.serialize_aux(aux) if aux.load > 0 else None,
                        aux.load))
            else:
                done.append(act[:2] + tuple(act[2:4]) if act[0] in ("send", "mail") else act)

    for event in events:
        do(team.frame(*event) if isinstance(event, tuple) else event())
    return done


def _replies(done, dest):
    return [(kind, meta.get("req")) for act, to, kind, meta in
            (d for d in done if d[0] == "send") if to == dest]


def test_termination_waits_for_credit_despite_an_all_idle_load_view():
    # Team 0 gave stacks to teams 1 and 2 and went idle. Every entry of its
    # load array reads -1: a newer refusal from an idle team can shadow the
    # record that the team just received work. The goal may end only once
    # both teams have handed their credit back.
    team = TeamCore(0, 3, 1)
    team.start({"program": "queens", "args": [4], "goal": 1})
    shares = _feed(team, [
        (transport.SHARE_REQUEST, 1, {"goal": 1, "req": 0}, [(-1, 9)] * 3), team.serve,
        (transport.SHARE_REQUEST, 2, {"goal": 1, "req": 0}, [(-1, 9)] * 3), team.serve])
    assert [meta["credit"] for act, to, kind, meta in shares if kind == transport.SHARE_ACCEPT] \
        == [1, 2]
    idle = _feed(team, [_own_credit_back(team),
                        (transport.SHARE_REFUSE, 1, {"goal": 1, "req": 7}, [(-1, 12)] * 3)])
    assert team.loads[1][0] == team.loads[2][0] == -1
    first = _feed(team, [_credit_return(1, 1)])
    last = _feed(team, [_credit_return(2, 2)])
    assert not [d for d in idle + first if d[:1] == ("end",) or transport.TERMINATE in d], \
        "TERMINATE went out while team 2 still held credit"
    assert sorted(to for act, to, kind, _ in (d for d in last if d[0] == "send")
                  if kind == transport.TERMINATE) == [1, 2, transport.CLIENT_ID]
    assert last[-1] == ("end",)


class _LateFork:
    """A root of two alternatives. The first is a chain of determinate
    steps; the second opens a node of four, each another such chain. Under
    ``hs`` no stack of this tree can yield until that node is open."""

    name = "late_fork"
    root_tag = 0
    CHAIN = 400                           # steps per chain

    def setup(self, store, args):
        store.push_cell(0)

    def slots(self, args):
        return {"x": 0}

    def chain(self, c):
        return 2 + c * self.CHAIN

    def expand(self, store, tag):
        if tag == 0:
            return (EXPAND_CHOICE, [self.chain(0), 1])
        if tag == 1:
            return (EXPAND_CHOICE, [self.chain(c) for c in range(1, 5)])
        c, step = divmod(tag - 2, self.CHAIN)
        if step + 1 == self.CHAIN:
            store.write(0, c)
            return (EXPAND_ANSWER, None)
        return (EXPAND_CHOICE, [tag + 1])


def _share_request(req):
    return (transport.SHARE_REQUEST, 1, {"goal": 1, "req": req}, [(0, 1), (-1, 9)])


def test_a_busy_master_holds_a_share_request_until_its_stack_can_yield():
    # Team 1 asks while team 0's stack cannot yield: team 0 holds the request
    # and accepts it at its first tick that can split. A second request,
    # made once the stack can no longer yield, is refused only when the
    # team goes idle. Each tick feeds the team core what a master's does.
    team = TeamCore(0, 2, 1)
    ws = WorkerState()
    setup_goal(ws, _LateFork(), [], None)
    _feed(team, [lambda: team.start({"goal": 1, "strategy": "hs"})])
    ticks = []                            # (stack could yield, replies to team 1)
    asked = []

    def tick():
        could = splitting.can_yield_work(ws, "hs")
        events = []
        if not asked:
            asked.append(0)
            events.append(_share_request(0))
        elif len(asked) == 1 and not could and any(sent for _, sent in ticks):
            # team 1 hands back the credit it was given, then asks again
            asked.append(1)
            events += [_credit_return(1, 1, n_teams=2), _share_request(1)]
        events.append(team.serve)
        ticks.append((could, _replies(_feed(team, events, ws), 1)))
        return None

    run_loop(ws, lambda a: None, start_tag=_LateFork.root_tag, service=tick, service_every=32)
    end = _replies(_feed(team, [_own_credit_back(team)]), 1)
    first = next(i for i, (could, _) in enumerate(ticks) if could)
    assert first > 1, "the request did not arrive while the stack could not yield"
    assert not any(sent for _, sent in ticks[:first]), "a held request was answered early"
    assert ticks[first][1] == [(transport.SHARE_ACCEPT, 0)]
    assert asked == [0, 1]
    assert not any(kind == transport.SHARE_REFUSE for _, sent in ticks for kind, _ in sent), \
        "a busy team refused a request"
    assert [r for _, sent in ticks for r in sent] + end == \
        [(transport.SHARE_ACCEPT, 0), (transport.SHARE_REFUSE, 1), (transport.TERMINATE, None)]


def _master_on_a_mesh(name, meta):
    """Team 0's master of a two-team inproc mesh, driven in this process,
    with the client's and team 1's endpoints."""
    mesh = transport.QueueMesh(2)
    shared = TeamShared(1, n_frames=4096)
    ctx = TeamContext(name, 0, 2, 1, EngineOptions(), shared, None, None)
    ws = WorkerState(team_id=0, worker_id=0)
    ws.frames = shared
    ep = mesh.endpoint(name, 0)
    master = Master(ctx, ws, ep, _Links([_Box()], 0))
    master._begin_goal(meta)
    ends = mesh.endpoint(name, transport.CLIENT_ID), mesh.endpoint(name, 1)
    return master, ends, lambda: (shared.close(), mesh.close())


def _frames(ep):
    return list(iter(ep.poll, None))


def test_a_goals_first_answers_leave_the_master_at_once():
    # the previous goal's last ANSWER frame went out just now; the next
    # goal's first answer must not wait ANSWER_FLUSH_S behind it
    master, (client, _), close = _master_on_a_mesh(
        "first", {"program": "queens", "args": [4], "goal": 1})
    try:
        master._emit((2, 4, 1, 3))
        master._a_answers()
        master._begin_goal({"program": "queens", "args": [4], "goal": 2})
        master._emit((3, 1, 4, 2))
        master._pump()
        got = [(msg.kind, msg.goal_id) for msg in _frames(client)]
    finally:
        close()
    assert got == [(transport.ANSWER, 1), (transport.ANSWER, 2)], \
        "the second goal's first answer was held"


def test_answer_frames_leave_a_masters_quiet_ticks_widening():
    # another team's ANSWER frames ask nothing of this team: like answer
    # mail, they leave the spacing doubling to the cap, while any other
    # frame (here a SHARE_REQUEST) brings it back to k_backtracks
    meta = {"program": "queens", "args": [10], "goal": 1}
    master, (client, peer), close = _master_on_a_mesh("quiet", meta)
    answers = worker.pack_answers([(1, 3, 0, 2)])
    script = {tick: (transport.ANSWER, {"goal": 1}, answers) for tick in range(1, 10)}
    script[10] = (transport.SHARE_REQUEST, {"goal": 1, "req": 0}, b"")
    script.update({tick: script[1] for tick in range(11, 15)})
    k = EngineOptions.k_backtracks
    cap = worker.TICK_SPACING_CAP * k
    ticks = []                            # (frame kinds handled, spacing returned)
    handle, service = master.team.frame, master._service
    kinds = []

    def logged_frame(kind, *rest):
        kinds.append(kind)
        return handle(kind, *rest)

    def watched():
        if len(ticks) in script:
            peer.send(0, *script[len(ticks)])
        kinds.clear()
        spacing = service()
        ticks.append((list(kinds), spacing))
        return spacing

    master.team.frame, master._service = logged_frame, watched
    try:
        master._do(master.team.start(meta))
        master._run(start_tag=master.ws.program.root_tag)
        master._a_answers()
        sent = {msg.kind for msg in _frames(peer) + _frames(client)}
    finally:
        close()
    (at,) = [i for i, (got, _) in enumerate(ticks) if transport.SHARE_REQUEST in got]
    assert len(ticks) > max(script), "the run ended before every scripted frame came"
    assert sum(got == [transport.ANSWER] for got, _ in ticks[:at]) >= 6
    widening = [min(k << i, cap) for i in range(1, len(ticks) + 1)]
    assert [s for _, s in ticks[:at]] == widening[:at], "an ANSWER frame narrowed a tick"
    assert ticks[at][1] == k, "a SHARE_REQUEST did not narrow the next tick"
    after = [s for _, s in ticks[at + 1:]]
    assert after == widening[:len(after)] and after[-1] == cap
    assert transport.ANSWER in sent and transport.SHARE_ACCEPT in sent, \
        "answers were not forwarded or the request was not served"


def test_tcp_backend_gives_identical_answer_sets():
    expect = {
        "queens(8)": oracle.enumerate_answers(get_program("queens"), [8]),
        "spread(4,3)": oracle.enumerate_answers(get_program("spread"), [4, 3]),
    }
    for strategy in ("vs", "hs"):
        h = make_engine(f"tcp-{strategy}", [2, 2], transport="tcp",
                        strategy=strategy)
        for goal, want in expect.items():
            api.par_run_goal(h, goal)
            assert drain(h) == want, f"{goal} over tcp/{strategy}"
        api.par_free_parallel_engine(h)


def test_duplicate_answers_pass_through_unsuppressed():
    # rand_tree leaves can project identical windows; the client must see
    # the full multiset, duplicates included
    expect = oracle.enumerate_answers(get_program("rand_tree"), [19, 6, 3])
    assert any(v > 1 for v in expect.values())
    h = make_engine("dups", [2])
    api.par_run_goal(h, "rand_tree(19,6,3)")
    assert drain(h) == expect
    api.par_free_parallel_engine(h)


def count_within(h, goal, seconds):
    """Run ``goal`` and count its answers, failing if it outlives ``seconds``."""
    api.par_run_goal(h, goal)
    deadline = time.monotonic() + seconds
    got = 0
    while True:
        assert time.monotonic() < deadline, f"{goal} stalled after {got} answers"
        batch = api.par_get_answers(h, ("max", 1 << 16))
        if batch is None:
            return got
        got += batch[1]
        if not batch[1]:
            time.sleep(0.0005)


def test_answer_stream_never_stalls_on_the_answer_pipe():
    # a worker blocked writing into a full answer pipe used to wait on a
    # master that was itself writing into that pipe or waiting on the worker
    h = make_engine("stream", [2])
    for i in range(50):
        assert count_within(h, "spread(4,12)", 10.0) == 12 ** 4, f"goal {i}"
    api.par_free_parallel_engine(h)


@pytest.mark.parametrize("teams,transport", [([2], "inproc"), ([2, 2], "inproc"),
                                             ([2, 2], "tcp")])
def test_large_answer_stream_arrives_in_bounded_time(teams, transport):
    h = make_engine(f"flood-{len(teams)}-{transport}", teams, transport=transport)
    assert count_within(h, "spread(4,16)", 30.0) == 16 ** 4
    api.par_free_parallel_engine(h)


def _alive(pid):
    try:
        with open(f"/proc/{pid}/stat") as f:
            state = f.read().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    return state not in ("Z", "X")


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="PR_SET_PDEATHSIG is Linux-only")
def test_teammates_die_with_a_killed_master():
    h = make_engine("orphans", [2])
    api.par_run_goal(h, "queens(6)")
    assert sum(drain(h).values()) == 4
    master = h._procs[0].pid
    teammates = children_of(master)
    assert teammates, "the master forked no teammate"
    os.kill(master, signal.SIGKILL)
    deadline = time.monotonic() + 2.0
    while any(_alive(pid) for pid in teammates) and time.monotonic() < deadline:
        time.sleep(0.01)
    assert not any(_alive(pid) for pid in teammates), "teammate outlived its master"
    api.par_free_parallel_engine(h)


def test_a_killed_inproc_master_becomes_an_engine_error():
    h = make_engine("killed_master", [1])
    api.par_run_goal(h, "queens(12)")
    while not api.par_probe_answers(h):
        time.sleep(0.001)
    os.kill(h._procs[0].pid, signal.SIGKILL)
    deadline = time.monotonic() + 2.0
    with pytest.raises(EngineError):
        while time.monotonic() < deadline:
            api.par_get_answers(h, ("max", 64))
            time.sleep(0.005)
    api.par_free_parallel_engine(h)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
def test_a_killed_teammate_becomes_an_engine_error():
    # the master watches its teammates' sentinels; a dead teammate's share
    # of the goal must not vanish into a short answer set
    h = make_engine("killed_teammate", [2])
    (teammate,) = children_of(h._procs[0].pid)
    api.par_run_goal(h, "queens(12)")
    time.sleep(0.3)
    os.kill(teammate, signal.SIGKILL)
    deadline = time.monotonic() + 2.0
    try:
        with pytest.raises(EngineError):
            while time.monotonic() < deadline:
                api.par_get_answers(h, ("max", 4096))
                time.sleep(0.005)
    finally:
        api.par_free_parallel_engine(h)


def test_a_teammate_that_dies_before_it_runs_becomes_an_engine_error(monkeypatch):
    # the master watches the teammate's sentinel from its fork on; no
    # start-up wait may stand between the death and the client
    monkeypatch.setattr(boot, "worker_process_main", lambda ctx, rank: os._exit(1))
    h = make_engine("stillborn_teammate", [2])
    deadline = time.monotonic() + 2.0
    try:
        with pytest.raises(EngineError):
            api.par_run_goal(h, "queens(6)")
            while time.monotonic() < deadline:
                api.par_get_answers(h, ("max", 64))
                time.sleep(0.005)
    finally:
        api.par_free_parallel_engine(h)


def test_a_teammate_that_faults_and_dies_tells_the_client_why(monkeypatch):
    # the teammate mails its traceback to its master and exits: whichever of
    # the mail and the death the master sees first, the client learns why
    begin = Worker._begin_goal

    def failing_begin(self, meta):
        begin(self, meta)
        if self.rank:
            raise RuntimeError("synthetic teammate fault")

    monkeypatch.setattr(Worker, "_begin_goal", failing_begin)   # forked masters inherit it
    h = make_engine("teammate_fault", [2])
    api.par_run_goal(h, "queens(8)")
    deadline = time.monotonic() + 5.0
    try:
        with pytest.raises((EngineError, GoalError)) as failure:
            while time.monotonic() < deadline:
                api.par_get_answers(h, ("max", 4096))
                time.sleep(0.005)
    finally:
        api.par_free_parallel_engine(h)
    assert "synthetic teammate fault" in str(failure.value)


def test_a_killed_master_ends_an_exact_wait():
    h = make_engine("killed_exact", [1, 1])
    api.par_run_goal(h, "queens(12)")
    while not api.par_probe_answers(h):
        time.sleep(0.001)
    masters = [p.pid for p in h._procs]
    killer = threading.Timer(0.05, os.kill, (masters[1], signal.SIGKILL))
    # a wait that misses the death still ends, once team 0 is killed too
    watchdog = threading.Timer(10.0, os.kill, (masters[0], signal.SIGKILL))
    killer.start()
    watchdog.start()
    t0 = time.monotonic()
    try:
        with pytest.raises(EngineError):
            api.par_get_answers(h, ("exact", 10 ** 6))
        waited = time.monotonic() - t0
        with pytest.raises(EngineError):
            api.par_probe_answers(h)
    finally:
        watchdog.cancel()
        killer.join()
        api.par_free_parallel_engine(h)
    assert waited < 2.0, f"the exact wait raised {waited:.2f} s after the kill"


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
@pytest.mark.parametrize("agent_team", [1, 0])
def test_a_killed_agent_hosted_master_becomes_an_engine_error(agent, agent_process, agent_team):
    # the client watches no agent: the link's end of file ends the goal
    teams = [("local", 1, "b")] * 2
    teams[agent_team] = (f"127.0.0.1:{agent}", 2, "b")
    h = api.par_create_parallel_engine(f"agent_kill{agent_team}", teams, transport="tcp")
    (master,) = children_of(agent_process.pid)
    engine = [master, *_descendants(master)] + \
        [pid for p in h._procs if p is not None for pid in (p.pid, *_descendants(p.pid))]
    try:
        api.par_run_goal(h, "queens(12)")
        time.sleep(0.3)
        os.kill(master, signal.SIGKILL)
        t0 = time.monotonic()
        with pytest.raises(EngineError):
            while time.monotonic() - t0 < 2.0:
                api.par_get_answers(h, ("max", 4096))
                time.sleep(0.005)
        waited = time.monotonic() - t0
    finally:
        api.par_free_parallel_engine(h)
    assert waited < 2.0, f"the client raised {waited:.2f} s after the kill"
    deadline = time.monotonic() + 2.0
    while any(_alive(pid) for pid in engine) and time.monotonic() < deadline:
        time.sleep(0.01)
    assert not any(_alive(pid) for pid in engine), "an engine process outlived its free"


def _vm_rss_kb(pids):
    total = 0
    for pid in pids:
        with open(f"/proc/{pid}/status") as f:
            total += next(int(line.split()[1]) for line in f if line.startswith("VmRSS:"))
    return total


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
def test_a_paused_client_gets_every_answer_and_the_engine_buffers_little():
    # the client reads nothing for 2 s after the first answer: a blocking
    # send to it holds the engine back instead of piling answers up
    h = make_engine("paused", [2])
    master = h._procs[0].pid
    engine = [master, *children_of(master)]
    try:
        api.par_run_goal(h, "spread(4,16)")
        got = Counter(api.par_get_answers(h, ("exact", 1))[0])
        before = _vm_rss_kb(engine)
        time.sleep(2.0)
        grown = _vm_rss_kb(engine) - before
        got += drain(h)
    finally:
        api.par_free_parallel_engine(h)
    assert got == oracle.enumerate_answers(get_program("spread"), [4, 16])
    assert grown < 8 * 1024, f"the engine grew by {grown} kB while the client paused"


# [4] fills links that carry only mail
@pytest.mark.parametrize("teams", [[1, 1, 1, 1], [2, 2], [4]])
@pytest.mark.parametrize("strategy", ["vs", "hs"])
def test_goals_finish_exactly_over_4_kib_socket_buffers(tiny_socket_buffers, teams, strategy):
    h = make_engine(f"tiny-{len(teams)}-{strategy}", teams, strategy=strategy)
    try:
        for goal, program, args in (("wide(6,10000)", "wide", [6, 10000]),
                                    ("spread(4,10)", "spread", [4, 10])):
            api.par_run_goal(h, goal)
            got, finished = drain_within(h, 30.0)
            assert finished, f"{goal} on {teams} {strategy} did not finish in 30 s"
            assert got == oracle.enumerate_answers(get_program(program), args)
    finally:
        api.par_free_parallel_engine(h)


# a client holding a two-team engine; prints its masters' pids, then waits
_HOLDING_CLIENT = """
import time
from layered_or import api
h = api.par_create_parallel_engine("held", [("local", 1, "builtin"), ("local", 1, "builtin")])
print(" ".join(str(p.pid) for p in h._procs), flush=True)
time.sleep(60)
"""


def _descendants(pid):
    found, stack = [], [pid]
    while stack:
        kids = children_of(stack.pop())
        found += kids
        stack += kids
    return found


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="PR_SET_PDEATHSIG is Linux-only")
def test_masters_die_with_a_killed_client():
    src = str(Path(api.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    client = subprocess.Popen([sys.executable, "-c", _HOLDING_CLIENT], stdout=subprocess.PIPE,
                              text=True, env=dict(os.environ, PYTHONPATH=path))
    engine = []
    try:
        masters = [int(pid) for pid in client.stdout.readline().split()]
        assert len(masters) == 2, "the client created no engine"
        engine = masters + [pid for m in masters for pid in _descendants(m)]
        os.kill(client.pid, signal.SIGKILL)
        client.wait()
        deadline = time.monotonic() + 3.0
        while any(_alive(pid) for pid in engine) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not any(_alive(pid) for pid in engine), "a team process outlived its client"
    finally:
        client.kill()
        client.wait()
        client.stdout.close()
        for pid in engine:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass


# a client that leaves its [2] engine live; exits once told, by return or raise
_LEAVING_CLIENT = """
import sys
from layered_or import api
h = api.par_create_parallel_engine("left", [("local", 2, "builtin")])
api.par_run_goal(h, "queens(6)")
while api.par_get_answers(h, ("exact", 4)) is not None:
    pass
print(h._procs[0].pid, flush=True)
sys.stdin.readline()
if sys.argv[1] == "raise":
    raise RuntimeError("the client fails with its engine live")
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
@pytest.mark.parametrize("how", ["return", "raise"])
def test_a_client_that_never_frees_its_engine_still_exits(how):
    src = str(Path(api.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    engine = []
    with subprocess.Popen([sys.executable, "-c", _LEAVING_CLIENT, how],
                          stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True,
                          env=dict(os.environ, PYTHONPATH=path)) as client:
        try:
            master = int(client.stdout.readline())
            engine = [master] + _descendants(master)
            assert len(engine) == 2, "the client's engine has no teammate"
            t0 = time.monotonic()
            client.stdin.write("\n")
            client.stdin.flush()
            client.wait(timeout=6.0)
            assert time.monotonic() - t0 < 6.0
            deadline = time.monotonic() + 1.0
            while any(_alive(pid) for pid in engine) and time.monotonic() < deadline:
                time.sleep(0.01)
            assert not any(_alive(pid) for pid in engine), "a team process outlived its client"
        finally:
            client.kill()
            for pid in engine:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass


def _cpu_seconds(pids):
    """CPU time the processes ``pids`` have run so far, to the nanosecond."""
    total = 0
    for pid in pids:
        with open(f"/proc/{pid}/schedstat") as f:
            total += int(f.read().split()[0])
    return total / 1e9


def _voluntary_switches(pid):
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("voluntary_ctxt_switches:"):
                return int(line.split()[1])
    raise AssertionError(f"no voluntary_ctxt_switches for pid {pid}")


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
def test_a_parked_master_blocks_until_a_frame_comes():
    h = make_engine("parked_master", [1])
    api.par_run_goal(h, "queens(6)")
    assert sum(drain(h).values()) == 4
    master = h._procs[0].pid
    time.sleep(0.2)
    before = _voluntary_switches(master)
    time.sleep(2.0)
    woke = _voluntary_switches(master) - before
    api.par_run_goal(h, "queens(6)")
    assert sum(drain(h).values()) == 4, "the parked master missed the next goal"
    api.par_free_parallel_engine(h)
    assert woke < 10, f"a parked master woke {woke} times in 2 s"


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
def test_parked_teammates_block_until_mail_comes():
    h = make_engine("parked_teammates", [4])
    api.par_run_goal(h, "queens(6)")
    assert sum(drain(h).values()) == 4
    teammates = _descendants(h._procs[0].pid)
    assert len(teammates) == 3
    time.sleep(0.2)
    before = [_voluntary_switches(pid) for pid in teammates]
    time.sleep(2.0)
    woke = [_voluntary_switches(pid) - n for pid, n in zip(teammates, before)]
    api.par_run_goal(h, "queens(6)")
    assert sum(drain(h).values()) == 4, "a parked teammate missed the next goal"
    api.par_free_parallel_engine(h)
    assert max(woke) < 3, f"parked teammates woke {woke} times in 2 s"


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
def test_a_parked_engine_sleeps_in_the_kernel():
    h = make_engine("parked", [4])
    api.par_run_goal(h, "queens(6)")
    assert sum(drain(h).values()) == 4
    engine = [h._procs[0].pid] + _descendants(h._procs[0].pid)
    assert len(engine) == 4
    time.sleep(0.2)
    cpu, t0 = _cpu_seconds(engine), time.monotonic()
    time.sleep(3.0)
    rate = (_cpu_seconds(engine) - cpu) / (time.monotonic() - t0)
    api.par_free_parallel_engine(h)
    assert rate < 0.015, f"a parked [4] engine used {rate * 1000:.1f} ms of CPU a second"

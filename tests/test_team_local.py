"""Team runtime: spawning, intra-team sharing, or-frame arbitration, answers."""

import json
import multiprocessing
import multiprocessing.synchronize
import os
import pickle
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

from layered_or import api, boot, oracle, transport, worker
from layered_or.config import EngineOptions
from layered_or.engine import ChoicePoint, WorkerState, count_open, run_loop, setup_goal
from layered_or.errors import EngineCreationError, EngineError, GoalError
from layered_or.programs import get_program
from layered_or.team import TeamShared, publish_private_nodes
from layered_or.worker import (
    GoalDone,
    Mailbox,
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
    # the team lock and every mailbox's write lock are record locks on memfds
    made = []
    init = multiprocessing.synchronize.SemLock.__init__

    def counting_init(self, *args, **kwargs):
        made.append(type(self).__name__)
        init(self, *args, **kwargs)

    monkeypatch.setattr(multiprocessing.synchronize.SemLock, "__init__", counting_init)
    shared = TeamShared(4)
    boxes = [Mailbox() for _ in range(4)]
    try:
        assert made == [], f"a team built semaphores: {made}"
    finally:
        shared.close()
        for box in boxes:
            box.close()


def _stop_reading(_self):
    time.sleep(60)                        # a teammate busy in a long run


def _put_raises_engine_error(box, mail):
    with pytest.raises(EngineError):
        box.put(mail)


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
    box = Mailbox()
    try:
        _killed_inside(box._wlock)
        assert _finishes_within(2.0, box.put, ("note", {}, b"after")), \
            "a put hung on a dead writer's lock"
        assert _await(box) == ("note", {}, b"after")
    finally:
        box.close()


def test_a_put_into_a_dead_teammates_full_pipe_raises(monkeypatch):
    # teammate 1 stops reading and its pipe fills; once it dies, a put
    # blocked on that pipe must fail, which it does only if neither the
    # master nor teammate 2 still holds the pipe's read end
    shared = TeamShared(3, n_frames=16)
    boxes = [Mailbox() for _ in range(3)]
    tctx = TeamContext("epipe", 0, 1, 3, EngineOptions(), shared, boxes, None)
    monkeypatch.setattr(Worker, "getwork_first_time", _stop_reading)
    fork = multiprocessing.get_context("fork")
    procs = [fork.Process(target=boot.worker_process_main, args=(tctx, rank))
             for rank in (1, 2)]
    for proc in procs:
        proc.start()
    try:
        tctx.close_others(0)              # as a master does after its forks
        putter = fork.Process(target=_put_raises_engine_error,
                              args=(boxes[1], ("copy", {}, bytes(1 << 20))))
        procs.append(putter)
        putter.start()
        time.sleep(0.2)                   # until the pipe is full
        assert putter.is_alive(), "the put did not block on the full pipe"
        procs[0].kill()
        putter.join(timeout=2.0)
        assert not putter.is_alive(), "a put to a dead teammate's full pipe hung"
        assert putter.exitcode == 0, "the put did not raise EngineError"
    finally:
        for proc in procs:
            proc.kill()
            proc.join(timeout=5.0)
        shared.close()
        for box in boxes:
            box.close()


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
    public_before = shared.public_alts()
    moved = publish_private_nodes(ws, shared)
    assert moved == private_before
    assert ws.load == 0
    assert shared.public_alts() == public_before + moved
    for cp in ws.cps:
        if cp.frame >= 0:
            n, c, s, members = shared.frame_state(cp.frame)
            assert members == 2
            assert (n, c, s) == (cp.n_alts, cp.cursor, cp.split_offset)
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
    assert shared.public_alts() == 0
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
        shared.bind(rank)
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
    assert shared.public_alts() == 0
    shared.close()


def test_per_worker_alt_counters_sum_to_the_open_alternatives_of_live_frames():
    # three forked workers on two cores, started together, each counting in
    # its own slot: they take from frames they all use and allocate, split
    # and kill frames of their own; a lost update or a shared slot breaks
    # the sum
    import random

    ctx = multiprocessing.get_context("fork")
    shared = TeamShared(4, n_frames=256)
    common = [shared.alloc(n_alts=200_000, cursor=0, split_offset=1, depth=0)
              for _ in range(16)]
    start = ctx.Event()
    out = ctx.Queue()

    def worker(rank):
        shared.bind(rank)
        rnd = random.Random(rank)
        mine = [shared.alloc(n_alts=3000, cursor=0, split_offset=1, depth=1)]
        start.wait(10)
        for _ in range(20_000):
            op = rnd.randrange(100)
            if op < 90:
                shared.take(rnd.choice(common + mine))
            elif op < 94:
                if len(mine) < 40:
                    mine.append(shared.alloc(n_alts=rnd.randrange(1, 3000),
                                             cursor=rnd.randrange(0, 5),
                                             split_offset=rnd.choice((1, 2, 4)), depth=1))
            else:
                idx = rnd.choice(mine)
                with shared.lock(idx):
                    if op < 97:
                        if shared.read_locked(idx)[2] < 1 << 20:
                            shared.hsplit_locked(idx)
                    else:
                        shared.kill_locked(idx)
        out.put(mine)

    procs = [ctx.Process(target=worker, args=(rank,)) for rank in (1, 2, 3)]
    for p in procs:
        p.start()
    start.set()
    live = list(common)
    for _ in procs:
        live.extend(out.get(timeout=60))
    for p in procs:
        p.join(timeout=30)
        assert not p.is_alive() and p.exitcode == 0
    assert len(set(live)) == len(live)
    want = sum(count_open(*shared.frame_state(idx)[:3]) for idx in live)
    assert shared.public_alts() == want
    shared.close()


def test_a_mail_cut_short_is_read_once_whole_without_blocking():
    # a teammate killed inside a put leaves a mail cut short: its reader
    # must go on serving, not wait for bytes that never come
    shared = TeamShared(2, n_frames=16)
    boxes = [Mailbox() for _ in range(2)]
    tctx = TeamContext("cut", 0, 1, 2, EngineOptions(), shared, boxes, None)
    teammate = Worker(tctx, WorkerState(team_id=0, worker_id=1), 1)
    whole = (worker.N_ANSWERS, {"goal": 1}, b"x")
    cut = (worker.N_ANSWERS, {"goal": 1}, bytes(range(256)) * 512)   # twice a pipe
    blob = pickle.dumps(cut)
    raw = len(blob).to_bytes(8, "little") + blob
    writer = threading.Thread(target=os.write, args=(boxes[1]._wfd, raw[4096:]))
    try:
        tctx.notify(1, *whole)
        os.write(boxes[1]._wfd, raw[:4096])
        assert teammate._next_mail() == whole
        assert teammate._next_mail() is None, "a mail cut short was returned"
        writer.start()                    # blocks on the full pipe until it is read
        while (got := teammate._next_mail()) is None:
            teammate._await_mail()
        writer.join()
        assert got == cut
        assert teammate._next_mail() is None
    finally:
        shared.close()
        for box in boxes:
            box.close()


def test_answer_batches_mail_a_goals_first_answer_at_once(monkeypatch):
    # with the flush interval out of reach, a teammate mails its master a
    # batch at the goal's first answer and the rest when its run ends;
    # together they are the oracle's answers
    monkeypatch.setattr(worker, "ANSWER_FLUSH_S", 3600.0)
    boxes = [_Box(), _Box()]
    shared = TeamShared(2, n_frames=16)
    opts = EngineOptions()
    tctx = TeamContext("batches", 0, 1, 2, opts, shared, boxes, None)
    teammate = Worker(tctx, WorkerState(team_id=0, worker_id=1), 1)
    teammate._begin_goal({"program": "spread", "args": [6, 5], "goal": 1})
    try:
        teammate._run(start_tag=teammate.ws.program.root_tag)
        teammate._flush_answers()
    finally:
        shared.close()
    puts = boxes[0].items
    assert len(puts) == 2
    assert {(kind, meta["goal"]) for kind, meta, _ in puts} == {(worker.N_ANSWERS, 1)}
    assert len(unpack_answers(puts[0][2])) <= opts.k_backtracks, \
        "the goal's first answer waited for the flush interval"
    got = Counter(unpack_answers(b"".join(raw for _, _, raw in puts)))
    assert got == oracle.enumerate_answers(get_program("spread"), [6, 5])


class _Box:
    """An in-process mailbox that notes the step of ``steps`` (if given) at
    which each message came."""

    def __init__(self, steps=None):
        self.steps = steps
        self.items = deque()
        self.log = []                     # (step, message kind)

    def put(self, item):
        self.items.append(item)
        self.log.append((self.steps and self.steps.count, item[0]))

    def get(self):
        return self.items.popleft() if self.items else None


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
    mailbox only records what it is sent."""
    shared = TeamShared(2, n_frames=n_frames)
    steps = _Counted(get_program(goal))
    boxes = [_Box(steps), _Box(steps)]
    tctx = TeamContext("ticks", 0, 1, 2, EngineOptions(), shared, boxes, None)
    teammate = Worker(tctx, WorkerState(team_id=0, worker_id=1), 1)
    teammate._begin_goal({"program": goal, "args": args, "goal": 1})
    teammate.ws.program = steps
    return teammate, steps


def test_quiet_ticks_widen_and_one_message_narrows_them():
    teammate, steps = no_fork_teammate("queens", [9])
    shared, box = teammate.ctx.shared, teammate.ctx.mailboxes[1]
    k = teammate.ctx.options.k_backtracks
    cap = worker.TICK_SPACING_CAP * k
    service = teammate._service
    ticks = []                            # (step at the tick, spacing returned)
    mail_at = [7]                         # the first run's eighth tick finds mail

    def watched():
        if mail_at and len(ticks) == mail_at[0]:
            mail_at.clear()
            # a stale goal's notice: mail that asks for nothing
            box.put((worker.N_GOAL_DONE, {"goal": 0}, None))
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
    widening = [min(k << i, cap) for i in range(1, 20)]
    for run in (first_run, ticks):
        assert run[0][0] == k, "a run's first tick did not fall after k_backtracks steps"
        # each tick falls the spacing its predecessor returned after it
        assert [b[0] - a[0] for a, b in zip(run, run[1:])] == [s for _, s in run[:-1]]
    assert [s for _, s in first_run] == widening[:7] + [k] + widening[:len(first_run) - 8]
    assert [s for _, s in ticks] == widening[:len(ticks)]
    assert len(ticks) > 8 and ticks[-2][1] == cap


def test_a_busy_teammate_answers_a_share_request_within_the_widest_spacing():
    # requests come in at arbitrary steps, after gaps long enough for the
    # spacing to widen to the cap; every one is answered at the next tick
    rng = random.Random(7)
    teammate, steps = no_fork_teammate("queens", [10], n_frames=4096)
    shared, box = teammate.ctx.shared, teammate.ctx.mailboxes[1]
    teammate.ws.frames = shared
    cap = worker.TICK_SPACING_CAP * teammate.ctx.options.k_backtracks
    asked = []
    replies = teammate.ctx.mailboxes[0].log
    next_ask = [rng.randrange(1, 3 * cap)]

    def at_step(step):
        if step >= next_ask[0] and len(replies) == len(asked):
            asked.append(step)
            box.put((worker.N_DELEGATE_REQUEST, {"goal": 1, "local": 0}, None))
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
    assert {kind for _, kind in replies} >= {worker.N_DELEGATE_ACCEPT}
    waits = [answered - at for at, (answered, _) in zip(asked, replies)]
    assert max(waits) < cap, f"a request waited {max(waits)} steps"
    # nobody took the published work, so this worker found every answer
    assert got == oracle.enumerate_answers(get_program("queens"), [10])


def _await(box):
    """The next mail of ``box``, blocking in poll(2) until it is whole."""
    poller = select.poll()
    poller.register(box.fd, select.POLLIN)
    while (mail := box.get()) is None:
        poller.poll()
    return mail


def test_mails_larger_than_a_pipe_from_several_writers_arrive_whole():
    ctx = multiprocessing.get_context("fork")
    box = Mailbox()
    per_writer = 8

    def writer(rank):
        for i in range(per_writer):
            box.put((rank, i, bytes([rank * per_writer + i]) * 100_000))

    procs = [ctx.Process(target=writer, args=(r,)) for r in (1, 2, 3)]
    for p in procs:
        p.start()
    got = [_await(box) for _ in range(3 * per_writer)]
    for p in procs:
        p.join(timeout=5.0)
        assert not p.is_alive()
    assert sorted((r, i) for r, i, _ in got) == \
        [(r, i) for r in (1, 2, 3) for i in range(per_writer)]
    assert all(blob == bytes([r * per_writer + i]) * 100_000 for r, i, blob in got)
    assert box.get() is None
    box.close()


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RUSAGE_THREAD is Linux-only")
def test_a_teammate_waiting_for_a_reply_blocks_on_its_mailbox():
    shared = TeamShared(3, n_frames=16)
    boxes = [Mailbox() for _ in range(3)]
    tctx = TeamContext("wait", 0, 1, 3, EngineOptions(), shared, boxes, None)
    requester = Worker(tctx, WorkerState(team_id=0, worker_id=1), 1)
    requester.goal_id = 1

    def busy_target():
        _, meta, _ = _await(boxes[2])
        time.sleep(0.3)                   # until the target's next tick
        tctx.notify(1, worker.N_DELEGATE_REFUSE, meta)

    target = threading.Thread(target=busy_target)
    # a requester that misses the reply shuts down instead of hanging
    watchdog = threading.Timer(10.0, tctx.notify, (1, worker.N_GOAL_DONE,
                                                   {"shutdown": True}))
    target.start()
    watchdog.start()
    try:
        before = resource.getrusage(resource.RUSAGE_THREAD).ru_nvcsw
        t0 = time.monotonic()
        assert requester._request_from(2) is False
        waited = time.monotonic() - t0
        switches = resource.getrusage(resource.RUSAGE_THREAD).ru_nvcsw - before
    finally:
        watchdog.cancel()
        target.join(timeout=5.0)
        shared.close()
        for box in boxes:
            box.close()
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
    h = make_engine("collect2", [1, 1, 1, 1], options=EngineOptions(trace=True))
    api.par_run_goal(h, "queens(8)")
    got = drain(h)
    assert sum(got.values()) == 92
    origins = {e[3]["origin"] for e in h.trace_events() if e[2] == "client_answer"}
    assert origins - {0}, "remote teams contributed no answers"
    api.par_free_parallel_engine(h)


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


class _ScriptedEndpoint(transport.Endpoint):
    """Team 0's endpoint fed from a script of (due at poll number, frame)."""

    def __init__(self, n_teams, script):
        super().__init__("scripted", 0, n_teams)
        self.script = deque(script)
        self.polls = 0
        self.sent = []                    # (polls so far, dest, kind)

    def _transmit(self, dest, frame):
        self.sent.append((self.polls, dest, transport.decode_frame(frame).kind))

    def _receive(self):
        self.polls += 1
        if self.script and self.polls >= self.script[0][0]:
            return self.script.popleft()[1]
        return None

    def wait(self, timeout):
        pass                              # the script is polled, never waited on


def _credit_return(sender, k, n_teams=3):
    # sent by an idle team, so its whole view reads idle
    return transport.encode_frame(
        transport.ANSWER, sender, [(-1, 9)] * n_teams,
        transport.encode_payload({"goal": 1, "credit": k}, b""))


def test_termination_waits_for_credit_despite_an_all_idle_load_view():
    # Team 0 gave stacks to teams 1 and 2 and went idle. Every entry of its
    # load array reads -1: a newer refusal from an idle team can shadow the
    # record that the team just received work. The goal may end only once
    # both teams have handed their credit back.
    shared = TeamShared(1, n_frames=16)
    ep = _ScriptedEndpoint(3, [(50, _credit_return(1, 1)), (100, _credit_return(2, 2))])
    ctx = TeamContext("scripted", 0, 3, 1, EngineOptions(), shared, [_Box()], None)
    master = Master(ctx, WorkerState(team_id=0, worker_id=0), ep)
    ep.own_load_fn = master.own_load
    master._begin_goal({"program": "queens", "args": [4], "goal": 1})
    master._credit = 0
    assert master._halve_credit() == 1        # to team 1
    assert master._halve_credit() == 2        # to team 2
    master.team_idle = True
    master._return_credit()
    ep.loads = [(-1, 5)] * 3
    try:
        with pytest.raises(GoalDone):
            master._team_idle_scheduler()
    finally:
        shared.close()
    terminates = [(polls, dest) for polls, dest, kind in ep.sent
                  if kind == transport.TERMINATE]
    assert sorted(dest for _, dest in terminates) == [1, 2]
    assert min(polls for polls, _ in terminates) >= 100, \
        "TERMINATE went out while team 2 still held credit"


def test_a_goals_first_answers_leave_the_master_at_once():
    # the previous goal's last ANSWER frame went out just now; the next
    # goal's first answer must not wait ANSWER_FLUSH_S behind it
    shared = TeamShared(1, n_frames=16)
    ep = _ScriptedEndpoint(2, [])
    ctx = TeamContext("scripted", 0, 2, 1, EngineOptions(), shared, [_Box()], None)
    master = Master(ctx, WorkerState(team_id=0, worker_id=0), ep)
    ep.own_load_fn = master.own_load
    try:
        master._begin_goal({"program": "queens", "args": [4], "goal": 1})
        master._emit((2, 4, 1, 3))
        master._forward_answers(now=True)
        master._begin_goal({"program": "queens", "args": [4], "goal": 2})
        master._emit((3, 1, 4, 2))
        master._forward_answers()
    finally:
        shared.close()
    answers = [dest for _, dest, kind in ep.sent if kind == transport.ANSWER]
    assert answers == [transport.CLIENT_ID] * 2, "the second goal's first answer was held"


def test_answer_frames_leave_a_masters_quiet_ticks_widening():
    # another team's ANSWER frames ask nothing of this team: like answer
    # mail, they leave the spacing doubling to the cap, while any other
    # frame (here a SHARE_REQUEST) brings it back to k_backtracks
    answers = transport.encode_frame(
        transport.ANSWER, 1, [(3, 9)] * 2,
        transport.encode_payload({"goal": 1}, worker.pack_answers([(1, 3, 0, 2)])))
    request = transport.encode_frame(
        transport.SHARE_REQUEST, 1, [(0, 9), (-1, 10)],
        transport.encode_payload({"goal": 1, "req": 0}, b""))
    script = [(polls, answers) for polls in range(3, 30, 3)]
    script += [(30, request)] + [(polls, answers) for polls in range(33, 45, 3)]
    shared = TeamShared(1, n_frames=4096)
    ep = _ScriptedEndpoint(2, script)
    ctx = TeamContext("scripted", 0, 2, 1, EngineOptions(), shared, [_Box()], None)
    master = Master(ctx, WorkerState(team_id=0, worker_id=0), ep)
    ep.own_load_fn = master.own_load
    master.ws.frames = shared
    master._begin_goal({"program": "queens", "args": [10], "goal": 1})
    master._credit = 0
    k = ctx.options.k_backtracks
    cap = worker.TICK_SPACING_CAP * k
    ticks = []                            # (frame kinds handled, spacing returned)
    handle, service = master._handle_message, master._service
    kinds = []

    def logged_handle(msg, busy):
        kinds.append(msg.kind)
        handle(msg, busy)

    def watched():
        kinds.clear()
        spacing = service()
        ticks.append((list(kinds), spacing))
        return spacing

    master._handle_message, master._service = logged_handle, watched
    try:
        master._run(start_tag=master.ws.program.root_tag)
    finally:
        shared.close()
    (at,) = [i for i, (got, _) in enumerate(ticks) if transport.SHARE_REQUEST in got]
    assert not ep.script, "the run ended before every scripted frame came"
    assert sum(got == [transport.ANSWER] for got, _ in ticks[:at]) >= 6
    widening = [min(k << i, cap) for i in range(1, len(ticks) + 1)]
    assert [s for _, s in ticks[:at]] == widening[:at], "an ANSWER frame narrowed a tick"
    assert ticks[at][1] == k, "a SHARE_REQUEST did not narrow the next tick"
    after = [s for _, s in ticks[at + 1:]]
    assert after == widening[:len(after)] and after[-1] == cap
    assert transport.ANSWER in {kind for _, _, kind in ep.sent}, "answers were not forwarded"


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

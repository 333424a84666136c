"""Search-core unit tests: choice points, trail, split-offset backtracking."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layered_or import engine, oracle
from layered_or.engine import (
    EXHAUSTED,
    WorkerState,
    backtrack,
    push_choice_point,
    restore_trail,
    run_loop,
    setup_goal,
)
from layered_or.programs import get_program
from layered_or.team import TeamShared


def fresh_worker(name="spread", args=(2, 2), template=None):
    ws = WorkerState()
    prog = get_program(name)
    setup_goal(ws, prog, args, template)
    return ws, prog


def run_all(name, args, template=None):
    ws, prog = fresh_worker(name, args, template)
    got = Counter()
    run_loop(ws, lambda a: got.update([a]), start_tag=prog.root_tag)
    return got, ws


# -- push_choice_point --------------------------------------------------------

def test_push_takes_first_alternative_and_counts_open():
    ws, _ = fresh_worker()
    first = push_choice_point(ws, 0, [10, 11, 12], ws.H, ws.TR)
    cp = ws.cps[-1]
    assert first == 10
    assert cp.cursor == 1
    assert cp.split_offset == 1
    assert cp.open_count() == 2
    assert ws.load == 2


def test_push_single_alternative_is_immediately_dead():
    ws, _ = fresh_worker()
    push_choice_point(ws, 0, [5], ws.H, ws.TR)
    assert ws.cps[-1].is_dead()
    assert ws.load == 0


def test_two_nested_pushes_load_two():
    ws, _ = fresh_worker()
    push_choice_point(ws, 0, [1, 2], ws.H, ws.TR)
    push_choice_point(ws, 1, [3, 4], ws.H, ws.TR)
    assert ws.load == 2
    assert ws.load == sum(cp.open_count() for cp in ws.cps)


def test_push_requires_alternatives():
    ws, _ = fresh_worker()
    with pytest.raises(AssertionError):
        push_choice_point(ws, 0, [], ws.H, ws.TR)


# -- backtrack ----------------------------------------------------------------

def _manual_node(ws, alts, cursor, split_offset):
    first = push_choice_point(ws, 0, alts, ws.H, ws.TR)
    cp = ws.cps[-1]
    cp.cursor = cursor
    cp.split_offset = split_offset
    ws.set_load(cp.open_count())
    return first


def test_backtrack_sequential_step():
    ws, _ = fresh_worker()
    _manual_node(ws, [100, 101, 102], cursor=1, split_offset=1)
    assert backtrack(ws) == 101
    assert ws.cps[-1].cursor == 2


def test_backtrack_split_offset_two_skips_alternatives():
    ws, _ = fresh_worker()
    _manual_node(ws, [100, 101, 102, 103], cursor=1, split_offset=2)
    assert backtrack(ws) == 101
    assert ws.cps[-1].cursor == 3
    assert backtrack(ws) == 103


def test_backtrack_pops_dead_node_and_exhausts():
    ws, _ = fresh_worker()
    _manual_node(ws, [100, 101, 102, 103], cursor=4, split_offset=1)
    assert backtrack(ws) is EXHAUSTED
    assert not ws.cps


def test_backtrack_restores_store_between_alternatives():
    got, _ = run_all("queens", [4])
    # two n=4 solutions; restoration failures would corrupt them
    assert sorted(got) == [(2, 4, 1, 3), (3, 1, 4, 2)]


# -- restore_trail --------------------------------------------------------------

def test_restore_single_write():
    ws, _ = fresh_worker()
    ws._guard = ws.H
    idx = 3
    before = ws.store[idx]
    ws.write(idx, 7)
    restore_trail(ws, 0)
    assert ws.store[idx] == before


def test_restore_to_current_top_is_noop():
    ws, _ = fresh_worker()
    ws._guard = ws.H
    ws.write(2, 9)
    snapshot = list(ws.store)
    restore_trail(ws, ws.TR)
    assert ws.store == snapshot


def test_restore_mark_above_top_asserts():
    ws, _ = fresh_worker()
    with pytest.raises(AssertionError):
        restore_trail(ws, ws.TR + 1)


def test_restore_hundred_random_writes():
    ws, _ = fresh_worker("spread", (4, 3))
    ws._guard = ws.H
    baseline = list(ws.store)
    rng = random.Random(7)
    for _ in range(100):
        ws.write(rng.randrange(len(ws.store)), rng.randrange(1000))
    restore_trail(ws, 0)
    assert ws.store == baseline


@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 99)), max_size=60),
       st.data())
@settings(max_examples=60, deadline=None)
def test_restore_reproduces_any_marked_snapshot(writes, data):
    ws, _ = fresh_worker("spread", (4, 3))
    ws._guard = ws.H
    marks = {0: list(ws.store)}
    for i, (idx, val) in enumerate(writes):
        ws.write(idx, val)
        marks[i + 1] = list(ws.store)
    mark = data.draw(st.sampled_from(sorted(marks)))
    restore_trail(ws, mark)
    assert ws.store == marks[mark]


# -- run_worker ----------------------------------------------------------------

@pytest.mark.parametrize("name,args", [
    ("queens", [6]),
    ("queens", [8]),
    ("magic_square", [3]),
    ("send_more", []),
    ("nsort", [6]),
    ("map_colouring", [2]),
    ("rand_tree", [42, 6, 4]),
    ("rand_tree", [7, 8, 5]),
])
def test_run_matches_oracle(name, args):
    got, _ = run_all(name, args)
    assert got == oracle.enumerate_answers(get_program(name), args)


def test_queens6_has_four_answers():
    got, _ = run_all("queens", [6])
    assert sum(got.values()) == 4


def test_queens8_has_ninety_two_answers():
    got, _ = run_all("queens", [8])
    assert sum(got.values()) == 92


def test_failing_root_yields_no_answers():
    # magic_square rejects n=2 bodies at the first completed line
    got, ws = run_all("magic_square", [2])
    assert not got
    assert not ws.cps


def test_template_projects_single_slot():
    got, _ = run_all("send_more", [], template="Y")
    assert got == Counter({(2,): 1})


def test_load_register_tracks_open_alternatives_exactly():
    ws, prog = fresh_worker("queens", [6])
    checks = []

    def emit(_):
        checks.append(ws.load == sum(cp.open_count() for cp in ws.cps))

    run_loop(ws, emit, start_tag=prog.root_tag)
    assert checks and all(checks)
    assert ws.load == 0


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_random_trees_enumerate_exactly_once(seed):
    args = [seed, 5, 4]
    got, _ = run_all("rand_tree", args)
    assert got == oracle.enumerate_answers(get_program("rand_tree"), args)


def test_rederive_rebuilds_alternatives_after_cache_drop():
    # simulates the state of installed stacks: caches are gone
    ws, prog = fresh_worker("queens", [6])
    got_before = Counter()
    run_loop(ws, lambda a: got_before.update([a]), start_tag=prog.root_tag)

    ws2, _ = fresh_worker("queens", [6])
    partial = Counter()
    count = [0]

    class _StopRun(Exception):
        pass

    def stop_after_two(ans):
        partial.update([ans])
        count[0] += 1
        if count[0] == 2:
            raise _StopRun

    try:
        run_loop(ws2, stop_after_two, start_tag=prog.root_tag)
    except _StopRun:
        pass
    for cp in ws2.cps:
        cp.alts = None
    rest = Counter()
    run_loop(ws2, lambda a: rest.update([a]))
    assert partial + rest == got_before


# -- service ticks ----------------------------------------------------------------

def reference_ticks(ws, tag, spacing):
    """(backtracks, load) at each tick of a plain loop over the public steps
    that starts at ``tag`` (None: with a fail). Tick ``i`` falls
    ``spacing(i)`` steps after tick ``i - 1``, the first ``spacing(0)``
    steps after the start. A node pushed in the step before a tick shows
    its first alternative open, as ``run_loop`` hands it back for the tick;
    the root tag of a goal has no node yet."""
    from layered_or.engine import EXPAND_CHOICE

    seen = []
    steps = 0
    next_tick = spacing(0)
    while True:
        steps += 1
        if steps == next_tick:
            seen.append((ws.backtracks, ws.load + (tag is not None and bool(ws.cps))))
            next_tick += spacing(len(seen))
        if tag is None:
            tag = backtrack(ws)
            if tag is EXHAUSTED:
                return seen
        ws._guard = pre_store = ws.H
        pre_trail = ws.TR
        kind, payload = ws.program.expand(ws, tag)
        if kind == EXPAND_CHOICE:
            tag = push_choice_point(ws, tag, payload, pre_store, pre_trail)
        else:
            tag = None


def tree_size(name, args):
    """Nodes of the goal's whole tree, by a walk that shares no engine code."""
    from layered_or.engine import EXPAND_CHOICE
    from layered_or.oracle import _CopyStore

    prog = get_program(name)
    root = _CopyStore()
    prog.setup(root, args)
    stack = [(root, prog.root_tag)]
    nodes = 0
    while stack:
        store, tag = stack.pop()
        nodes += 1
        kind, payload = prog.expand(store, tag)
        if kind == EXPAND_CHOICE:
            stack.extend((store.fork(), alt) for alt in payload)
    return nodes


def exact_ticks(ws, limit, register=None, spacings=()):
    """A service that records (backtracks, load) and checks the registers at
    each tick, then returns the next of ``spacings`` (``None`` after them).
    It fails once a run ticks more than ``limit`` times."""
    ticks = []
    spacings = iter(spacings)

    def service():
        ticks.append((ws.backtracks, ws.load))
        assert len(ticks) <= limit, "run_loop ticked more often than it takes steps"
        assert ws.load == sum(cp.open_count() for cp in ws.cps if cp.frame < 0)
        if register is not None:
            assert register and register[-1] == ws.load
        return next(spacings, None)

    return ticks, service


@pytest.mark.parametrize("name,args", [("queens", [6]), ("rand_tree", [42, 6, 4])])
@pytest.mark.parametrize("every", [1, 3, 32])
def test_registers_are_exact_at_every_service_tick(name, args, every):
    ws, prog = fresh_worker(name, args)
    register = []
    ws.load_sink = register.append
    ticks, service = exact_ticks(ws, tree_size(name, args) + 1, register)
    got = Counter()
    run_loop(ws, lambda a: got.update([a]), start_tag=prog.root_tag,
             service=service, service_every=every)
    ref, _ = fresh_worker(name, args)
    assert ticks == reference_ticks(ref, prog.root_tag, lambda i: every)
    assert register[-1] == ws.load == 0
    assert got == oracle.enumerate_answers(prog, args)


@pytest.mark.parametrize("name,args", [("queens", [7]), ("rand_tree", [42, 6, 4]),
                                       ("map_colouring", [1])])
def test_ticks_fall_at_the_spacing_service_returns(name, args):
    # a service that sets its own spacing, ``None`` meaning service_every
    every = 5
    size = tree_size(name, args)
    pattern = [1, 7, None, 2, 40, 3, None, 1, 1, 13]
    spacings = pattern * (size // len(pattern) + 1)
    ws, prog = fresh_worker(name, args)
    register = []
    ws.load_sink = register.append
    ticks, service = exact_ticks(ws, size + 1, register, spacings)
    got = Counter()
    run_loop(ws, lambda a: got.update([a]), start_tag=prog.root_tag,
             service=service, service_every=every)
    ref, _ = fresh_worker(name, args)
    want = reference_ticks(ref, prog.root_tag,
                           lambda i: every if i == 0 or spacings[i - 1] is None
                           else spacings[i - 1])
    assert len(want) > 3 * len(pattern)
    assert ticks == want
    assert register[-1] == ws.load == 0
    assert got == oracle.enumerate_answers(prog, args)


class _Stop(Exception):
    pass


@pytest.mark.parametrize("name,args", [("queens", [7]), ("rand_tree", [7, 8, 5]),
                                       ("spread", [3, 4]),
                                       # 2,112 of its 11,609 nodes are determinate
                                       ("map_colouring", [1])])
def test_stacks_left_by_a_raising_service_resume_to_the_remaining_answers(name, args):
    from layered_or.engine import install_segments
    from layered_or.splitting import snapshot_segments

    prog = get_program(name)
    everything = oracle.enumerate_answers(prog, args)
    # each run takes one step per node it expands, expanding none twice, and
    # one that finds the stack empty; a tick that lost its pending tag would
    # loop instead of ending
    limit = tree_size(name, args) + 1
    ws, _ = fresh_worker(name, args)
    run_loop(ws, lambda a: None, start_tag=prog.root_tag)
    total = ws.backtracks
    # ticks 1, 2 and 3 steps apart fall on every kind of step, also while a
    # determinate node's only alternative is pending; the last tick sees at
    # least total - every backtracks
    for every, stop_at in [(every, stop_at) for every in (1, 2, 3)
                           for stop_at in range(1, total - every + 1, max(1, total // 25))]:
        ws, _ = fresh_worker(name, args)
        before = Counter()
        steps = [0]

        def bounded():
            steps[0] += every
            assert steps[0] <= limit, "run_loop took more steps than the tree has nodes"

        def service():
            bounded()
            if ws.backtracks >= stop_at:
                raise _Stop

        with pytest.raises(_Stop):
            run_loop(ws, lambda a: before.update([a]), start_tag=prog.root_tag,
                     service=service, service_every=every)
        snap = snapshot_segments(ws)
        peer, _ = fresh_worker(name, args)
        install_segments(peer, snap["store_lo"], snap["store_cells"], snap["cp_records"],
                         snap["trail_lo"], snap["trail_entries"])
        assert peer.load == ws.load == snap["load"]
        rest = Counter()
        steps[0] = 0
        run_loop(peer, lambda a: rest.update([a]), service=bounded, service_every=every)
        assert before + rest == everything, \
            f"ticks {every} steps apart, stopped at backtrack {stop_at}"


class _Watched:
    """A program whose ``expand`` first checks the stack it is called on."""

    def __init__(self, ws, program, limit):
        self.ws = ws
        self.program = program
        self.limit = limit
        self.steps = 0
        self.root_tag = program.root_tag

    def expand(self, store, tag):
        self.steps += 1
        assert self.steps <= self.limit, "run_loop expanded more nodes than the tree has"
        # only the bottom node, pushed on an empty stack, may be determinate
        assert all(cp.n_alts > 1 for cp in self.ws.cps[1:] if cp.frame < 0), \
            f"a determinate node holds a choice point below tag {tag}"
        return self.program.expand(store, tag)


@pytest.mark.parametrize("name,args", [("map_colouring", [1]), ("queens", [7]),
                                       ("spread", [3, 1])])
def test_a_run_without_ticks_pushes_no_determinate_node(name, args):
    ws, prog = fresh_worker(name, args)
    ws.program = watched = _Watched(ws, prog, tree_size(name, args))
    got = Counter()
    run_loop(ws, lambda a: got.update([a]), start_tag=prog.root_tag)
    assert watched.steps == watched.limit
    assert got == oracle.enumerate_answers(prog, args)


class _LeaveCountingFrames(TeamShared):
    def __init__(self):
        super().__init__(1, n_frames=8)
        self.left = []

    def leave(self, idx):
        self.left.append(idx)
        super().leave(idx)


def stacked_dead_nodes(cached):
    """spread(6,3) paused four levels down: a dead public root, a live private
    node, then two dead private nodes on top; the pending tag is dropped."""
    ws, prog = fresh_worker("spread", (6, 3))
    ws.frames = _LeaveCountingFrames()
    tag = prog.root_tag
    for _ in range(4):
        ws._guard = pre_store = ws.H
        pre_trail = ws.TR
        tag = push_choice_point(ws, tag, prog.expand(ws, tag)[1], pre_store, pre_trail)
    root, live, *dead = ws.cps
    root.frame = ws.frames.alloc(root.n_alts, root.n_alts, 1, 0)
    for cp in dead:
        cp.cursor = cp.n_alts
    if not cached:
        live.alts = None
    ws.load = live.open_count()
    return ws, prog


@pytest.mark.parametrize("cached", [True, False])
@pytest.mark.parametrize("every", [1, 2, 5])
def test_inline_dead_node_pops_keep_registers_and_leave_the_frame_once(cached, every):
    ref, _ = stacked_dead_nodes(cached)
    want = reference_ticks(ref, None, lambda i: every)
    assert ref.frames.left == [0]

    ws, prog = stacked_dead_nodes(cached)
    # what is left of spread(6,3) is part of its tree
    ticks, service = exact_ticks(ws, tree_size("spread", (6, 3)) + 1)
    answers = []
    run_loop(ws, answers.append, service=service, service_every=every)
    assert ticks == want
    assert ws.frames.left == [0]
    assert ws.backtracks == ref.backtracks and ws.load == 0 and not ws.cps
    # the live node's two other subtrees of 3 ** 4 leaves each
    assert len(answers) == 162

"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and measured numbers. The speedup criterion states its own hardware
precondition (a machine with at least four usable cores) and is skipped,
loudly, where the environment cannot meet it.
"""

import os
import random
import statistics
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layered_or import api, oracle, splitting, transport
from layered_or.config import EngineOptions
from layered_or.engine import ChoicePoint, WorkerState
from layered_or.programs import get_program
from layered_or.scheduler import merge_load_arrays
from layered_or.team import TeamShared

BENCHMARKS = [
    ("queens(8)", "queens", [8]),
    ("knight_move(5)", "knight_move", [5]),
    ("map_colouring(1)", "map_colouring", [1]),
    ("send_more", "send_more", []),
    ("magic_square(3)", "magic_square", [3]),
    ("nsort(8)", "nsort", [8]),
]

TOPOLOGIES = [("[1]", [1]), ("[4]", [4]), ("[2,2]", [2, 2]),
              ("[1,1,1,1]", [1, 1, 1, 1]), ("[2,2,2,2]", [2, 2, 2, 2])]


def drain(handle):
    got = Counter()
    while True:
        batch = api.par_get_answers(handle, ("exact", 1024))
        if batch is None:
            return got
        got.update(batch[0])


def run_goal(handle, goal):
    api.par_run_goal(handle, goal)
    return drain(handle)


def report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS — {detail}")


# -- 1. oracle equivalence -------------------------------------------------------

def test_c1_oracle_equivalence_across_topologies_and_strategies():
    t0 = time.monotonic()
    expected = {goal: oracle.enumerate_answers(get_program(prog), args)
                for goal, prog, args in BENCHMARKS}
    combos = 0
    for strategy in ("vs", "hs"):
        for label, counts in TOPOLOGIES:
            handle = api.par_create_parallel_engine(
                f"acc1-{strategy}-{label}", [("local", w, "b") for w in counts],
                strategy=strategy)
            for goal, prog, args in BENCHMARKS:
                got = run_goal(handle, goal)
                assert got == expected[goal], \
                    f"{goal} on {label}/{strategy}: {sum(got.values())} answers " \
                    f"!= oracle {sum(expected[goal].values())}"
                combos += 1
            api.par_free_parallel_engine(handle)
    elapsed = time.monotonic() - t0
    assert elapsed < 300, f"ran {elapsed:.0f}s, budget is 5 min"
    report(1, f"{combos} goal runs over {len(TOPOLOGIES)} topologies x 2 "
              f"strategies match the oracle exactly ({elapsed:.0f}s)")


# -- 2. splitting partition properties ----------------------------------------------

def _random_stack(rng, shared=None):
    ws = WorkerState()
    ws.frames = shared
    publish = shared is not None
    for depth in range(rng.randrange(1, 10)):
        n = rng.randrange(1, 9)
        offset = 1 << rng.randrange(0, 3)
        cursor = rng.randrange(0, n + 1)
        cp = ChoicePoint(depth, n, cursor, offset, 0, 0, depth,
                         alts=list(range(n)), post_store=0, post_trail=0)
        if publish and rng.random() < 0.4 and cursor < n:
            cp.frame = shared.alloc(n, cursor, offset, depth)
        ws.cps.append(cp)
    ws.set_load(sum(cp.open_count() for cp in ws.cps if cp.frame < 0))
    return ws


def _open_sets(ws, shared):
    out = []
    for cp in ws.cps:
        if cp.frame >= 0:
            n, c, s, _ = shared.frame_state(cp.frame)
        else:
            n, c, s = cp.n_alts, cp.cursor, cp.split_offset
        out.append((set(range(c, n, s)), s))
    return out


def test_c2_split_partition_properties_on_randomized_trees():
    t0 = time.monotonic()
    rng = random.Random(0xACCE97)
    shared = TeamShared(2, n_frames=512)
    violations = 0
    for trial in range(1000):
        strategy = "vs" if trial % 2 == 0 else "hs"
        ws = _random_stack(rng, shared)
        before = _open_sets(ws, shared)
        before_total = sum(len(s) for s, _ in before)
        aux = splitting.snapshot_to_aux(ws)
        if strategy == "vs":
            splitting.vertical_split(ws, aux)
        else:
            splitting.horizontal_split(ws, aux)
        after = _open_sets(ws, shared)
        for i, rec in enumerate(aux.cp_records):
            mine, s_mine = after[i]
            theirs = set(range(rec[2], rec[1], rec[3]))
            if mine | theirs != before[i][0] or (mine & theirs):
                violations += 1
            if strategy == "hs" and before[i][0]:
                if s_mine != 2 * before[i][1] or rec[3] != 2 * before[i][1]:
                    violations += 1
            if strategy == "vs" and s_mine != before[i][1]:
                violations += 1
        mine_total = sum(len(s) for s, _ in after)
        if mine_total + aux.recount_load() != before_total:
            violations += 1
        for cp in ws.cps:     # kill and release every frame so the pool recycles
            if cp.frame >= 0:
                with shared.lock(cp.frame):
                    shared.kill_locked(cp.frame)
                shared.leave(cp.frame)
                shared.leave(cp.frame)
    shared.close()
    elapsed = time.monotonic() - t0
    assert violations == 0
    assert elapsed < 30, f"ran {elapsed:.1f}s, budget is 30 s"
    report(2, f"1000 randomized trees: complementarity, conservation and the "
              f"2^k offset law hold with zero violations ({elapsed:.1f}s)")


# -- 3. termination safety and liveness ------------------------------------------------

def test_c3_termination_safety_liveness_under_randomized_delays():
    t0 = time.monotonic()
    runs = 1000
    expected = oracle.enumerate_answers(get_program("spread"), [3, 4])
    handle = api.par_create_parallel_engine(
        "acc3", [("local", 1, "b")] * 4,
        options=EngineOptions(trace=True, delay=(0xDE1A4, 0.0, 0.002)))
    done_counts = Counter()
    for run in range(runs):
        api.par_run_goal(handle, "spread(3,4)")
        deadline = time.monotonic() + 30
        got = Counter()
        while True:
            batch = api.par_get_answers(handle, ("max", 2048))
            if batch is None:
                break
            got.update(batch[0])
            assert time.monotonic() < deadline, f"run {run} did not terminate"
            if not batch[1]:
                time.sleep(0.0005)
        assert got == expected, f"run {run} lost answers: {sum(got.values())}/64"
        for team, rank, kind, data in handle.trace_events():
            if kind == "goal_done":
                done_counts[data["goal"]] += 1
        assert done_counts[run + 1] == 1, f"run {run}: GOAL_DONE not exactly once"
    api.par_free_parallel_engine(handle)
    elapsed = time.monotonic() - t0
    assert elapsed < 180, f"ran {elapsed:.0f}s, budget is 3 min"
    report(3, f"{runs} randomized-delay runs on a 4-team engine: all "
              f"terminated, GOAL_DONE exactly once, zero answers lost "
              f"({elapsed:.0f}s)")


# -- 4. load-array protocol ---------------------------------------------------------

entries = st.tuples(st.integers(-1, 60), st.integers(0, 40))


@given(st.integers(2, 6).flatmap(
    lambda n: st.tuples(st.lists(entries, min_size=n, max_size=n),
                        st.lists(entries, min_size=n, max_size=n))))
@settings(max_examples=300, deadline=None)
def test_c4a_merge_properties(pair):
    a, b = pair
    ab = merge_load_arrays(a, b)
    assert ab == merge_load_arrays(b, a)
    assert merge_load_arrays(ab, b) == ab
    assert merge_load_arrays(a, a) == a
    for (ll, lt), (rl, rt), (ml, mt) in zip(a, b, ab):
        assert (ml, mt) in ((ll, lt), (rl, rt))
        assert mt == max(lt, rt)


def test_c4b_every_wire_message_carries_a_load_array(wire_log):
    t0 = time.monotonic()
    handle = api.par_create_parallel_engine(
        "acc4", [("local", 1, "b")] * 3, transport="tcp")
    run_goal(handle, "queens(7)")
    run_goal(handle, "spread(3,3)")
    api.par_free_parallel_engine(handle)
    frames = [f for _, _, f in wire_log()]
    assert len(frames) > 20, "scenario produced too little traffic to judge"
    stamped = 0
    for blob in frames:
        msg = transport.decode_frame(blob)
        assert len(msg.loads) == 3, "frame lacks a full load array"
        stamped += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 10
    report(4, f"merge is younger-wins/idempotent/commutative; {stamped}/"
              f"{len(frames)} captured wire frames carry a load array "
              f"({elapsed:.1f}s)")


# -- 5. serialization round-trips ----------------------------------------------------

def test_c5_serialization_roundtrips_and_gap_free_sizes():
    t0 = time.monotonic()
    rng = random.Random(0x5E71A)
    for _ in range(1000):
        n_cells = rng.randrange(0, 30)
        n_cps = rng.randrange(1, 10)
        n_trail = rng.randrange(0, 20)
        aux = splitting.AuxArea(
            store_lo=rng.randrange(0, 8), store_hi=0, trail_lo=rng.randrange(0, 8),
            trail_hi=0, load=0, goal_id=rng.randrange(1 << 30), root_depth=0,
            store_cells=[rng.randrange(-9, 1 << 30) for _ in range(n_cells)],
            cp_records=[[rng.randrange(1 << 40), rng.randrange(1, 9),
                         rng.randrange(0, 9), 1 << rng.randrange(0, 4),
                         rng.randrange(0, 40), rng.randrange(0, 40), d]
                        for d in range(n_cps)],
            trail_entries=[(rng.randrange(0, 50), rng.randrange(-9, 1 << 30))
                           for _ in range(n_trail)])
        aux.store_hi = aux.store_lo + n_cells
        aux.trail_hi = aux.trail_lo + n_trail
        aux.recount_load()
        blob = splitting.serialize_aux(aux)
        assert splitting.deserialize_aux(blob) == aux
        assert len(blob) == 8 * (8 + n_cells + 7 * n_cps + 2 * n_trail)

        loads = [(rng.randrange(-1, 99), rng.randrange(0, 99))
                 for _ in range(rng.randrange(1, 6))]
        payload = transport.encode_payload(
            {"goal": rng.randrange(99)},
            bytes(rng.randrange(256) for _ in range(rng.randrange(64))))
        kind = rng.choice([transport.GOAL, transport.ANSWER, transport.SHARE_ACCEPT])
        sender = rng.randrange(0, 6)
        msg = transport.decode_frame(transport.encode_frame(kind, sender, loads, payload))
        assert (msg.kind, msg.sender, msg.loads) == (kind, sender, loads)
    elapsed = time.monotonic() - t0
    assert elapsed < 10
    report(5, f"1000 aux areas and 1000 wire frames round-trip exactly; "
              f"serialized sizes are gap-free ({elapsed:.1f}s)")


# -- 6. speedup trends ----------------------------------------------------------------

SPEEDUP_GOAL = "queens(12)"
SPEEDUP_RUNS = 10


def _parallel_capacity() -> float:
    """Aggregate throughput of 4 spinning processes relative to one."""
    import multiprocessing as mp

    def burn(q):
        t0 = time.perf_counter()
        n = 0
        while time.perf_counter() - t0 < 0.3:
            for _ in range(10000):
                n += 1
        q.put(n)

    ctx = mp.get_context("fork")

    def run(k):
        q = ctx.SimpleQueue()
        ps = [ctx.Process(target=burn, args=(q,)) for _ in range(k)]
        for p in ps:
            p.start()
        total = sum(q.get() for _ in ps)
        for p in ps:
            p.join()
        return total

    one = run(1)
    four = run(4)
    return four / one


def _mean_time(handle, goal, runs):
    run_goal(handle, goal)   # warm-up
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        run_goal(handle, goal)
        times.append(time.perf_counter() - t0)
    return statistics.fmean(times)


def _measure_topology(counts, runs, **kw):
    handle = api.par_create_parallel_engine(
        "acc6-" + "-".join(map(str, counts)) + kw.get("transport", ""),
        [("local", w, "b") for w in counts], **kw)
    mean = _mean_time(handle, SPEEDUP_GOAL, runs)
    api.par_free_parallel_engine(handle)
    return mean


def test_c6_speedup_trends():
    cores = os.cpu_count() or 1
    if cores < 4:
        pytest.skip(f"speedup criterion requires a >=4-core machine; "
                    f"this one reports {cores} cpus")
    capacity = _parallel_capacity()
    if capacity < 3.0:
        pytest.skip(f"cpu quota limits 4-process throughput to {capacity:.2f}x "
                    f"one process; the machine cannot exhibit 4-way speedups")
    t0 = time.monotonic()
    base = _measure_topology([1], SPEEDUP_RUNS)
    t4 = _measure_topology([4], SPEEDUP_RUNS)
    t22 = _measure_topology([2, 2], SPEEDUP_RUNS)
    t1111 = _measure_topology([1, 1, 1, 1], SPEEDUP_RUNS)
    t22_tcp = _measure_topology([2, 2], SPEEDUP_RUNS, transport="tcp",
                                options=EngineOptions(delay=(0, 0.00008, 0.00008)))
    s4, s22, s1111, s22t = base / t4, base / t22, base / t1111, base / t22_tcp
    detail = (f"{SPEEDUP_GOAL}: [4]={s4:.2f}x [2,2]={s22:.2f}x "
              f"[1,1,1,1]={s1111:.2f}x [2,2]tcp+0.08ms={s22t:.2f}x "
              f"(base {base:.2f}s)")
    assert s4 >= 2.5, f"(a) failed: {detail}"
    assert s4 >= 0.9 * s22 and s22 >= 0.9 * s1111, f"(b) failed: {detail}"
    assert s22t > 1.5, f"(c) failed: {detail}"
    elapsed = time.monotonic() - t0
    assert elapsed < 900, f"ran {elapsed:.0f}s, budget is 15 min"
    report(6, detail + f" ({elapsed:.0f}s)")


# -- 7. api contract -------------------------------------------------------------------

def test_c7_api_contract():
    t0 = time.monotonic()
    h = api.par_create_parallel_engine("acc7", [("local", 2, "b")])
    api.par_run_goal(h, "queens(8)")                 # returns immediately
    api.par_probe_answers(h)                          # may be False; must not block
    got, n = api.par_get_answers(h, ("exact", 92))    # blocks until enough
    assert n == 92
    assert api.par_get_answers(h, ("exact", 1)) is None  # exhausted + finished fails

    api.par_run_goal(h, "queens(6)")
    deadline = time.monotonic() + 10
    while not api.par_probe_answers(h):
        assert time.monotonic() < deadline
        time.sleep(0.001)
    got, n = api.par_get_answers(h, ("max", 10))      # never blocks
    rest = drain(h)
    assert n + sum(rest.values()) == 4
    assert api.par_get_answers(h, ("exact", 3)) is None

    with pytest.raises(api.GoalError):
        api.par_run_goal(h, "queens(6,7)")
    api.par_free_parallel_engine(h)
    with pytest.raises(api.GoalError):
        api.par_probe_answers(h)
    elapsed = time.monotonic() - t0
    assert elapsed < 30
    report(7, f"asynchrony, max/exact blocking semantics and "
              f"failure-on-exhaustion all hold ({elapsed:.1f}s)")

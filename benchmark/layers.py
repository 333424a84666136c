"""Per-layer timings, taken in the benchmark process on the workload's own inputs.

Each function calls one module's public functions directly: ``engine``,
``oracle``, ``team``, ``splitting``, ``transport`` and ``scheduler``. The
stacks and answer batches they work on are captured from a sequential run of
the workload's own goals, at points the seed chooses, so the numbers describe
the shapes the workload really ships.
"""

from __future__ import annotations

import multiprocessing
import statistics
import struct
from collections import Counter
from dataclasses import dataclass
from itertools import cycle
from random import Random
from time import perf_counter

from layered_or import engine, oracle, scheduler, splitting, team, transport
from layered_or.api import parse_goal
from layered_or.config import EngineOptions
from layered_or.errors import EngineError
from layered_or.programs import get_program

CAPTURES = 8          # mid-search stacks captured per workload


@dataclass
class SeqGoal:
    run_loop_s: float
    backtracks: int
    answers: int


def _fresh_worker(goal: str) -> engine.WorkerState:
    spec = parse_goal(goal)
    ws = engine.WorkerState()
    engine.setup_goal(ws, get_program(spec.program), spec.args, spec.template)
    return ws


def oracle_answers(goals, spans) -> tuple[dict[str, Counter], float]:
    """Expected answer multiset of every distinct goal, and the oracle's time."""
    expected = {}
    total = 0.0
    for goal in dict.fromkeys(goals):
        spec = parse_goal(goal)
        t0 = perf_counter()
        expected[goal] = oracle.enumerate_answers(
            get_program(spec.program), spec.args, spec.template)
        t1 = perf_counter()
        spans.record("oracle.enumerate_answers", t0, t1)
        total += t1 - t0
    return expected, total


def sequential_pass(goal: str) -> SeqGoal:
    """One in-process ``run_loop`` pass over ``goal``."""
    ws = _fresh_worker(goal)
    answers = []
    t0 = perf_counter()
    engine.run_loop(ws, answers.append, start_tag=ws.program.root_tag)
    return SeqGoal(perf_counter() - t0, ws.backtracks, len(answers))


def sequential(goals, spans) -> dict[str, SeqGoal]:
    """One sequential pass over every distinct goal."""
    out = {}
    for goal in dict.fromkeys(goals):
        t0 = perf_counter()
        out[goal] = sequential_pass(goal)
        spans.record("engine.run_loop", t0, perf_counter())
    return out


class _Captured(Exception):
    pass


def capture_stacks(goals, seq: dict[str, SeqGoal], rng: Random) -> list[tuple[str, dict]]:
    """Snapshots of mid-search stacks at seed-chosen backtrack counts.

    Points fall between 5% and 95% of each goal's backtracks. Goals too small
    to have a middle are skipped.
    """
    eligible = [g for g in dict.fromkeys(goals) if seq[g].backtracks >= 64]
    picks = Counter(rng.choice(eligible) for _ in range(CAPTURES))
    out = []
    for goal, n in picks.items():
        total = seq[goal].backtracks
        pending = sorted(rng.randint(total // 20, total * 19 // 20) for _ in range(n))
        ws = _fresh_worker(goal)

        def service():
            while pending and ws.backtracks >= pending[0]:
                out.append((goal, splitting.snapshot_segments(ws)))
                pending.pop(0)
            if not pending:
                raise _Captured

        try:
            engine.run_loop(ws, lambda answer: None, start_tag=ws.program.root_tag,
                            service=service, service_every=8)
        except _Captured:
            pass
    return out


def _rebuild(goal: str, snap: dict) -> engine.WorkerState:
    ws = _fresh_worker(goal)
    engine.install_segments(ws, snap["store_lo"], snap["store_cells"],
                            snap["cp_records"], snap["trail_lo"], snap["trail_entries"])
    return ws


def pack_answers(batch) -> bytes:
    """An ANSWER payload in the engine's layout: count, then (len, values) each."""
    out = [struct.pack("<I", len(batch))]
    for answer in batch:
        out.append(struct.pack(f"<I{len(answer)}q", len(answer), *answer))
    return b"".join(out)


def answer_batch(expected: dict[str, Counter], seq: dict[str, SeqGoal],
                 rng: Random) -> list[tuple]:
    """A seed-chosen batch of one service tick's answers.

    The batch holds as many answers as the sequential run produced per
    ``k_backtracks`` backtracks, the tick at which a master forwards them.
    """
    goal = rng.choice([g for g in expected if expected[g]])
    k = EngineOptions().k_backtracks
    size = max(1, round(seq[goal].answers * k / max(1, seq[goal].backtracks)))
    pool = list(expected[goal].elements())
    start = rng.randrange(len(pool))
    return [pool[(start + i) % len(pool)] for i in range(size)]


# ---------------------------------------------------------------------------

def _per_call_us(spans, name, parent, fn, calls: int, blocks: int = 5) -> float:
    """Median over ``blocks`` timed blocks of ``fn(calls)``, per call, in µs."""
    samples = []
    for _ in range(blocks):
        t0 = perf_counter()
        fn(calls)
        t1 = perf_counter()
        spans.record(name, t0, t1, parent)
        samples.append((t1 - t0) / calls)
    return statistics.median(samples) * 1e6


def _each_us(spans, name, parent, prepare, op, reps: int) -> float:
    """Median µs of ``op(prepare())``, timing only ``op``."""
    samples = []
    for _ in range(reps):
        arg = prepare()
        t0 = perf_counter()
        op(arg)
        t1 = perf_counter()
        spans.record(name, t0, t1, parent)
        samples.append(t1 - t0)
    return statistics.median(samples) * 1e6


class LayerCheckFailed(AssertionError):
    pass


def _check(ok: bool, what: str) -> None:
    if not ok:
        raise LayerCheckFailed(what)


def team_layer(stacks, spans, n_frames: int = 4096, blocks: int = 5) -> dict:
    """Or-frame alloc/take and publishing a captured stack, on a local ``TeamShared``."""
    root = spans.new_id()
    t_root = perf_counter()
    open_nodes = [rec for _, snap in stacks for rec in snap["cp_records"] if rec[2] < rec[1]]
    _check(bool(open_nodes), "no captured stack has an open node")
    frames = [open_nodes[i % len(open_nodes)] for i in range(n_frames)]
    # every frame hands out its open alternatives, then answers one take with -1
    want = sum(engine.count_open(r[1], r[2], r[3]) + 1 for r in frames)
    alloc_s, take_s = [], []
    for _ in range(blocks):
        shared = team.TeamShared(2, n_frames)
        t0 = perf_counter()
        for r in frames:
            shared.alloc(r[1], r[2], r[3], r[6])
        t1 = perf_counter()
        calls = 0
        for idx in range(n_frames):
            calls += 1
            while shared.take(idx) >= 0:
                calls += 1
        t2 = perf_counter()
        _check(calls == want, "or-frame take handed out the wrong count")
        spans.record("team.alloc", t0, t1, root)
        spans.record("team.take", t1, t2, root)
        alloc_s.append((t1 - t0) / n_frames)
        take_s.append((t2 - t1) / calls)

    pool = {"shared": team.TeamShared(2, n_frames), "used": 0}
    snaps = cycle(stacks)

    def prepare():
        ws = _rebuild(*next(snaps))
        if pool["used"] + len(ws.cps) > n_frames:
            pool["shared"], pool["used"] = team.TeamShared(2, n_frames), 0
        pool["used"] += len(ws.cps)
        ws.frames = pool["shared"]
        return ws

    publish_us = _each_us(spans, "team.publish_private_nodes", root, prepare,
                          lambda ws: team.publish_private_nodes(ws, ws.frames), 300)
    spans.record("layer.team", t_root, perf_counter(), span_id=root)
    return {"team.take_us": statistics.median(take_s) * 1e6,
            "team.alloc_us": statistics.median(alloc_s) * 1e6,
            "team.publish_us": publish_us}


def splitting_layer(stacks, strategy: str, spans) -> tuple[dict, bytes]:
    """Both split strategies, the aux codec and install on captured stacks.

    Returns the metrics and one serialized aux area of the workload's own
    strategy, for the SHARE_ACCEPT frame of the transport layer.
    """
    root = spans.new_id()
    t_root = perf_counter()
    snaps = cycle(stacks)

    def prepare():
        ws = _rebuild(*next(snaps))
        return ws, ws.load

    out = {}
    for strat in ("vs", "hs"):
        def op(arg, strat=strat):
            ws, before = arg
            aux = splitting.split_for_transfer(ws, 1, strat)
            _check(ws.load + aux.load == before, f"{strat} split lost alternatives")
        out[f"splitting.split_{strat}_us"] = _each_us(
            spans, f"splitting.split_{strat}", root, prepare, op, 200)

    auxes = []
    for goal, snap in stacks:
        aux = splitting.split_for_transfer(_rebuild(goal, snap), 1, strategy)
        if aux.load > 0:
            auxes.append((goal, aux))
    _check(bool(auxes), "no captured stack could be split")
    blobs = [splitting.serialize_aux(aux) for _, aux in auxes]
    for (_, aux), blob in zip(auxes, blobs):
        _check(splitting.deserialize_aux(blob) == aux, "aux codec round trip differs")

    def serialize(n):
        for i in range(n):
            splitting.serialize_aux(auxes[i % len(auxes)][1])

    def deserialize(n):
        for i in range(n):
            splitting.deserialize_aux(blobs[i % len(blobs)])

    out["splitting.serialize_us"] = _per_call_us(
        spans, "splitting.serialize_aux", root, serialize, 400)
    out["splitting.deserialize_us"] = _per_call_us(
        spans, "splitting.deserialize_aux", root, deserialize, 400)

    bases = {goal: _fresh_worker(goal) for goal, _ in auxes}
    installs = cycle(auxes)

    def prepare_install():
        goal, aux = next(installs)
        ws = bases[goal]
        ws.reset_to_base()
        return ws, aux

    out["splitting.install_us"] = _each_us(
        spans, "splitting.install_aux", root, prepare_install,
        lambda arg: splitting.install_aux(*arg), 300)
    out["splitting.aux_bytes"] = float(statistics.median(len(b) for b in blobs))
    spans.record("layer.splitting", t_root, perf_counter(), span_id=root)
    return out, blobs[0]


def _echo(ep, limit_s: float = 60.0) -> None:
    """Send every frame back to team 0 until ENGINE_FREE or ``limit_s``."""
    t0 = perf_counter()
    while perf_counter() - t0 < limit_s:
        msg = ep.poll()
        if msg is None:
            continue
        if msg.kind == transport.ENGINE_FREE:
            break
        ep.send(0, msg.kind, msg.meta, msg.raw)
    ep.close()


def _ping_us(ep, raw: bytes, n: int) -> float:
    meta = {"goal": 1}
    samples = []
    for i in range(n + n // 10):
        t0 = perf_counter()
        ep.send(1, transport.ANSWER, meta, raw)
        while (msg := ep.poll()) is None:
            if perf_counter() - t0 > 5.0:
                raise LayerCheckFailed("echo endpoint stopped answering")
        t1 = perf_counter()
        _check(msg.raw == raw, "echoed frame differs")
        if i >= n // 10:
            samples.append(t1 - t0)
    return statistics.median(samples) * 1e6


def _round_trip(pair, raw: bytes, n: int = 1000) -> float:
    """Median round trip of ``n`` frames between team 0 and a forked echo."""
    proc = multiprocessing.get_context("fork").Process(target=pair.child, daemon=True)
    proc.start()
    try:
        pair.setup()
        return _ping_us(pair.endpoint, raw, n)
    finally:
        try:
            pair.endpoint.send(1, transport.ENGINE_FREE)
        except (EngineError, OSError):
            pass
        proc.join(timeout=5.0)
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=2.0)
        pair.endpoint.close()


class _QueuePair:
    def __init__(self):
        self.mesh = transport.QueueMesh(2, multiprocessing.get_context("fork"))
        self.endpoint = self.mesh.endpoint("bench-rtt", 0)

    def setup(self):
        pass

    def child(self):
        _echo(self.mesh.endpoint("bench-rtt", 1))


class _TcpPair:
    def __init__(self):
        self.endpoint = transport.TcpEndpoint("bench-rtt", 0, 2)
        self.srv, self.port = self.endpoint.listen()

    def setup(self):
        self.endpoint.accept_peers(self.srv, {1}, timeout=10.0)
        self.srv.close()

    def child(self):
        self.srv.close()
        ep = transport.TcpEndpoint("bench-rtt", 1, 2)
        ep.dial(0, "127.0.0.1", self.port)
        _echo(ep)


def transport_layer(batch, aux_blob: bytes, n_teams: int, rng: Random, spans) -> dict:
    """Frame codec for the workload's ANSWER and SHARE_ACCEPT frames, and
    ping-pong round trips over both back-ends."""
    root = spans.new_id()
    t_root = perf_counter()
    loads = [(rng.randint(-1, 64), rng.randint(1, 1 << 20)) for _ in range(n_teams)]
    answer_raw = pack_answers(batch)
    out = {}
    for label, kind, meta, raw in (("frame", transport.ANSWER, {"goal": 7}, answer_raw),
                                   ("accept", transport.SHARE_ACCEPT,
                                    {"goal": 7, "req": 3}, aux_blob)):
        payload = transport.encode_payload(meta, raw)
        frame = transport.encode_frame(kind, 1, loads, payload)
        msg = transport.decode_frame(frame)
        _check(msg.kind == kind and msg.raw == raw and msg.meta == meta
               and [tuple(e) for e in msg.loads] == loads, f"{label} frame round trip")

        def encode(n, kind=kind, meta=meta, raw=raw):
            for _ in range(n):
                transport.encode_frame(kind, 1, loads, transport.encode_payload(meta, raw))

        def decode(n, frame=frame):
            for _ in range(n):
                transport.decode_frame(frame)

        out[f"transport.encode_{label}_us"] = _per_call_us(
            spans, f"transport.encode_frame.{label}", root, encode, 500)
        out[f"transport.decode_{label}_us"] = _per_call_us(
            spans, f"transport.decode_frame.{label}", root, decode, 500)

    for label, pair_cls in (("queue", _QueuePair), ("tcp", _TcpPair)):
        pair = pair_cls()
        t0 = perf_counter()
        out[f"transport.{label}_rtt_us"] = _round_trip(pair, answer_raw)
        spans.record(f"transport.{label}_round_trips", t0, perf_counter(), root)
    spans.record("layer.transport", t_root, perf_counter(), span_id=root)
    return out


def scheduler_layer(n_teams: int, rng: Random, spans) -> dict:
    root = spans.new_id()
    t_root = perf_counter()
    pairs = []
    for _ in range(64):
        pairs.append(([(rng.randint(-1, 64), rng.randint(1, 1000)) for _ in range(n_teams)],
                      [(rng.randint(-1, 64), rng.randint(1, 1000)) for _ in range(n_teams)]))
    for local, received in pairs:
        merged = scheduler.merge_load_arrays(local, received, keep=0)
        _check(merged[0] == local[0] and all(
            m == max(a, b, key=lambda e: (e[1], e[0]))
            for m, a, b in list(zip(merged, local, received))[1:]), "merge is not a join")

    def merge(n):
        for i in range(n):
            local, received = pairs[i & 63]
            scheduler.merge_load_arrays(local, received, keep=0)

    out = {"scheduler.merge_us": _per_call_us(
        spans, "scheduler.merge_load_arrays", root, merge, 5000)}
    spans.record("layer.scheduler", t_root, perf_counter(), span_id=root)
    return out

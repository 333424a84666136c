"""Splitting strategies and the packed transfer area."""

import hashlib
import random
import struct
from collections import Counter
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layered_or import engine, splitting
from layered_or.engine import ChoicePoint, WorkerState, count_open, run_loop, setup_goal
from layered_or.errors import ProtocolViolation
from layered_or.programs import get_program
from layered_or.splitting import (
    AuxArea,
    deserialize_aux,
    horizontal_split,
    install_aux,
    serialize_aux,
    snapshot_segments,
    snapshot_to_aux,
    vertical_split,
)
from layered_or.team import TeamShared, publish_private_nodes


def open_set(n_alts, cursor, offset):
    return set(range(cursor, n_alts, offset)) if cursor < n_alts else set()


def stack_of(ws, open_counts, n_alts=4):
    """Build a synthetic stack where node i has the given number of open alts."""
    for depth, want in enumerate(open_counts):
        n = max(n_alts, want)
        cp = ChoicePoint(node_tag=depth, n_alts=n, cursor=n - want, split_offset=1,
                         store_mark=ws.H, trail_mark=ws.TR, depth=depth,
                         alts=list(range(n)), post_store=ws.H, post_trail=ws.TR)
        ws.cps.append(cp)
    ws.set_load(sum(cp.open_count() for cp in ws.cps))


def paused_worker(args=(42, 7, 4), backtracks=25, shared=None, program="rand_tree"):
    """Run a program (rand_tree unless told) for a while and pause at a
    scheduler-safe point."""
    ws = WorkerState()
    if shared is not None:
        ws.frames = shared
    prog = get_program(program)
    setup_goal(ws, prog, list(args), None)
    seen = Counter()

    class _Pause(Exception):
        pass

    def service():
        if ws.backtracks >= backtracks and ws.cps:
            raise _Pause

    try:
        run_loop(ws, lambda a: seen.update([a]), start_tag=prog.root_tag,
                 service=service, service_every=1)
    except _Pause:
        pass
    return ws, prog, seen


def clone_worker(ws):
    dup = WorkerState()
    dup.store = list(ws.store)
    dup.trail_cells = list(ws.trail_cells)
    dup.trail_prevs = list(ws.trail_prevs)
    dup.program = ws.program
    dup.template_cells = ws.template_cells
    dup.base_store = ws.base_store
    dup.base_trail = ws.base_trail
    dup.frames = ws.frames
    dup.load = ws.load
    for cp in ws.cps:
        dup.cps.append(ChoicePoint(cp.node_tag, cp.n_alts, cp.cursor, cp.split_offset,
                                   cp.store_mark, cp.trail_mark, cp.depth, cp.frame,
                                   list(cp.alts) if cp.alts is not None else None,
                                   cp.post_store, cp.post_trail))
    return dup


def drain(ws):
    got = Counter()
    run_loop(ws, lambda a: got.update([a]))
    return got


def fresh_like(ws):
    peer = WorkerState()
    peer.program = ws.program
    peer.template_cells = ws.template_cells
    setup_goal(peer, ws.program, [ws.store[0], ws.store[1], ws.store[2]], None)
    return peer


# -- snapshot bounds -----------------------------------------------------------

def test_snapshot_of_dead_root_is_empty_with_zero_load():
    ws = WorkerState()
    prog = get_program("spread")
    setup_goal(ws, prog, [2, 2], None)
    engine.allocate_dead_root(ws)
    aux = snapshot_to_aux(ws)
    assert aux.store_cells == [] and aux.trail_entries == []
    assert aux.recount_load() == 0


def test_snapshot_trail_segment_counts_entries_above_root_mark():
    ws, _, _ = paused_worker()
    root_mark = ws.cps[0].trail_mark
    aux = snapshot_to_aux(ws)
    assert len(aux.trail_entries) == ws.TR - root_mark
    assert aux.trail_lo == root_mark and aux.trail_hi == ws.TR


def test_snapshot_ships_cells_written_below_root_mark():
    # rand_tree mutates setup-time cells, which sit below the root store mark
    ws, _, _ = paused_worker()
    written = set(ws.trail_cells[ws.cps[0].trail_mark:])
    assert written, "scenario must exercise below-root writes"
    aux = snapshot_to_aux(ws)
    assert aux.store_lo <= min(written)
    assert aux.store_cells == ws.store[aux.store_lo:]


def test_snapshot_then_install_without_split_enumerates_the_remainder():
    ws, prog, _ = paused_worker()
    remainder = drain(clone_worker(ws))
    snap = snapshot_segments(ws)
    peer = fresh_like(ws)
    engine.install_segments(peer, snap["store_lo"], snap["store_cells"],
                            snap["cp_records"], snap["trail_lo"], snap["trail_entries"])
    assert drain(peer) == remainder


# -- vertical split ------------------------------------------------------------

def test_vertical_split_alternates_live_nodes():
    ws = WorkerState()
    stack_of(ws, [0, 2, 1, 2, 2])
    aux = snapshot_to_aux(ws)
    vertical_split(ws, aux)
    keep = [cp.open_count() for cp in ws.cps]
    give = [count_open(r[1], r[2], r[3]) for r in aux.cp_records]
    assert keep == [0, 2, 0, 2, 0]
    assert give == [0, 0, 1, 0, 2]
    assert ws.load == 4 and aux.load == 3


def test_vertical_split_with_single_live_node_gives_nothing_away():
    ws = WorkerState()
    stack_of(ws, [0, 3, 0])
    aux = snapshot_to_aux(ws)
    vertical_split(ws, aux)
    assert ws.load == 3 and aux.load == 0  # refused upstream by the zero-load guard


def test_vertical_split_twice_produces_pairwise_disjoint_exhaustive_sets():
    ws = WorkerState()
    stack_of(ws, [2, 2, 2, 2, 2])
    before = [open_set(cp.n_alts, cp.cursor, cp.split_offset) for cp in ws.cps]
    aux1 = snapshot_to_aux(ws)
    vertical_split(ws, aux1)
    aux2 = snapshot_to_aux(ws)
    vertical_split(ws, aux2)
    for i in range(len(before)):
        mine = open_set(ws.cps[i].n_alts, ws.cps[i].cursor, ws.cps[i].split_offset)
        a1 = open_set(aux1.cp_records[i][1], aux1.cp_records[i][2], aux1.cp_records[i][3])
        a2 = open_set(aux2.cp_records[i][1], aux2.cp_records[i][2], aux2.cp_records[i][3])
        assert mine | a1 | a2 == before[i]
        assert not (mine & a1) and not (mine & a2) and not (a1 & a2)


def test_vertical_split_empties_public_nodes_through_their_frames():
    shared = TeamShared(n_workers=2)
    ws, _, _ = paused_worker(shared=shared)
    publish_private_nodes(ws, shared)
    live = [cp.frame for cp in ws.cps
            if cp.frame >= 0 and shared.frame_state(cp.frame)[1] < shared.frame_state(cp.frame)[0]]
    assert len(live) >= 2, "scenario needs several live public nodes"
    aux = snapshot_to_aux(ws)
    vertical_split(ws, aux)
    given = [r for r in aux.cp_records if count_open(r[1], r[2], r[3])]
    assert given, "odd positions must receive work"
    # every alternative moved out of a frame is now closed there
    for cp, rec in zip(ws.cps, aux.cp_records):
        if cp.frame >= 0 and count_open(rec[1], rec[2], rec[3]):
            n, c, _, _ = shared.frame_state(cp.frame)
            assert c >= n
    shared.close()


# -- horizontal split ----------------------------------------------------------

def hs_case(n_alts, cursor, offset):
    ws = WorkerState()
    cp = ChoicePoint(0, n_alts, cursor, offset, 0, 0, 0, alts=list(range(n_alts)),
                     post_store=0, post_trail=0)
    ws.cps.append(cp)
    ws.set_load(cp.open_count())
    aux = snapshot_to_aux(ws)
    horizontal_split(ws, aux)
    rec = aux.cp_records[0]
    return (open_set(cp.n_alts, cp.cursor, cp.split_offset), cp.split_offset,
            open_set(rec[1], rec[2], rec[3]), rec[3])


def test_horizontal_split_interleaves_and_doubles_offset():
    mine, s_mine, theirs, s_theirs = hs_case(5, 1, 1)
    assert mine == {1, 3} and theirs == {2, 4}
    assert s_mine == 2 and s_theirs == 2


def test_horizontal_split_of_single_open_alternative():
    mine, _, theirs, _ = hs_case(5, 4, 1)
    assert mine == {4} and theirs == set()


def test_horizontal_split_of_already_split_node():
    mine, s_mine, theirs, s_theirs = hs_case(9, 1, 2)
    assert mine == {1, 5} and theirs == {3, 7}
    assert s_mine == 4 and s_theirs == 4


def test_horizontal_split_applies_to_frames_under_lock():
    shared = TeamShared(n_workers=2)
    ws, _, _ = paused_worker(shared=shared)
    publish_private_nodes(ws, shared)
    states = {cp.frame: shared.frame_state(cp.frame) for cp in ws.cps if cp.frame >= 0}
    aux = snapshot_to_aux(ws)
    horizontal_split(ws, aux)
    for cp, rec in zip(ws.cps, aux.cp_records):
        if cp.frame < 0:
            continue
        n, c, s, _ = states[cp.frame]
        n2, c2, s2, _ = shared.frame_state(cp.frame)
        if c >= n:
            continue
        assert (c2, s2) == (c, 2 * s)
        assert open_set(n, c, 2 * s) | open_set(rec[1], rec[2], rec[3]) == open_set(n, c, s)
    shared.close()


# -- partition properties --------------------------------------------------------

@pytest.mark.parametrize("strategy", ["vs", "hs"])
def test_split_partitions_every_node_and_conserves_load(strategy):
    rng = random.Random(1234 if strategy == "vs" else 4321)
    for _ in range(300):
        ws = WorkerState()
        counts = [rng.randrange(0, 5) for _ in range(rng.randrange(1, 9))]
        stack_of(ws, counts, n_alts=6)
        # random prior horizontal splits: offsets are powers of two
        for cp in ws.cps:
            k = rng.randrange(0, 3)
            cp.split_offset = 1 << k
            cp.cursor = rng.randrange(0, cp.n_alts + 1)
        ws.set_load(sum(cp.open_count() for cp in ws.cps))
        before_sets = [open_set(cp.n_alts, cp.cursor, cp.split_offset) for cp in ws.cps]
        before_load = ws.load
        aux = snapshot_to_aux(ws)
        if strategy == "vs":
            vertical_split(ws, aux)
        else:
            horizontal_split(ws, aux)
        for cp, rec, before in zip(ws.cps, aux.cp_records, before_sets):
            mine = open_set(cp.n_alts, cp.cursor, cp.split_offset)
            theirs = open_set(rec[1], rec[2], rec[3])
            assert mine | theirs == before
            assert not mine & theirs
        assert ws.load + aux.load == before_load


def test_offset_law_powers_of_two_under_repeated_splits():
    rng = random.Random(99)
    ws = WorkerState()
    stack_of(ws, [3, 3, 3], n_alts=16)
    splits = 0
    for _ in range(4):
        aux = snapshot_to_aux(ws)
        horizontal_split(ws, aux)
        splits += 1
        for cp in ws.cps:
            assert cp.split_offset == 1 << splits
        for rec in aux.cp_records:
            assert rec[3] == 1 << splits
        vau = snapshot_to_aux(ws)
        vertical_split(ws, vau)           # vertical splitting never changes offsets
        for cp in ws.cps:
            assert cp.split_offset == 1 << splits
        for cp in ws.cps:                 # resurrect for the next round
            cp.cursor = rng.randrange(0, 4)
        ws.set_load(sum(c.open_count() for c in ws.cps))


@pytest.mark.parametrize("public", [False, True])
def test_hs_offsets_stay_bounded_while_the_root_keeps_one_alternative(public):
    # a shallow node that keeps its last alternative gains nothing from a
    # horizontal split; doubling its offset each time overflowed the 64-bit
    # offset slot at split 63
    shared = TeamShared(2, n_frames=16)
    ws = WorkerState()
    ws.frames = shared
    stack_of(ws, [1])
    if public:
        publish_private_nodes(ws, shared)
    root = ws.cps[0]
    try:
        for _ in range(70):
            del ws.cps[1:]       # fresh work below the root, as the search pushes it
            ws.cps.append(ChoicePoint(1, 4, 0, 1, ws.H, ws.TR, 1, alts=list(range(4)),
                                      post_store=ws.H, post_trail=ws.TR))
            ws.set_load(ws.cps[1].open_count())
            aux = splitting.split_for_transfer(ws, 1, "hs")
            assert aux.load == 2
            assert deserialize_aux(serialize_aux(aux)) == aux
            if public:
                n, c, s, _ = shared.frame_state(root.frame)
            else:
                n, c, s = root.n_alts, root.cursor, root.split_offset
            assert open_set(n, c, s) == {3}
            assert s & (s - 1) == 0 and s < 4 * n
    finally:
        shared.close()


@pytest.mark.parametrize("strategy", ["vs", "hs"])
def test_end_to_end_answers_partition_after_split(strategy):
    rng = random.Random(7 if strategy == "vs" else 8)
    for _ in range(30):
        seed = rng.randrange(1 << 30)
        ws, prog, _ = paused_worker(args=(seed, 7, 4), backtracks=rng.randrange(5, 60))
        if not ws.cps:
            continue  # tree exhausted before the pause point
        remainder = drain(clone_worker(ws))
        aux = splitting.split_for_transfer(ws, goal_id=1, strategy=strategy)
        mine = drain(ws)
        if aux.load == 0:
            assert mine == remainder
            continue
        peer = fresh_like(ws)
        install_aux(peer, aux)
        theirs = drain(peer)
        assert mine + theirs == remainder


# -- serialization ----------------------------------------------------------------

def random_aux(rng):
    n_cells = rng.randrange(0, 40)
    n_cps = rng.randrange(1, 12)
    n_trail = rng.randrange(0, 30)
    store_lo = rng.randrange(0, 10)
    trail_lo = rng.randrange(0, 10)
    records = [[rng.randrange(0, 1 << 40), rng.randrange(1, 9), rng.randrange(0, 9),
                1 << rng.randrange(0, 4), rng.randrange(0, 50), rng.randrange(0, 50),
                d] for d in range(n_cps)]
    aux = AuxArea(store_lo=store_lo, store_hi=store_lo + n_cells,
                  trail_lo=trail_lo, trail_hi=trail_lo + n_trail,
                  load=0, goal_id=rng.randrange(1 << 20), root_depth=0,
                  store_cells=[rng.randrange(-5, 300) for _ in range(n_cells)],
                  cp_records=records,
                  trail_entries=[(rng.randrange(0, 60), rng.randrange(-5, 300))
                                 for _ in range(n_trail)])
    aux.recount_load()
    return aux


def test_aux_roundtrip_identity_on_random_instances():
    rng = random.Random(31337)
    for _ in range(1000):
        aux = random_aux(rng)
        assert deserialize_aux(serialize_aux(aux)) == aux


def test_aux_serialized_size_is_exactly_header_plus_segments():
    rng = random.Random(5)
    for _ in range(100):
        aux = random_aux(rng)
        blob = serialize_aux(aux)
        expect = 8 * (8 + len(aux.store_cells) + 7 * len(aux.cp_records)
                      + 2 * len(aux.trail_entries))
        assert len(blob) == expect


def test_aux_with_empty_trail_has_zero_length_trail_section():
    ws = WorkerState()
    stack_of(ws, [2])
    aux = snapshot_to_aux(ws)
    assert aux.trail_hi == aux.trail_lo
    blob = serialize_aux(aux)
    assert len(blob) == 8 * (8 + len(aux.store_cells) + 7)


def test_deserialize_rejects_truncated_and_padded_payloads():
    rng = random.Random(6)
    blob = serialize_aux(random_aux(rng))
    with pytest.raises(ProtocolViolation):
        deserialize_aux(blob[:-8])
    with pytest.raises(ProtocolViolation):
        deserialize_aux(blob + b"\x00" * 8)


def test_install_rejects_zero_load_payload():
    ws = WorkerState()
    stack_of(ws, [0, 0])
    aux = snapshot_to_aux(ws)
    with pytest.raises(ProtocolViolation):
        install_aux(WorkerState(), aux)


# -- what install_aux accepts ------------------------------------------------------

# (program, args, backtracks before the split, strategy); queens only pushes
# cells, while rand_tree and map_colouring trail their writes
_SENDERS = [("queens", (8,), 40, "hs"), ("queens", (8,), 90, "vs"),
            ("rand_tree", (42, 7, 4), 25, "hs"), ("map_colouring", (1,), 200, "vs")]
_TRAILING = 3                     # map_colouring: its copies ship trail entries


@lru_cache(maxsize=None)
def sent_aux(which: int) -> bytes:
    """The serialized aux area a sender ships after a real split."""
    program, args, backtracks, strategy = _SENDERS[which]
    ws, _, _ = paused_worker(args, backtracks, program=program)
    aux = splitting.split_for_transfer(ws, goal_id=1, strategy=strategy)
    assert aux.load > 0 and aux.cp_count > 1
    return serialize_aux(aux)


def receiver(which: int) -> WorkerState:
    program, args, _, _ = _SENDERS[which]
    ws = WorkerState()
    setup_goal(ws, get_program(program), list(args), None)
    return ws


def _cursor_past_its_node(aux):
    aux.cp_records[-1][2] = aux.cp_records[-1][1] + 1


def _offset_not_a_power_of_two(aux):
    aux.cp_records[-1][3] = 3


def _offset_zero(aux):
    aux.cp_records[-1][3] = 0


def _store_marks_decrease(aux):
    aux.cp_records[-1][4] = aux.cp_records[-2][4] - 1


def _trail_marks_decrease(aux):
    aux.cp_records[-1][5] = aux.cp_records[-2][5] - 1


def _store_lo_above_the_root(aux):
    aux.store_lo = aux.cp_records[0][4] + 1
    aux.store_hi = aux.store_lo + len(aux.store_cells)


def _marks_past_the_segment_end(aux):
    aux.cp_records[-1][4] = aux.store_hi + 1


def _trailed_cell_outside_the_store(aux):
    aux.trail_entries[-1] = (aux.store_hi, 0)


def _store_far_past_the_local_top(aux):
    aux.store_lo += 1 << 40
    aux.store_hi += 1 << 40
    for rec in aux.cp_records:
        rec[4] += 1 << 40
    aux.trail_entries = [(cell + (1 << 40), prev) for cell, prev in aux.trail_entries]


@pytest.mark.parametrize("mutate", [
    _cursor_past_its_node, _offset_not_a_power_of_two, _offset_zero, _store_marks_decrease,
    _trail_marks_decrease, _store_lo_above_the_root, _marks_past_the_segment_end,
    _trailed_cell_outside_the_store, _store_far_past_the_local_top,
], ids=lambda f: f.__name__.strip("_"))
def test_install_rejects_an_aux_area_no_sender_writes(mutate):
    install_aux(receiver(_TRAILING), deserialize_aux(sent_aux(_TRAILING)))  # as sent, it installs
    aux = deserialize_aux(sent_aux(_TRAILING))
    assert aux.trail_entries, "the sample trails no write"
    mutate(aux)
    with pytest.raises(ProtocolViolation):
        install_aux(receiver(_TRAILING), aux)


@pytest.mark.parametrize("which", range(len(_SENDERS)))
def test_every_record_a_split_ships_passes_the_install_checks(which):
    aux = deserialize_aux(sent_aux(which))
    ws = receiver(which)
    install_aux(ws, aux)
    assert ws.load == aux.load


def test_a_horizontal_split_ships_no_cursor_past_its_node():
    # a 6-way node's last open alternative, 3, after narrowing gave it offset 4:
    # one pre-split step later is 7, which the record clamps to 6
    ws = WorkerState()
    ws.cps.append(ChoicePoint(0, 6, 3, 4, 0, 0, 0, alts=list(range(6)),
                              post_store=0, post_trail=0))
    ws.set_load(1)
    aux = snapshot_to_aux(ws)
    horizontal_split(ws, aux)
    assert aux.cp_records[0][2:4] == [6, 8]
    assert open_set(6, ws.cps[0].cursor, ws.cps[0].split_offset) == {3}
    splitting.check_aux(aux)


_WORD = st.integers(-3, 70) | st.integers(-(1 << 63), (1 << 63) - 1)


@given(st.integers(0, len(_SENDERS) - 1),
       st.lists(st.tuples(st.integers(0, 1 << 16), _WORD), min_size=1, max_size=4),
       st.integers(0, 16), st.binary(max_size=16))
@settings(max_examples=400, deadline=None)
def test_fuzzed_aux_payloads_install_or_raise_only_protocol_violation(which, edits, cut, tail):
    data = bytearray(sent_aux(which))
    n_words = len(data) // 8
    for pos, value in edits:
        struct.pack_into("<q", data, 8 * (pos % n_words), value)
    data = bytes(data[:len(data) - cut]) + tail
    try:
        install_aux(receiver(which), deserialize_aux(data))
    except ProtocolViolation:
        pass


# -- the wire form is pinned -------------------------------------------------------

# sha256 prefixes of serialize_aux(split_for_transfer(...)) for (seed, strategy):
# inter-team payloads keep their bytes while teammates' copies gain a column;
# the queens pins follow its store (each placed row pushes four cells, and
# forced rows are placed in one expansion), not the payload format
_GOLDEN = {(11, "vs"): "66c2e56ed8e3c155", (11, "hs"): "16ffda9ce7c2a922",
           (12, "vs"): "75e038e81dffd1c9", (12, "hs"): "620b14bbabe399ba",
           (13, "vs"): "b491a2ee78af03e2", (13, "hs"): "747d857ac99fe353"}


@pytest.mark.parametrize("seed,program,args", [
    (11, "queens", (8,)), (12, "rand_tree", (42, 7, 4)), (13, "map_colouring", (1,))])
def test_inter_team_payload_bytes_are_unchanged(seed, program, args):
    backtracks = random.Random(seed).randrange(20, 200)
    for strategy in ("vs", "hs"):
        ws, _, _ = paused_worker(args, backtracks, program=program)
        blob = serialize_aux(splitting.split_for_transfer(ws, 7, strategy))
        assert hashlib.sha256(blob).hexdigest()[:16] == _GOLDEN[seed, strategy]


# -- a teammate's copy: the same area plus a frames column --------------------------

def local_copy(shared):
    """A paused worker and the copy it mails a teammate: its live nodes
    published, then packed with their frame ids."""
    ws, _, _ = paused_worker(shared=shared)
    remainder = drain(clone_worker(ws))
    publish_private_nodes(ws, shared)
    aux = snapshot_to_aux(ws, goal_id=1)
    aux.frames = [cp.frame for cp in ws.cps]
    return ws, aux, remainder


def test_a_teammates_copy_installs_into_the_frames_it_names():
    shared = TeamShared(2, n_frames=64)
    try:
        ws, aux, remainder = local_copy(shared)
        blob = serialize_aux(aux)
        assert len(blob) == len(serialize_aux(snapshot_to_aux(ws, 1))) + 8 * aux.cp_count
        peer = fresh_like(ws)
        peer.frames = shared
        install_aux(peer, deserialize_aux(blob, frames=True), local=True)
        assert [cp.frame for cp in peer.cps] == aux.frames and peer.load == 0
        assert any(f >= 0 for f in aux.frames)
        # the two workers draw the remaining alternatives from the same frames
        assert drain(ws) + drain(peer) == remainder
        assert not any(count_open(*shared.frame_state(f)[:3]) for f in aux.frames if f >= 0)
    finally:
        shared.close()


def test_an_inter_team_copy_carries_no_frames_column():
    aux = deserialize_aux(sent_aux(0))
    aux.frames = [-1] * aux.cp_count
    with pytest.raises(ProtocolViolation):
        splitting.check_aux(aux)
    with pytest.raises(ProtocolViolation):
        install_aux(receiver(0), aux)
    with pytest.raises(ProtocolViolation):
        deserialize_aux(serialize_aux(aux))


@pytest.mark.parametrize("bad", [-2, 64, None])
def test_a_teammates_copy_names_only_frames_of_its_pool(bad):
    shared = TeamShared(2, n_frames=64)
    try:
        ws, aux, _ = local_copy(shared)
        splitting.check_aux(aux, shared.n_frames)
        if bad is None:
            aux.frames = None
        else:
            aux.frames[-1] = bad
        with pytest.raises(ProtocolViolation):
            splitting.check_aux(aux, shared.n_frames)
        peer = fresh_like(ws)
        peer.frames = shared
        with pytest.raises(ProtocolViolation):
            install_aux(peer, aux, local=True)
    finally:
        shared.close()

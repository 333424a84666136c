"""Transport layer: wire frames, socket-pair mesh and tcp links."""

import json
import random
import select
import socket
import statistics
import struct
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layered_or import transport
from layered_or.errors import EngineError, ProtocolViolation
from layered_or.splitting import CP_RECORD_LEN, AuxArea, deserialize_aux, serialize_aux
from layered_or.worker import pack_answers, unpack_answers
from layered_or.transport import (
    QueueMesh,
    TcpEndpoint,
    decode_frame,
    encode_frame,
    encode_payload,
    parse_topology_file,
)


_MESHES = []


def new_mesh(n_teams, delay=None):
    _MESHES.append(QueueMesh(n_teams, delay=delay))
    return _MESHES[-1]


@pytest.fixture(autouse=True)
def close_meshes():
    yield
    while _MESHES:
        _MESHES.pop().close()


def make_pair(n_teams=2, delay=None):
    mesh = new_mesh(n_teams, delay=delay)
    return [mesh.endpoint("t", i, own_load_fn=lambda: 3) for i in range(n_teams)]


def next_msg(ep, timeout):
    """The next message of ``ep``, waiting up to ``timeout`` seconds; None if none came."""
    deadline = time.monotonic() + timeout
    while (msg := ep.poll()) is None:
        left = deadline - time.monotonic()
        if left <= 0:
            return None
        ep.wait(left)
    return msg


# -- wire frames ------------------------------------------------------------------

def random_frame(rng):
    loads = [(rng.randrange(-1, 50), rng.randrange(0, 1000))
             for _ in range(rng.randrange(1, 6))]
    payload = encode_payload({"goal": rng.randrange(100)},
                             bytes(rng.randrange(256) for _ in range(rng.randrange(200))))
    kind = rng.choice([transport.GOAL, transport.ANSWER, transport.SHARE_ACCEPT])
    return kind, rng.randrange(0, 8), loads, payload


def test_wireframe_roundtrip_on_random_instances():
    rng = random.Random(2024)
    for _ in range(1000):
        kind, sender, loads, payload = random_frame(rng)
        msg = decode_frame(encode_frame(kind, sender, loads, payload))
        assert msg.kind == kind and msg.sender == sender
        assert msg.loads == loads


def test_wireframe_rejects_corruption():
    frame = bytearray(encode_frame(transport.GOAL, 1, [(0, 1)], encode_payload({})))
    frame[len(frame) // 2] ^= 0xFF
    with pytest.raises(ProtocolViolation):
        decode_frame(bytes(frame))


def test_wireframe_rejects_bad_magic_and_truncation():
    frame = encode_frame(transport.GOAL, 1, [(0, 1)], encode_payload({}))
    with pytest.raises(ProtocolViolation):
        decode_frame(b"NOPE" + frame[4:])
    with pytest.raises(ProtocolViolation):
        decode_frame(frame[:-3])


def _frame_with_meta(blob: bytes, declared=None, raw: bytes = b"") -> bytes:
    """A frame with a valid checksum whose payload meta is ``blob``."""
    n = len(blob) if declared is None else declared
    return encode_frame(transport.ANSWER, 1, [(0, 1)], struct.pack("<I", n) + blob + raw)


@pytest.mark.parametrize("blob", [b"\xff\xfe", b"{not json", b"[1]", b'"goal"', b"null"])
def test_frame_whose_meta_is_not_a_json_object_is_a_protocol_violation(blob):
    with pytest.raises(ProtocolViolation):
        decode_frame(_frame_with_meta(blob))


def _mutations(blob: bytes):
    """``blob`` with up to four bytes overwritten, then cut short or extended."""
    def apply(edits, cut, tail):
        out = bytearray(blob)
        for pos, value in edits:
            out[pos % len(out)] = value
        return bytes(out[:cut]) + tail
    edits = st.lists(st.tuples(st.integers(0, 1 << 16), st.integers(0, 255)), max_size=4)
    return st.builds(apply, edits, st.integers(0, len(blob)), st.binary(max_size=8))


_FRAME = encode_frame(transport.SHARE_ACCEPT, 1, [(3, 7), (-1, 0)],
                      encode_payload({"goal": 2, "req": 5}, bytes(range(24))))
_JSON = st.recursive(st.none() | st.booleans() | st.integers() | st.text(max_size=4),
                     lambda kids: st.lists(kids, max_size=3)
                     | st.dictionaries(st.text(max_size=4), kids, max_size=3),
                     max_leaves=6)


@given(st.binary(max_size=120) | _mutations(_FRAME))
@settings(max_examples=400, deadline=None)
def test_fuzzed_frames_raise_only_protocol_violation(data):
    try:
        msg = decode_frame(data)
    except ProtocolViolation:
        return
    assert isinstance(msg.meta, dict)


@given(st.binary(max_size=64) | _JSON.map(lambda v: json.dumps(v).encode()),
       st.none() | st.integers(0, 100), st.binary(max_size=16))
@settings(max_examples=400, deadline=None)
def test_fuzzed_meta_of_a_checksummed_frame_raises_only_protocol_violation(blob, declared, raw):
    try:
        msg = decode_frame(_frame_with_meta(blob, declared, raw))
    except ProtocolViolation:
        return
    assert isinstance(msg.meta, dict)


_AUX = serialize_aux(AuxArea(10, 13, 4, 5, 2, 9, 1, [1, 2, 3],
                             [list(range(CP_RECORD_LEN))] * 2, [(11, 0)]))


@given(st.binary(max_size=200) | _mutations(_AUX))
@settings(max_examples=400, deadline=None)
def test_fuzzed_aux_areas_raise_only_protocol_violation(data):
    try:
        aux = deserialize_aux(data)
    except ProtocolViolation:
        return
    assert len(aux.store_cells) == aux.store_hi - aux.store_lo


# two batches, as an ANSWER payload concatenates them
_BATCHES = pack_answers([(1, -2, 3), (4, 5, 6), (1 << 62, 0, -(1 << 63))]) \
    + pack_answers([(7,), (8,)])
_ANSWERS = [(1, -2, 3), (4, 5, 6), (1 << 62, 0, -(1 << 63)), (7,), (8,)]


@given(st.binary(max_size=120) | _mutations(_BATCHES))
@settings(max_examples=400, deadline=None)
def test_fuzzed_answer_payloads_raise_only_protocol_violation(data):
    try:
        answers = unpack_answers(data)
    except ProtocolViolation:
        return
    # what unpacks filled the payload exactly: an 8-byte header per batch,
    # then 8 bytes per value, and no answer is empty
    assert all(answers) and all(isinstance(v, int) for answer in answers for v in answer)
    assert (len(data) - sum(8 * len(a) for a in answers)) % 8 == 0


@pytest.mark.parametrize("raw", [
    _BATCHES[:6],                                      # ends inside a count and width header
    _BATCHES[:-5],                                     # a block of records runs past the payload
    _BATCHES + b"\x01",                               # trailing bytes
    struct.pack("<IIq", 5, 1, 9),                      # more answers than bytes
    struct.pack("<II", 1, (1 << 31) - 1) + bytes(16),  # an answer length (width) far past it
    struct.pack("<II", 3, 0),                          # answers of no value
    struct.pack("<II", 0, (1 << 32) - 1),              # no answer, of a huge width
    # count × width wraps to 1 in 32 bits: 8 bytes would pass a wrapped check
    struct.pack("<II", (1 << 32) - 1, (1 << 32) - 1) + bytes(8),
], ids=["cut-count", "cut-record", "trailing", "count-past-end", "huge-length", "width-0",
        "count-0", "count-times-width-overflow"])
def test_malformed_answer_payloads_are_protocol_violations(raw):
    assert unpack_answers(_BATCHES) == _ANSWERS
    with pytest.raises(ProtocolViolation):
        unpack_answers(raw)


# -- socket-pair mesh ------------------------------------------------------------------

def test_send_increments_own_timestamp_per_message():
    a, b = make_pair()
    a.send(1, transport.SHARE_REQUEST, {"goal": 1})
    a.send(1, transport.SHARE_REQUEST, {"goal": 1})
    first = next_msg(b, 1.0)
    second = next_msg(b, 1.0)
    assert second.loads[0][1] == first.loads[0][1] + 1
    assert first.loads[0][0] == 3  # stamped through own_load_fn


def test_every_frame_carries_a_full_load_array(wire_log):
    a, b, _ = make_pair(n_teams=3)
    for kind in (transport.SHARE_REQUEST, transport.ANSWER, transport.TERMINATE):
        a.send(1, kind, {"goal": 1})
    for team, direction, frame in wire_log():
        msg = decode_frame(frame)
        assert len(msg.loads) == 3


def test_send_to_unknown_team_is_a_local_error():
    a, _ = make_pair()
    with pytest.raises(EngineError):
        a.send(7, transport.GOAL, {})
    with pytest.raises(EngineError):
        a.send(0, transport.GOAL, {})  # itself


def test_poll_on_empty_returns_none():
    a, b = make_pair()
    assert b.poll() is None


def _must_not_read(*_args, **_kwargs):
    raise AssertionError("a quiet poll read a link")


def test_quiet_poll_reads_no_link_and_no_socket(monkeypatch):
    eps = make_pair(n_teams=3)
    a, b = tcp_pair()
    try:
        monkeypatch.setattr(socket.socket, "recv", _must_not_read)
        for ep in eps + [a, b]:
            for _ in range(3):
                assert ep.poll() is None
        monkeypatch.undo()
        eps[1].send(0, transport.ANSWER, {"goal": 1})
        a.send(1, transport.ANSWER, {"goal": 2})
        assert next_msg(eps[0], 1.0).meta == {"goal": 1}
        assert next_msg(b, 1.0).meta == {"goal": 2}
    finally:
        a.close()
        b.close()


def test_wait_sleeps_in_the_poller_and_wakes_on_arrival():
    a, b = make_pair()
    cpu, t0 = time.process_time(), time.monotonic()
    b.wait(0.3)
    assert time.monotonic() - t0 >= 0.29, "wait returned with nothing to read"
    assert time.process_time() - cpu < 0.02, "wait spun while nothing arrived"
    assert b.poll() is None
    timer = threading.Timer(0.1, a.send, args=(1, transport.ANSWER, {"goal": 3}))
    t0 = time.monotonic()
    timer.start()
    b.wait(5.0)
    assert time.monotonic() - t0 < 1.0, "wait slept past the frame's arrival"
    timer.join()
    msg = b.poll()
    assert msg is not None and msg.meta == {"goal": 3}


def test_a_wait_shorter_than_a_millisecond_ends_at_a_readable_frame():
    # poll(2) counts whole milliseconds; a shorter wait must still return
    # at once for a frame that is there, not sleep its timeout out
    a, b = make_pair()
    a.send(1, transport.ANSWER, {"goal": 4})
    assert select.select([b._conns[0]], [], [], 1.0)[0], "the frame never came"
    took = []
    for _ in range(20):
        t0 = time.perf_counter()
        b.wait(0.0005)
        took.append(time.perf_counter() - t0)
    assert statistics.median(took) < 0.00025, f"median wait {statistics.median(took):.6f} s"
    assert b.poll().meta == {"goal": 4}


def test_a_short_wait_still_ends_at_a_held_frames_release():
    # with a delay, a frame due in under a millisecond is released on time
    a, b = make_pair(delay=(5, 0.0003, 0.0003))
    a.send(1, transport.ANSWER, {"goal": 5})
    assert select.select([b._conns[0]], [], [], 1.0)[0], "the frame never came"
    assert b.poll() is None                   # read, and held for 0.3 ms
    t0 = time.perf_counter()
    while (msg := b.poll()) is None:
        b.wait(0.1)
    assert msg.meta == {"goal": 5}
    assert time.perf_counter() - t0 < 0.02, "the wait passed the release time"


def test_round_robin_serves_every_busy_link_in_turn():
    mesh = new_mesh(3)
    eps = [mesh.endpoint("t", i) for i in range(3)]
    for i in range(4):
        eps[0].send(2, transport.ANSWER, {"n": i})
        eps[1].send(2, transport.ANSWER, {"n": i})
    time.sleep(0.05)
    senders = [next_msg(eps[2], 1.0).sender for _ in range(8)]
    assert all(senders[i] != senders[i + 1] for i in range(7)), senders


def test_per_sender_fifo_with_interleaved_senders():
    mesh = new_mesh(3)
    eps = [mesh.endpoint("t", i) for i in range(3)]
    rng = random.Random(1)
    sent = {0: [], 1: []}
    for i in range(200):
        sender = rng.choice([0, 1])
        eps[sender].send(2, transport.ANSWER, {"goal": i, "n": len(sent[sender])})
        sent[sender].append(len(sent[sender]))
    seen = {0: [], 1: []}
    while len(seen[0]) + len(seen[1]) < 200:
        msg = next_msg(eps[2], 1.0)
        assert msg is not None
        seen[msg.sender].append(msg.meta["n"])
    assert seen[0] == sent[0] and seen[1] == sent[1]


def _assert_fifo_under_delays(a, b):
    for i in range(50):
        a.send(1, transport.ANSWER, {"n": i})
    got = []
    while len(got) < 50:
        msg = b.poll()
        if msg is not None:
            got.append(msg.meta["n"])
    assert got == list(range(50))


def test_fifo_preserved_under_injected_delays():
    mesh = new_mesh(2, delay=(99, 0.0, 0.003))
    _assert_fifo_under_delays(mesh.endpoint("t", 0), mesh.endpoint("t", 1))


def test_tcp_fifo_preserved_under_injected_delays():
    a, b = tcp_pair(delay=(99, 0.0, 0.003))
    try:
        _assert_fifo_under_delays(a, b)
    finally:
        a.close()
        b.close()


def test_an_endpoint_keeps_its_mesh_open():
    # the peers' ends live in the mesh; were it collected, they would close
    ep = QueueMesh(2).endpoint("t", 0)
    try:
        for _ in range(3):
            assert ep.poll() is None
        assert next_msg(ep, 0.02) is None
    finally:
        ep._mesh.close()


def test_mail_on_a_teams_links_carries_no_load_array():
    links = transport.TeamLinks(2)
    try:
        links.endpoint("t", 0).send(1, transport.ANSWER, {"goal": 1}, b"x")
        msg = next_msg(links.endpoint("t", 1), 1.0)
    finally:
        links.close()
    assert (msg.kind, msg.loads, msg.raw) == (transport.ANSWER, [], b"x")


def test_terminate_after_refuse_keeps_order():
    a, b = make_pair()
    a.send(1, transport.SHARE_REFUSE, {"goal": 1})
    a.send(1, transport.TERMINATE, {"goal": 1})
    assert next_msg(b, 1.0).kind == transport.SHARE_REFUSE
    assert next_msg(b, 1.0).kind == transport.TERMINATE


# -- tcp links -----------------------------------------------------------------

def tcp_pair(delay=None):
    a = TcpEndpoint("t", 0, 2, delay=delay)
    b = TcpEndpoint("t", 1, 2, delay=delay)
    srv, port = a.listen()
    t = threading.Thread(target=b.dial, args=(0, "127.0.0.1", port))
    t.start()
    a.accept_peers(srv, {1}, timeout=5.0)
    t.join()
    srv.close()
    return a, b


def test_tcp_roundtrip_byte_identity_on_large_payload():
    a, b = tcp_pair()
    blob = random.Random(3).randbytes(1 << 20)
    a.send(1, transport.SHARE_ACCEPT, {"goal": 1, "req": 0}, blob)
    msg = next_msg(b, 10.0)
    assert msg is not None and msg.raw == blob
    a.close()
    b.close()


def test_tcp_preserves_order_and_latency_holds_delivery():
    a, b = tcp_pair(delay=(0, 0.02, 0.02))
    t0 = time.monotonic()
    for i in range(5):
        a.send(1, transport.ANSWER, {"n": i})
    got = [next_msg(b, 5.0).meta["n"] for _ in range(5)]
    assert got == list(range(5))
    assert time.monotonic() - t0 >= 0.02
    a.close()
    b.close()


def test_tcp_delivers_every_frame_of_one_chunk_in_order():
    a, b = tcp_pair()
    frames = [encode_frame(transport.ANSWER, 0, [(0, i), (0, 0)],
                           encode_payload({"n": i})) for i in range(2)]
    a._transmit(1, b"".join(frames))
    conn = b._conns[0]

    def arrived():
        try:
            return len(conn.recv(1 << 16, socket.MSG_PEEK))
        except BlockingIOError:
            return 0

    deadline = time.monotonic() + 5.0
    while arrived() < sum(map(len, frames)):
        assert time.monotonic() < deadline, "the chunk never arrived whole"
        time.sleep(0.001)
    assert next_msg(b, 1.0).meta == {"n": 0}
    # the second frame sits in the endpoint's buffer; the socket is empty
    assert b.poll().meta == {"n": 1}
    assert b.poll() is None
    a.close()
    b.close()


def test_tcp_peer_that_closes_raises_engine_error():
    a, b = tcp_pair()
    a.close()
    with pytest.raises(EngineError):
        next_msg(b, 2.0)
    b.close()


def test_tcp_mesh_carries_a_frame_over_every_link():
    mesh_n = 3
    eps = [TcpEndpoint("t", i, mesh_n) for i in range(mesh_n)]
    srvs = {}
    ports = {}
    for i, ep in enumerate(eps):
        srvs[i], ports[i] = ep.listen()

    def wire(i):
        for j in range(i):
            eps[i].dial(j, "127.0.0.1", ports[j])
        eps[i].accept_peers(srvs[i], set(range(i + 1, mesh_n)), timeout=5.0)

    threads = [threading.Thread(target=wire, args=(i,)) for i in range(mesh_n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    try:
        peers = {ep: [t for t in range(mesh_n) if t != ep.team_id] for ep in eps}
        for ep in eps:
            for peer in peers[ep]:
                ep.send(peer, transport.ANSWER, {"goal": ep.team_id})
        for ep in eps:
            got = [next_msg(ep, 2.0) for _ in peers[ep]]
            assert sorted((m.sender, m.goal_id) for m in got) == [(p, p) for p in peers[ep]]
    finally:
        for ep in eps:
            ep.close()
        for s in srvs.values():
            s.close()


# -- topology file ------------------------------------------------------------------

def test_parse_topology_file():
    text = "# two hosts\nteam n1:9001 3\nteam n1:9002 4\n\nteam n2:9001 8\n"
    assert parse_topology_file(text) == [("n1", 9001, 3), ("n1", 9002, 4),
                                         ("n2", 9001, 8)]


def test_parse_topology_file_rejects_garbage():
    with pytest.raises(ValueError):
        parse_topology_file("team n1 3\n")
    with pytest.raises(ValueError):
        parse_topology_file("\n")

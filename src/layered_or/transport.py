"""Message layer of both levels: between teams, the client and a team's workers.

One endpoint type carries every link: a byte stream per pair of teams, one
between team 0 and the client, and one per pair of a team's workers (ids
being ranks). Between the teams of a tcp engine they are TCP connections,
all others ``socket.socketpair`` ends (``QueueMesh``, ``TeamLinks``). Every
frame is the same checksummed wire frame, so every message between teams
piggybacks the sender's full load array, and the codec is exercised
constantly. A frame on a team's links carries an empty one.

Delivery is reliable and in order per (sender, receiver) pair, and the
links are served round-robin. An endpoint can hold each frame it reads for
a randomized delay (``EngineOptions.delay``), on either transport, which
emulates slower links without reordering a pair.

Each endpoint keeps one ``select.poll`` object over its sockets, so a poll
that finds nothing costs one ``poll(2)`` call, and a wait blocks there
until a frame arrives. The object holds no kernel resource: an endpoint
built before a fork stays valid in the child. ``watch`` adds the owner's
other fds to it (a team's links, the trace pipe, a process sentinel).

Sends block, and yet no cycle of blocked sends can form: each would need
a large frame (a full link) on every hop. Large frames flow only toward
team 0 or the client (ANSWER), or toward an idle team that asked for them
(SHARE_ACCEPT). A team sends its credit-return ANSWER before its first
SHARE_REQUEST, and while it waits for the reply it sends only small
frames and reads on every turn. Mail is alike: large mail flows only to
the master (answer batches) or to a worker that asked for it
(SHARE_ACCEPT), and a worker mails its last batch before it asks. A test
with 4 KiB socket buffers guards this argument at both levels.
"""

from __future__ import annotations

import json
import select
import socket
import struct
import time
import zlib
from collections import deque
from random import Random
from typing import Optional

from .errors import EngineCreationError, EngineError, ProtocolViolation
from .protocol import (
    ANSWER,
    CLIENT_ID,
    ENGINE_FREE,
    FAULT,
    GOAL,
    ROOT_INFO,
    SHARE_ACCEPT,
    SHARE_REFUSE,
    SHARE_REQUEST,
    TERMINATE,
)

KIND_NAMES = {
    GOAL: "GOAL", ROOT_INFO: "ROOT_INFO", SHARE_REQUEST: "SHARE_REQUEST",
    SHARE_ACCEPT: "SHARE_ACCEPT", SHARE_REFUSE: "SHARE_REFUSE", ANSWER: "ANSWER",
    TERMINATE: "TERMINATE", ENGINE_FREE: "ENGINE_FREE", FAULT: "FAULT",
}

MAGIC = b"YTOR"
VERSION = 1
_FIXED = struct.Struct("<4sBBHH")    # magic, version, kind, sender, n_teams
_ENTRY = struct.Struct("<qQ")        # load (signed), timestamp (unsigned)
_PLEN = struct.Struct("<Q")
_CRC = struct.Struct("<I")


class TeamMessage:
    """Decoded frame: kind, sender, piggybacked load array, payload."""

    __slots__ = ("kind", "sender", "loads", "meta", "raw")

    def __init__(self, kind, sender, loads, meta=None, raw=b""):
        self.kind = kind
        self.sender = sender
        self.loads = loads
        self.meta = meta or {}
        self.raw = raw

    @property
    def goal_id(self) -> int:
        return self.meta.get("goal", -1)

    def __repr__(self):
        return (f"TeamMessage({KIND_NAMES.get(self.kind, self.kind)}, "
                f"from={self.sender:#x}, meta={self.meta}, raw={len(self.raw)}B)")


def encode_payload(meta: dict, raw: bytes = b"") -> bytes:
    blob = json.dumps(meta, separators=(",", ":")).encode()
    return struct.pack("<I", len(blob)) + blob + raw


def decode_payload(payload: bytes) -> tuple[dict, bytes]:
    if len(payload) < 4:
        raise ProtocolViolation("payload shorter than its meta length prefix")
    (n,) = struct.unpack_from("<I", payload, 0)
    if len(payload) < 4 + n:
        raise ProtocolViolation("payload meta truncated")
    try:
        meta = json.loads(payload[4:4 + n].decode())
    except (ValueError, RecursionError) as exc:   # UnicodeDecodeError is a ValueError
        raise ProtocolViolation(f"payload meta is not JSON: {exc}") from None
    if not isinstance(meta, dict):
        raise ProtocolViolation("payload meta is not a JSON object")
    return meta, payload[4 + n:]


def encode_frame(kind: int, sender: int, loads, payload: bytes) -> bytes:
    head = [_FIXED.pack(MAGIC, VERSION, kind, sender, len(loads))]
    for load, ts in loads:
        head.append(_ENTRY.pack(load, ts))
    head.append(_PLEN.pack(len(payload)))
    head.append(payload)
    body = b"".join(head)
    return body + _CRC.pack(zlib.crc32(body))


def decode_frame(data: bytes) -> TeamMessage:
    kind, sender, loads, payload, used = _decode_prefix(data)
    if used != len(data):
        raise ProtocolViolation("trailing bytes after frame")
    meta, raw = decode_payload(payload)
    return TeamMessage(kind, sender, loads, meta, raw)


def _decode_prefix(data: bytes):
    """Decode one frame at the head of ``data``; returns fields + bytes used."""
    if len(data) < _FIXED.size:
        raise ProtocolViolation("frame shorter than fixed header")
    magic, version, kind, sender, n_teams = _FIXED.unpack_from(data, 0)
    if magic != MAGIC:
        raise ProtocolViolation("bad frame magic")
    if version != VERSION:
        raise ProtocolViolation(f"unsupported frame version {version}")
    off = _FIXED.size
    need = off + n_teams * _ENTRY.size + _PLEN.size
    if len(data) < need:
        raise ProtocolViolation("frame truncated in load array")
    loads = []
    for _ in range(n_teams):
        loads.append(_ENTRY.unpack_from(data, off))
        off += _ENTRY.size
    (plen,) = _PLEN.unpack_from(data, off)
    off += _PLEN.size
    total = off + plen + _CRC.size
    if len(data) < total:
        raise ProtocolViolation("frame truncated in payload")
    payload = data[off:off + plen]
    (crc,) = _CRC.unpack_from(data, off + plen)
    if crc != zlib.crc32(data[:off + plen]):
        raise ProtocolViolation("frame checksum mismatch")
    return kind, sender, loads, payload, total


def frame_length(buf) -> Optional[int]:
    """Total length of the frame at the head of ``buf``, or None if unknown yet."""
    if len(buf) < _FIXED.size:
        return None
    _, _, _, _, n_teams = _FIXED.unpack_from(buf, 0)
    need = _FIXED.size + n_teams * _ENTRY.size + _PLEN.size
    if len(buf) < need:
        return None
    (plen,) = _PLEN.unpack_from(buf, need - _PLEN.size)
    return need + plen + _CRC.size


class Endpoint:
    """One communication endpoint: a team master's (or the client's) port.

    Single consumer: only the owning process touches it. Keeps the local
    load-array snapshot and stamps it (with a freshly incremented own
    timestamp) into every outgoing frame.
    """

    def __init__(self, engine_id: str, team_id: int, n_teams: int, own_load_fn=None):
        self.engine_id = engine_id
        self.team_id = team_id
        self.n_teams = n_teams
        self.own_load_fn = own_load_fn
        self.loads: list[tuple[int, int]] = [(-1, 0)] * n_teams
        self._ts = 0
        self._pending: deque[TeamMessage] = deque()

    # -- back-end hooks --------------------------------------------------------
    def _transmit(self, dest: int, frame: bytes) -> None:
        raise NotImplementedError

    def _receive(self) -> Optional[bytes]:
        raise NotImplementedError

    def wait(self, timeout: Optional[float]) -> None:
        """Block until a frame or a watched fd may be ready, or for at most
        ``timeout`` seconds (without limit if it is None)."""
        raise NotImplementedError

    def close(self) -> None:
        pass

    # -- contract ----------------------------------------------------------------
    def stamp(self) -> list[tuple[int, int]]:
        self._ts += 1
        if self.own_load_fn is not None and self.team_id < self.n_teams:
            self.loads[self.team_id] = (self.own_load_fn(), self._ts)
        return list(self.loads)

    def send(self, dest: int, kind: int, meta: dict | None = None, raw: bytes = b"") -> None:
        if dest != CLIENT_ID and not 0 <= dest < self.n_teams:
            raise EngineError(f"unknown destination team {dest}")
        if dest == self.team_id:
            raise EngineError("a team does not message itself")
        self._transmit(dest, encode_frame(kind, self.team_id, self.stamp(),
                                          encode_payload(meta or {}, raw)))

    def poll(self) -> Optional[TeamMessage]:
        """Next in-order message, or None. Never blocks."""
        if self._pending:
            return self._pending.popleft()
        frame = self._receive()
        return None if frame is None else decode_frame(frame)

    def push_back(self, msg: TeamMessage) -> None:
        self._pending.appendleft(msg)


class TcpEndpoint(Endpoint):
    """One duplex stream per peer: a TCP connection (``dial``/``accept_peers``)
    or a ``QueueMesh`` socket pair end. Sockets stay blocking: reads pass
    ``MSG_DONTWAIT``, and a send blocks until the kernel takes the frame.

    With ``delay=(seed, lo, hi)`` each frame read is held for a delay drawn
    from ``[lo, hi]`` seconds, and behind the earlier frames of its peer.
    """

    def __init__(self, engine_id: str, team_id: int, n_teams: int,
                 own_load_fn=None, delay: tuple[int, float, float] | None = None):
        super().__init__(engine_id, team_id, n_teams, own_load_fn)
        self._delay = delay
        self._conns: dict[int, socket.socket] = {}
        self._bufs: dict[int, bytearray] = {}
        self._held: dict[int, deque[tuple[float, bytes]]] = {}   # peer -> (due, frame)
        self._rng = Random(delay[0] ^ (team_id << 20)) if delay is not None else None
        self._order: deque[int] = deque()       # peers, the one served next first
        self._poller = select.poll()
        self._peer_of: dict[int, int] = {}      # fd -> peer
        self._backlog: set[int] = set()         # peers with buffered or held bytes
        self._watched: dict[int, Optional[str]] = {}   # fd -> death text, or None
        self._death: Optional[str] = None       # raised once no frame is left

    # -- connection setup ---------------------------------------------------------
    def listen(self, host: str = "127.0.0.1") -> tuple[socket.socket, int]:
        srv = socket.create_server((host, 0))
        srv.settimeout(0.1)
        return srv, srv.getsockname()[1]

    def attach(self, peer: int, conn: socket.socket) -> None:
        conn.setblocking(True)
        if conn.family != socket.AF_UNIX:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._conns[peer] = conn
        self._bufs[peer] = bytearray()
        self._held[peer] = deque()
        self._order.append(peer)
        self._poller.register(conn.fileno(), select.POLLIN)
        self._peer_of[conn.fileno()] = peer

    def watch(self, fd: int, death: Optional[str] = None) -> None:
        """Have ``wait`` return once ``fd`` is readable. With a ``death`` text
        (for a ``Process.sentinel``), a readable ``fd`` makes ``poll`` raise
        ``EngineError(death)`` once the frames that came before it are read."""
        self._poller.register(fd, select.POLLIN)
        self._watched[fd] = death

    def dial(self, peer: int, host: str, port: int, timeout: float = 10.0) -> None:
        conn = socket.create_connection((host, port), timeout=timeout)
        conn.sendall(struct.pack("<H", self.team_id))
        self.attach(peer, conn)

    def accept_peers(self, srv: socket.socket, expected: set[int],
                     timeout: float = 30.0) -> None:
        deadline = time.monotonic() + timeout
        pending = set(expected)
        while pending:
            if time.monotonic() >= deadline:
                raise EngineCreationError(f"peers never connected: {sorted(pending)}")
            try:
                conn, _ = srv.accept()
            except (TimeoutError, socket.timeout):
                continue
            conn.settimeout(5.0)
            (peer,) = struct.unpack("<H", _recv_exactly(conn, 2))
            if peer not in pending:
                conn.close()
                raise EngineCreationError(f"unexpected peer {peer:#x}")
            pending.discard(peer)
            self.attach(peer, conn)

    # -- back-end hooks ---------------------------------------------------------
    def _transmit(self, dest: int, frame: bytes) -> None:
        try:
            conn = self._conns[dest]
        except KeyError:
            raise EngineError(f"no connection to {dest:#x}") from None
        try:
            conn.sendall(frame)
        except OSError as exc:
            raise EngineError(f"connection to peer {dest:#x} failed: {exc}") from None

    def _receive(self) -> Optional[bytes]:
        if self._delay is not None:
            # every frame that has arrived is held before any is released
            self._fill()
            frame = self._next_frame()
        else:
            # a complete frame may already sit in a buffer that poll(2) knows nothing of
            frame = self._next_frame() if self._backlog else None
            if frame is None and self._fill():
                frame = self._next_frame()
        if frame is None and self._death is not None and not any(self._held.values()):
            raise EngineError(self._death)
        return frame

    def _fill(self) -> bool:
        """Read every socket that holds data into its buffer; False if no fd
        was readable. A readable watched fd is skipped; a death (a watched
        fd's death text, or a peer's end of file) is noted for ``_receive``."""
        events = self._poller.poll(0)
        for fd, _ in events:
            if fd in self._watched:
                self._death = self._death or self._watched[fd]
                continue
            peer = self._peer_of[fd]
            conn = self._conns[peer]
            buf = self._bufs[peer]
            try:
                while True:
                    chunk = conn.recv(1 << 16, socket.MSG_DONTWAIT)
                    if not chunk:
                        self._death = self._death or f"peer {peer:#x} closed the connection"
                        break
                    buf.extend(chunk)
                    if len(chunk) < (1 << 16):
                        break
            except (BlockingIOError, InterruptedError):
                pass
            except ConnectionError as exc:
                raise EngineError(f"connection to peer {peer:#x} failed: {exc}") from None
            if self._delay is not None:
                _, lo, hi = self._delay
                while (frame := _cut_frame(buf)) is not None:
                    self._held[peer].append(
                        (time.monotonic() + lo + (hi - lo) * self._rng.random(), frame))
            self._backlog.add(peer)
        return bool(events)

    def _next_frame(self) -> Optional[bytes]:
        """The next complete (and, with a delay, released) frame, peers in turn."""
        for _ in range(len(self._order)):
            peer = self._order[0]
            self._order.rotate(-1)
            if peer not in self._backlog:
                continue
            buf = self._bufs[peer]
            held = self._held[peer]
            if self._delay is None:
                frame = _cut_frame(buf)
            elif held and held[0][0] <= time.monotonic():
                frame = held.popleft()[1]
            else:
                frame = None
            if not buf and not held:
                self._backlog.discard(peer)
            if frame is not None:
                return frame
        return None

    def wait(self, timeout: Optional[float]) -> None:
        # poll(2) counts whole milliseconds, so a shorter wait polls for 1 ms:
        # a frame, mail or death ends it at once. Only a held frame due in
        # less than 1 ms is slept to, since a poll would pass its release.
        due = [h[0][0] for h in self._held.values() if h]
        release = min(due) - time.monotonic() if due else None
        if release is not None and (timeout is None or release < timeout):
            timeout = release
        if timeout is None:
            self._poller.poll()
        elif release is not None and release < 0.001:
            if timeout > 0:
                time.sleep(timeout)
        elif timeout > 0:
            self._poller.poll(max(1, int(timeout * 1000)))

    def fds(self) -> list[int]:
        """The fds of its links, for another endpoint to ``watch``."""
        return list(self._peer_of)

    def close(self) -> None:
        for fd in [*self._peer_of, *self._watched]:
            self._poller.unregister(fd)
        self._peer_of.clear()
        self._watched.clear()
        for conn in self._conns.values():
            try:
                conn.close()
            except OSError:
                pass
        self._conns.clear()


class QueueMesh:
    """The inproc links of one engine: a socket pair between every two teams,
    and one between team 0 and the client.

    Build it before forking the masters; each process then attaches its own
    ends with ``endpoint`` and alone reads them, since a second reader would
    split the stream, and closes the rest with ``close_others``. ``ctx`` is
    unused, since a socket pair needs no multiprocessing context; callers
    written for the queue links this mesh once held still pass one.
    """

    CLIENT = True       # a pair between team 0 and the client

    def __init__(self, n_teams: int, ctx=None, delay: tuple[int, float, float] | None = None):
        self.n_teams = n_teams
        self.delay = delay
        self.ends: dict[tuple[int, int], socket.socket] = {}   # (own, peer) -> own end
        pairs = [(a, b) for a in range(n_teams) for b in range(a + 1, n_teams)]
        for a, b in pairs + [(0, CLIENT_ID)] * self.CLIENT:
            self.ends[(a, b)], self.ends[(b, a)] = socket.socketpair()

    def close(self) -> None:
        for end in self.ends.values():
            end.close()

    def close_others(self, owner: int) -> None:
        """Close every end that ``owner`` does not own.

        The client calls this once it has forked every master, and each
        master before it forks its teammates. Then each end is held only by
        its owner's processes, and when the owner dies its peers read EOF.
        """
        for (own, _), end in self.ends.items():
            if own != owner:
                end.close()

    def endpoint(self, engine_id: str, team_id: int, own_load_fn=None) -> TcpEndpoint:
        ep = TcpEndpoint(engine_id, team_id, self.n_teams, own_load_fn, self.delay)
        ep._mesh = self       # collecting the mesh would close the peers' ends
        for (own, peer), end in self.ends.items():
            if own == team_id:
                ep.attach(peer, end)
        return ep


class TeamLinks(QueueMesh):
    """A team's mail links, ids being ranks, built before its teammates
    fork. They hold no frame back: ``EngineOptions.delay`` never held mail."""

    CLIENT = False

    def endpoint(self, engine_id: str, team_id: int, own_load_fn=None) -> TcpEndpoint:
        ep = super().endpoint(engine_id, team_id, own_load_fn)
        ep.loads = []         # nobody reads a teammate's load array
        return ep


def _cut_frame(buf: bytearray) -> Optional[bytes]:
    """Remove and return the complete frame at the head of ``buf``, if any."""
    total = frame_length(buf)
    if total is None or len(buf) < total:
        return None
    frame = bytes(buf[:total])
    del buf[:total]
    return frame


def _recv_exactly(conn: socket.socket, n: int) -> bytes:
    buf = b""
    while len(buf) < n:
        chunk = conn.recv(n - len(buf))
        if not chunk:
            raise EngineCreationError("peer hung up during handshake")
        buf += chunk
    return buf


def parse_topology_file(text: str) -> list[tuple[str, int, int]]:
    """Parse newline-delimited ``team <host>:<port> <n_workers>`` entries."""
    teams = []
    for ln, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3 or parts[0] != "team" or ":" not in parts[1]:
            raise ValueError(f"line {ln}: expected 'team <host>:<port> <n_workers>'")
        host, port = parts[1].rsplit(":", 1)
        teams.append((host, int(port), int(parts[2])))
    if not teams:
        raise ValueError("topology file defines no teams")
    return teams

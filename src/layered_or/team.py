"""Shared-memory team plumbing: the or-frame pool and per-worker registers.

One ``TeamShared`` region backs a team. It is an anonymous shared ``mmap``
created before the team's worker processes fork, so every worker addresses
the same physical pages. It holds the or-frame pool (the only hot shared
mutable state) and two banks of one register per worker: its idle flag and
its load register (open private alternatives). A worker writes its own
registers, except that a worker sharing work flags its requester busy
before it mails the copy. A parked worker is flagged idle, from creation on. The registers only pick whom to ask for work; a
team's termination reads none of them (``protocol``'s credit recovery
decides it). Everything bulky (stack copies, answers, notifications)
travels as mail on the team's links instead.

One team lock guards the whole pool, the free list and every frame's
fields. ``lock(idx)`` returns it, so callers still name the frame they
lock. A team makes a few hundred frame operations per goal and no caller
holds two frame locks, so finer locks would buy nothing. Frame
cursor/offset fields are read and written only under the lock.

Every lock of an engine (a team's lock and the write lock of the client's
trace pipe) is a ``RecordLock``: an exclusive ``fcntl`` record
lock on a memfd of its own, which costs one fd to build, not a named POSIX
semaphore. The kernel drops the lock of a holder that dies, so a process
killed inside a ``take`` or a ``put`` blocks nobody. A record lock belongs
to a process, not a thread: it excludes the processes of a team, and every
engine process is single-threaded. No code holds two of these locks at
once; a process blocked on a second one could get ``EDEADLK`` from the
kernel's deadlock check.
"""

from __future__ import annotations

import fcntl
import mmap
import os

_HDR = 2                   # header slots before the per-worker arrays
_SLOT_FREE_HEAD = 0
_SLOT_HIGH_WATER = 1
_BANKS = 2                 # idle, load

# or-frames per team; a share that finds the pool full is refused
FRAME_POOL = 8192

_FRAME_SLOTS = 6           # n_alts, cursor, split_offset, members, depth, next_free
_F_NALTS, _F_CURSOR, _F_OFFSET, _F_MEMBERS, _F_DEPTH, _F_NEXT = range(_FRAME_SLOTS)


class FramePoolExhausted(RuntimeError):
    """No free or-frame slot; the sharing attempt must be refused."""


class RecordLock:
    """An exclusive lock between processes, for a ``with`` statement: an
    ``fcntl`` record lock on a memfd, which ``/proc/<pid>/fd`` lists as
    ``memfd:<name>-lock``. Build it before forking the processes that share
    it. ``close`` (or collecting the lock) closes the memfd: ``__del__``
    does it, since a ``weakref.finalize`` per lock would add about 0.2 ms
    to the start-up of a freshly forked master with two workers."""

    def __init__(self, name: str):
        self._fd = os.memfd_create(f"{name}-lock")

    def __enter__(self):
        fcntl.lockf(self._fd, fcntl.LOCK_EX)
        return self

    def __exit__(self, *exc):
        fcntl.lockf(self._fd, fcntl.LOCK_UN)

    def close(self, _close=os.close) -> None:
        # os.close is bound here, since module globals may be gone when a
        # lock is collected at interpreter exit
        if self._fd >= 0:
            _close(self._fd)
            self._fd = -1

    __del__ = close


class TeamShared:
    """Team-wide shared state. Fork the workers after constructing this."""

    def __init__(self, n_workers: int, n_frames: int = FRAME_POOL):
        self.n_workers = n_workers
        self.n_frames = n_frames
        self._frames_off = _HDR + _BANKS * n_workers
        size = 8 * (self._frames_off + n_frames * _FRAME_SLOTS)
        self._mm = mmap.mmap(-1, size)
        self._mv = memoryview(self._mm).cast("q")
        self._mv[_SLOT_FREE_HEAD] = -1
        for rank in range(n_workers):
            self.set_idle(rank, True)
        self._lock = RecordLock("team")

    # -- per-worker registers -------------------------------------------------
    def _warr(self, bank: int, rank: int) -> int:
        return _HDR + bank * self.n_workers + rank

    def set_idle(self, rank: int, idle: bool) -> None:
        self._mv[self._warr(0, rank)] = 1 if idle else 0

    def idle_flags(self) -> list[bool]:
        return [bool(self._mv[_HDR + r]) for r in range(self.n_workers)]

    def set_load(self, rank: int, load: int) -> None:
        self._mv[self._warr(1, rank)] = load

    def loads(self) -> list[int]:
        base = _HDR + self.n_workers
        return [self._mv[base + r] for r in range(self.n_workers)]

    def team_load(self) -> int:
        return sum(self.loads())

    # -- or-frame pool ----------------------------------------------------------
    def _base(self, idx: int) -> int:
        return self._frames_off + idx * _FRAME_SLOTS

    def lock(self, idx: int):
        """The lock of frame ``idx``, for a ``with`` statement."""
        return self._lock

    def alloc(self, n_alts: int, cursor: int, split_offset: int, depth: int) -> int:
        """Create a frame for a freshly published node."""
        return self.publish((), [(n_alts, cursor, split_offset, depth)])[0]

    def publish(self, joined, nodes) -> list[int]:
        """Add a member to each frame of ``joined`` and create a frame for
        each freshly published node ``(n_alts, cursor, split_offset,
        depth)`` of ``nodes``, all under one hold of the team lock; if the
        pool cannot hold every node, do nothing and raise."""
        mv = self._mv
        made = []
        with self._lock:
            free, top = mv[_SLOT_FREE_HEAD], mv[_SLOT_HIGH_WATER]
            for _ in nodes:
                if free >= 0:
                    made.append(free)
                    free = mv[self._base(free) + _F_NEXT]
                elif top < self.n_frames:
                    made.append(top)
                    top += 1
                else:
                    raise FramePoolExhausted(f"frame pool of {self.n_frames} full")
            mv[_SLOT_FREE_HEAD], mv[_SLOT_HIGH_WATER] = free, top
            for idx in joined:
                mv[self._base(idx) + _F_MEMBERS] += 1
        for idx, (n_alts, cursor, split_offset, depth) in zip(made, nodes):
            base = self._base(idx)
            mv[base + _F_NALTS] = n_alts
            mv[base + _F_CURSOR] = cursor
            mv[base + _F_OFFSET] = split_offset
            mv[base + _F_MEMBERS] = 2      # publisher plus the receiving worker
            mv[base + _F_DEPTH] = depth
        return made

    def read_locked(self, idx: int) -> tuple[int, int, int]:
        """(n_alts, cursor, split_offset); caller holds the frame lock."""
        base = self._base(idx)
        mv = self._mv
        return mv[base + _F_NALTS], mv[base + _F_CURSOR], mv[base + _F_OFFSET]

    def take(self, idx: int) -> int:
        """Hand out the next alternative index, or -1 if the frame is dead."""
        base = self._base(idx)
        mv = self._mv
        with self.lock(idx):
            n = mv[base + _F_NALTS]
            c = mv[base + _F_CURSOR]
            if c >= n:
                return -1
            mv[base + _F_CURSOR] = c + mv[base + _F_OFFSET]
            return c

    def leave(self, idx: int) -> None:
        """Drop membership; the last member of a dead frame recycles it."""
        base = self._base(idx)
        mv = self._mv
        with self.lock(idx):
            mv[base + _F_MEMBERS] -= 1
            if mv[base + _F_MEMBERS] == 0 and mv[base + _F_CURSOR] >= mv[base + _F_NALTS]:
                mv[base + _F_NEXT] = mv[_SLOT_FREE_HEAD]
                mv[_SLOT_FREE_HEAD] = idx

    def kill_locked(self, idx: int) -> None:
        """Move all remaining alternatives out of the frame (caller holds
        lock), when a split assigns a public node wholesale to the outgoing
        copy."""
        base = self._base(idx)
        self._mv[base + _F_CURSOR] = self._mv[base + _F_NALTS]

    def hsplit_locked(self, idx: int) -> tuple[int, int]:
        """Double the frame's offset, keeping its cursor (caller holds lock).

        Returns the pre-split (cursor, offset); the outgoing side owns the
        arithmetic sequence starting at cursor+offset with the doubled step.
        """
        base = self._base(idx)
        mv = self._mv
        c, s = mv[base + _F_CURSOR], mv[base + _F_OFFSET]
        mv[base + _F_OFFSET] = 2 * s
        return c, s

    def set_offset_locked(self, idx: int, offset: int) -> None:
        """Replace the frame's split offset (caller holds lock)."""
        self._mv[self._base(idx) + _F_OFFSET] = offset

    def frame_state(self, idx: int) -> tuple[int, int, int, int]:
        """(n_alts, cursor, split_offset, members) snapshot for tests/inspection."""
        base = self._base(idx)
        mv = self._mv
        with self.lock(idx):
            return (mv[base + _F_NALTS], mv[base + _F_CURSOR],
                    mv[base + _F_OFFSET], mv[base + _F_MEMBERS])

    def close(self) -> None:
        self._mv.release()
        self._mm.close()
        self._lock.close()


def publish_private_nodes(ws, shared: TeamShared) -> int:
    """Make every live private node public and pre-count the receiving
    member of every frame, all or nothing: if the pool cannot hold a frame
    for each private node, raise ``FramePoolExhausted`` and change nothing.

    Returns the number of alternatives moved from the private load register
    into frames. Cursor/offset authority moves to the frame; the private
    cursor is frozen where it was.
    """
    fresh = [cp for cp in ws.cps if cp.frame < 0 and not cp.is_dead()]
    frames = shared.publish([cp.frame for cp in ws.cps if cp.frame >= 0],
                            [(cp.n_alts, cp.cursor, cp.split_offset, cp.depth) for cp in fresh])
    moved = 0
    for cp, idx in zip(fresh, frames):
        cp.frame = idx
        moved += cp.open_count()
    if moved:
        ws.set_load(ws.load - moved)
    return moved

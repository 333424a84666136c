"""Shared-memory team plumbing: the or-frame pool and per-worker registers.

One ``TeamShared`` region backs a team. It is an anonymous shared ``mmap``
created before the team's worker processes fork, so every worker addresses
the same physical pages. It holds the or-frame pool (the only hot shared
mutable state), per-worker load registers / flags, and a few counters.
Everything bulky (stack copies, answers, notifications) travels through
each worker's mailbox instead.

One team lock guards the whole pool, the free list and every frame's
fields. ``lock(idx)`` returns it, so callers still name the frame they
lock. A team makes a few hundred frame operations per goal and no caller
holds two frame locks, so finer locks would buy nothing. Frame
cursor/offset fields are read and written only under the lock.

Every lock of a team (the team lock, each mailbox's write lock and the
client's trace pipe) is a ``RecordLock``: an exclusive ``fcntl`` record
lock on a memfd of its own, which costs one fd to build, not a named POSIX
semaphore. The kernel drops the lock of a holder that dies, so a process
killed inside a ``take`` or a ``put`` blocks nobody. A record lock belongs
to a process, not a thread: it excludes the processes of a team, and every
engine process is single-threaded. No code holds two of these locks at
once; a process blocked on a second one could get ``EDEADLK`` from the
kernel's deadlock check.

``public_alts`` counts open alternatives currently owned by live frames;
the team is out of work exactly when every worker is idle and this count
is zero. It is the sum of one single-writer counter per worker: a worker
adds what its own ``alloc``, ``take``, ``kill_locked`` and
``hsplit_locked`` calls move into or out of frames to its own slot, so a
``take`` takes the lock once. A single slot may go negative (one
worker allocates a frame, another takes from it); only the sum has a
meaning. The sum is exact whenever no worker is busy, which is when the
idle test reads it. Each process binds its rank into its own (forked) copy
of the region with ``bind`` before it touches a frame; an unbound copy
counts in slot 0.
"""

from __future__ import annotations

import fcntl
import mmap
import os

from .engine import count_open

_HDR = 2                   # header slots before the per-worker arrays
_SLOT_FREE_HEAD = 0
_SLOT_HIGH_WATER = 1
_BANKS = 4                 # idle, load, public nodes, public alts

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
        self._lock = RecordLock("team")
        self._alts_slot = self._warr(3, 0)

    def bind(self, rank: int) -> None:
        """Make this process's frame calls count in worker ``rank``'s slot."""
        self._alts_slot = self._warr(3, rank)

    # -- per-worker registers -------------------------------------------------
    def _warr(self, bank: int, rank: int) -> int:
        return _HDR + bank * self.n_workers + rank

    def set_idle(self, rank: int, idle: bool) -> None:
        self._mv[self._warr(0, rank)] = 1 if idle else 0

    def idle_count(self) -> int:
        return sum(self.idle_flags())

    def idle_flags(self) -> list[bool]:
        return [bool(self._mv[_HDR + r]) for r in range(self.n_workers)]

    def set_load(self, rank: int, load: int) -> None:
        self._mv[self._warr(1, rank)] = load

    def loads(self) -> list[int]:
        base = _HDR + self.n_workers
        return [self._mv[base + r] for r in range(self.n_workers)]

    def team_load(self) -> int:
        return sum(self.loads())

    def set_public_nodes(self, rank: int, n: int) -> None:
        self._mv[self._warr(2, rank)] = n

    def public_nodes_of(self, rank: int) -> int:
        return self._mv[self._warr(2, rank)]

    # -- counters ---------------------------------------------------------------
    def public_alts(self) -> int:
        base = self._warr(3, 0)
        return sum(self._mv[base:base + self.n_workers])

    # -- or-frame pool ----------------------------------------------------------
    def _base(self, idx: int) -> int:
        return self._frames_off + idx * _FRAME_SLOTS

    def lock(self, idx: int):
        """The lock of frame ``idx``, for a ``with`` statement."""
        return self._lock

    def alloc(self, n_alts: int, cursor: int, split_offset: int, depth: int) -> int:
        """Create a frame for a freshly published node; counts its open load."""
        mv = self._mv
        with self._lock:
            idx = mv[_SLOT_FREE_HEAD]
            if idx >= 0:
                mv[_SLOT_FREE_HEAD] = mv[self._base(idx) + _F_NEXT]
            else:
                idx = mv[_SLOT_HIGH_WATER]
                if idx >= self.n_frames:
                    raise FramePoolExhausted(f"frame pool of {self.n_frames} full")
                mv[_SLOT_HIGH_WATER] = idx + 1
        base = self._base(idx)
        mv[base + _F_NALTS] = n_alts
        mv[base + _F_CURSOR] = cursor
        mv[base + _F_OFFSET] = split_offset
        mv[base + _F_MEMBERS] = 2          # publisher plus the receiving worker
        mv[base + _F_DEPTH] = depth
        mv[self._alts_slot] += count_open(n_alts, cursor, split_offset)
        return idx

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
            mv[self._alts_slot] -= 1
            return c

    def join(self, idx: int) -> None:
        base = self._base(idx)
        with self.lock(idx):
            self._mv[base + _F_MEMBERS] += 1

    def leave(self, idx: int) -> None:
        """Drop membership; the last member of a dead frame recycles it."""
        base = self._base(idx)
        mv = self._mv
        with self.lock(idx):
            mv[base + _F_MEMBERS] -= 1
            if mv[base + _F_MEMBERS] == 0 and mv[base + _F_CURSOR] >= mv[base + _F_NALTS]:
                mv[base + _F_NEXT] = mv[_SLOT_FREE_HEAD]
                mv[_SLOT_FREE_HEAD] = idx

    def kill_locked(self, idx: int) -> int:
        """Move all remaining alternatives out of the frame (caller holds lock).

        Returns how many were removed; used when a split assigns a public
        node wholesale to the outgoing copy.
        """
        base = self._base(idx)
        mv = self._mv
        n, c, s = mv[base + _F_NALTS], mv[base + _F_CURSOR], mv[base + _F_OFFSET]
        remaining = count_open(n, c, s)
        mv[base + _F_CURSOR] = n
        mv[self._alts_slot] -= remaining
        return remaining

    def hsplit_locked(self, idx: int) -> tuple[int, int]:
        """Double the frame's offset, keeping its cursor (caller holds lock).

        Returns the pre-split (cursor, offset); the outgoing side owns the
        arithmetic sequence starting at cursor+offset with the doubled step.
        """
        base = self._base(idx)
        mv = self._mv
        n, c, s = mv[base + _F_NALTS], mv[base + _F_CURSOR], mv[base + _F_OFFSET]
        mv[base + _F_OFFSET] = 2 * s
        mv[self._alts_slot] -= count_open(n, c + s, 2 * s)
        return c, s

    def set_offset_locked(self, idx: int, offset: int) -> None:
        """Replace the frame's split offset (caller holds lock); the caller
        keeps its open set, so ``public_alts`` does not move."""
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
    """Make every live private node public and pre-count the receiving member.

    Returns the number of alternatives moved from the private load register
    into frames. Cursor/offset authority moves to the frame; the private
    cursor is frozen where it was.
    """
    moved = 0
    for cp in ws.cps:
        if cp.frame >= 0:
            shared.join(cp.frame)      # receiver will reference this frame too
            continue
        if cp.is_dead():
            continue
        open_here = cp.open_count()
        cp.frame = shared.alloc(cp.n_alts, cp.cursor, cp.split_offset, cp.depth)
        moved += open_here
    if moved:
        ws.set_load(ws.load - moved)
    ws.sync_public_nodes()
    return moved

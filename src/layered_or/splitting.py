"""Static work splitting and the packed stack-transfer area.

A sharing worker copies its stack segments into an auxiliary area, applies
one of two strategies between its live stacks and the copy, and ships the
copy to the requesting team:

* vertical: live nodes alternate wholesale between the two sides, walking
  from the root; the side keeping a public node leaves its or-frame alone,
  the side giving one away empties the frame under its lock.
* horizontal: every live node is split internally; both sides double the
  node's split offset and the outgoing side starts one original step later,
  so the two cursors enumerate complementary alternative sets.

A teammate's copy is the same area plus a frames column, a frame id (or
-1) per record: its sharer publishes every live node first, so all its
records arrive parked dead and its work lives in the frames they name.

The serialized layout is little-endian 8-byte integers with no padding:
header fields in declaration order, store cells, choice points as 6-tuples
(node tag, n_alts, cursor, split offset, store mark, trail mark),
trail entries as (cell index, previous value) pairs, and, in a teammate's
copy only, the frames column.
"""

from __future__ import annotations

import struct

from .engine import WorkerState, count_open, install_segments
from .errors import ProtocolViolation

HEADER_FIELDS = ("store_lo", "store_hi", "cp_count", "trail_lo", "trail_hi",
                 "load", "goal_id")
_HEADER = struct.Struct("<7q")
CP_RECORD_LEN = 6


class AuxArea:
    """Header plus gap-free packed copies of store/choice-point/trail segments."""

    __slots__ = ("store_lo", "store_hi", "cp_count", "trail_lo", "trail_hi",
                 "load", "goal_id",
                 "store_cells", "cp_records", "trail_entries", "frames")

    def __init__(self, store_lo, store_hi, trail_lo, trail_hi, load, goal_id,
                 store_cells, cp_records, trail_entries, frames=None):
        self.store_lo = store_lo
        self.store_hi = store_hi
        self.cp_count = len(cp_records)
        self.trail_lo = trail_lo
        self.trail_hi = trail_hi
        self.load = load
        self.goal_id = goal_id
        self.store_cells = store_cells
        self.cp_records = cp_records
        self.trail_entries = trail_entries
        self.frames = frames            # intra-team copies only: a frame id per record

    def recount_load(self) -> int:
        self.load = sum(count_open(r[1], r[2], r[3]) for r in self.cp_records)
        return self.load

    def __eq__(self, other):
        if not isinstance(other, AuxArea):
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in HEADER_FIELDS) and \
            self.store_cells == other.store_cells and \
            [tuple(r) for r in self.cp_records] == [tuple(r) for r in other.cp_records] and \
            self.trail_entries == other.trail_entries and self.frames == other.frames


def _segment_bounds(ws: WorkerState) -> tuple[int, int]:
    """Store/trail lower bounds delimited by the root choice point.

    Trailed writes may touch cells older than the root's store mark; those
    cells are folded into the store segment so the receiving team (which
    starts from the goal's initial store) sees their current values.
    """
    root = ws.cps[0]
    store_lo = root.store_mark
    trail_lo = root.trail_mark
    cells = ws.trail_cells
    for i in range(trail_lo, len(cells)):
        if cells[i] < store_lo:
            store_lo = cells[i]
    return store_lo, trail_lo


def snapshot_segments(ws: WorkerState):
    """Copy the worker's live segments and frame ids into a dict, for stack
    captures outside the engine."""
    store_lo, trail_lo = _segment_bounds(ws)
    return {
        "store_lo": store_lo,
        "store_cells": list(ws.store[store_lo:]),
        # a 7th word, the node's index, stays while benchmark/layers.py reads
        # it as r[6] (ROADMAP item 1)
        "cp_records": [(cp.node_tag, cp.n_alts, cp.cursor, cp.split_offset,
                        cp.store_mark, cp.trail_mark, i) for i, cp in enumerate(ws.cps)],
        "frames": [cp.frame for cp in ws.cps],
        "trail_lo": trail_lo,
        "trail_entries": list(zip(ws.trail_cells[trail_lo:], ws.trail_prevs[trail_lo:])),
        "load": ws.load,
    }


def snapshot_to_aux(ws: WorkerState, goal_id: int = 0) -> AuxArea:
    """Copy segments into a fresh aux area with every node parked dead.

    A split pass assigns alternatives to the copy afterwards; until then the
    aux side owns nothing. The sharer's stacks are untouched.
    """
    store_lo, trail_lo = _segment_bounds(ws)
    records = [[cp.node_tag, cp.n_alts, cp.n_alts, cp.split_offset,
                cp.store_mark, cp.trail_mark] for cp in ws.cps]
    return AuxArea(
        store_lo=store_lo,
        store_hi=len(ws.store),
        trail_lo=trail_lo,
        trail_hi=len(ws.trail_cells),
        load=0,
        goal_id=goal_id,
        store_cells=list(ws.store[store_lo:]),
        cp_records=records,
        trail_entries=list(zip(ws.trail_cells[trail_lo:], ws.trail_prevs[trail_lo:])),
    )


def _recount_private(ws: WorkerState) -> None:
    ws.set_load(sum(cp.open_count() for cp in ws.cps if cp.frame < 0))


def vertical_split(ws: WorkerState, aux: AuxArea) -> None:
    """Alternate live nodes between the sharer and the aux copy, root first.

    Even positions (counting only nodes live at visit time) stay with the
    sharer; odd positions move wholesale to the copy. Public nodes given
    away are emptied through their or-frame under its lock; the copy itself
    never references a frame.
    """
    frames = ws.frames
    pos = 0
    for cp, rec in zip(ws.cps, aux.cp_records):
        if cp.frame >= 0:
            with frames.lock(cp.frame):
                n, c, s = frames.read_locked(cp.frame)
                if c >= n:
                    continue                      # died under a teammate; skip
                give = pos & 1
                pos += 1
                if give:
                    rec[2] = c
                    rec[3] = s
                    frames.kill_locked(cp.frame)
        else:
            if cp.is_dead():
                continue
            give = pos & 1
            pos += 1
            if give:
                rec[2] = cp.cursor
                rec[3] = cp.split_offset
                cp.cursor = cp.n_alts
    _recount_private(ws)
    aux.recount_load()


def horizontal_split(ws: WorkerState, aux: AuxArea) -> None:
    """Split the open alternatives inside every live node between both sides.

    Each side's offset doubles; the sharer keeps its cursor, the copy starts
    one pre-split step later (or at ``n_alts`` when that step passes it, so
    no record's cursor lies past its node). Applied to the or-frame (under
    lock) for public nodes and to the serialized record for the copy's side.
    """
    frames = ws.frames
    for cp, rec in zip(ws.cps, aux.cp_records):
        if cp.frame >= 0:
            with frames.lock(cp.frame):
                n, c, s = frames.read_locked(cp.frame)
                if c >= n:
                    continue
                frames.hsplit_locked(cp.frame)
                rec[2] = min(c + s, n)
                rec[3] = 2 * s
        else:
            if cp.is_dead():
                continue
            c, s = cp.cursor, cp.split_offset
            cp.split_offset = 2 * s
            rec[2] = min(c + s, cp.n_alts)
            rec[3] = 2 * s
    _recount_private(ws)
    aux.recount_load()


def can_yield_work(ws: WorkerState, strategy: str) -> bool:
    """Whether a split could move at least one alternative to the copy.

    Checked before mutating anything: a held request is offered to the
    stack again at every tick until it can split, and each refused
    horizontal attempt would otherwise double every offset again. Frame
    states may move between this check and the split; the post-split
    zero-load guard stays as the backstop for that race.
    """
    live = 0
    for cp in ws.cps:
        if cp.frame >= 0:
            with ws.frames.lock(cp.frame):
                n, c, s = ws.frames.read_locked(cp.frame)
        else:
            n, c, s = cp.n_alts, cp.cursor, cp.split_offset
        k = count_open(n, c, s)
        if k == 0:
            continue
        live += 1
        if strategy == "hs" and k >= 2:
            return True
        if strategy == "vs" and live >= 2:
            return True
    return False


def _reach(gap: int) -> int:
    """The smallest power of two that is at least ``gap``."""
    return 1 << (gap - 1).bit_length()


def narrow_last_alternatives(ws: WorkerState) -> None:
    """Shrink the offset of every node that has exactly one open alternative.

    Such a node (cursor < n_alts <= cursor + offset) gets the smallest power
    of two that still steps past n_alts. Its open set stays {cursor}, and
    its offset drops below 2 * n_alts. A horizontal split doubles the offset
    of every live node, and a node that keeps its last alternative gains
    nothing from it; without this, 63 splits overflow its 64-bit offset.
    Public nodes are narrowed in their frame, under its lock.
    """
    frames = ws.frames
    for cp in ws.cps:
        if cp.frame >= 0:
            with frames.lock(cp.frame):
                n, c, s = frames.read_locked(cp.frame)
                if c < n <= c + s:
                    frames.set_offset_locked(cp.frame, _reach(n - c))
        elif cp.cursor < cp.n_alts <= cp.cursor + cp.split_offset:
            cp.split_offset = _reach(cp.n_alts - cp.cursor)


def split_for_transfer(ws: WorkerState, goal_id: int, strategy: str) -> AuxArea:
    """Snapshot and split in one step; the caller refuses zero-load results."""
    if strategy not in ("vs", "hs"):
        raise ValueError(f"unknown splitting strategy {strategy!r}")
    if not can_yield_work(ws, strategy):
        return AuxArea(0, 0, 0, 0, 0, goal_id, [], [], [])
    narrow_last_alternatives(ws)
    aux = snapshot_to_aux(ws, goal_id)
    if strategy == "vs":
        vertical_split(ws, aux)
    else:
        horizontal_split(ws, aux)
    return aux


# -- wire form ----------------------------------------------------------------

def serialize_aux(aux: AuxArea) -> bytes:
    """Pack header and segments back to back with no padding."""
    if aux.store_hi - aux.store_lo != len(aux.store_cells):
        raise ProtocolViolation("store segment bounds disagree with cell count")
    if aux.trail_hi - aux.trail_lo != len(aux.trail_entries):
        raise ProtocolViolation("trail segment bounds disagree with entry count")
    words = [aux.store_lo, aux.store_hi, aux.cp_count, aux.trail_lo, aux.trail_hi,
             aux.load, aux.goal_id, *aux.store_cells]
    for rec in aux.cp_records:
        words.extend(rec)
    for entry in aux.trail_entries:
        words.extend(entry)
    if aux.frames is not None:
        if len(aux.frames) != aux.cp_count:
            raise ProtocolViolation("frames column disagrees with the choice point count")
        words.extend(aux.frames)
    return struct.pack(f"<{len(words)}q", *words)


def deserialize_aux(data: bytes, frames: bool = False) -> AuxArea:
    """Inverse of ``serialize_aux``; validates the advertised segment sizes.

    ``frames`` says whether the payload ends in a frames column, which only
    an intra-team copy carries.
    """
    if len(data) < _HEADER.size:
        raise ProtocolViolation("aux payload shorter than its header")
    store_lo, store_hi, cp_count, trail_lo, trail_hi, load, goal_id = \
        _HEADER.unpack_from(data, 0)
    n_cells = store_hi - store_lo
    n_trail = trail_hi - trail_lo
    if n_cells < 0 or n_trail < 0 or cp_count < 0:
        raise ProtocolViolation("negative segment size in aux header")
    expect = _HEADER.size + 8 * (n_cells + cp_count * (CP_RECORD_LEN + frames) + 2 * n_trail)
    if len(data) != expect:
        raise ProtocolViolation(
            f"aux payload is {len(data)} bytes, header implies {expect}")
    words = struct.unpack_from(f"<{(expect - _HEADER.size) // 8}q", data, _HEADER.size)
    off = n_cells + cp_count * CP_RECORD_LEN
    records = [list(words[i:i + CP_RECORD_LEN]) for i in range(n_cells, off, CP_RECORD_LEN)]
    end = off + 2 * n_trail
    entries = list(zip(words[off:end:2], words[off + 1:end:2]))
    column = list(words[end:]) if frames else None
    return AuxArea(store_lo, store_hi, trail_lo, trail_hi, load, goal_id,
                   list(words[:n_cells]), records, entries, column)


def check_aux(aux: AuxArea, n_frames: int | None = None) -> None:
    """Reject an aux area whose records no sender could have written.

    Each record's cursor lies within its node, its offset is a power of two,
    and its store and trail marks never fall below its parent's, nor below
    the segment starts, nor past the segment ends. Every trailed cell lies
    in the store segment. An inter-team copy (``n_frames`` None) carries
    no frames column; an intra-team copy names, per record, -1 or a frame
    of its team's pool of ``n_frames``.
    """
    store_lo, trail_lo = aux.store_lo, aux.trail_lo
    if store_lo < 0 or not aux.cp_records:
        raise ProtocolViolation("aux area starts below cell 0 or holds no choice point")
    if n_frames is None:
        if aux.frames is not None:
            raise ProtocolViolation("an inter-team copy carries a frames column")
    elif aux.frames is None or len(aux.frames) != aux.cp_count \
            or not all(-1 <= f < n_frames for f in aux.frames):
        raise ProtocolViolation(f"an intra-team copy needs a frame id below {n_frames}, "
                                "or -1, per record")
    cells = [cell for cell, _ in aux.trail_entries]
    if cells and not (store_lo <= min(cells) and max(cells) < aux.store_hi):
        raise ProtocolViolation("a trailed cell lies outside the store segment")
    for rec in aux.cp_records:
        _, n_alts, cursor, offset, store_mark, trail_mark = rec
        if not 0 <= cursor <= n_alts:
            raise ProtocolViolation(f"cursor {cursor} outside a node of {n_alts} alternatives")
        if offset <= 0 or offset & (offset - 1):
            raise ProtocolViolation(f"split offset {offset} is not a power of two")
        if store_mark < store_lo or trail_mark < trail_lo:
            raise ProtocolViolation("choice point marks fall below its parent's or the segment starts")
        store_lo, trail_lo = store_mark, trail_mark
    if store_lo > aux.store_hi or trail_lo > aux.trail_hi:
        raise ProtocolViolation("choice point marks pass the segment ends")


def install_aux(ws: WorkerState, aux: AuxArea, local: bool = False) -> None:
    """Unpack an aux area into this worker's stacks.

    Another team's copy arrives private and must hold work. A teammate's
    (``local``) joins the or-frames it names and holds no private work.
    """
    if aux.load <= 0 and not local:
        raise ProtocolViolation("refusing to install a zero-load payload")
    check_aux(aux, ws.frames.n_frames if local else None)
    if aux.store_lo > len(ws.store):
        # a receiver installs at its goal's initial store, which the root's reaches
        raise ProtocolViolation(f"store segment starts at {aux.store_lo}, "
                                f"past the local store top {len(ws.store)}")
    install_segments(ws, aux.store_lo, aux.store_cells, aux.cp_records,
                     aux.trail_lo, aux.trail_entries, frames=aux.frames)
    if ws.load != aux.load:
        raise ProtocolViolation(
            f"installed load {ws.load} disagrees with header load {aux.load}")

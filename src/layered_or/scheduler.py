"""Scheduling kernels: load arrays and the choice of whom to ask for work.

A load array holds one ``(load, timestamp)`` entry per team: load -1 means
the team is out of work, load >= 0 is the sum of its workers' open private
alternatives (frame-held work is deliberately excluded, which is why load-0
teams remain legal request targets). A team's own timestamp increases with
every message it sends, so entries are totally ordered per team and arrays
merge as a join: larger timestamp wins, and on equal timestamps the larger
load wins. The load tie-break keeps a "this team just received work" record
written by the work's giver from being shadowed by the receiver's own
equally-stamped idle entry.

Load arrays only choose request targets. They can go stale in both
directions (an idle team's newer refusal can shadow a record that it just
received work), so they do not decide termination; credit recovery does,
in ``protocol``.

Both levels ask by one rule: the busiest team, or busy worker, load 0
included, ties to the lowest index.
"""

from __future__ import annotations

from typing import Optional, Sequence

Entry = tuple[int, int]           # (load, timestamp)


def merge_load_arrays(local: Sequence[Entry], received: Sequence[Entry],
                      keep: int = -1) -> list[Entry]:
    """Entry-wise join of two load arrays; index ``keep`` stays local.

    A team is the only authority on its own entry, so the merging master
    passes its own index in ``keep``.
    """
    if len(local) != len(received):
        raise ValueError("load arrays index different team sets")
    out = []
    for i, ((ll, lt), (rl, rt)) in enumerate(zip(local, received)):
        if i != keep and (rt, rl) > (lt, ll):
            out.append((rl, rt))
        else:
            out.append((ll, lt))
    return out


def record_receiver_busy(loads: list[Entry], receiver: int, shipped_load: int) -> None:
    """Note that ``receiver`` just got ``shipped_load`` alternatives from us.

    Stamped at the receiver's latest known timestamp: the load tie-break then
    beats any same-stamp idle entry still circulating, and the receiver's own
    later messages (strictly newer) take over naturally.
    """
    load, ts = loads[receiver]
    if shipped_load > load:
        loads[receiver] = (shipped_load, ts)


def select_request_target(loads: Sequence[Entry], self_id: int) -> Optional[int]:
    """Busiest team to ask for work; load-0 teams count (they may hold
    frame-held work). Ties go to the lowest team id; None when every other
    team looks idle."""
    return select_sharer([load for load, _ in loads], [load < 0 for load, _ in loads], self_id)


def select_sharer(worker_loads: Sequence[int], idle_flags: Sequence[bool],
                  exclude: int) -> Optional[int]:
    """Busy teammate for an idle worker to ask for work: the highest load
    register, even 0 (it counts only private alternatives, and frame-held
    work grows more), ties to the lowest rank; never ``exclude`` (the asking
    worker). None when nobody else is busy. An idle team asks by it too."""
    best = None
    best_load = -1
    for rank, load in enumerate(worker_loads):
        if rank == exclude or idle_flags[rank]:
            continue
        if load > best_load:
            best, best_load = rank, load
    return best

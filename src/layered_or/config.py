"""Tunables for one engine; every process of the engine carries a copy."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass
class EngineOptions:
    # busy-scheduler cadence: a worker drains its mailbox, and the master
    # also polls its transport, k engine steps after a tick that found
    # something to do; quiet ticks double the spacing up to
    # worker.TICK_SPACING_CAP * k steps
    k_backtracks: int = 32
    # a delegated worker accepts an inter-team request only with this many
    # open private alternatives (or a live public node of its own)
    l_min: int = 2
    # idle teams wait this long after a refusal before re-targeting
    retry_delay_s: float = 0.001
    # idle workers poll teammate loads with exponential backoff
    backoff_min_s: float = 0.000001
    backoff_max_s: float = 0.001
    frame_pool: int = 8192
    ready_timeout_s: float = 30.0
    barrier_timeout_s: float = 30.0
    # (seed, lo_s, hi_s): every endpoint, on either transport, holds each
    # frame it receives for a delay drawn from [lo_s, hi_s]; (seed, L, L)
    # adds a fixed latency L per message
    delay: Optional[tuple[int, float, float]] = None
    trace: bool = False

"""Tunables for one engine; every process of the engine carries a copy."""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Optional


@dataclass
class EngineOptions:
    # busy-scheduler cadence, a constant: a worker drains its mail, and
    # the master also polls its transport, k engine steps after a tick that
    # found something to do; quiet ticks double the spacing up to
    # worker.TICK_SPACING_CAP * k steps
    k_backtracks: ClassVar[int] = 32
    # (seed, lo_s, hi_s): every endpoint, on either transport, holds each
    # frame it receives for a delay drawn from [lo_s, hi_s]; (seed, L, L)
    # adds a fixed latency L per message
    delay: Optional[tuple[int, float, float]] = None
    trace: bool = False

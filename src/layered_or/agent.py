"""Host agent: pre-started process that starts teams on request.

Remote entries in an engine topology name a ``host:port`` where one of these
agents listens. The client connects, sends a one-line json create request,
and keeps the connection as the team's control channel; the agent forks the
team's master (handing it the connection) and teammates through
``boot.start_team`` and goes back to accepting. A team's processes die with
the agent that forked them.
"""

from __future__ import annotations

import contextlib
import socket

from .boot import MasterBoot, SocketChannel, start_team
from .config import EngineOptions


def _boot_from_request(req: dict, chan: SocketChannel) -> MasterBoot:
    opts = dict(req["options"])
    if opts.get("delay") is not None:
        opts["delay"] = tuple(opts["delay"])
    return MasterBoot(
        engine_id=req["engine"], team_id=req["team_id"], n_teams=req["n_teams"],
        n_workers=req["n_workers"], options=EngineOptions(**opts),
        transport_kind="tcp", bind_host=req.get("bind_host", "0.0.0.0"),
        channel=chan)


def serve_agent(port: int, host: str = "0.0.0.0", max_teams: int | None = None,
                on_bound=None) -> None:
    """Accept create-team requests forever (or for ``max_teams`` of them)."""
    children: list = []
    srv = socket.create_server((host, port))
    srv.settimeout(0.5)
    if on_bound is not None:
        on_bound(srv.getsockname()[1])
    served = 0
    try:
        while max_teams is None or served < max_teams:
            children = [c for c in children if c.is_alive()]
            try:
                conn, peer = srv.accept()
            except (TimeoutError, socket.timeout):
                continue
            chan = SocketChannel(conn)
            try:
                req = chan.get(timeout=10.0)
                if not isinstance(req, dict) or req.get("cmd") != "create_team":
                    raise ValueError(f"not a create_team request: {req!r}")
                boot = _boot_from_request(req, chan)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                # a bad request or a broken link fails alone: the agent serves on
                with contextlib.suppress(OSError):
                    chan.put({"error": f"bad create request: {exc!r}"})
                chan.close()
                continue
            children += start_team(boot)   # the forked master owns the connection now
            served += 1
        for c in children:
            c.join()
    finally:
        srv.close()

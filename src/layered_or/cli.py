"""Command-line front end: benchmark driver, host agent, sequential oracle.

The bench command acts as the client worker: it creates an engine for the
requested topology, runs the goal repeatedly, and reports wall times and
speedups against a single-worker baseline (auto-measured unless a baseline
file already holds one for the same goal).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

from . import api
from .config import EngineOptions
from .errors import EngineError, GoalError, ProtocolViolation
from .oracle import enumerate_answers
from .programs import get_program
from .transport import parse_topology_file


def _parse_worker_counts(text: str) -> list[int]:
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise GoalError(f"topology must look like [4,4], got {text!r}")
    try:
        counts = [int(x) for x in text[1:-1].split(",") if x.strip()]
    except ValueError:
        raise GoalError(f"bad topology {text!r}") from None
    if not counts or any(c < 1 for c in counts):
        raise GoalError("every team needs at least one worker")
    return counts


def _drain(handle) -> tuple[int, list]:
    answers = []
    while True:
        got = api.par_get_answers(handle, ("exact", 1024))
        if got is None:
            return len(answers), answers
        answers.extend(got[0])


def _run_once(handle, goal_text: str) -> tuple[float, int]:
    t0 = time.perf_counter()
    api.par_run_goal(handle, goal_text)
    count, _ = _drain(handle)
    return (time.perf_counter() - t0) * 1000.0, count


def _measure(topology, goal_text, strategy, transport, runs, options) -> dict:
    name = f"bench-{os.getpid()}-{time.monotonic_ns()}"
    handle = api.par_create_parallel_engine(
        name, topology, strategy=strategy, transport=transport, options=options)
    try:
        _run_once(handle, goal_text)   # warm-up: cold workers are not the benchmark
        times, counts = [], []
        for _ in range(runs):
            ms, count = _run_once(handle, goal_text)
            times.append(ms)
            counts.append(count)
    finally:
        api.par_free_parallel_engine(handle)
    if len(set(counts)) != 1:
        raise ProtocolViolation(f"answer counts varied across runs: {counts}")
    return {"times_ms": times, "mean_ms": statistics.fmean(times),
            "answers": counts[0]}


def cmd_bench(args) -> int:
    goal_text = args.goal
    strategy = args.strategy
    runs = args.runs
    latency = args.latency_ms / 1000.0
    options = EngineOptions(delay=(0, latency, latency) if latency > 0 else None)
    if args.topology_file:
        with open(args.topology_file) as fh:
            entries = parse_topology_file(fh.read())
        topology = [api.TeamSpec(f"{h}:{p}", w) for h, p, w in entries]
        topo_label = "[" + ",".join(str(w) for _, _, w in entries) + "]"
    else:
        counts = _parse_worker_counts(args.topology)
        topology = [api.TeamSpec("local", w) for w in counts]
        topo_label = "[" + ",".join(str(c) for c in counts) + "]"
    workers = sum(t.n_workers for t in topology)

    baseline = None
    cache = {}
    if args.baseline_file and os.path.exists(args.baseline_file):
        with open(args.baseline_file) as fh:
            cache = json.load(fh)
        baseline = cache.get(goal_text)
    if baseline is None:
        print(f"# measuring single-worker baseline for {goal_text} ...",
              file=sys.stderr)
        base_opts = EngineOptions()
        baseline = _measure([api.TeamSpec("local", 1)], goal_text, strategy,
                            "inproc", runs, base_opts)
        if args.baseline_file:
            cache[goal_text] = {"mean_ms": baseline["mean_ms"],
                                "answers": baseline["answers"]}
            with open(args.baseline_file, "w") as fh:
                json.dump(cache, fh, indent=1)

    result = _measure(topology, goal_text, strategy, args.transport, runs, options)
    if result["answers"] != baseline["answers"]:
        raise ProtocolViolation(
            f"answer count {result['answers']} differs from baseline "
            f"{baseline['answers']}")
    speedup = baseline["mean_ms"] / result["mean_ms"]

    per_run = " ".join(f"{t:9.1f}" for t in result["times_ms"])
    print(f"{'program':<16}{'topology':<14}{'strategy':<10}"
          f"{'workers':>8}{'mean_ms':>12}{'speedup':>9}")
    print(f"{goal_text:<16}{topo_label:<14}{strategy:<10}"
          f"{workers:>8}{result['mean_ms']:>12.1f}{speedup:>9.2f}")
    print(f"# per-run ms: {per_run}")
    print(f"# answers: {result['answers']} (baseline mean "
          f"{baseline['mean_ms']:.1f} ms)")
    if args.out:
        new = not os.path.exists(args.out)
        with open(args.out, "a") as fh:
            if new:
                fh.write("program,topology,strategy,workers,mean_ms,speedup\n")
            fh.write(f"{goal_text},\"{topo_label}\",{strategy},{workers},"
                     f"{result['mean_ms']:.3f},{speedup:.3f}\n")
    return 0


def cmd_oracle(args) -> int:
    spec = api.parse_goal(args.goal)
    api._validate_goal(spec)
    answers = enumerate_answers(get_program(spec.program), spec.args, spec.template)
    print(f"# {args.goal}: {sum(answers.values())} answers")
    if not args.count_only:
        for answer in sorted(answers.elements()):
            print(",".join(str(v) for v in answer))
    return 0


def cmd_serve_agent(args) -> int:
    from .agent import serve_agent

    def announce(port):
        print(f"agent listening on port {port}", flush=True)

    serve_agent(args.port, max_teams=args.max_teams, on_bound=announce)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="layered-or",
        description="two-level or-parallel search runtime")
    sub = parser.add_subparsers(dest="cmd", required=True)

    b = sub.add_parser("bench", help="run a goal across a topology and report speedup")
    b.add_argument("--topology", default="[1]", help='worker counts, e.g. "[8,8]"')
    b.add_argument("--topology-file", help="file of 'team <host>:<port> <n>' entries")
    b.add_argument("--strategy", choices=["vs", "hs"], default="vs")
    b.add_argument("--goal", required=True, help='e.g. "queens(12)"')
    b.add_argument("--runs", type=int, default=10)
    b.add_argument("--transport", choices=["inproc", "tcp"],
                   default=os.environ.get("LAYERED_OR_TRANSPORT", "inproc"))
    b.add_argument("--latency-ms", type=float, default=0.0,
                   help="added per-message latency, on either transport")
    b.add_argument("--baseline-file", help="json cache of single-worker baselines")
    b.add_argument("--out", help="append a CSV row to this file")
    b.set_defaults(fn=cmd_bench)

    o = sub.add_parser("oracle", help="sequential baseline; dumps the answer set")
    o.add_argument("--goal", required=True)
    o.add_argument("--count-only", action="store_true")
    o.set_defaults(fn=cmd_oracle)

    a = sub.add_parser("serve-agent", help="host teams for remote engines")
    a.add_argument("--port", type=int, required=True)
    a.add_argument("--max-teams", type=int, default=None,
                   help="exit after hosting this many teams (default: forever)")
    a.set_defaults(fn=cmd_serve_agent)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except GoalError as exc:
        print(f"goal error: {exc}", file=sys.stderr)
        return 2
    except (EngineError, ProtocolViolation) as exc:
        print(f"engine fault: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

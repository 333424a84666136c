"""The layered-or benchmark: one workload, one seed, one run.

    python3 benchmark/run.py --workload queens-team --seed 7 --seconds 20 --trace 0

Run from the root of a source checkout; the engine is imported from ``src``.
With ``--trace 0`` the run measures the end-to-end metrics named in
BENCHMARK.json; with ``--trace 1`` it measures the per-layer metrics. Each
metric is printed as ``name value unit``, and the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. A results file (and, when traced, a spans file) is written to
``benchmark/out/``. README.md beside this file explains the workloads and
what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from pathlib import Path
from random import Random
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPS = 24       # engines created and freed before and again after the measured
                      # phase, so setup_s, their median, spans the host's drift in a run
GOALS_UNTIL_S = 120   # no goal starts later than this into a run, which must end by 180 s


def _import_engine() -> None:
    src = ROOT / "src"
    if not (src / "layered_or" / "__init__.py").is_file():
        sys.exit(f"benchmark: no layered_or sources under {src}; "
                 f"run from the root of a source checkout")
    sys.path.insert(0, str(src))


def goal_tail(walls: list[float]):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(walls)
    best = None
    for p in (50, 75, 90, 95, 98, 99, 99.5, 99.9):
        if n * (100 - p) / 100 >= 10:
            best = p
    if best is None:
        return None
    ordered = sorted(walls)
    return {"percentile": best, "value_s": ordered[math.ceil(best / 100 * n) - 1],
            "samples": n}


def paired(phase) -> list[tuple]:
    """(goal result, its mean sequential time) for goals sampled sequentially."""
    seq = {g: statistics.fmean(ts) for g, ts in phase.seq_s.items()}
    return [(r, seq[r.goal]) for r in phase.results if r.goal in seq]


def end_to_end(phase, setups) -> dict:
    res = phase.results
    walls = [r.wall_s for r in res]
    firsts = [r.first_s for r in res if r.first_s is not None]
    return {
        "setup_s": statistics.median(setups),
        "goal_p50_s": statistics.median(walls),
        "first_answer_s": statistics.median(firsts) if firsts else math.nan,
        "answers_per_s": sum(r.answers for r in res) / sum(walls),
        "goals_per_s": len(res) / phase.elapsed_s,
        # per-goal ratios, so a few large goals of a mixed stream do not decide it
        "speedup": statistics.median(seq / r.wall_s for r, seq in paired(phase)),
        "rss_mb": phase.rss_mb,
    }


def per_layer(workload, goals, oracle_s, expected, frees, untraced, traced,
              rng, spans) -> dict:
    import layers

    seq = layers.sequential(goals, spans["layers"])
    distinct = list(dict.fromkeys(goals))
    run_loop = sum(seq[g].run_loop_s for g in distinct)
    backtracks = sum(seq[g].backtracks for g in distinct)
    values = {
        "engine.run_loop_s": run_loop / len(distinct),
        "engine.backtracks": float(backtracks),
        "engine.backtracks_per_s": backtracks / run_loop,
        "engine.oracle_ratio": run_loop / oracle_s,
    }
    stacks = layers.capture_stacks(goals, seq, rng)
    values.update(layers.team_layer(stacks, spans["layers"]))
    split_values, aux_blob = layers.splitting_layer(stacks, workload.strategy,
                                                   spans["layers"])
    values.update(split_values)
    batch = layers.answer_batch(expected, seq, rng)
    values.update(layers.transport_layer(batch, aux_blob, len(workload.topology),
                                         rng, spans["layers"]))
    values.update(layers.scheduler_layer(len(workload.topology), rng, spans["layers"]))

    res = untraced.results
    n = len(res)
    wall = sum(r.wall_s for r in res)
    pairs = paired(untraced)
    overhead = [r.wall_s - seq_s for r, seq_s in pairs]
    values["worker.answer_us"] = sum(overhead) / max(1, sum(r.answers for r, _ in pairs)) * 1e6
    values["worker.goal_overhead_s"] = statistics.median(overhead)

    kinds = traced.trace_kinds
    n_traced = len(traced.results)
    requested = kinds["share_requested"]
    values["worker.shares_requested"] = requested / n_traced
    values["worker.shares_accepted"] = kinds["share_accepted"] / n_traced
    values["worker.share_accept_ratio"] = kinds["share_accepted"] / requested if requested else 0.0
    values["worker.local_shares"] = kinds["shared_locally"] / n_traced
    values["worker.team_idle"] = kinds["team_idle"] / n_traced

    values["api.run_goal_us"] = statistics.median(r.run_goal_s for r in res) * 1e6
    values["api.get_answers_calls"] = sum(r.get_calls for r in res) / n
    values["api.wait_frac"] = sum(r.wait_s for r in res) / wall
    values["api.free_s"] = statistics.median(frees)

    untraced_p50 = statistics.median(r.wall_s for r in res)
    traced_p50 = statistics.median(r.wall_s for r in traced.results)
    values["trace.goal_p50_s"] = traced_p50
    values["trace.overhead_s"] = traced_p50 - untraced_p50
    self_times = spans["untraced"].self_times()
    for name in ("goal", "api.run_goal", "api.get_answers", "client.wait"):
        values[f"self.{name}_ms"] = self_times.get(name, 0.0) / n * 1e3
    return values


def run(workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One run; returns (metric values, results record)."""
    import layers
    from client import Client, Phase
    from machine import machine_record
    from spans import SpanLog

    stop_by = perf_counter() + GOALS_UNTIL_S
    spans = {name: SpanLog(enabled=trace)
             for name in ("setup", "layers", "untraced", "traced")}
    rng = Random(seed * 1_000_003 + 1)
    machine = machine_record(ROOT)
    goals = workload.goals(seed)
    expected, oracle_s = layers.oracle_answers(goals, spans["setup"])
    client = Client(workload, spans["setup"])
    tclient = Client(workload, spans["traced"], trace=True)
    setups, frees = [], []
    traced = Phase()

    def create_and_free() -> None:
        for _ in range(SETUP_REPS):
            setups.append(client.create())
            frees.append(client.free())

    try:
        create_and_free()
        measured = seconds / 2 if trace else seconds
        setups.append(client.create())
        client.spans = spans["untraced"]
        untraced = client.run_phase(goals, expected, measured,
                                    lambda goal: layers.sequential_pass(goal).run_loop_s,
                                    stop_by)
        client.free()
        client.spans = spans["setup"]
        create_and_free()
        if trace:
            traced = tclient.run_phase(goals, expected, measured, stop_by=stop_by)
            tclient.free()
    finally:
        client.close()
        tclient.close()
    if not untraced.results or (trace and not traced.results):
        sys.exit(f"benchmark: no goal passed; failures: {untraced.errors + traced.errors}")

    values = end_to_end(untraced, setups)
    if trace:
        values.update(per_layer(workload, goals, oracle_s, expected, frees,
                                untraced, traced, rng, spans))
        values["api.first_answer_s"] = values["first_answer_s"]
    attempted = untraced.attempted + traced.attempted
    failed = untraced.failed + traced.failed
    record = {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace,
        "machine": machine,
        "topology": list(workload.topology), "strategy": workload.strategy,
        "transport": workload.transport, "distinct_goals": len(expected),
        "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted,
        "errors": (untraced.errors + traced.errors)[:20],
        "time_lost_to_failures_s": untraced.lost_s + traced.lost_s,
        "leftover_processes_killed": client.leftovers_killed + tclient.leftovers_killed,
        "sequential_samples": sum(len(ts) for ts in untraced.seq_s.values()),
        "goal_tail": goal_tail([r.wall_s for r in untraced.results]),
        "trace_kinds": dict(traced.trace_kinds),
        "goal_wall_s": [r.wall_s for r in untraced.results],
        "first_answer_s": [r.first_s for r in untraced.results],
        "values": values,
    }
    if trace:
        OUT.mkdir(exist_ok=True)
        path = OUT / f"{workload.name}-seed{seed}.spans.jsonl"
        path.unlink(missing_ok=True)
        for name, log in spans.items():
            log.write(path, name)
        record["spans_file"] = str(path.relative_to(ROOT))
    return values, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_engine()
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in WORKLOADS:
        sys.exit(f"benchmark: unknown workload {args.workload!r}; "
                 f"known: {sorted(WORKLOADS)}")
    values, record = run(WORKLOADS[args.workload], args.seed, args.seconds,
                         bool(args.trace))

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        sys.exit(f"benchmark: metrics not measured: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    record["metrics"] = metrics
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str))

    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"first_answer_s {values['first_answer_s']:.6g} s (not gated: too few "
              f"goals per run on the queens workloads)")
    print(f"failed_frac {record['failed_frac']:.6g} of {record['attempted']} attempted goals")
    tail = record["goal_tail"]
    if tail is not None:
        print(f"goal_tail_s {tail['value_s']:.6g} s (p{tail['percentile']} of "
              f"{tail['samples']} goals)")
    for err in record["errors"]:
        print(f"# failed goal: {err}")
    print(json.dumps({"correct": record["failed"] == 0,
                      "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The engine surface that ``benchmark/`` calls, driven through its own code.

The benchmark's layer metrics call ``engine``, ``splitting``, ``team``,
``transport`` and ``scheduler`` directly, with the names, key sets and
argument orders they have. Running its layer functions on a small goal
here makes a change that breaks one of those calls fail the test suite
rather than a later benchmark run.
"""

import math
import sys
from pathlib import Path
from random import Random

import pytest

BENCHMARK = str(Path(__file__).resolve().parent.parent / "benchmark")


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, BENCHMARK)
    try:
        import layers
        from spans import SpanLog
        yield layers, SpanLog(enabled=False)
    finally:
        sys.path.remove(BENCHMARK)


def test_benchmark_layers_run_on_queens(bench):
    layers, log = bench
    goals = ["queens(7)"]
    rng = Random(7)
    expected, _ = layers.oracle_answers(goals, log)
    seq = layers.sequential(goals, log)
    assert seq["queens(7)"].answers == sum(expected["queens(7)"].values()) == 40
    stacks = layers.capture_stacks(goals, seq, rng)
    assert stacks, "no mid-search stack was captured"
    metrics = dict(layers.team_layer(stacks, log))
    split, aux_blob = layers.splitting_layer(stacks, "hs", log)
    metrics.update(split)
    batch = layers.answer_batch(expected, seq, rng)
    metrics.update(layers.transport_layer(batch, aux_blob, 2, rng, log))
    metrics.update(layers.scheduler_layer(2, rng, log))
    layer_names = {"team.take_us", "team.alloc_us", "team.publish_us",
                   "splitting.split_vs_us", "splitting.split_hs_us",
                   "splitting.serialize_us", "splitting.deserialize_us",
                   "splitting.install_us", "splitting.aux_bytes",
                   "transport.encode_frame_us", "transport.decode_frame_us",
                   "transport.encode_accept_us", "transport.decode_accept_us",
                   "transport.queue_rtt_us", "transport.tcp_rtt_us",
                   "scheduler.merge_us"}
    assert set(metrics) == layer_names
    assert all(math.isfinite(v) and v > 0 for v in metrics.values()), metrics

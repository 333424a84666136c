"""Command-line front end and the remote-team agent."""

import json
import socket
import struct
import time
from collections import Counter

from layered_or import api, cli, oracle
from layered_or.programs import get_program


def run_cli(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# -- oracle command ------------------------------------------------------------------

def test_oracle_command_matches_library_oracle(capsys):
    code, out, _ = run_cli(["oracle", "--goal", "queens(6)"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "# queens(6): 4 answers"
    dumped = Counter(tuple(int(v) for v in line.split(",")) for line in lines[1:])
    assert dumped == oracle.enumerate_answers(get_program("queens"), [6])


def test_oracle_command_count_only(capsys):
    code, out, _ = run_cli(["oracle", "--goal", "send_more", "--count-only"], capsys)
    assert code == 0
    assert out.strip() == "# send_more: 1 answers"


def test_oracle_rejects_bad_goal_with_exit_code_2(capsys):
    code, _, err = run_cli(["oracle", "--goal", "queens(8"], capsys)
    assert code == 2
    assert "column 9" in err


# -- bench command -------------------------------------------------------------------

def test_bench_emits_table_and_csv(tmp_path, capsys):
    out_csv = tmp_path / "table.csv"
    code, out, _ = run_cli(
        ["bench", "--topology", "[2]", "--goal", "queens(6)", "--runs", "2",
         "--out", str(out_csv)], capsys)
    assert code == 0
    assert "speedup" in out and "queens(6)" in out
    rows = out_csv.read_text().strip().splitlines()
    assert rows[0] == "program,topology,strategy,workers,mean_ms,speedup"
    cells = rows[1].split(",")
    assert cells[0] == "queens(6)"
    assert cells[2] == "vs" and cells[3] == "2"
    float(cells[4]), float(cells[5])


def test_bench_self_baseline_speedup_near_one(tmp_path, capsys):
    code, out, _ = run_cli(
        ["bench", "--topology", "[1]", "--goal", "queens(8)", "--runs", "5",
         "--baseline-file", str(tmp_path / "base.json")], capsys)
    assert code == 0
    row = [ln for ln in out.splitlines() if ln.startswith("queens(8)")][0]
    speedup = float(row.split()[-1])
    # the same configuration measured twice; bounds sized for noisy hosts
    assert 0.3 < speedup < 3.0


def test_bench_reuses_cached_baseline(tmp_path, capsys):
    base = tmp_path / "base.json"
    run_cli(["bench", "--topology", "[1]", "--goal", "queens(6)", "--runs", "1",
             "--baseline-file", str(base)], capsys)
    t0 = time.perf_counter()
    code, _, err = run_cli(
        ["bench", "--topology", "[1]", "--goal", "queens(6)", "--runs", "1",
         "--baseline-file", str(base)], capsys)
    assert code == 0
    assert "measuring single-worker baseline" not in err
    assert time.perf_counter() - t0 < 30


def test_bench_bad_topology_is_goal_error(capsys):
    code, _, _ = run_cli(["bench", "--topology", "4,4", "--goal", "queens(4)"],
                         capsys)
    assert code == 2


# -- serve-agent ---------------------------------------------------------------------

def test_engine_with_agent_hosted_team(agent):
    port = agent
    h = api.par_create_parallel_engine(
        "remote", [("local", 1, "b"), (f"127.0.0.1:{port}", 2, "b")],
        transport="tcp")
    api.par_run_goal(h, "queens(8)")
    got = Counter()
    while True:
        batch = api.par_get_answers(h, ("exact", 64))
        if batch is None:
            break
        got.update(batch[0])
    api.par_free_parallel_engine(h)
    assert got == oracle.enumerate_answers(get_program("queens"), [8])


def _ask_agent(port, line):
    """Send one request line to the agent: its json reply, or None if it
    closed the link."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(line)
        reply = sock.makefile("rb").readline()
    return json.loads(reply) if reply else None


def test_an_agent_answers_bad_create_requests_and_serves_on(agent):
    good = {"cmd": "create_team", "engine": "bad", "team_id": 1, "n_teams": 2,
            "n_workers": 1, "options": {"delay": None, "trace": False}}
    bad = [dict(good, options={"delay": None, "no_such_option": 1}),
           {k: v for k, v in good.items() if k != "n_workers"},
           [good], "create_team"]
    for req in bad:
        assert "error" in _ask_agent(agent, json.dumps(req).encode() + b"\n"), req
    assert "error" in _ask_agent(agent, b'{"cmd": "\xff\xfe"}\n'), "bytes that are not UTF-8"
    # a link reset in the middle of a request
    sock = socket.create_connection(("127.0.0.1", agent))
    sock.sendall(b'{"cmd": "create_te')
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
    sock.close()
    h = api.par_create_parallel_engine(
        "after_bad", [("local", 1, "b"), (f"127.0.0.1:{agent}", 2, "b")], transport="tcp")
    try:
        api.par_run_goal(h, "queens(6)")
        got = Counter()
        while (batch := api.par_get_answers(h, ("exact", 64))) is not None:
            got.update(batch[0])
    finally:
        api.par_free_parallel_engine(h)
    assert got == oracle.enumerate_answers(get_program("queens"), [6])


def test_bench_with_topology_file_of_agents(agent, tmp_path, capsys):
    port = agent
    topo = tmp_path / "topo"
    topo.write_text(f"team 127.0.0.1:{port} 1\nteam 127.0.0.1:{port} 2\n")
    code, out, _ = run_cli(
        ["bench", "--topology-file", str(topo), "--goal", "queens(6)",
         "--runs", "1", "--transport", "tcp"], capsys)
    assert code == 0
    assert "[1,2]" in out

"""Engine lifecycle API: creation, goal submission, answer retrieval, teardown."""

import time

import pytest

from layered_or import api
from layered_or.api import GoalSpec, parse_goal
from layered_or.errors import EngineCreationError, GoalError


def make(name, counts=(2,), **kw):
    return api.par_create_parallel_engine(
        name, [("local", w, "builtin") for w in counts], **kw)


def drain_all(h):
    got = []
    while True:
        batch = api.par_get_answers(h, ("exact", 64))
        if batch is None:
            return got
        got.extend(batch[0])


# -- parse_goal -------------------------------------------------------------------

def test_parse_plain_call():
    assert parse_goal("queens(8)") == GoalSpec("queens", [8], None)


def test_parse_no_args_with_template():
    assert parse_goal("send_more -> Y") == GoalSpec("send_more", [], "Y")


def test_parse_is_whitespace_insensitive():
    assert parse_goal("  queens ( 8 , 3 )  ->  q1 ") == GoalSpec("queens", [8, 3], "q1")


def test_parse_atom_arguments():
    assert parse_goal("map_colouring(small)") == GoalSpec("map_colouring", ["small"], None)


def test_parse_unterminated_call_reports_column():
    with pytest.raises(GoalError, match="column 9"):
        parse_goal("queens(8")


def test_parse_rejects_trailing_junk():
    with pytest.raises(GoalError):
        parse_goal("queens(8) extra")
    with pytest.raises(GoalError):
        parse_goal("(8)")


# -- creation ---------------------------------------------------------------------

def test_create_three_team_topology():
    h = api.par_create_parallel_engine(
        "layout", [("local", 3, "p"), ("local", 4, "p"), ("local", 2, "p")])
    assert len(h.topology) == 3
    assert sum(t.n_workers for t in h.topology) == 9
    assert h.state == api.READY
    api.par_free_parallel_engine(h)


def test_duplicate_name_rejected_and_existing_engine_untouched():
    h = make("dup")
    with pytest.raises(EngineCreationError):
        make("dup")
    assert h.state == api.READY
    api.par_run_goal(h, "queens(6)")
    assert len(drain_all(h)) == 4
    api.par_free_parallel_engine(h)


def test_zero_workers_rejected():
    with pytest.raises(EngineCreationError):
        make("zero", counts=(0,))


def test_unreachable_agent_host_fails_fast():
    with pytest.raises(EngineCreationError):
        api.par_create_parallel_engine(
            "gone", [("127.0.0.1:1", 1, "p")], transport="tcp")


def test_remote_hosts_require_tcp():
    with pytest.raises(EngineCreationError):
        api.par_create_parallel_engine("mix", [("127.0.0.1:9999", 1, "p")],
                                       transport="inproc")


# -- par_run_goal -------------------------------------------------------------------

def test_run_goal_returns_before_answers_exist():
    h = make("async")
    t0 = time.perf_counter()
    api.par_run_goal(h, "queens(8)")
    assert time.perf_counter() - t0 < 0.5
    assert h.state == api.RUNNING
    # probe may legitimately say "nothing yet" right after submission
    api.par_probe_answers(h)
    assert len(drain_all(h)) == 92
    api.par_free_parallel_engine(h)


def test_run_on_running_engine_is_an_error():
    h = make("busy")
    api.par_run_goal(h, "queens(8)")
    with pytest.raises(GoalError):
        api.par_run_goal(h, "queens(6)")
    drain_all(h)
    api.par_free_parallel_engine(h)


def test_unknown_program_and_arity_mismatch():
    h = make("vals")
    with pytest.raises(GoalError):
        api.par_run_goal(h, "no_such_program(3)")
    with pytest.raises(GoalError):
        api.par_run_goal(h, "queens(8,9)")
    with pytest.raises(GoalError):
        api.par_run_goal(h, "queens(999)")   # rejected by the program's setup
    with pytest.raises(GoalError):
        api.par_run_goal(h, "queens(8) -> nope")
    with pytest.raises(GoalError, match="no cell"):
        api.par_run_goal(h, "wide(0,1)")     # every answer batch needs a width
    api.par_free_parallel_engine(h)


def test_template_narrows_answers_to_one_slot():
    h = make("tmpl")
    api.par_run_goal(h, "send_more -> Y")
    assert drain_all(h) == [(2,)]
    api.par_free_parallel_engine(h)


def test_sequential_goal_reuse():
    h = make("again", counts=(2, 2))
    for goal, count in (("queens(6)", 4), ("queens(8)", 92), ("send_more", 1)):
        api.par_run_goal(h, goal)
        assert len(drain_all(h)) == count
    api.par_free_parallel_engine(h)


# -- par_probe_answers ---------------------------------------------------------------

def test_probe_before_any_goal_is_an_error():
    h = make("probe0")
    with pytest.raises(GoalError):
        api.par_probe_answers(h)
    api.par_free_parallel_engine(h)


def test_probe_true_on_finish_even_with_zero_answers():
    h = make("probe1")
    api.par_run_goal(h, "queens(3)")   # no solutions
    deadline = time.monotonic() + 10
    while not api.par_probe_answers(h):
        assert time.monotonic() < deadline
        time.sleep(0.002)
    assert h.state == api.FINISHED
    assert api.par_get_answers(h, ("max", 5)) is None
    api.par_free_parallel_engine(h)


def test_probe_true_when_buffer_nonempty():
    h = make("probe2")
    api.par_run_goal(h, "queens(6)")
    deadline = time.monotonic() + 10
    while not api.par_probe_answers(h):
        assert time.monotonic() < deadline
        time.sleep(0.002)
    assert api.par_probe_answers(h)
    api.par_free_parallel_engine(h)


# -- par_get_answers ---------------------------------------------------------------

def wait_finished(h, budget=10.0):
    deadline = time.monotonic() + budget
    while h.state != api.FINISHED:
        api.par_probe_answers(h)
        assert time.monotonic() < deadline
        time.sleep(0.002)


def test_max_returns_available_without_blocking():
    h = make("max")
    api.par_run_goal(h, "queens(6)")
    wait_finished(h)
    got, n = api.par_get_answers(h, ("max", 10))
    assert n == 4 and len(got) == 4
    api.par_free_parallel_engine(h)


def test_exact_blocks_until_finish_returns_remainder():
    h = make("exact")
    api.par_run_goal(h, "queens(6)")
    got, n = api.par_get_answers(h, ("exact", 10))
    assert n == 4
    assert api.par_get_answers(h, ("exact", 1)) is None
    api.par_free_parallel_engine(h)


def test_exact_wait_blocks_in_the_poller_instead_of_spinning():
    # nsort(8) finds its one answer near the end of a search of about 0.4 s
    # on one worker, so an exact wait for two answers lasts the whole goal
    h = make("idlewait", counts=(1,))
    waited = cpu = 0.0
    for _ in range(10):
        api.par_run_goal(h, "nsort(8)")
        t0, c0 = time.monotonic(), time.process_time()
        got, n = api.par_get_answers(h, ("exact", 2))
        cpu += time.process_time() - c0
        waited += time.monotonic() - t0
        assert n == 1 and api.par_get_answers(h, ("exact", 1)) is None
        if waited >= 0.3:
            break
    assert waited >= 0.3
    assert cpu < 0.02, f"exact wait used {cpu * 1e3:.1f} ms of CPU over {waited:.2f} s"
    api.par_free_parallel_engine(h)


def test_batches_are_disjoint_and_exhaustive():
    h = make("batch")
    api.par_run_goal(h, "queens(8)")
    seen = []
    while True:
        batch = api.par_get_answers(h, ("exact", 7))
        if batch is None:
            break
        seen.extend(batch[0])
    assert len(seen) == 92
    assert len(set(seen)) == 92
    api.par_free_parallel_engine(h)


def test_bad_modes_rejected():
    h = make("modes")
    api.par_run_goal(h, "queens(4)")
    with pytest.raises(GoalError):
        api.par_get_answers(h, ("max", 0))
    with pytest.raises(GoalError):
        api.par_get_answers(h, ("sometimes", 3))
    drain_all(h)
    api.par_free_parallel_engine(h)


# -- faults --------------------------------------------------------------------------

def test_program_fault_aborts_goal_and_surfaces_to_client():
    h = make("boom", counts=(2,))
    api.par_run_goal(h, "faulty(64)")
    with pytest.raises(GoalError, match="synthetic fault"):
        while True:
            if api.par_get_answers(h, ("exact", 1000)) is None:
                break
    # the engine survives and accepts the next goal
    api.par_run_goal(h, "queens(6)")
    assert len(drain_all(h)) == 4
    api.par_free_parallel_engine(h)


# -- par_free_parallel_engine ----------------------------------------------------------

def test_free_ready_engine_and_name_reuse():
    h = make("reuse-name")
    api.par_free_parallel_engine(h)
    assert h.state == api.FREED
    h2 = make("reuse-name")
    api.par_free_parallel_engine(h2)


def test_free_mid_goal_leaves_no_processes():
    h = make("midgoal", counts=(2, 2))
    api.par_run_goal(h, "queens(10)")
    procs = list(h._procs)
    api.par_free_parallel_engine(h)
    deadline = time.monotonic() + 5
    while any(p.is_alive() for p in procs):
        assert time.monotonic() < deadline
        time.sleep(0.01)


def test_double_free_is_an_idempotent_warning():
    h = make("twice")
    api.par_free_parallel_engine(h)
    api.par_free_parallel_engine(h)   # warns, does not raise
    assert h.state == api.FREED


def test_calls_after_free_are_errors():
    h = make("after")
    api.par_free_parallel_engine(h)
    with pytest.raises(GoalError):
        api.par_run_goal(h, "queens(4)")
    with pytest.raises(GoalError):
        api.par_get_answers(h, ("max", 1))

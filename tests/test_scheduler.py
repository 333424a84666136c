"""Load-array protocol and scheduling decision kernels."""

from hypothesis import given, settings
from hypothesis import strategies as st

from layered_or.scheduler import (
    merge_load_arrays,
    record_receiver_busy,
    select_request_target,
    select_sharer,
)

entries = st.tuples(st.integers(-1, 60), st.integers(0, 40))
arrays = st.integers(2, 6).flatmap(
    lambda n: st.tuples(st.lists(entries, min_size=n, max_size=n),
                        st.lists(entries, min_size=n, max_size=n)))


# -- merge ---------------------------------------------------------------------

def test_merge_younger_timestamp_wins():
    local = [(4, 2), (0, 0)]
    received = [(-1, 5), (0, 0)]
    assert merge_load_arrays(local, received)[0] == (-1, 5)


def test_merge_ignores_older_timestamp():
    local = [(4, 7), (0, 0)]
    received = [(9, 3), (0, 0)]
    assert merge_load_arrays(local, received)[0] == (4, 7)


def test_merge_keeps_own_entry():
    local = [(7, 3), (0, 0)]
    received = [(-1, 9), (0, 0)]
    assert merge_load_arrays(local, received, keep=0)[0] == (7, 3)


def test_merge_equal_timestamps_prefer_busy():
    # a giver's "you just got work" record outlives the receiver's own
    # equally-stamped idle entry, whichever merge order applies
    local = [(-1, 4)]
    received = [(6, 4)]
    assert merge_load_arrays(local, received)[0] == (6, 4)
    assert merge_load_arrays(received, local)[0] == (6, 4)


@given(arrays)
@settings(max_examples=200, deadline=None)
def test_merge_is_idempotent_and_commutative(pair):
    a, b = pair
    ab = merge_load_arrays(a, b)
    ba = merge_load_arrays(b, a)
    assert ab == ba
    assert merge_load_arrays(ab, b) == ab
    assert merge_load_arrays(a, a) == a


@given(arrays.flatmap(lambda p: st.tuples(st.just(p[0]), st.just(p[1]),
                                          st.lists(entries, min_size=len(p[0]),
                                                   max_size=len(p[0])))))
@settings(max_examples=200, deadline=None)
def test_merge_is_associative(triple):
    a, b, c = triple
    left = merge_load_arrays(merge_load_arrays(a, b), c)
    right = merge_load_arrays(a, merge_load_arrays(b, c))
    assert left == right


def test_record_receiver_busy_defeats_equal_stamp_idle():
    giver = [(5, 9), (-1, 3)]
    record_receiver_busy(giver, 1, 4)
    assert giver[1] == (4, 3)
    stale = [(0, 0), (-1, 3)]
    assert merge_load_arrays(stale, giver)[1] == (4, 3)


# -- target selection ----------------------------------------------------------

def test_request_target_takes_argmax():
    loads = [(-1, 0), (4, 1), (9, 1)]
    assert select_request_target(loads, 0) == 2


def test_request_target_accepts_load_zero_teams():
    loads = [(-1, 0), (0, 1), (-1, 2)]
    assert select_request_target(loads, 0) == 1


def test_request_target_none_when_all_idle():
    loads = [(-1, 0), (-1, 1), (-1, 2)]
    assert select_request_target(loads, 0) is None


def test_request_target_breaks_ties_low():
    loads = [(-1, 0), (3, 1), (3, 1)]
    assert select_request_target(loads, 0) == 1


def test_refusal_with_newer_info_redirects_the_next_request():
    # scripted 3-team exchange: team 0 idles holding a stale view of team 1;
    # team 1's refusal piggybacks fresher knowledge that team 2 is the busy one
    view = [(-1, 5), (4, 2), (-1, 1)]
    assert select_request_target(view, 0) == 1
    refusal_piggyback = [(-1, 5), (-1, 3), (9, 4)]
    view = merge_load_arrays(view, refusal_piggyback, keep=0)
    assert view[1] == (-1, 3) and view[2] == (9, 4)
    assert select_request_target(view, 0) == 2


def test_local_target_argmax_and_tie_break():
    busy = [False, False, False]
    assert select_sharer([0, 5, 2], busy, 0) == 1
    assert select_sharer([0, 3, 3], busy, 0) == 1
    assert select_sharer([9, 1], [False, False], 0) == 1  # never itself
    # a busy teammate is asked even with load 0: its work may sit in frames
    assert select_sharer([0, 0, 0], busy, 0) == 1
    assert select_sharer([0, 0, 0], [False, True, False], 0) == 2
    assert select_sharer([0, 7, 7], [True, True, True], 0) is None


def test_delegate_prefers_load_then_rank():
    assert select_sharer([0, 6, 2], [True, False, False], 2) == 1
    assert select_sharer([0, 4, 4], [False, False, False], 0) == 1
    assert select_sharer([3, 3, 1], [False, False, False], 2) == 0  # ties go low, the master too
    assert select_sharer([0, 0, 0], [False, False, False], 2) == 0
    # idle workers hold nothing to split, whatever their load register reads
    assert select_sharer([0, 9, 0], [True, True, True], 2) is None

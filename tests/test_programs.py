"""Program kernels against their reference versions and known answer counts.

The built-in programs read cells by indexing ``store.store``. The reference
kernels below are the earlier versions that read one cell per ``read`` call;
walking whole trees of small goals with both must give the same node kind,
the same alternatives in the same order and the same store at every node.
``ref_queens`` computes the attack masks it pushes from the placed rows
alone, so that comparison also checks the kernel's incremental masks.
"""

import random
from collections import Counter

import pytest

from layered_or import oracle
from layered_or.engine import (
    EXPAND_ANSWER,
    EXPAND_CHOICE,
    EXPAND_FAIL,
    WorkerState,
    run_loop,
    setup_goal,
)
from layered_or.programs import _M64, _MAPS, REGISTRY, RandTree, _mix64, get_program

_FAIL = (EXPAND_FAIL, None)
_ANSWER = (EXPAND_ANSWER, None)


class _RefStore:
    """Copying store with the per-cell ``read`` the reference kernels use."""

    def __init__(self, cells=None):
        self.store = [] if cells is None else cells

    def push_cell(self, value):
        self.store.append(value)
        return len(self.store) - 1

    def read(self, idx):
        return self.store[idx]

    def write(self, idx, value):
        self.store[idx] = value

    def fork(self):
        return _RefStore(list(self.store))


# -- reference kernels ---------------------------------------------------------

def ref_queens(store, tag):
    n = store.read(0)
    if tag == 0:
        depth = 0
    else:
        row, col = divmod(tag - 1, n)
        store.write(1 + row, col + 1)
        depth = row + 1
        if depth == n:
            return _ANSWER
    alts = []
    for col in range(n):
        ok = True
        for r in range(depth):
            c = store.read(1 + r) - 1
            if c == col or depth - r == abs(col - c):
                ok = False
                break
        if ok:
            alts.append(1 + depth * n + col)
    if not alts:
        return _FAIL
    if depth:
        # the next row's attack masks, from the placed rows alone
        cols = ld = rd = 0
        for r in range(depth):
            c = store.read(1 + r) - 1
            d = depth - r
            cols |= 1 << c
            if c + d < n:
                ld |= 1 << c + d
            if c - d >= 0:
                rd |= 1 << c - d
        for mask in (cols, ld, rd):
            store.push_cell(mask)
    return (EXPAND_CHOICE, alts)


_JUMPS = ((1, 2), (2, 1), (2, -1), (1, -2), (-1, -2), (-2, -1), (-2, 1), (-1, 2))


def ref_knight_move(store, tag):
    n = store.read(0)
    nn = n * n
    if tag == 0:
        step, sq = 1, 0
    else:
        step, sq = divmod(tag - 1, nn)
        store.write(1 + sq, step)
    if step == nn:
        return _ANSWER
    row, col = divmod(sq, n)
    alts = []
    for dr, dc in _JUMPS:
        r, c = row + dr, col + dc
        if 0 <= r < n and 0 <= c < n and store.read(1 + r * n + c) == 0:
            alts.append(1 + (step + 1) * nn + r * n + c)
    return (EXPAND_CHOICE, alts) if alts else _FAIL


def ref_map_colouring(store, tag):
    colours = 4
    preset = store.read(0)
    n = store.read(1)
    adjacency = _MAPS[preset]
    if tag == 0:
        region = 0
    else:
        region, colour = divmod(tag - 1, colours)
        store.write(2 + region, colour + 1)
        region += 1
        if region == n:
            return _ANSWER
    used = set()
    for nb in adjacency[region]:
        used.add(store.read(2 + nb))
    alts = [1 + region * colours + c for c in range(colours) if c + 1 not in used]
    return (EXPAND_CHOICE, alts) if alts else _FAIL


def _ref_line_ok(store, cells, magic):
    total = 0
    for idx in cells:
        v = store.read(1 + idx)
        if v == 0:
            return True
        total += v
    return total == magic


def ref_magic_square(store, tag):
    n = store.read(0)
    nn = n * n
    magic = n * (nn + 1) // 2
    if tag == 0:
        pos = 0
    else:
        pos, value = divmod(tag - 1, nn)
        store.write(1 + pos, value + 1)
        row, col = divmod(pos, n)
        if col == n - 1 and not _ref_line_ok(store, range(row * n, row * n + n), magic):
            return _FAIL
        if row == n - 1:
            if not _ref_line_ok(store, range(col, nn, n), magic):
                return _FAIL
            if col == n - 1 and not _ref_line_ok(store, range(0, nn, n + 1), magic):
                return _FAIL
            if col == 0 and not _ref_line_ok(store, range(n - 1, nn - 1, n - 1), magic):
                return _FAIL
        pos += 1
        if pos == nn:
            return _ANSWER
    taken = {store.read(1 + i) for i in range(pos)}
    alts = [1 + pos * nn + v for v in range(nn) if v + 1 not in taken]
    return (EXPAND_CHOICE, alts) if alts else _FAIL


_LETTERS = ("D", "E", "Y", "N", "R", "O", "S", "M")


def _ref_columns_ok(store, bound):
    d, e, y, n, r, o, s, m = (store.read(i) if i < bound else -1 for i in range(8))
    if y >= 0 and (d + e) % 10 != y:
        return False
    if r >= 0:
        c1 = (d + e) // 10
        if (n + r + c1) % 10 != e:
            return False
    if o >= 0:
        c1 = (d + e) // 10
        c2 = (n + r + c1) // 10
        if (e + o + c2) % 10 != n:
            return False
    if m >= 0:
        c1 = (d + e) // 10
        c2 = (n + r + c1) // 10
        c3 = (e + o + c2) // 10
        if (s + m + c3) % 10 != o:
            return False
        if (s + m + c3) // 10 != m:
            return False
    return True


def ref_send_more(store, tag):
    if tag == 0:
        pos = 0
    else:
        pos, digit = divmod(tag - 1, 10)
        store.write(pos, digit)
        pos += 1
        if not _ref_columns_ok(store, pos):
            return _FAIL
        if pos == len(_LETTERS):
            return _ANSWER
    used = {store.read(i) for i in range(pos)}
    lo = 1 if _LETTERS[pos] in ("S", "M") else 0
    alts = [1 + pos * 10 + d for d in range(lo, 10) if d not in used]
    return (EXPAND_CHOICE, alts) if alts else _FAIL


def ref_nsort(store, tag):
    n = store.read(0)
    if tag == 0:
        pos = 0
    else:
        pos, pick = divmod(tag - 1, n)
        store.write(1 + n + pos, store.read(1 + pick))
        pos += 1
        if pos == n:
            out = [store.read(1 + n + i) for i in range(n)]
            return _ANSWER if all(out[i] <= out[i + 1] for i in range(n - 1)) else _FAIL
    chosen = {store.read(1 + n + i) for i in range(pos)}
    alts = [1 + pos * n + p for p in range(n) if store.read(1 + p) not in chosen]
    return (EXPAND_CHOICE, alts) if alts else _FAIL


def ref_spread(store, tag):
    depth = store.read(0)
    branch = store.read(1)
    if tag == 0:
        level = 0
    else:
        level, pick = divmod(tag - 1, branch)
        store.write(2 + level, pick)
        level += 1
        if level == depth:
            return _ANSWER
    return (EXPAND_CHOICE, [1 + level * branch + b for b in range(branch)])


def ref_rand_tree(store, tag):
    window = RandTree._WINDOW
    seed = store.read(0)
    max_depth = store.read(1)
    branch = store.read(2)
    level = tag & 63
    state = tag >> 6
    r = _mix64(state ^ (seed * 0x9E3779B97F4A7C15 & _M64))
    if level > 0:
        store.write(3 + (r % window), (r >> 8) & 0xFF)
    if level >= max_depth:
        return _ANSWER if r % 4 else _FAIL
    roll = (r >> 16) % 16
    if roll == 0:
        return _FAIL
    if roll <= 2 and level > 0:
        return _ANSWER
    width = 1 + (r >> 32) % branch
    alts = []
    for i in range(width):
        child = _mix64(state * 0x100000001B3 + i + 1) >> 8
        alts.append(((child << 6) | (level + 1)) & 0x3FFFFFFFFFFFFFFF)
    return (EXPAND_CHOICE, alts)


def ref_faulty(store, tag):
    threshold = store.read(0)
    if tag >= threshold:
        raise RuntimeError(f"synthetic fault at node {tag}")
    return (EXPAND_CHOICE, [2 * tag + 1, 2 * tag + 2])


def ref_wide(store, tag):
    depth = store.read(0)
    level = 0
    if tag != 0:
        level, pick = divmod(tag - 1, 2)
        store.write(2 + level, pick)
        level += 1
        if level == depth:
            return _ANSWER
    for _ in range(store.read(1)):
        store.push_cell(level)
    return (EXPAND_CHOICE, [1 + 2 * level, 2 + 2 * level])


REFERENCE = {
    "queens": ref_queens, "knight_move": ref_knight_move,
    "map_colouring": ref_map_colouring, "magic_square": ref_magic_square,
    "send_more": ref_send_more, "nsort": ref_nsort, "spread": ref_spread,
    "rand_tree": ref_rand_tree, "faulty": ref_faulty, "wide": ref_wide,
}


def walk_both(name, args):
    """Expand every node of the goal's tree with both kernels; return node count."""
    program = get_program(name)
    reference = REFERENCE[name]
    root = _RefStore()
    program.setup(root, args)
    stack = [(root, program.root_tag)]
    nodes = 0
    while stack:
        store, tag = stack.pop()
        nodes += 1
        mine = store.fork()
        ref = store.fork()
        try:
            want = reference(ref, tag)
        except RuntimeError as exc:
            with pytest.raises(RuntimeError, match=str(exc)):
                program.expand(mine, tag)
            continue
        got = program.expand(mine, tag)
        assert got == want, f"{name}{args} tag {tag}: {got} != {want}"
        assert mine.store == ref.store, f"{name}{args} tag {tag}: stores differ"
        if want[0] == EXPAND_CHOICE:
            stack.extend((ref, alt) for alt in reversed(want[1]))
    return nodes


@pytest.mark.parametrize("name,args", [
    ("queens", [1]), ("queens", [4]), ("queens", [7]),
    ("knight_move", [4]),
    ("map_colouring", [1]), ("map_colouring", [2]),
    ("magic_square", [2]), ("magic_square", [3]),
    ("send_more", []),
    ("nsort", [5]),
    ("spread", [3, 4]),
    ("rand_tree", [42, 6, 4]), ("rand_tree", [7, 8, 5]),
    ("faulty", [40]),
    ("queens", [9]),
    ("wide", [4, 3]),
])
def test_kernel_matches_reference_at_every_node(name, args):
    assert walk_both(name, args) > 1


def test_queens_kernel_matches_reference_on_random_paths_of_the_largest_board():
    # queens(24) is far too big to walk whole; follow seeded random paths
    # from the root, comparing every node on the way; the last path places
    # all 24 queens, in columns 2, 4, ..., 24 and then 1, 3, ..., 23
    # (counting from 1), a known solution
    program = get_program("queens")
    rnd = random.Random(24)
    solution = list(range(1, 24, 2)) + list(range(0, 24, 2))
    depths = []
    for path in range(301):
        store = _RefStore()
        program.setup(store, [24])
        tag = program.root_tag
        depth = 0
        while True:
            mine, ref = store.fork(), store.fork()
            want = ref_queens(ref, tag)
            assert program.expand(mine, tag) == want, f"queens(24) tag {tag}"
            assert mine.store == ref.store, f"queens(24) tag {tag}: stores differ"
            if want[0] != EXPAND_CHOICE:
                break
            if path == 300:
                tag = 1 + depth * 24 + solution[depth]
                assert tag in want[1]
            else:
                tag = rnd.choice(want[1])
            store = ref
            depth += 1
        depths.append(depth)
    assert want[0] == EXPAND_ANSWER and depths[-1] == 24
    assert sum(depths) > 3000


def test_every_builtin_program_has_a_reference():
    assert set(REFERENCE) == set(REGISTRY)


# OEIS A000170: solutions of the n-queens problem
A000170 = [1, 0, 0, 2, 10, 4, 40, 92, 352, 724]


@pytest.mark.parametrize("n", range(1, 11))
def test_queens_answer_counts_match_oeis(n):
    program = get_program("queens")
    ws = WorkerState()
    setup_goal(ws, program, [n], None)
    got = Counter()
    run_loop(ws, lambda a: got.update([a]), start_tag=program.root_tag)
    assert sum(got.values()) == A000170[n - 1]
    assert got == oracle.enumerate_answers(program, [n])


def test_queens11_backtracks_and_answers():
    program = get_program("queens")
    ws = WorkerState()
    setup_goal(ws, program, [11], None)
    answers = []
    run_loop(ws, answers.append, start_tag=program.root_tag)
    assert ws.backtracks == 61_076
    assert len(answers) == 2_680

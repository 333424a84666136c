"""Built-in search programs: benchmarks plus synthetic trees for tests.

A program is stateless: ``expand`` derives everything from the store contents
and the node tag, so identical (store, tag) pairs expand identically on any
worker of any team. Tags are plain non-negative integers small enough for a
signed 64-bit wire field. All mutable state lives in store cells.

Read through ``store.store``, write through ``write``: ``expand`` reads cells
by indexing or slicing the cell list that both ``WorkerState`` and the
oracle's copy store expose, with no method call per cell, and changes them
only through the trailed ``write`` so backtracking can undo the change.

``Queens`` keeps its whole state in cells it pushes, so it writes no cell
and never touches the trail. Setup pushes ``n`` and the column,
left-diagonal and right-diagonal masks of row 0. A placed row pushes four
cells, its queen's column + 1 and the three masks of the next row, so the
queen of row ``i`` sits in cell ``4 + 4*i``, and a node finds the masks of
the row it places in the top three cells: the engine expands a tag on the
store its parent's expansion left, and restores exactly that store when it
backtracks into the parent. The last row pushes only its queen. While the
next row has exactly one free column, the same expansion places that forced
queen too, so an expansion ends in an answer, a failure or a choice of at
least two columns, and no queens node is determinate. The free columns of
a row are the clear bits of its three masks, emitted lowest first, so the
alternatives and their order are those of a scan over the columns. New
cells are pushed by extending ``store.store``, which, like ``push_cell``,
needs no trail.

``REGISTRY`` holds the built-in programs; ``register`` adds one, such as a
test program, before the engine processes that must see it are forked.
"""

from __future__ import annotations

from .engine import EXPAND_ANSWER, EXPAND_CHOICE, EXPAND_FAIL

_FAIL = (EXPAND_FAIL, None)
_ANSWER = (EXPAND_ANSWER, None)

_M64 = (1 << 64) - 1

# queens: the largest board; its masks stay below 2**24
_QUEENS_MAX = 24


def _mix64(x: int) -> int:
    """splitmix64 finalizer; process-independent replacement for hash()."""
    x = (x + 0x9E3779B97F4A7C15) & _M64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _M64
    return x ^ (x >> 31)


class Queens:
    """Place one queen per row; alternatives are the non-attacked columns."""

    name = "queens"
    arity = 1
    root_tag = 0

    def setup(self, store, args):
        n = int(args[0])
        if not 1 <= n <= _QUEENS_MAX:
            raise ValueError("queens arity out of range")
        store.push_cell(n)
        for _ in range(3):
            store.push_cell(0)  # columns, left and right diagonals of row 0

    def slots(self, args):
        n = int(args[0])
        return {f"q{i + 1}": 4 + 4 * i for i in range(n)}

    def expand(self, store, tag):
        cells = store.store
        n = cells[0]
        full = (1 << n) - 1
        cols, ld, rd = cells[-3:]     # the masks of the row to place next
        if tag:
            row, col = divmod(tag - 1, n)
            free = 1 << col           # the tag's column, placed as a forced one
        else:
            row = 0
            free = full & ~(cols | ld | rd)
        while not free & (free - 1):  # one column to place
            if not free:
                return _FAIL
            row += 1
            if row == n:
                cells.append(free.bit_length())
                return _ANSWER
            cols |= free
            ld = (ld | free) << 1 & full
            rd = (rd | free) >> 1
            cells.extend((free.bit_length(), cols, ld, rd))
            free = full & ~(cols | ld | rd)
        base = row * n                # tag of column c is base + c + 1
        alts = []
        while free:
            low = free & -free
            alts.append(base + low.bit_length())
            free ^= low
        return (EXPAND_CHOICE, alts)


class KnightMove:
    """Open knight's tours on an n x n board starting in the corner."""

    name = "knight_move"
    arity = 1
    root_tag = 0

    _JUMPS = ((1, 2), (2, 1), (2, -1), (1, -2), (-1, -2), (-2, -1), (-2, 1), (-1, 2))

    def setup(self, store, args):
        n = int(args[0])
        if not 3 <= n <= 8:
            raise ValueError("knight_move board size out of range")
        store.push_cell(n)
        store.push_cell(1)  # corner square visited at step 1
        for _ in range(n * n - 1):
            store.push_cell(0)

    def slots(self, args):
        n = int(args[0])
        return {f"c{i}": 1 + i for i in range(n * n)}

    def expand(self, store, tag):
        cells = store.store
        n = cells[0]
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
        for dr, dc in self._JUMPS:
            r, c = row + dr, col + dc
            if 0 <= r < n and 0 <= c < n and cells[1 + r * n + c] == 0:
                alts.append(1 + (step + 1) * nn + r * n + c)
        return (EXPAND_CHOICE, alts) if alts else _FAIL


# region adjacency of the built-in maps, index -> lower-numbered neighbours
_MAPS = {
    # 13 regions, planar-ish, coloured with 4 colours
    1: (
        (), (0,), (0, 1), (1, 2), (0, 2, 3), (3, 4), (4, 5), (2, 4, 6),
        (6, 7), (5, 6, 8), (7, 8), (8, 9, 10), (10, 11),
    ),
    # 10 regions, denser
    2: (
        (), (0,), (0, 1), (0, 2), (1, 2, 3), (2, 3, 4), (3, 4, 5),
        (4, 5, 6), (5, 6, 7), (6, 7, 8),
    ),
}


class MapColouring:
    """Colour a built-in region map with 4 colours, region by region."""

    name = "map_colouring"
    arity = 1
    root_tag = 0
    colours = 4

    def setup(self, store, args):
        preset = int(args[0])
        if preset not in _MAPS:
            raise ValueError(f"unknown map preset {preset}")
        regions = _MAPS[preset]
        store.push_cell(preset)
        store.push_cell(len(regions))
        for _ in regions:
            store.push_cell(0)

    def slots(self, args):
        regions = _MAPS[int(args[0])]
        return {f"r{i}": 2 + i for i in range(len(regions))}

    def expand(self, store, tag):
        cells = store.store
        preset = cells[0]
        n = cells[1]
        adjacency = _MAPS[preset]
        if tag == 0:
            region = 0
        else:
            region, colour = divmod(tag - 1, self.colours)
            store.write(2 + region, colour + 1)
            region += 1
            if region == n:
                return _ANSWER
        used = {cells[2 + nb] for nb in adjacency[region]}
        alts = [1 + region * self.colours + c
                for c in range(self.colours) if c + 1 not in used]
        return (EXPAND_CHOICE, alts) if alts else _FAIL


class MagicSquare:
    """Fill an n x n square with 1..n^2, pruning completed lines early."""

    name = "magic_square"
    arity = 1
    root_tag = 0

    def setup(self, store, args):
        n = int(args[0])
        if not 2 <= n <= 4:
            raise ValueError("magic_square size out of range")
        store.push_cell(n)
        for _ in range(n * n):
            store.push_cell(0)

    def slots(self, args):
        n = int(args[0])
        return {f"m{i}": 1 + i for i in range(n * n)}

    def _line_ok(self, cells, line, magic):
        total = 0
        for idx in line:
            v = cells[1 + idx]
            if v == 0:
                return True  # line not complete yet
            total += v
        return total == magic

    def expand(self, store, tag):
        cells = store.store
        n = cells[0]
        nn = n * n
        magic = n * (nn + 1) // 2
        if tag == 0:
            pos = 0
        else:
            pos, value = divmod(tag - 1, nn)
            store.write(1 + pos, value + 1)
            row, col = divmod(pos, n)
            if col == n - 1 and not self._line_ok(cells, range(row * n, row * n + n), magic):
                return _FAIL
            if row == n - 1:
                if not self._line_ok(cells, range(col, nn, n), magic):
                    return _FAIL
                if col == n - 1 and not self._line_ok(cells, range(0, nn, n + 1), magic):
                    return _FAIL
                if col == 0 and not self._line_ok(cells, range(n - 1, nn - 1, n - 1), magic):
                    return _FAIL
            pos += 1
            if pos == nn:
                return _ANSWER
        taken = set(cells[1:1 + pos])
        alts = [1 + pos * nn + v for v in range(nn) if v + 1 not in taken]
        return (EXPAND_CHOICE, alts) if alts else _FAIL


class SendMore:
    """The SEND + MORE = MONEY puzzle by digit assignment with column checks."""

    name = "send_more"
    arity = 0
    root_tag = 0

    # assignment order; checks fire once a column's letters are all bound
    LETTERS = ("D", "E", "Y", "N", "R", "O", "S", "M")

    def setup(self, store, args):
        for _ in self.LETTERS:
            store.push_cell(-1)

    def slots(self, args):
        return {name: i for i, name in enumerate(self.LETTERS)}

    def expand(self, store, tag):
        cells = store.store
        if tag == 0:
            pos = 0
        else:
            pos, digit = divmod(tag - 1, 10)
            store.write(pos, digit)
            pos += 1
            if not self._columns_ok(cells, pos):
                return _FAIL
            if pos == len(self.LETTERS):
                return _ANSWER
        used = set(cells[:pos])
        letter = self.LETTERS[pos]
        lo = 1 if letter in ("S", "M") else 0
        alts = [1 + pos * 10 + d for d in range(lo, 10) if d not in used]
        return (EXPAND_CHOICE, alts) if alts else _FAIL

    def _columns_ok(self, cells, bound: int) -> bool:
        d, e, y, n, r, o, s, m = cells[:bound] + [-1] * (8 - bound)
        if y >= 0:
            if (d + e) % 10 != y:
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


class NSort:
    """Naive sort: enumerate permutations of a reversed list, keep sorted ones."""

    name = "nsort"
    arity = 1
    root_tag = 0

    def setup(self, store, args):
        n = int(args[0])
        if not 1 <= n <= 10:
            raise ValueError("nsort size out of range")
        store.push_cell(n)
        for i in range(n):
            store.push_cell(n - i)   # the scrambled input
        for _ in range(n):
            store.push_cell(0)       # chosen output values

    def slots(self, args):
        n = int(args[0])
        return {f"s{i}": 1 + n + i for i in range(n)}

    def expand(self, store, tag):
        cells = store.store
        n = cells[0]
        if tag == 0:
            pos = 0
        else:
            pos, pick = divmod(tag - 1, n)
            store.write(1 + n + pos, cells[1 + pick])
            pos += 1
            if pos == n:
                out = cells[1 + n:1 + 2 * n]
                return _ANSWER if all(out[i] <= out[i + 1] for i in range(n - 1)) else _FAIL
        chosen = set(cells[1 + n:1 + n + pos])
        alts = [1 + pos * n + p for p in range(n)
                if cells[1 + p] not in chosen]
        return (EXPAND_CHOICE, alts) if alts else _FAIL


class Spread:
    """Uniform tree of given depth and branching; every leaf is an answer."""

    name = "spread"
    arity = 2
    root_tag = 0

    def setup(self, store, args):
        depth, branch = int(args[0]), int(args[1])
        if not (1 <= depth <= 16 and 1 <= branch <= 32):
            raise ValueError("spread shape out of range")
        store.push_cell(depth)
        store.push_cell(branch)
        for _ in range(depth):
            store.push_cell(-1)

    def slots(self, args):
        depth = int(args[0])
        return {f"p{i}": 2 + i for i in range(depth)}

    def expand(self, store, tag):
        depth, branch = store.store[:2]
        if tag == 0:
            level = 0
        else:
            level, pick = divmod(tag - 1, branch)
            store.write(2 + level, pick)
            level += 1
            if level == depth:
                return _ANSWER
        return (EXPAND_CHOICE, [1 + level * branch + b for b in range(branch)])


class RandTree:
    """Deterministic pseudo-random tree driven by splitmix64 over the tag.

    Shapes follow (seed, depth, branch). Expansions overwrite a small window
    of setup-time cells, which deliberately exercises trailed writes below
    the root marks; two leaves may project identical answers, so multiset
    semantics are observable.
    """

    name = "rand_tree"
    arity = 3
    root_tag = 0
    _WINDOW = 6

    def setup(self, store, args):
        seed, depth, branch = int(args[0]), int(args[1]), int(args[2])
        if not (1 <= depth <= 20 and 2 <= branch <= 8):
            raise ValueError("rand_tree shape out of range")
        store.push_cell(seed)
        store.push_cell(depth)
        store.push_cell(branch)
        for _ in range(self._WINDOW):
            store.push_cell(0)

    def slots(self, args):
        return {f"w{i}": 3 + i for i in range(self._WINDOW)}

    def expand(self, store, tag):
        seed, max_depth, branch = store.store[:3]
        level = tag & 63
        state = tag >> 6
        r = _mix64(state ^ (seed * 0x9E3779B97F4A7C15 & _M64))
        if level > 0:
            store.write(3 + (r % self._WINDOW), (r >> 8) & 0xFF)
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


REGISTRY = {
    p.name: p for p in (
        Queens(), KnightMove(), MapColouring(), MagicSquare(),
        SendMore(), NSort(), Spread(), RandTree(),
    )
}


def register(program) -> None:
    """Add ``program`` to ``REGISTRY`` under its ``name``.

    Engine processes are forked, so they see a program registered before
    the engine is created. A name already taken is an error.
    """
    if program.name in REGISTRY:
        raise ValueError(f"program name {program.name!r} is already registered")
    REGISTRY[program.name] = program


def get_program(name: str):
    try:
        return REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown program {name!r}; known: {sorted(REGISTRY)}") from None

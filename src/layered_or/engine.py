"""Sequential nondeterministic search core.

A worker runs a pluggable search program depth-first over a store of integer
cells. Mutations of cells that existed before the current node are logged on
a trail, so backtracking restores the store exactly. Each choice point keeps
the store/trail marks taken *before* its expansion ran; restoring to those
marks and re-running the program's deterministic ``expand`` reproduces the
node, which is what lets copied stacks be installed on another worker without
shipping alternative lists.

Alternatives are consumed through a cursor that advances by ``split_offset``
(a power of two). Horizontal splitting doubles the offset on both sides so
two workers interleave disjoint alternative subsets of the same node.

A determinate node, one whose expansion gives a single alternative, gets no
choice point in ``run_loop`` (the WAM's rule for a determinate call): it
would hold no open alternative, so nothing could return to it or share it.
Its expansion's writes stay on the store and trail, above its parent's
post-expansion marks, and backtracking into any older node undoes them. Only
a node expanded on an empty stack is always pushed, so ``cps[0]`` is the
root whose marks delimit a copied stack.

``WorkerState.load`` counts the open alternatives of private nodes. Its
shared copy, the team's load register that ``load_sink`` writes, is updated
at service ticks and when ``run_loop`` returns, not on every push and
backtrack: teammates read it only to pick whom to ask for work, and a value
one tick old is as good for that as an exact one.

``run_loop``'s service hook sets its own tick spacing: ``service`` returns
the number of steps to the next tick, or ``None`` to keep ``service_every``.
A worker whose ticks find nothing to do can thus tick less often.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from .errors import ProtocolViolation

EXPAND_FAIL = 0
EXPAND_ANSWER = 1
EXPAND_CHOICE = 2


def count_open(n_alts: int, cursor: int, split_offset: int) -> int:
    """Open alternatives reachable from ``cursor`` stepping by ``split_offset``."""
    if cursor >= n_alts:
        return 0
    return (n_alts - cursor + split_offset - 1) // split_offset


class ChoicePoint:
    """One node of the search tree with its untried-alternative cursor.

    ``store_mark``/``trail_mark`` are pre-expansion marks and are the only
    positional state that travels when stacks are copied. ``alts``,
    ``post_store`` and ``post_trail`` cache the expansion result locally and
    are rebuilt lazily after a stack install. While ``frame >= 0`` the node
    is public and cursor/offset authority lives in the or-frame, not here.
    A node's depth is its index in ``WorkerState.cps``, so no field holds it.
    """

    __slots__ = ("node_tag", "n_alts", "cursor", "split_offset", "store_mark",
                 "trail_mark", "frame", "alts", "post_store", "post_trail")

    def __init__(self, node_tag, n_alts, cursor, split_offset, store_mark,
                 trail_mark, frame=-1, alts=None, post_store=-1, post_trail=-1):
        self.node_tag = node_tag
        self.n_alts = n_alts
        self.cursor = cursor
        self.split_offset = split_offset
        self.store_mark = store_mark
        self.trail_mark = trail_mark
        self.frame = frame
        self.alts = alts
        self.post_store = post_store
        self.post_trail = post_trail

    def is_dead(self) -> bool:
        return self.cursor >= self.n_alts

    def open_count(self) -> int:
        return count_open(self.n_alts, self.cursor, self.split_offset)

    def __repr__(self):
        return (f"ChoicePoint(tag={self.node_tag}, n={self.n_alts}, c={self.cursor}, "
                f"s={self.split_offset}, frame={self.frame})")


class ExhaustedSignal:
    """Returned by ``backtrack`` when every node, including the root, is dead."""

    __slots__ = ()

    def __repr__(self):
        return "ExhaustedSignal()"


EXHAUSTED = ExhaustedSignal()


class WorkerState:
    """One worker's binding store, trail, choice-point stack and registers.

    Confined to its owning worker except through snapshots; cross-worker
    coordination on public nodes goes through the injected ``frames`` pool.
    """

    def __init__(self, team_id: int = 0, worker_id: int = 0):
        self.team_id = team_id
        self.worker_id = worker_id
        self.store: list[int] = []
        self.trail_cells: list[int] = []
        self.trail_prevs: list[int] = []
        self.cps: list[ChoicePoint] = []
        self.load = 0                      # open alternatives in private nodes only
        self.program = None
        self.template_cells: tuple[int, ...] = ()
        self.frames = None                 # or-frame pool (team-provided); None when standalone
        self.load_sink: Optional[Callable[[int], None]] = None
        self.backtracks = 0
        self.base_store = 0                # post-setup marks; idle workers rest here
        self.base_trail = 0
        self._guard = 0                    # writes below this store index are trailed

    # -- store access used by programs --------------------------------------
    def push_cell(self, value: int) -> int:
        self.store.append(value)
        return len(self.store) - 1

    def write(self, idx: int, value: int) -> None:
        if idx < self._guard:
            self.trail_cells.append(idx)
            self.trail_prevs.append(self.store[idx])
        self.store[idx] = value

    # -- bookkeeping ---------------------------------------------------------
    def set_load(self, value: int) -> None:
        self.load = value
        if self.load_sink is not None:
            self.load_sink(value)

    def reset_to_base(self) -> None:
        """Drop everything above the post-setup marks (idle/teardown state)."""
        restore_trail(self, self.base_trail)
        del self.store[self.base_store:]
        self.cps.clear()
        self.set_load(0)
        self._guard = self.base_store


def restore_trail(ws: WorkerState, mark: int) -> None:
    """Undo trailed writes newest-first until the trail top equals ``mark``."""
    assert mark <= len(ws.trail_cells), "restore mark above trail top"
    cells = ws.trail_cells
    prevs = ws.trail_prevs
    store = ws.store
    while len(cells) > mark:
        store[cells.pop()] = prevs.pop()


def _restore_to(ws: WorkerState, store_mark: int, trail_mark: int) -> None:
    restore_trail(ws, trail_mark)
    del ws.store[store_mark:]


def _rederive(ws: WorkerState, cp: ChoicePoint) -> None:
    """Rebuild a node's alternative cache by replaying its expansion."""
    _restore_to(ws, cp.store_mark, cp.trail_mark)
    ws._guard = cp.store_mark
    kind, alts = ws.program.expand(ws, cp.node_tag)
    if kind != EXPAND_CHOICE or len(alts) != cp.n_alts:
        raise AssertionError(
            f"non-deterministic expansion for tag {cp.node_tag}: "
            f"expected choice of {cp.n_alts}, got kind={kind}")
    cp.alts = list(alts)
    cp.post_store = len(ws.store)
    cp.post_trail = len(ws.trail_cells)


def backtrack(ws: WorkerState):
    """Take the next open alternative, or ``EXHAUSTED`` when none remain.

    Dead nodes are popped on contact. Private nodes step their own cursor by
    ``split_offset``; public nodes delegate the step to their or-frame under
    its lock, so concurrent members receive disjoint alternatives.
    """
    ws.backtracks += 1
    cps = ws.cps
    while cps:
        cp = cps[-1]
        if cp.frame >= 0:
            idx = ws.frames.take(cp.frame)
        elif cp.cursor < cp.n_alts:
            idx = cp.cursor
            cp.cursor += cp.split_offset
            ws.load -= 1
        else:
            idx = -1
        if idx < 0:
            cps.pop()
            if cp.frame >= 0:
                ws.frames.leave(cp.frame)
            continue
        if cp.alts is None:
            _rederive(ws, cp)
        else:
            _restore_to(ws, cp.post_store, cp.post_trail)
        return cp.alts[idx]
    return EXHAUSTED


def setup_goal(ws: WorkerState, program, args: Sequence[int],
               template: Optional[str]) -> None:
    """Initialize the store for a goal and record the base (root) marks."""
    ws.reset_to_base()
    del ws.store[:]
    ws.trail_cells.clear()
    ws.trail_prevs.clear()
    ws.cps.clear()
    ws.program = program
    ws._guard = 0
    program.setup(ws, args)
    slots = program.slots(args)
    if template is None:
        ws.template_cells = tuple(slots.values())
    else:
        if template not in slots:
            raise ValueError(f"unknown template slot {template!r} for {program.name}")
        ws.template_cells = (slots[template],)
    ws.base_store = len(ws.store)
    ws.base_trail = len(ws.trail_cells)
    ws.set_load(0)


def allocate_dead_root(ws: WorkerState) -> None:
    """Create an empty root choice point at the base marks.

    Workers and teams that start without work park on a dead root whose
    logical position matches everyone else's; installed stacks overwrite it.
    """
    assert not ws.cps, "root must be the first choice point"
    cp = ChoicePoint(ws.program.root_tag, 0, 0, 1,
                     ws.base_store, ws.base_trail, alts=[])
    ws.cps.append(cp)


def run_loop(ws: WorkerState, emit: Callable[[tuple], None], *,
             start_tag: Optional[int] = None,
             service: Optional[Callable[[], Optional[int]]] = None,
             service_every: int = 64) -> None:
    """Drive the worker depth-first until its open alternatives are exhausted.

    ``emit`` receives one projected answer per answer leaf. ``service`` runs
    at service ticks; sharing, message handling and teardown checks happen
    there (it may raise to unwind the goal). The first tick falls after
    ``service_every`` steps. Each later one falls after the number of steps
    the previous ``service`` call returned (at least 1), or after
    ``service_every`` steps if it returned ``None``. A node expanded
    in the step before a tick still owes its first alternative; the tick
    hands it back to the node for the length of ``service``, so ``service``
    sees stacks holding exactly the remaining work. A determinate node has
    no choice point to take it back, so the tick first pushes one, with the
    node's pre-expansion marks and the current store and trail tops as its
    post-expansion marks. Stacks left by a ``service`` that raises therefore
    resume, here or copied elsewhere, to exactly the remaining answers.
    ``start_tag`` is the root tag of a goal whose stack is still empty; with
    ``start_tag=None`` the loop opens with a fail, taking the next open
    alternative: that is how execution resumes after an install.

    The common step runs inline on local copies of the registers: expand the
    tag, push a private node unless it is determinate, pop dead private
    nodes, or take the next cached alternative of a private top node.
    Public nodes (whose or-frame is taken from and left), re-derivation and
    the final ``EXHAUSTED`` go through ``backtrack``. ``ws.load`` and
    ``ws.backtracks`` are exact at ``emit``, at ``service``, when ``expand``
    raises and on return; the shared load register (``ws.load_sink``) is
    written at service ticks and on return only.
    """
    assert start_tag is None or not ws.cps, "start_tag needs an empty stack"
    expand = ws.program.expand
    template = ws.template_cells
    store = ws.store
    tcells = ws.trail_cells
    tprevs = ws.trail_prevs
    cps = ws.cps
    sink = ws.load_sink
    load = ws.load
    backtracks = ws.backtracks
    countdown = service_every if service is not None else -1
    tag = start_tag
    det = None                 # tag of the node whose only alternative is pending
    while True:
        countdown -= 1
        if countdown == 0:
            held = None
            if tag is not None and cps:
                if det is not None:
                    # give the elided determinate node its choice point now,
                    # so the pending tag has a node to go back to
                    cps.append(ChoicePoint(det, 1, 1, 1, pre_store, pre_trail, -1,
                                           payload, len(store), len(tcells)))
                held = cps[-1]
                held.cursor = 0
                load += 1
                tag = None
            ws.load = load
            ws.backtracks = backtracks
            if sink is not None:
                sink(load)
            countdown = service()
            if countdown is None:
                countdown = service_every
            assert countdown >= 1, "service must leave at least one step to the next tick"
            load = ws.load
            backtracks = ws.backtracks
            cps = ws.cps
            if held is not None and cps and cps[-1] is held and held.frame < 0 \
                    and held.cursor < held.n_alts:
                # take it again; unless service moved it away, this is no backtrack
                idx = held.cursor
                held.cursor = idx + held.split_offset
                load -= 1
                tag = held.alts[idx]
        if tag is None:
            backtracks += 1
            while cps:
                cp = cps[-1]
                if cp.frame >= 0:
                    break
                idx = cp.cursor
                if idx < cp.n_alts:
                    alts = cp.alts
                    if alts is not None:
                        cp.cursor = idx + cp.split_offset
                        load -= 1
                        mark = cp.post_trail
                        while len(tcells) > mark:
                            store[tcells.pop()] = tprevs.pop()
                        del store[cp.post_store:]
                        tag = alts[idx]
                    break
                cps.pop()
            if tag is None:
                # a public or uncached top node, or an empty stack; this
                # step is already counted, and backtrack counts it again
                ws.load = load
                ws.backtracks = backtracks - 1
                tag = backtrack(ws)
                load = ws.load
                backtracks = ws.backtracks
                if tag is EXHAUSTED:
                    if sink is not None:
                        sink(load)
                    return
        pre_store = ws._guard = len(store)
        pre_trail = len(tcells)
        try:
            kind, payload = expand(ws, tag)
        except BaseException:
            ws.load = load
            ws.backtracks = backtracks
            raise
        if kind == EXPAND_CHOICE:
            n = len(payload)
            if n == 1 and cps:
                det = tag
            else:
                assert n >= 1, "choice point needs at least one alternative"
                cps.append(ChoicePoint(tag, n, 1, 1, pre_store, pre_trail, -1,
                                       payload, len(store), len(tcells)))
                load += n - 1
                det = None
            tag = payload[0]
        else:
            if kind == EXPAND_ANSWER:
                ws.load = load
                ws.backtracks = backtracks
                emit(tuple([store[c] for c in template]))
            tag = None


def install_segments(ws: WorkerState, store_lo: int, store_cells: Sequence[int],
                     cp_records: Sequence[tuple], trail_lo: int,
                     trail_entries: Sequence[tuple[int, int]],
                     frames: Optional[Sequence[int]] = None) -> None:
    """Overwrite this worker's stacks with copied segments.

    Logical indices are identical across workers of one goal, so segments
    land at the positions recorded by the sender. ``frames`` carries or-frame
    ids for intra-team copies (membership was pre-counted by the sharer);
    inter-team installs leave every node private.
    """
    if trail_lo != len(ws.trail_cells):
        raise ProtocolViolation(
            f"trail layout mismatch: segment starts at {trail_lo}, "
            f"local trail top is {len(ws.trail_cells)}")
    store_hi = store_lo + len(store_cells)
    store = ws.store
    if len(store) < store_hi:
        store.extend([0] * (store_hi - len(store)))
    store[store_lo:store_hi] = store_cells
    del store[store_hi:]
    del ws.trail_cells[trail_lo:]
    del ws.trail_prevs[trail_lo:]
    for idx, prev in trail_entries:
        ws.trail_cells.append(idx)
        ws.trail_prevs.append(prev)
    ws.cps = []
    load = 0
    for i, rec in enumerate(cp_records):
        # words past the 6th are ignored: benchmark/layers.py installs
        # snapshot_segments records, which keep a 7th until ROADMAP item 1
        tag, n_alts, cursor, offset, smark, tmark = rec[:6]
        frame = frames[i] if frames is not None else -1
        cp = ChoicePoint(tag, n_alts, cursor, offset, smark, tmark, frame)
        ws.cps.append(cp)
        if frame < 0:
            load += cp.open_count()
    ws.set_load(load)
    ws._guard = len(store)

"""Independent sequential enumerator used as the correctness baseline.

Deliberately shares nothing with the engine's choice-point/trail machinery:
plain recursion over ``expand`` with a full store copy per node. Slow, but
its answers are the reference every parallel configuration is checked
against.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional, Sequence


class _CopyStore:
    """Minimal store exposing the same cell API the programs use."""

    __slots__ = ("store",)

    def __init__(self, store: Optional[list[int]] = None):
        self.store = [] if store is None else store

    def push_cell(self, value: int) -> int:
        self.store.append(value)
        return len(self.store) - 1

    def write(self, idx: int, value: int) -> None:
        self.store[idx] = value

    def fork(self) -> "_CopyStore":
        return _CopyStore(list(self.store))


def enumerate_answers(program, args: Sequence[int],
                      template: Optional[str] = None,
                      node_limit: int = 50_000_000) -> Counter:
    """Return the multiset of answers reachable from the program's root."""
    from .engine import EXPAND_ANSWER, EXPAND_CHOICE

    st = _CopyStore()
    program.setup(st, args)
    slots = program.slots(args)
    if template is None:
        cells = tuple(slots.values())
    else:
        cells = (slots[template],)

    answers: Counter = Counter()
    budget = [node_limit]

    def visit(store: _CopyStore, tag: int) -> None:
        budget[0] -= 1
        if budget[0] < 0:
            raise RuntimeError("oracle node budget exceeded")
        kind, payload = program.expand(store, tag)
        if kind == EXPAND_ANSWER:
            answers[tuple(store.store[c] for c in cells)] += 1
        elif kind == EXPAND_CHOICE:
            for child in payload:
                visit(store.fork(), child)

    visit(st, program.root_tag)
    return answers

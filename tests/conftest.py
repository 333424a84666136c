import multiprocessing

import pytest

from layered_or import api, programs
from layered_or.engine import EXPAND_CHOICE


class Faulty:
    """Binary tree that raises once a node tag passes the threshold.

    Exists to exercise the engine-wide abort path: a fault inside ``expand``
    must surface to the client as a goal error, whichever worker hits it.
    """

    name = "faulty"
    arity = 1
    root_tag = 0

    def setup(self, store, args):
        store.push_cell(int(args[0]))

    def slots(self, args):
        return {"t": 0}

    def expand(self, store, tag):
        threshold = store.store[0]
        if tag >= threshold:
            raise RuntimeError(f"synthetic fault at node {tag}")
        return (EXPAND_CHOICE, [2 * tag + 1, 2 * tag + 2])


# engine processes are forked from the test process, so they see it too
programs.register(Faulty())


@pytest.fixture(autouse=True)
def reap_engines():
    yield
    for handle in list(api._REGISTRY.values()):
        api._teardown(handle, force=False)
    for child in multiprocessing.active_children():
        child.terminate()
        child.join(timeout=2.0)

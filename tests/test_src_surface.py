"""Every function, class and method under ``src/layered_or`` has a user there.

A name that only tests or ``benchmark/`` call belongs with them, not in the
engine. The check is by name: a definition passes when its name appears
anywhere in ``src/`` outside its own body, as a name, an attribute or an
imported name. Dunder methods are skipped, and so are ``_a_*`` action
handlers, which the drivers reach by ``getattr``, and functions that a
decorator registers (``@atexit.register``).
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "layered_or"

# a multiprocessing override, public API, and two names that
# benchmark/layers.py calls until ROADMAP item 1 changes it
ALLOWED = {"EngineProcess._bootstrap", "EngineHandle.trace_events",
           "splitting.snapshot_segments", "TeamShared.alloc"}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _uses(node) -> Counter:
    used = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            used[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            used[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            used[sub.name.rsplit(".", 1)[-1]] += 1
    return used


def _registered(node) -> bool:
    return any(isinstance(d, ast.Attribute) and d.attr == "register"
               for d in getattr(node, "decorator_list", ()))


def _definitions(tree, module):
    """(qualified name, node) of each top-level definition and method."""
    for node in tree.body:
        if isinstance(node, _DEFS):
            yield f"{module}.{node.name}", node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, _DEFS):
                        yield f"{node.name}.{item.name}", item


def unused_definitions() -> list[str]:
    trees = {path.stem: ast.parse(path.read_text(), str(path))
             for path in sorted(SRC.glob("*.py"))}
    used = sum((_uses(tree) for tree in trees.values()), Counter())
    unused = []
    for module, tree in trees.items():
        for qualname, node in _definitions(tree, module):
            name = node.name
            if name.startswith("__") and name.endswith("__") or name.startswith("_a_") \
                    or _registered(node) or qualname in ALLOWED:
                continue
            if used[name] - _uses(node)[name] <= 0:
                unused.append(qualname)
    return unused


def test_every_definition_in_src_has_a_user_in_src():
    assert unused_definitions() == []

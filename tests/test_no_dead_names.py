"""Dead-name guard: every top-level function, class and constant of the
package, and every method that is not a dunder, is loaded somewhere in the
package outside its own definition, and every module-level import is loaded
in its own module or listed in its `__all__`. A name the package keeps only
for outside callers goes in ALLOWED, with its reason."""

from __future__ import annotations

import ast
from pathlib import Path

import edsim

PACKAGE = Path(edsim.__file__).parent

ALLOWED = {
    "__init__.__version__": "package metadata, read by users of the package",
    "__init__.__all__": "the package's export list, read by star imports",
    "kernel.ShiftCalendar.teams_on": "hooked by name in perfbench/tracer.py",
    "kernel.PromotionQueue.has_rank_at_most": "hooked by name in perfbench/tracer.py",
    "kernel.EventLog.records": "read by the tests' event-log oracle",
}


def _definitions(module: str, tree: ast.Module) -> dict[str, str]:
    """qualified name -> bare name of each definition the guard checks"""
    defs = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defs[f"{module}.{node.name}"] = node.name
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name):
                    defs[f"{module}.{name.id}"] = name.id
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__") and item.name.endswith("__"))):
                    defs[f"{module}.{node.name}.{item.name}"] = item.name
    return defs


def _loads(node: ast.AST, inside: frozenset[str], found: set[str]) -> None:
    """Add to `found` every name loaded under `node`, except within a
    definition of that same name."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        inside = inside | {node.name}
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        name = node.id
    elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        name = node.attr
    else:
        name = None
    if name is not None and name not in inside:
        found.add(name)
    for child in ast.iter_child_nodes(node):
        _loads(child, inside, found)


def _imports(tree: ast.Module) -> set[str]:
    """names bound by the module-level imports, except `from __future__`"""
    return {alias.asname or alias.name.split(".")[0]
            for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
            and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
            for alias in node.names}


def _exported(tree: ast.Module) -> set[str]:
    """the names listed in the module's `__all__`"""
    return {name for node in tree.body if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            for name in ast.literal_eval(node.value)}


def dead_names(package: Path = PACKAGE) -> set[str]:
    defs: dict[str, str] = {}
    loaded: set[str] = set()
    unused_imports: set[str] = set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        defs.update(_definitions(path.stem, tree))
        here: set[str] = set()
        _loads(tree, frozenset(), here)
        loaded |= here
        unused_imports |= {f"{path.stem}.{name}"
                           for name in _imports(tree) - here - _exported(tree)}
    return unused_imports | {qualified for qualified, name in defs.items() if name not in loaded}


def test_every_name_is_used_or_allowed_with_a_reason():
    dead = dead_names()
    assert dead - set(ALLOWED) == set(), "unused names or imports: delete them or list them with a reason"
    assert set(ALLOWED) - dead == set(), "listed names that are used or gone: unlist them"


def test_the_guard_sees_an_unused_helper(tmp_path):
    (tmp_path / "mod.py").write_text(
        "from __future__ import annotations\n"
        "import json\n"
        "import os.path\n"
        "from math import pi, tau as TAU\n"
        "__all__ = ['TAU', 'used']\n"
        "LIMIT = 3 * pi\n"
        "def used(x):\n    return used(x - 1) if x > LIMIT else x\n"
        "def unused():\n    return unused()\n"
        "class Box:\n"
        "    def __init__(self):\n        self.n = used(1)\n"
        "    def size(self):\n        return self.n\n"
        "    def spare(self):\n        return self.size()\n"
        "box = Box()\n")
    # __all__ itself is read only by star imports, as in the package
    assert dead_names(tmp_path) == {"mod.json", "mod.os", "mod.unused", "mod.Box.spare",
                                    "mod.box", "mod.__all__"}

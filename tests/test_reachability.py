"""Every function and method in the package is reached.

A module-level function or a method (dunder methods aside) stays only if
its name is referenced, as a name or an attribute, somewhere in the
package outside its own body, or in the acceptance tests. A function
that a decorator call registers (the CLI commands) is reached through
that call. The check goes by name, so it can miss a dead method that
shares its name with a live one; it never flags a live one.
"""

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "minmax_hj"
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"


def _references(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def _definitions(tree):
    """(label, function node) for module-level functions and methods."""
    for node in tree.body:
        members = node.body if isinstance(node, ast.ClassDef) else [node]
        for fn in members:
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if fn.name.startswith("__") and fn.name.endswith("__"):
                continue
            yield (fn.name if fn is node else f"{node.name}.{fn.name}"), fn


def test_every_function_is_reached():
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    accepted = {name for name, _ in
                _references(ast.parse(ACCEPTANCE.read_text()))}
    where = defaultdict(list)
    for module, tree in trees.items():
        for name, line in _references(tree):
            where[name].append((module, line))

    unreached = []
    for module, tree in trees.items():
        for label, fn in _definitions(tree):
            if fn.name in accepted or any(isinstance(d, ast.Call)
                                          for d in fn.decorator_list):
                continue
            outside = [(m, line) for m, line in where[fn.name]
                       if not (m == module
                               and fn.lineno <= line <= fn.end_lineno)]
            if not outside:
                unreached.append(f"{module}: {label}")
    assert unreached == []

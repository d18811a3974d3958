"""Every class, function, method and parameter in the package is reached.

A top-level class, a module-level function or a method (dunder methods
aside) stays only if its name is referenced, as a name or an attribute,
somewhere in the package outside its own body. A function that a
decorator call registers (the CLI commands) is reached through that
call. The acceptance tests reach a name only if ``ACCEPTED`` lists it,
with the reason it stays: the suite guarantees the tool, not a library.
The check goes by name, so it can miss a dead method that shares its
name with a live one; it never flags a live one.

A parameter with a default stays only if some call passes it, by
keyword or by position, under the same rules: a call matches by the
name it calls, a constructor call by its class name, and a function or
class referenced without being called (registered, stored in a table)
passes every parameter.
"""

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "minmax_hj"
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"

# names that no command reaches and that an acceptance guarantee keeps
ACCEPTED = {
    "reorder_family": "its guarantee checks the running-extrema identity "
                      "on whole families; whether effective may reorder "
                      "an unordered family instead of refusing it is an "
                      "open scope question (ROADMAP item 17)",
}


def _references(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def _definitions(tree):
    """(label, node) for top-level classes, module-level functions and
    methods."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            yield node.name, node
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
    assert set(ACCEPTED) <= accepted
    where = defaultdict(list)
    for module, tree in trees.items():
        for name, line in _references(tree):
            where[name].append((module, line))

    unreached, needless = [], []
    for module, tree in trees.items():
        for label, fn in _definitions(tree):
            if any(isinstance(d, ast.Call) for d in fn.decorator_list):
                continue
            outside = [(m, line) for m, line in where[fn.name]
                       if not (m == module
                               and fn.lineno <= line <= fn.end_lineno)]
            if outside and fn.name in ACCEPTED:
                needless.append(label)
            elif not outside and fn.name not in ACCEPTED:
                unreached.append(f"{module}: {label}")
    assert unreached == []
    assert needless == []


def _defaulted(fn, skip):
    """(name, position) of fn's parameters with defaults; position is
    None for keyword-only ones, and counts from the first parameter
    after the ``skip`` bound ones (self, cls)."""
    args = fn.args.posonlyargs + fn.args.args
    first = len(args) - len(fn.args.defaults)
    out = [(a.arg, i - skip) for i, a in enumerate(args) if i >= first]
    out += [(a.arg, None) for a, d in zip(fn.args.kwonlyargs,
                                         fn.args.kw_defaults) if d is not None]
    return out


def _callables(tree):
    """(name called, label, function node, bound parameters) for
    module-level functions, methods and constructors (a class's __init__
    is called by the class's name)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node.name, node, 0
        if not isinstance(node, ast.ClassDef):
            continue
        for fn in node.body:
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in fn.decorator_list)
            if fn.name == "__init__":
                yield node.name, node.name, fn, 1
            elif not (fn.name.startswith("__") and fn.name.endswith("__")):
                yield (fn.name, f"{node.name}.{fn.name}", fn,
                       0 if static else 1)


def _name(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _uses(tree):
    """(name, line, positional count, keywords) for every call, and
    (name, line, None, None) for every reference that is not the callee
    of a call; None positional count or keywords mean all of them."""
    callees = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _name(node.func):
            callees.add(id(node.func))
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            keywords = {k.arg for k in node.keywords}
            yield (_name(node.func), node.lineno,
                   None if starred else len(node.args),
                   None if None in keywords else keywords)
    for node in ast.walk(tree):
        if _name(node) and id(node) not in callees:
            yield _name(node), node.lineno, None, None


def test_every_parameter_is_passed():
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    uses = defaultdict(list)
    for module, tree in trees.items():
        for name, line, n_pos, keywords in _uses(tree):
            uses[name].append((module, line, n_pos, keywords))
    for name, _, n_pos, keywords in _uses(ast.parse(ACCEPTANCE.read_text())):
        if name in ACCEPTED:
            uses[name].append((None, 0, n_pos, keywords))

    unpassed = []
    for module, tree in trees.items():
        for name, label, fn, skip in _callables(tree):
            if any(isinstance(d, ast.Call) for d in fn.decorator_list):
                continue
            outside = [(n_pos, keywords)
                       for m, line, n_pos, keywords in uses[name]
                       if not (m == module
                               and fn.lineno <= line <= fn.end_lineno)]
            for param, pos in _defaulted(fn, skip):
                if not any(n_pos is None or keywords is None
                           or param in keywords
                           or (pos is not None and pos < n_pos)
                           for n_pos, keywords in outside):
                    unpassed.append(f"{module}: {label}({param}=)")
    assert unpassed == []

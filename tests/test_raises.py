"""Every exception the package raises is a package error.

The CLI maps the classes of ``minmax_hj.errors`` onto exit codes 2, 3
and 4; any other exception would end a command in a traceback. So a
``raise`` in ``src/`` may name a class of its own only if it comes from
``minmax_hj.errors``, or if ``ALLOWED`` lists it for the function that
raises it, with the reason it never leaves the package. A ``raise`` of
a name bound in its function (an exception caught or made before) and
a bare ``raise`` name no class. The exception a ``from`` clause names
is the cause, not what is raised, and is not checked.
"""

import ast
from pathlib import Path

from minmax_hj import errors

SRC = Path(__file__).resolve().parent.parent / "src" / "minmax_hj"

# (module, function) -> (the classes it may raise, why none escapes)
ALLOWED = {
    ("config.py", "_number"): (
        {"TypeError", "ValueError"},
        "a converter: _as turns its error into a ConfigError"),
    ("config.py", "_whole"): (
        {"ValueError"}, "a converter: _as turns its error into a ConfigError"),
    ("config.py", "convert"): (
        {"TypeError"}, "a converter: _as turns its error into a ConfigError"),
    ("harness.py", "run_plotdata"): (
        {"TypeError"},
        "its own except turns a manifest's misshapen files into a "
        "ConfigError"),
}

PACKAGE_ERRORS = {name for name, value in vars(errors).items()
                  if isinstance(value, type)
                  and issubclass(value, BaseException)}


def _own(fn):
    """The nodes of a function's body, less those of the functions and
    classes defined in it."""
    todo = list(fn.body)
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
            todo.extend(ast.iter_child_nodes(node))


def _bound(fn):
    """The names a function (or a module) binds: its parameters, its
    assignments and the names of its except clauses."""
    names = set()
    if not isinstance(fn, ast.Module):
        names |= {a.arg for a in ast.walk(fn.args) if isinstance(a, ast.arg)}
    for node in _own(fn):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
    return names


def _raised(tree):
    """(function name, class name, line) for every raise in the module
    ``tree`` that names a class: the callee of a raised call, or a
    raised name its function does not bind. A raise outside functions
    is the function "<module>"'s."""
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.Module, ast.FunctionDef,
                               ast.AsyncFunctionDef)):
            continue
        bound = _bound(fn)
        for node in _own(fn):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) \
                else node.exc
            name = exc.attr if isinstance(exc, ast.Attribute) \
                else getattr(exc, "id", None)
            if isinstance(exc, ast.Name) and name in bound:
                continue
            yield getattr(fn, "name", "<module>"), name, node.lineno


def test_every_raise_names_a_package_error():
    foreign, unused = [], set(ALLOWED)
    for path in sorted(SRC.glob("*.py")):
        for fn, name, line in _raised(ast.parse(path.read_text())):
            if name in PACKAGE_ERRORS:
                continue
            allowed, _ = ALLOWED.get((path.name, fn), (set(), ""))
            if name in allowed:
                unused.discard((path.name, fn))
            else:
                foreign.append(f"{path.name}:{line}: {fn} raises {name}")
    assert foreign == []
    # an entry that no raise needs any longer goes too
    assert unused == set()


def test_media_and_profiles_raise_nothing():
    # config holds every rule on a run's inputs; these two modules take
    # their values as given
    for name in ("media.py", "profiles.py"):
        tree = ast.parse((SRC / name).read_text())
        raises = [node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Raise)]
        imported = {alias.name for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    for alias in node.names}
        assert raises == [], name
        assert imported & PACKAGE_ERRORS == set(), name

"""Package-wide checks: the public names, and parameters nothing reads."""

import ast
from pathlib import Path

import isokit
from isokit import containers, geo, minimize, oracle, sampling

SRC = Path(isokit.__file__).parent


def test_package_all_is_the_union_of_the_submodule_lists():
    names = [name for module in (geo, containers, minimize, oracle, sampling) for name in module.__all__]
    assert len(names) == len(set(names))
    assert sorted(isokit.__all__) == sorted(names)
    assert all(hasattr(isokit, name) for name in names)


def _unread_parameters(tree: ast.AST) -> list[tuple[int, str, str]]:
    """(line, function, parameter) for each parameter that its function's
    body never reads.  `self` counts only outside dunder methods: a method
    that never reads it could be a function."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        name = getattr(node, "name", "<lambda>")
        a = node.args
        params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg) if p is not None]
        if name.startswith("__") and name.endswith("__"):
            params = [p for p in params if p != "self"]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {
            n.id
            for stmt in body
            for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        found += [(node.lineno, name, p) for p in params if p not in read]
    return sorted(found)


def test_unread_parameters_are_found():
    tree = ast.parse(
        "def f(a, b, *, c):\n    return a + (lambda d: c)(1)\n"
        "class K:\n    def m(self, x):\n        return x\n    def __repr__(self):\n        return 'K'\n"
    )
    assert _unread_parameters(tree) == [(1, "f", "b"), (2, "<lambda>", "d"), (4, "m", "self")]


def test_no_function_has_an_unread_parameter():
    found = [
        f"{path.name}:{line} {name}({param})"
        for path in sorted(SRC.glob("*.py"))
        for line, name, param in _unread_parameters(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []

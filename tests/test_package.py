"""Package-wide checks: the public names, their parameters, the fields of
the public records, and parameters nothing reads."""

import ast
import copy
import dataclasses
import functools
import inspect
import math
import pickle
from pathlib import Path

import pytest

import isokit
from isokit import containers, geo, minimize, oracle, sampling

SRC = Path(isokit.__file__).parent


def test_package_all_is_the_union_of_the_submodule_lists():
    names = [name for module in (geo, containers, minimize, oracle, sampling) for name in module.__all__]
    assert len(names) == len(set(names))
    assert sorted(isokit.__all__) == sorted(names)
    assert all(hasattr(isokit, name) for name in names)


# the parameter names of every public function: a new or renamed parameter
# shows up here
PUBLIC_PARAMETERS = {
    "all_special_containers": ("ct",),
    "alpha_star": (),
    "alpha_star_equation": ("alpha",),
    "area": ("t",),
    "brute_force_min_isosceles": ("t",),
    "brute_force_min_isosceles_batch": ("triangles",),
    "can_cover": ("mover", "target"),
    "canonicalize": ("t",),
    "contains_point": ("t", "p"),
    "contains_triangle": ("outer", "inner"),
    "eq1_residual": ("ct",),
    "first_kind": ("ct",),
    "first_kind_ratio": ("b", "c"),
    "minimum_isosceles_container": ("ct",),
    "ratio_crossing": ("beta",),
    "sample_canonical_triangles": ("seed", "count", "min_angle", "scalene_margin"),
    "second_kind": ("ct",),
    "signed_area": ("t",),
    "t_star": (),
    "third_kind": ("ct",),
    "triangle_at_crossing": ("beta",),
    "triangle_from_angles": ("alpha", "beta", "scale"),
    "triangle_from_sides": ("a", "b", "c"),
    "verify_triangle": ("ct",),
    "verify_triangles": ("cts",),
}


def test_public_function_parameters():
    functions = {name: getattr(isokit, name) for name in isokit.__all__ if inspect.isfunction(getattr(isokit, name))}
    got = {name: tuple(inspect.signature(f).parameters) for name, f in functions.items()}
    assert got == PUBLIC_PARAMETERS


# the stored fields of every public record, in order: a field that is added,
# dropped or reordered shows up here, and so does a derived value (such as
# `SpecialContainer.kind`) that is stored instead of computed
PUBLIC_RECORD_FIELDS = {
    "CanonicalTriangle": ("tri", "a", "b", "c", "alpha", "beta", "gamma", "area", "shape_class"),
    "MinimizerResult": ("min_area", "min_ratio", "minimizers", "candidates"),
    "OracleResult": ("min_area", "witness", "apex_angle", "rotation"),
    "Point": ("x", "y"),
    "SpecialContainer": ("variant", "tri", "area", "ratio"),
    "Tolerances": ("eps_len", "eps_angle", "eps_num", "eps_tie"),
    "Triangle": ("A", "B", "C"),
    "VerificationReport": ("input", "relative_gap", "min_result", "oracle_result", "flags"),
}


def test_public_record_fields():
    records = {name: getattr(isokit, name) for name in isokit.__all__}
    got = {
        name: tuple(f.name for f in dataclasses.fields(cls))
        for name, cls in records.items()
        if inspect.isclass(cls) and dataclasses.is_dataclass(cls)
    }
    assert got == PUBLIC_RECORD_FIELDS


@functools.cache
def _record_samples() -> dict:
    """One instance of each public record."""
    report = isokit.verify_triangle(isokit.triangle_from_sides(4.0, 5.0, 6.0))
    ct = report.input
    return {
        "CanonicalTriangle": ct,
        "MinimizerResult": report.min_result,
        "OracleResult": report.oracle_result,
        "Point": ct.tri.A,
        "SpecialContainer": report.min_result.minimizers[0],
        "Tolerances": isokit.DEFAULT_TOLERANCES,
        "Triangle": ct.tri,
        "VerificationReport": report,
    }


def _hash(obj):
    try:
        return hash(obj)
    except TypeError:  # a VerificationReport holds its flags in a dict
        return TypeError


@pytest.mark.parametrize("name", sorted(PUBLIC_RECORD_FIELDS))
def test_record_contract(name):
    # all but Tolerances build themselves with a plain __init__; everything
    # else about them is the frozen dataclass's
    cls, obj = getattr(isokit, name), _record_samples()[name]
    names = [f.name for f in dataclasses.fields(cls)]
    assert list(inspect.signature(cls).parameters) == names
    for field in names:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, field, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(obj, field)
    same = dataclasses.replace(obj)
    assert same is not obj and same == obj and _hash(same) == _hash(obj)
    assert repr(same) == repr(obj)
    assert pickle.loads(pickle.dumps(obj)) == obj
    assert copy.deepcopy(obj) == obj


def test_point_rejects_non_finite_coordinates():
    for make in (
        lambda: isokit.Point(math.nan, 0.0),
        lambda: isokit.Point(0.0, math.inf),
        lambda: dataclasses.replace(isokit.Point(0.0, 0.0), x=math.inf),
    ):
        with pytest.raises(isokit.NonFinite):
            make()


# every other public name, by kind: a class, exception or constant that is
# added or dropped shows up here
PUBLIC_NON_FUNCTIONS = {
    "BracketFailure": "exception",
    "CanonicalTriangle": "class",
    "ContainerVariant": "class",
    "DEFAULT_MIN_ANGLE": "constant",
    "DEFAULT_SCALENE_MARGIN": "constant",
    "DEFAULT_TOLERANCES": "constant",
    "DegenerateTriangle": "exception",
    "GeometryError": "exception",
    "InvalidRegime": "exception",
    "InvalidSides": "exception",
    "Kind": "class",
    "MinimizerResult": "class",
    "NearRightAngleWarning": "warning",
    "NonFinite": "exception",
    "NotScalene": "exception",
    "OracleResult": "class",
    "Point": "class",
    "SELF_CONTAINER": "constant",
    "ShapeClass": "class",
    "SpecialContainer": "class",
    "Tolerances": "class",
    "Triangle": "class",
    "VerificationReport": "class",
}


def _kind(obj) -> str:
    if not inspect.isclass(obj):
        return "constant"
    if issubclass(obj, Warning):
        return "warning"
    return "exception" if issubclass(obj, BaseException) else "class"


def test_public_non_function_names():
    objects = {name: getattr(isokit, name) for name in isokit.__all__}
    got = {name: _kind(obj) for name, obj in objects.items() if not inspect.isfunction(obj)}
    assert got == PUBLIC_NON_FUNCTIONS


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

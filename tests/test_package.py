"""Package integrity: exports, declared dependencies and benchmark bindings."""

import ast
import importlib
import importlib.util
import inspect
import pathlib
import re
import sys

import numpy as np
import pytest

import fuchsian

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "fuchsian"


def test_every_export_resolves():
    missing = [name for name in fuchsian.__all__ if not hasattr(fuchsian, name)]
    assert missing == []


def test_third_party_imports_match_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    imported = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"fuchsian"}
    with open(ROOT / "pyproject.toml", "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group(0) for dep in deps}
    assert third_party == declared


def _tracing():
    spec = importlib.util.spec_from_file_location("_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def _trace_wraps():
    return _tracing().WRAPS


def test_benchmark_trace_bindings_exist():
    """Every binding the benchmark's trace mode wraps is still defined."""
    missing = []
    for module, path, _, _ in _trace_wraps():
        owner = importlib.import_module(f"fuchsian.{module}")
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        if owner is None or attr not in vars(owner):
            missing.append(f"{module}.{path}")
    assert missing == []


def test_benchmark_trace_hooks_install_and_uninstall(solved_example, domain_example):
    """Tracer.install wraps every binding it reads from owner.__dict__, the
    scalar steps reach the wrapped kernels, and uninstall restores them."""
    tracer = _tracing().Tracer()
    owners = []
    for module, path, _, _ in _trace_wraps():
        owner = getattr(fuchsian, module)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        owners.append((owner, attr, owner.__dict__[attr]))
    tracer.install(fuchsian)
    try:
        assert all(owner.__dict__[attr].__wrapped__ is fn for owner, attr, fn in owners)
        tracer.active = True
        u, w = domain_example.sample(np.random.default_rng(2), 1)
        pair = fuchsian.CirclePoint(u[0]), fuchsian.CirclePoint(w[0])
        fuchsian.boundary.inverse_step(solved_example, domain_example, *pair)
        fuchsian.boundary.extension_step(solved_example.params, *pair)
    finally:
        tracer.uninstall()
    assert all(owner.__dict__[attr] is fn for owner, attr, fn in owners)
    assert tracer.calls() == {"boundary.inverse_many": 1, "boundary.extension_many": 1}


def test_benchmark_row_arguments_are_angle_arrays():
    """The argument a trace counts rows of is an array of angles."""
    wrong = []
    for module, path, _, row_arg in _trace_wraps():
        if row_arg is None:
            continue
        fn = importlib.import_module(f"fuchsian.{module}")
        for part in path.split("."):
            fn = getattr(fn, part)
        name = list(inspect.signature(fn).parameters)[row_arg]
        if not name.endswith(("thetas", "angles")):
            wrong.append(f"{module}.{path} argument {row_arg} is {name!r}")
    assert wrong == []


def test_inverse_step_many_keeps_the_traced_contract(solved_example, domain_example):
    """The trace mode reads the hit count from the fourth item of
    inverse_step_many's result for `boundary.inverse_hit_ratio`."""
    from fuchsian.boundary import inverse_step_many
    from fuchsian.circle import TWO_PI
    from oracles import inverse_search_many

    params = list(inspect.signature(inverse_step_many).parameters)
    assert params == ["solved", "domain", "u_thetas", "w_thetas"]
    rng = np.random.default_rng(6)
    u, w = domain_example.sample(rng, 200)
    u = np.concatenate([u, rng.uniform(0.0, TWO_PI, 50)])
    w = np.concatenate([w, rng.uniform(0.0, TWO_PI, 50)])
    result = inverse_step_many(solved_example, domain_example, u, w)
    assert isinstance(result, tuple) and len(result) == 4
    count = result[3]
    assert count.shape == (250,) and np.issubdtype(count.dtype, np.integer)
    assert (count == inverse_search_many(solved_example, domain_example, u, w)[3]).all()


def test_no_scalar_moebius_kernel_in_src():
    """Every Moebius map applied to circle points goes through moebius_angles:
    no .apply, .apply_angle or .apply_complex call is left in src/, and
    MoebiusMap is a group element only."""
    from fuchsian.circle import MoebiusMap

    names = {"apply", "apply_angle", "apply_complex"}
    calls = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr in names:
                calls.append((path.name, node.lineno))
    assert calls == []
    assert [name for name in names if hasattr(MoebiusMap, name)] == []


def test_scalar_steps_are_one_row_calls():
    """Each scalar step calls its array form, and runs no loop and no kernel of its own."""
    steps = {
        ("boundary.py", "boundary_step"),
        ("boundary.py", "extension_step"),
        ("boundary.py", "inverse_step"),
        ("boundary.py", "RectDomain.locate"),
        ("coding.py", "code_geodesic"),
    }
    kernels = {"t_angles", "moebius_angles", "preimages"}
    found, wrong = set(), []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        defs = [(node.name, node) for node in tree.body if isinstance(node, ast.FunctionDef)]
        defs += [
            (f"{cls.name}.{node.name}", node)
            for cls in tree.body
            if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, ast.FunctionDef)
        ]
        for name, fn in defs:
            if (path.name, name) not in steps:
                continue
            found.add((path.name, name))
            nodes = list(ast.walk(fn))
            called = {
                call.func.attr if isinstance(call.func, ast.Attribute) else getattr(call.func, "id", None)
                for call in nodes
                if isinstance(call, ast.Call)
            }
            if name.split(".")[-1] + "_many" not in called:
                wrong.append(f"{name} does not call its _many form")
            wrong += [f"{name} calls {k}" for k in sorted(called & kernels)]
            if any(isinstance(node, (ast.For, ast.While)) for node in nodes):
                wrong.append(f"{name} has a loop")
    assert found == steps
    assert wrong == []


def test_identity_rows_come_from_index_tables():
    """identity_failures has four callers, and none builds its rows from NAMED letters."""
    from fuchsian.boundary import NAMED

    callers, wrong = set(), []
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, ast.FunctionDef):
                continue
            nodes = list(ast.walk(fn))
            if not any(
                isinstance(call, ast.Call) and getattr(call.func, "id", getattr(call.func, "attr", None)) == "identity_failures"
                for call in nodes
            ):
                continue
            callers.add(fn.name)
            wrong += [
                f"{path.name}:{node.lineno} {fn.name} builds a tuple of named-point letters"
                for node in nodes
                if isinstance(node, ast.Tuple)
                and any(isinstance(e, ast.Constant) and isinstance(e.value, str) and e.value in NAMED and len(e.value) == 1
                        for e in node.elts)
            ]
    assert callers == {"solve", "_verify_analytic", "markov_transition_matrix", "verify_dual_images"}
    assert wrong == []

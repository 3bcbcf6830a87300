"""Source-level invariants of the weylab package."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import weylab


def _package_nodes():
    for path in sorted(Path(weylab.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            yield path, node


def test_no_assert_statements_in_the_package():
    # invariants raise real exceptions: `python -O` strips assert statements
    found = [f"{path.name}:{node.lineno}" for path, node in _package_nodes()
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in weylab: {', '.join(found)}"


def test_no_global_warning_or_floating_point_switches():
    # np.seterr and warnings filters act process-wide and would switch off the
    # error::RuntimeWarning filter that catches inf/nan in certified code;
    # a local np.errstate stays allowed
    banned = {"seterr", "simplefilter", "filterwarnings"}
    found = []
    for path, node in _package_nodes():
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in banned:
                found.append(f"{path.name}:{node.lineno} {name}")
    assert not found, f"global warning switches in weylab: {', '.join(found)}"


def test_only_benchmarked_caches():
    # a cache stays only where the bench shows it pays: build_mollifier shares the
    # one family across a process, and ConvexPolygon._schedule serves the center,
    # inradius and inner parallel bodies of one polygon from one pass.  A new cache
    # joins this list together with its bench evidence.
    allowed = {"smoothing.py:build_mollifier", "geometry.py:_schedule"}
    caches = {"cache", "lru_cache", "cached_property"}
    found = set()
    for path, node in _package_nodes():
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for deco in node.decorator_list:
                target = deco.func if isinstance(deco, ast.Call) else deco
                name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
                if name in caches:
                    found.add(f"{path.name}:{node.name}")
    assert found <= allowed, f"unbenchmarked caches in weylab: {', '.join(sorted(found - allowed))}"


def test_benchmark_span_targets_exist():
    # perfbench/spans.py wraps these functions and methods by name, and a traced
    # run raises on a missing one; catch a deletion here instead
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for modname, qual in [*spans.SPANS, *spans.COUNTED]:
        target = importlib.import_module(modname)
        for name in qual.split("."):
            target = getattr(target, name, None)
        if not callable(target):
            missing.append(f"{modname}.{qual}")
    assert not missing, f"benchmark span targets missing: {', '.join(missing)}"


def test_geometry_imported_first_reaches_the_fd_solver():
    # ConvexPolygon.spectrum imports spectra inside the call, because spectra
    # imports geometry at load time; a fresh interpreter catches an import cycle
    code = ("import weylab.geometry as g\n"
            "s = g.ConvexPolygon.regular(6).spectrum('dirichlet', 200.0, 0.02)\n"
            "print(len(s), s.exact, s.domain['shape'])")
    src = str(Path(weylab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    count, exact, shape = out.stdout.split()
    assert int(count) > 0 and exact == "False" and shape == "polygon"

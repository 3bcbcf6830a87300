"""Source-level invariants of the weylab package."""

import ast
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import weylab

REPO = Path(__file__).resolve().parents[1]

# Public functions and methods that no README line reaches yet.  Each names the
# perfbench file that binds it or the open ROADMAP item that will reach it; the
# names that perfbench/spans.py wraps are read from that file instead.
NOT_YET_REACHED = {
    "weylab.geometry.ConvexPolygon.regular": "perfbench/run.py",
    "weylab.geometry.inradius": "perfbench/checks.py",
    "weylab.spectra.Spectrum.load": "perfbench/checks.py",
    # their one caller in weylab is a method that spans.py counts (conv_jump_measure,
    # smoothed_distribution); item 8 deletes those with the name-wrapping spans
    "weylab.smoothing.PhiHierarchy.phi_k": "item 8",
    "weylab.smoothing.PhiHierarchy.chi_cdf": "item 8",
    "weylab.spectra.dirichlet_neumann_trace_gap": "item 3",
    "weylab.smoothing.reflection_heat_bound": "item 4",
    "weylab.riesz.SampledFunction.sup_abs": "item 13",
    "weylab.riesz.interpolation_constant": "item 13",
    "weylab.riesz.riesz_interpolation_certificate": "item 13",
    "weylab.riesz.riesz_lift": "item 13",
    "weylab.riesz.semigroup_check": "item 13",
}


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


def test_input_rules_live_in_constants():
    # "finite and > 0" and "finite and >= 0" are weylab.constants.check_positive and
    # check_nonnegative; a hand-written copy tends to drop the finiteness and let NaN
    # or inf through.  riesz keeps its own, since importing it loads no other module.
    rule = re.compile(r"must be (finite and )?>=? 0")
    found = []
    for path, node in _package_nodes():
        if path.name in ("constants.py", "riesz.py") or not isinstance(node, ast.Raise):
            continue
        text = " ".join(c.value for c in ast.walk(node)
                        if isinstance(c, ast.Constant) and isinstance(c.value, str))
        if rule.search(text):
            found.append(f"{path.name}:{node.lineno}")
    assert not found, f"hand-written input rules outside constants: {', '.join(found)}"


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


def _span_targets():
    """(module, function or Class.method) pairs that perfbench/spans.py wraps by name."""
    spec = importlib.util.spec_from_file_location("perfbench_spans",
                                                  REPO / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [*spans.SPANS, *spans.COUNTED]


def _public_functions():
    """(file, first line) -> dotted name of every public function and method of weylab.

    Public: a module-level function, or a function in the body of a module-level
    class (properties included), whose name has no leading underscore.  The
    first line is the one a code object reports: the first decorator's, if any.
    """
    found = {}
    for path in sorted(Path(weylab.__file__).resolve().parent.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                members = [(node, node.name)]
            elif isinstance(node, ast.ClassDef):
                members = [(f, f"{node.name}.{f.name}") for f in node.body
                           if isinstance(f, ast.FunctionDef)]
            else:
                continue
            for func, qual in members:
                if not func.name.startswith("_"):
                    first = func.decorator_list[0].lineno if func.decorator_list else func.lineno
                    found[(str(path), first)] = f"weylab.{path.stem}.{qual}"
    return found


def test_every_public_function_is_reached(readme_block_run):
    # the product is what the reports reach: a public function that no README
    # line enters needs an entry in NOT_YET_REACHED, and an entry goes as soon
    # as its name is gone or the README block enters it
    _, entered = readme_block_run
    public = _public_functions()
    reached = {public.get((os.path.realpath(code.co_filename), code.co_firstlineno))
               for code in entered}
    bound = {f"{mod}.{qual}" for mod, qual in _span_targets()}
    unreached = sorted(set(public.values()) - reached - bound - set(NOT_YET_REACHED))
    assert not unreached, f"public functions that no README line reaches: {', '.join(unreached)}"
    stale = sorted(name for name in NOT_YET_REACHED
                   if name not in public.values() or name in reached)
    assert not stale, f"NOT_YET_REACHED entries that are gone or now reached: {', '.join(stale)}"


def test_not_yet_reached_names_a_binder_or_an_open_item():
    # an entry names a perfbench file that uses the name, or an open ROADMAP item;
    # only the open items count, not the numbered aims above them
    open_items = (REPO / "ROADMAP.md").read_text().split("\n## Open items\n", 1)[1]
    wrong = []
    for name, why in NOT_YET_REACHED.items():
        if why.startswith("perfbench/"):
            path = REPO / why
            ok = path.is_file() and re.search(rf"\b{name.rsplit('.', 1)[1]}\b", path.read_text())
        else:
            item = re.fullmatch(r"item (\d+)", why)
            ok = item and re.search(rf"^{item[1]}\. \*\*", open_items, re.M)
        if not ok:
            wrong.append(f"{name}: {why}")
    assert not wrong, f"entries that name neither a perfbench user nor an open item: {wrong}"


def _fresh(code, *args):
    """stdout of `code` run in a fresh interpreter with weylab's src on the path."""
    src = str(Path(weylab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                         env=env)
    assert out.returncode == 0, out.stderr
    return out.stdout


def test_benchmark_span_targets_exist():
    # perfbench/worker.py imports weylab.cli alone, then spans.py wraps these
    # functions and methods by name in sys.modules, and a traced run raises on a
    # missing one; a fresh interpreter that imports the same catches a deleted
    # target and a module that cli no longer loads
    code = ("import json, sys\n"
            "import weylab.cli\n"
            "missing = []\n"
            "for modname, qual in json.loads(sys.argv[1]):\n"
            "    target = sys.modules.get(modname)\n"
            "    for name in qual.split('.'):\n"
            "        target = getattr(target, name, None)\n"
            "    if not callable(target):\n"
            "        missing.append(f'{modname}.{qual}')\n"
            "print(json.dumps(missing))")
    missing = json.loads(_fresh(code, json.dumps(_span_targets())))
    assert not missing, f"benchmark span targets missing: {', '.join(missing)}"


@pytest.mark.parametrize("module", ["weylab", "weylab.constants", "weylab.riesz"])
def test_a_module_import_loads_no_other_module_and_no_scipy(module):
    # the package root binds only __version__, and constants and riesz need only
    # math and numpy: importing one of them loads no other weylab module and no scipy
    code = (f"import sys, {module}\n"
            "print(*(m for m in sys.modules if m.startswith(('weylab.', 'scipy'))))")
    loaded = set(_fresh(code).split()) - {module}
    assert not loaded, f"import {module} loads {len(loaded)} modules: {sorted(loaded)[:8]}"


def test_geometry_imported_first_reaches_the_fd_solver():
    # ConvexPolygon.spectrum imports spectra inside the call, because spectra
    # imports geometry at load time; a fresh interpreter catches an import cycle
    code = ("import weylab.geometry as g\n"
            "s = g.ConvexPolygon.regular(6).spectrum('dirichlet', 200.0, 0.02)\n"
            "print(len(s), s.exact, s.domain['shape'])")
    count, exact, shape = _fresh(code).split()
    assert int(count) > 0 and exact == "False" and shape == "polygon"

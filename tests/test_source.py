"""Source-level invariants of the weylab package."""

import ast
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

"""Source-level invariants of the weylab package."""

import ast
from pathlib import Path

import weylab


def test_no_assert_statements_in_the_package():
    # invariants raise real exceptions: `python -O` strips assert statements
    found = []
    for path in sorted(Path(weylab.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"assert statements in weylab: {', '.join(found)}"

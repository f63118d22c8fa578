"""Rules that every module of the package keeps."""

import ast
from pathlib import Path

import minranklab


def test_no_assert_statements():
    # `python -O` strips asserts, so a check that guards an answer must raise
    package = Path(minranklab.__file__).parent
    found = [
        f"{path.relative_to(package)}:{node.lineno}"
        for path in sorted(package.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []

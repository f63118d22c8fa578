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


def test_only_the_cli_reads_the_clock():
    # timings vary between runs, so results computed below the CLI stay
    # byte-identical across reruns only if nothing there reads the clock
    package = Path(minranklab.__file__).parent
    clocks = {"time", "datetime"}
    found = []
    for path in sorted(package.rglob("*.py")):
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] in clocks for name in names):
                found.append(f"{path.relative_to(package)}:{node.lineno}")
    assert found == []

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


def _imported_modules(path: Path):
    """(line, top-level name) of every absolute import in a source file."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        for name in names:
            yield node.lineno, name.split(".")[0]


def test_only_the_cli_reads_the_clock():
    # timings vary between runs, so results computed below the CLI stay
    # byte-identical across reruns only if nothing there reads the clock
    package = Path(minranklab.__file__).parent
    found = [
        f"{path.relative_to(package)}:{line}"
        for path in sorted(package.rglob("*.py"))
        if path.name != "cli.py"
        for line, name in _imported_modules(path)
        if name in {"time", "datetime"}
    ]
    assert found == []


def test_no_module_starts_processes():
    # every solve and sweep runs in one process, so no answer and no cost
    # depends on a worker count or a schedule
    package = Path(minranklab.__file__).parent
    found = [
        f"{path.relative_to(package)}:{line}"
        for path in sorted(package.rglob("*.py"))
        for line, name in _imported_modules(path)
        if name in {"concurrent", "multiprocessing", "subprocess"}
    ]
    assert found == []


def test_only_parallel_starts_processes():
    # parallel.py held the package's one process pool; it is deleted, so no
    # module is left that may start processes
    package = Path(minranklab.__file__).parent
    found = [
        str(path.relative_to(package))
        for path in sorted(package.rglob("*.py"))
        if "parallel" in (path.stem, path.parent.name)
    ]
    assert found == []


def test_the_solver_imports_nothing_from_parallel():
    # a solve runs in one process, so its answer and its cost cannot depend
    # on a worker count
    tree = ast.parse((Path(minranklab.__file__).parent / "minrank.py").read_text())
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name for alias in node.names]
            if isinstance(node, ast.ImportFrom):
                names.append(node.module or "")
            found += [node.lineno for name in names if name.split(".")[-1] == "parallel"]
    assert found == []


def test_the_solver_imports_no_product():
    # the pivot-set scan fills its free cells depth-first and prunes a subtree
    # as soon as a vertex test fails; a loop over itertools.product would fill
    # all p^cells fillings before it tested any vertex
    tree = ast.parse((Path(minranklab.__file__).parent / "minrank.py").read_text())
    found = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and node.module == "itertools"
        and any(alias.name == "product" for alias in node.names)
        or isinstance(node, ast.Attribute)
        and node.attr == "product"
        and isinstance(node.value, ast.Name)
        and node.value.id == "itertools"
    ]
    assert found == []


def test_no_private_imports_between_modules():
    # a name another module needs is part of its owner's interface, so it is
    # public; `_name` stays free to change inside its own module
    package = Path(minranklab.__file__).parent
    found = [
        f"{path.relative_to(package)}:{node.lineno} {alias.name}"
        for path in sorted(package.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.endswith("__")
    ]
    assert found == []


def test_one_modular_inverse():
    # every elimination over GF(p), list or packed rows, scales its pivots by
    # matrices._inverse, the one place that inverts mod p, as
    # pow(x, p - 2, p); a modular power with any other exponent inverts
    # nothing and is not counted
    package = Path(minranklab.__file__).parent
    found = [
        f"{path.relative_to(package)}"
        for path in sorted(package.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "pow"
        and len(node.args) == 3
        and ast.unparse(node.args[1]).endswith(" - 2")
    ]
    assert found == ["matrices.py"]

"""The package imports nothing outside the standard library, declares no
dependency, its modules import each other without a cycle, and the CLI
starts without the heavy introspection modules.  The benchmark's reference,
whose region semantics the oracle's naive rules run on, imports nothing from
the package."""

import ast
import re
import sys
from pathlib import Path

from harness import ROOT, TP2_PATH, run_process

SOURCES = sorted((ROOT / "src" / "hyperbelief").glob("*.py"))


def absolute_imports(path: Path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_package_imports_only_the_standard_library():
    assert SOURCES
    outside = {
        f"{path.name}: {name}"
        for path in SOURCES
        for name in absolute_imports(path)
        if name.split(".")[0] not in sys.stdlib_module_names
    }
    assert not outside


def test_the_reference_imports_nothing_from_the_package():
    # the naive rules in tests/oracle.py are the engine's arbiters only while
    # the regions they run on are computed without the engine
    imported = list(absolute_imports(ROOT / "perfbench" / "reference.py"))
    assert "json" in imported  # the walker sees the module's imports
    assert [name for name in imported if name.split(".")[0] == "hyperbelief"] == []


def package_imports(path: Path):
    """The package modules ``path`` imports when it loads: relative imports in
    the module body, in ``if``/``try`` blocks, but not under ``if TYPE_CHECKING:``."""
    body = list(ast.parse(path.read_text(encoding="utf-8"), str(path)).body)
    while body:
        node = body.pop()
        if isinstance(node, ast.If):
            if not (isinstance(node.test, ast.Name) and node.test.id == "TYPE_CHECKING"):
                body += node.body
            body += node.orelse
        elif isinstance(node, ast.Try):
            body += node.body + node.orelse + node.finalbody
            body += [stmt for handler in node.handlers for stmt in handler.body]
        elif isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                yield from (alias.name for alias in node.names)
            else:
                yield node.module.split(".")[0]


def test_package_modules_import_no_cycle():
    graph = {path.stem: set(package_imports(path)) for path in SOURCES}
    assert any(graph.values())  # the walker sees the package's own imports
    done, stack = set(), []

    def visit(module):
        assert module not in stack, "import cycle: " + " -> ".join(stack + [module])
        if module in done or module not in graph:
            return
        stack.append(module)
        for imported in sorted(graph[module]):
            visit(imported)
        stack.pop()
        done.add(module)

    for module in sorted(graph):
        visit(module)


def test_pyproject_declares_no_dependencies():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert re.search(r"^dependencies = \[\]$", text, re.MULTILINE)


def test_cli_import_skips_dataclasses_and_inspect():
    """``dataclasses`` pulls in ``inspect``, ``ast``, ``dis`` and ``tokenize``,
    ``argparse`` is heavy too, and ``copy`` brings ``weakref``, which the package
    never needs; every CLI run is a fresh process, so none of them may load at
    start-up, nor lazily on any subcommand's path.  One ``-S``
    process (no site hooks loading modules of their own) imports the CLI, then
    runs one op of each subcommand, help and a usage error.  Those runs import
    no module at all: a lazy import would move its compile time into a run."""
    tp2 = str(TP2_PATH)
    runs = [
        ["fuse", tp2, "--format", "json"],
        ["compare", tp2],
        ["enumerate", "--n", "3"],
        ["check-logic"],
        ["--help"],
        ["fuse"],
    ]
    code = (
        "import io, sys, hyperbelief.cli as cli\n"
        "loaded = set(sys.modules)\n"
        "out, sys.stdout, sys.stderr = sys.stdout, io.StringIO(), io.StringIO()\n"
        f"codes = [cli.main(argv) for argv in {runs!r}]\n"
        "sys.stdout = out\n"
        "print(codes, sorted({'argparse', 'copy', 'dataclasses', 'inspect', 'weakref'} & set(sys.modules)),"
        " sorted(set(sys.modules) - loaded))"
    )
    run = run_process("-S", "-c", code, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[0, 0, 0, 0, 0, 2] [] []"

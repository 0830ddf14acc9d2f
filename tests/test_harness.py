"""One benchmark harness: ``perfbench/run.py`` is where the repo times itself.

The pytest suites under ``benchmarks/`` regenerate paper tables and
figures, and ``tests/`` checks behaviour; neither times the code. These
tests keep a second timing harness from creeping back in: no module there
imports the removed ledger module or its timing helpers, and the CLI has
no ``bench`` or ``serve-bench`` subcommand.

They also keep both suites runnable from a clean install of the ``test``
extra: a module there may import only the stdlib, numpy, scipy, pytest,
``repro``, a sibling module and what the extra declares.
"""

import ast
import importlib.util
import pathlib
import re
import sys
import tomllib

import pytest

import repro.utils
from repro.cli import main as cli_main

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: names whose import means a timing harness is back
REMOVED_MODULE = "repro.obs.bench"
REMOVED_NAMES = {"measure_repeated", "TimingResult"}


def _harness_imports(path: pathlib.Path) -> list:
    """``(line, what)`` for every import of the removed harness in ``path``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names
                      if alias.name.startswith(REMOVED_MODULE)]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = {alias.name for alias in node.names}
            if node.module.startswith(REMOVED_MODULE):
                found.append((node.lineno, node.module))
            elif node.module == "repro.obs" and "bench" in names:
                found.append((node.lineno, "repro.obs.bench"))
            found += [(node.lineno, name)
                      for name in sorted(names & REMOVED_NAMES)]
    return found


@pytest.mark.parametrize("directory", ["benchmarks", "tests"])
def test_no_module_imports_the_removed_harness(directory):
    modules = sorted((REPO_ROOT / directory).rglob("*.py"))
    assert modules
    offenders = {str(path.relative_to(REPO_ROOT)): found
                 for path in modules if (found := _harness_imports(path))}
    assert offenders == {}


def test_removed_harness_is_gone_from_the_package():
    assert importlib.util.find_spec(REMOVED_MODULE) is None
    assert not REMOVED_NAMES & set(dir(repro.utils))


def test_bench_is_not_a_subcommand(capsys):
    for command in ("bench", "serve-bench"):
        with pytest.raises(SystemExit) as excinfo:
            cli_main([command])
        assert excinfo.value.code == 2          # argparse's usage error
        assert f"invalid choice: '{command}'" in capsys.readouterr().err


def _declared_test_deps() -> set:
    """Import names of the runtime dependencies and the ``test`` extra."""
    project = tomllib.loads(
        (REPO_ROOT / "pyproject.toml").read_text())["project"]
    requirements = (project["dependencies"]
                    + project["optional-dependencies"]["test"])
    return {re.match(r"[A-Za-z0-9_.-]+", requirement).group()
            .lower().replace("-", "_") for requirement in requirements}


def _third_party_imports(path: pathlib.Path, allowed: set) -> list:
    """``(line, module)`` for every import in ``path`` whose top-level
    package is not in ``allowed``; relative imports are the suite's own."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [(node.lineno, name) for name in names
                  if name.partition(".")[0] not in allowed]
    return found


@pytest.mark.parametrize("directory", ["benchmarks", "tests"])
def test_suite_imports_only_declared_dependencies(directory):
    modules = sorted((REPO_ROOT / directory).rglob("*.py"))
    assert modules
    allowed = (set(sys.stdlib_module_names) | _declared_test_deps()
               | {"repro"} | {path.stem for path in modules})
    offenders = {str(path.relative_to(REPO_ROOT)): found
                 for path in modules
                 if (found := _third_party_imports(path, allowed))}
    assert offenders == {}

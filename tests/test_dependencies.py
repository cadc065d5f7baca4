"""The runtime needs numpy and the standard library only.

SciPy is a test dependency: the suite checks the in-repo assignment solver
against ``scipy.optimize.linear_sum_assignment``, but no program module may
import it, since loading it more than doubles a process's import footprint.

The direct simulator is the oracle the action-graph path is checked
against, so the modules it lives in share no code with that path.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "posauction"


def _third_party_imports() -> set[str]:
    names = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"posauction"}


def test_program_imports_only_numpy_beyond_the_standard_library():
    assert _third_party_imports() == {"numpy"}


def test_declared_dependencies_are_the_imported_ones():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", spec).group(0).lower()
                for spec in project["dependencies"]}
    assert declared == _third_party_imports()


def test_import_loads_no_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    code = ("import sys, posauction, posauction.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def _package_imports(path: Path) -> set[str]:
    """The posauction modules that ``path`` imports, by short name."""
    full = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            full += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["posauction" if node.level else None, node.module]))
            full += ([base] if node.module else
                     [f"{base}.{alias.name}" for alias in node.names])
    return {name.split(".")[1] for name in full if name.startswith("posauction.")}


@pytest.mark.parametrize("module", ["models", "mechanisms", "metrics"])
def test_oracle_modules_import_nothing_from_the_game_path(module):
    assert _package_imports(PACKAGE / f"{module}.py").isdisjoint(
        {"agg", "encoders", "solver"})


def test_package_imports_are_read_in_every_form(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text("from .agg import x\nfrom . import solver\n"
                    "import posauction.encoders\nfrom posauction.models import y\n")
    assert _package_imports(path) == {"agg", "solver", "encoders", "models"}

"""What importing tailrisk loads, and no unused imports in its modules.

No linter runs on this code base, so the scan below stands in for the
unused-import rule: every name an ``import`` binds must be read somewhere
in the same module.  Names re-exported through ``__all__`` and
``from __future__`` imports are exempt.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "tailrisk").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))


def _exported(tree: ast.Module) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {elt.value for elt in node.value.elts}
    return set()


def unused_imports(source: str) -> list:
    """Names bound by imports in ``source`` that nothing reads, in import order."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    exempt = used | _exported(tree)
    return [name for name in bound if name not in exempt]


def test_scan_covers_package_and_demos():
    assert len(MODULES) == 13


def test_scan_flags_unused_and_spares_used_names():
    source = (
        "from __future__ import annotations\n"
        "import os, numpy as np\n"
        "import os.path\n"
        "from typing import Optional, Union\n"
        "from .x import shown\n"
        "__all__ = ['shown']\n"
        "def f(a: Optional[int]):\n"
        "    return np.zeros(a)\n"
    )
    assert unused_imports(source) == ["os", "os", "Union"]


@pytest.mark.parametrize("path", MODULES, ids=[f"{p.parent.name}/{p.name}" for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_import_loads_neither_optimize_nor_integrate():
    # every CLI process pays for what `import tailrisk` loads; quadrature
    # is imported where it is used
    code = (
        "import sys, tailrisk; "
        "print(sorted(m for m in ('scipy.optimize', 'scipy.integrate') if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"

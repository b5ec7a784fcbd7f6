"""What importing tailrisk loads, no unused imports and no dead private names.

No linter runs on this code base, so the scans below stand in for two
rules.  Unused imports: every name an ``import`` binds must be read
somewhere in the same module; names re-exported through ``__all__`` and
``from __future__`` imports are exempt.  Dead private names: every
single-underscore name bound at module or class level in the package must
be read somewhere in the package, as a name or as an attribute.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "tailrisk").glob("*.py"))
MODULES = PACKAGE + sorted((ROOT / "demos").glob("*.py"))


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


def _private_definitions(body: list) -> list:
    """Single-underscore names bound in ``body`` and in its classes' bodies."""
    names = []
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
            if isinstance(node, ast.ClassDef):
                names += _private_definitions(node.body)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                elts = target.elts if isinstance(target, ast.Tuple) else [target]
                names += [t.id for t in elts if isinstance(t, ast.Name)]
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def dead_private_names(sources: dict) -> list:
    """``module:name`` for each private module- or class-level name that no
    module in ``sources`` (module name -> source) reads."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return [f"{mod}:{name}" for mod, tree in trees.items()
            for name in _private_definitions(tree.body) if name not in read]


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


def test_dead_name_scan_flags_unread_and_spares_read_names():
    sources = {
        "a": (
            "_LIMIT, _SPARE = 1, 2\n"
            "def _helper(x):\n"
            "    return x\n"
            "def _orphan():\n"
            "    pass\n"
            "class K:\n"
            "    _tag: str = 'k'\n"
            "    def _hook(self):\n"
            "        return self._tag\n"
            "    def __len__(self):\n"
            "        return 0\n"
        ),
        "b": (
            "from .a import _helper, K\n"
            "def run(k: K, _unused=0):\n"
            "    _local = k._hook()\n"
            "    return _helper(_LIMIT)\n"
        ),
    }
    assert dead_private_names(sources) == ["a:_SPARE", "a:_orphan"]


def test_no_dead_private_names():
    assert dead_private_names({p.stem: p.read_text() for p in PACKAGE}) == []


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

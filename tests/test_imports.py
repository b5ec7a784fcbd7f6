"""What importing tailrisk loads, no unused imports and no dead private names.

``import tailrisk`` loads no scipy module: ``scipy.special`` loads on the
first Student t evaluation, so the tests below also check that Student t
results keep their bits whenever it loads.

No linter runs on this code base, so the scans below stand in for two
rules.  Unused imports, in the package, the demos and the tests: every
name an ``import`` binds must be read somewhere in the same module; names
re-exported through ``__all__`` and ``from __future__`` imports are
exempt.  Dead private names: every single-underscore name bound at module
or class level in the package must be read somewhere in the package, as a
name or as an attribute.  Unused references: every public function of
``tests/oracle.py``, and every public method of its classes, must be read
by another test module, and its private names within it.  Scale-free
tolerances: no ``1.0 + abs(`` or ``1.0 + np.abs(`` in the package, a
tolerance that turns absolute below magnitude 1; a check compares to a
share of its identity's own terms.  One level-to-order-statistic rule: the
package calls ``ceil`` only in ``distributions.order_stats``, which turns
levels into order statistics, and at the listed sites that round a sample
size, a window or a rank.  One tail classification: ``cli.py`` reads no
``.rho``, calls no ``.centered(`` and compares no ``.family``, so the
commands print what ``asymptotics`` decides about a law's tail, and the
removed ``gumbel_relation`` is named nowhere in the package, the demos or
the tests but here.  One way to name a law: ``cli.py`` imports only
``parse_distribution`` from ``distributions`` and declares no per-family
``--a`` or ``--nu`` option.  One spec grammar: the package splits a spec at its
``:`` (``.partition(":")``) only in ``distributions._parse_spec``, defines
``with_shift`` once, and names none of the per-family tables and label
hooks that the classes' ``family`` and ``params`` replaced.  One sampler:
the package defines ``_draw`` once, in ``Distribution``, so every family
samples through its one quantile formula and keeps no second copy of it.
One Student t deep tail: the package calls ``stdtr`` only in
``StudentT._cdf0`` and ``stdtrit`` only in
``distributions._t_lower_quantile``.  One expectile
step: the names of the Newton solver's removed slope, chord and bisection
appear nowhere in the package, the demos or the tests but here, and the
package writes no ``1 - 2 * alpha``, whose weight denominator
alpha + (1 - 2 alpha) beta cancels near 1.  One expectile level range:
only ``risk_core`` reads ``_ALPHA_CAP`` (as a name, an attribute or an
import), so the CLI reports the library's own refusal.  Every family
defines its hooks: each class in ``distributions._FAMILIES`` takes each of
``_cdf0``, ``_quantile0``, ``_mean0``, ``_es0``, ``_pdf0``, ``_support0``
and ``mda`` from a class below ``Distribution`` in its MRO, which declares
none of them.  One owner of the table levels: ``montecarlo`` imports
nothing from ``asymptotics``, so its levels are checked by ``risk_core``'s
expectile range, not by the expansion formulas' domain.  One level floor:
``2 ** -53`` is written once in the package, as ``distributions._U_FLOOR``.
One step quantile of an atomic law: the package tests a source with
``isinstance(..., TwoPoint)`` only in ``risk_core._step_quantile``.  One
scenario parser: the package calls ``loadtxt`` once, in
``Portfolio.from_csv``, whose memo spares repeated reads of one file the
parse, and ``cli.py`` opens no file for reading and calls no other reader
(``genfromtxt``, ``fromfile``, ``read_csv``, ``csv.reader``,
``read_text``, ``read_bytes``), so it reads scenarios only through
``from_csv`` and keeps no memo of its own.
"""

import ast
import json
import os
import pickle
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from tailrisk import StudentT
from tailrisk.distributions import _FAMILIES, Distribution

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "tailrisk").glob("*.py"))
MODULES = PACKAGE + [p for d in ("demos", "tests") for p in sorted((ROOT / d).glob("*.py"))]
ORACLE = ROOT / "tests" / "oracle.py"


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


def test_scan_covers_package_demos_and_tests():
    assert len(MODULES) == 26 and ORACLE in MODULES


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


_ABSOLUTE_FLOOR = re.compile(r"1\.0\s*\+\s*(np\.)?abs\(")


def test_floor_scan_flags_tolerances_absolute_below_magnitude_one():
    assert _ABSOLUTE_FLOOR.search("if err > 1e-7 * (1.0 + abs(val)):")
    assert _ABSOLUTE_FLOOR.search("np.any(d > tol * (1.0 +np.abs(x)))")
    assert not _ABSOLUTE_FLOOR.search("if err > 1e-7 * terms:")


@pytest.mark.parametrize("path", PACKAGE, ids=[p.name for p in PACKAGE])
def test_no_absolute_tolerance_floors(path):
    lines = enumerate(path.read_text().splitlines(), 1)
    assert [f"{i}: {line}" for i, line in lines if _ABSOLUTE_FLOOR.search(line)] == []


# (module, function) -> calls of ceil: the level-to-order-statistic rule,
# the selection's strided-sample rank, two sample sizes and the Hill window
_CEIL_SITES = {
    ("distributions", "order_stats"): 2,
    ("risk_core", "_select"): 1,
    ("concentration", "size"): 1,
    ("concentration", "var_sample_size"): 1,
    ("asymptotics", "hill_estimator"): 1,
}


def call_sites(source: str, is_site) -> list:
    """The function around each call in ``source`` that ``is_site`` accepts,
    in order; "<module>" outside any function."""
    sites = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call) and is_site(child):
                sites.append(func)
            visit(child, func)

    visit(ast.parse(source), "<module>")
    return sites


def _calls(name: str):
    """The ``call_sites`` test for a call of ``name``, bare or as an attribute."""
    def is_site(call: ast.Call) -> bool:
        f = call.func
        return (f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)) == name
    return is_site


def ceil_sites(source: str) -> list:
    """The function around each call of a ``ceil`` (``math.ceil``,
    ``np.ceil`` or a bare ``ceil``) in ``source``, in order."""
    return call_sites(source, _calls("ceil"))


def test_ceil_scan_names_the_function_around_each_call():
    source = (
        "import math, numpy as np\n"
        "K = math.ceil(2.5)\n"
        "def f(x):\n"
        "    return int(np.ceil(x)) + ceil(x)\n"
        "class C:\n"
        "    def g(self, n):\n"
        "        '''ceil(n) in a docstring is no call'''\n"
        "        return math.floor(n) + self.ceil\n"
    )
    assert ceil_sites(source) == ["<module>", "f", "f"]


def test_levels_become_order_statistics_in_one_function():
    # a fifth level-to-index rule next to order_stats would be a new site
    sites = Counter((p.stem, f) for p in PACKAGE for f in ceil_sites(p.read_text()))
    assert sites == _CEIL_SITES


def test_the_t_kernels_have_one_call_site_each():
    # the CDF calls stdtr; the quantile calls stdtrit, which also starts
    # _t_deep_tail below 2^-53.  A second route back through stdtr, such
    # as a polish of the deep tail, would be a new site
    for kernel, site in (("stdtr", "_cdf0"), ("stdtrit", "_t_lower_quantile")):
        sites = [(p.stem, f) for p in PACKAGE for f in call_sites(p.read_text(), _calls(kernel))]
        assert sites == [("distributions", site)], kernel


def tail_rederivations(source: str) -> list:
    """``line: what`` for each read of ``.rho``, call of ``.centered(`` and
    comparison with a ``.family`` in ``source``, in line order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == "rho" \
                and isinstance(node.ctx, ast.Load):
            found.append((node.lineno, ".rho"))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "centered":
            found.append((node.lineno, ".centered("))
        elif isinstance(node, ast.Compare) and any(
                isinstance(x, ast.Attribute) and x.attr == "family"
                for x in [node.left, *node.comparators]):
            found.append((node.lineno, ".family"))
    return [f"{line}: {what}" for line, what in sorted(found)]


def test_tail_rederivation_scan_flags_what_the_library_decides():
    source = (
        "tail = dist.centered().mda()\n"
        "if tail.rho is None or dist.family == 'exp':\n"
        "    pass\n"
        "cls = dist.mda()\n"
        "print(dist.label, cls.relation, cls.mda == 'gumbel', family(2.0))\n"
        "x.rho = 1.0\n"
    )
    assert tail_rederivations(source) == ["1: .centered(", "2: .family", "2: .rho"]


def test_cli_renders_the_tail_classification_it_is_given():
    # asympt and figure print the classification and the expansions'
    # refusals; the decision what a law's tail allows is made in asymptotics
    assert tail_rederivations((ROOT / "src" / "tailrisk" / "cli.py").read_text()) == []


# per-family parameter flags, which would name a law outside the spec grammar
_FAMILY_FLAGS = ("--a", "--nu")


def law_bypasses(source: str) -> list:
    """``line: what`` for each name that ``source`` imports from a
    ``distributions`` module other than ``parse_distribution``, and each
    per-family option (``--a``, ``--nu``) it declares, in line order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] \
                == "distributions":
            found += [(node.lineno, f"import {a.name}") for a in node.names
                      if a.name != "parse_distribution"]
        elif isinstance(node, ast.Import):
            found += [(node.lineno, f"import {a.name}") for a in node.names
                      if a.name.split(".")[-1] == "distributions"]
        elif isinstance(node, ast.Call) and _calls("add_argument")(node):
            found += [(node.lineno, f"option {a.value}") for a in node.args
                      if getattr(a, "value", None) in _FAMILY_FLAGS]
    return [f"{line}: {what}" for line, what in sorted(found)]


def test_law_bypass_scan_flags_family_imports_and_flags():
    source = (
        "import tailrisk.distributions\n"
        "from .distributions import Pareto, parse_distribution\n"
        "from .risk_core import expectile\n"
        "p.add_argument('--dist', required=True)\n"
        "p.add_argument('--nu', type=float, help='--a is named in help only')\n"
        "p.add_argument('-a', '--a')\n"
    )
    assert law_bypasses(source) == ["1: import tailrisk.distributions", "2: import Pareto",
                                     "5: option --nu", "6: option --a"]


def test_cli_names_every_law_through_the_spec_grammar():
    # each subcommand, figure included, reads its law from --dist through
    # parse_distribution; a family class or a per-family flag in cli.py
    # would be a second way to name a law
    assert law_bypasses((ROOT / "src" / "tailrisk" / "cli.py").read_text()) == []


def test_gumbel_relation_is_named_nowhere():
    # the Gumbel relation is a field of the classification, EvClassification.relation
    assert [p.name for p in MODULES if p != Path(__file__).resolve()
            and "gumbel_relation" in p.read_text()] == []


def _is_spec_split(call: ast.Call) -> bool:
    """``x.partition(":")``: a spec split into its name and its parameters."""
    return isinstance(call.func, ast.Attribute) and call.func.attr == "partition" \
        and [getattr(a, "value", None) for a in call.args] == [":"]


def definitions(source: str) -> Counter:
    """How often each function or method name is defined in ``source``."""
    return Counter(n.name for n in ast.walk(ast.parse(source))
                   if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)))


def test_spec_scans_flag_colon_splits_and_count_definitions():
    source = (
        "import numpy as np\n"
        "def _parse_spec(text):\n"
        "    head, _, body = text.partition(':')\n"
        "    return [item.partition('=') for item in body.split(',')]\n"
        "class Law:\n"
        "    def with_shift(self, s):\n"
        "        return np.partition(s, 1), self.label.partition(\":\")\n"
        "    def label(self):\n"
        "        'text.partition(\":\") in a docstring is no call'\n"
        "class Shifted(Law):\n"
        "    def with_shift(self, s):\n"
        "        pass\n"
    )
    assert call_sites(source, _is_spec_split) == ["_parse_spec", "with_shift"]
    assert definitions(source) == Counter({"with_shift": 2, "_parse_spec": 1, "label": 1})


def test_specs_are_split_in_one_grammar():
    # a second spec parser next to _parse_spec would be a second grammar
    sites = [(p.stem, f) for p in PACKAGE for f in call_sites(p.read_text(), _is_spec_split)]
    assert sites == [("distributions", "_parse_spec")]


def test_with_shift_is_defined_once():
    # Distribution.with_shift copies every family, a subclass included
    assert sum(definitions(p.read_text())["with_shift"] for p in PACKAGE) == 1


def test_draw_is_defined_once_in_distribution():
    # Distribution._draw samples every family through the family's one
    # quantile formula, written over the draw's own uniforms: a second
    # _draw would be a second copy of some family's formula
    assert sum(definitions(p.read_text())["_draw"] for p in PACKAGE) == 1
    tree = ast.parse((ROOT / "src" / "tailrisk" / "distributions.py").read_text())
    base = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "Distribution")
    assert "_draw" in definitions(ast.unparse(base))


# the per-family spec tables and label hooks that the classes' own
# ``family`` and ``params`` replaced
_REMOVED_SPEC_NAMES = ("_FAMILY_PARAMS", "_TAIL_FAMILIES", "_params_label", "_label_params")


def test_removed_spec_names_are_named_nowhere():
    assert [(p.name, name) for p in MODULES if p != Path(__file__).resolve()
            for name in _REMOVED_SPEC_NAMES if name in p.read_text()] == []


# the Newton solver's residual, slope, chord and bisection, which the one
# step through ``risk_core._combination`` replaced, and the eplus helper
# that only they called
_REMOVED_SOLVER_NAMES = ("_slope", "_residual_and_slope", "_cdf_eplus", "_CHORD_WIDTH",
                         "_NEWTON_STEPS", "_BISECTION_STEPS")


def named(source: str, names) -> list:
    """The ``names`` that ``source`` mentions as a whole word, in order."""
    return [name for name in names if re.search(rf"(?<!\w){re.escape(name)}\b", source)]


def cancelling_weights(source: str) -> list:
    """The line of each ``1 - 2 * x`` in ``source`` (1.0 and 2.0 alike, any
    name x): the denominator alpha + (1 - 2 alpha) beta written with it
    cancels when alpha and beta are both near 1."""
    def is_site(node) -> bool:
        if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)):
            return False
        left, right = node.left, node.right
        return isinstance(left, ast.Constant) and left.value == 1 \
            and isinstance(right, ast.BinOp) and isinstance(right.op, ast.Mult) \
            and isinstance(right.left, ast.Constant) and right.left.value == 2 \
            and isinstance(right.right, ast.Name)
    return sorted(n.lineno for n in ast.walk(ast.parse(source)) if is_site(n))


def test_solver_scans_flag_removed_names_and_cancelling_weights():
    source = (
        "def f(src, alpha, beta, m):\n"
        "    w = (1.0 - alpha) / (alpha + (1.0 - 2.0 * alpha) * beta)\n"
        "    u, plus = src._cdf_eplus(m)\n"
        "    tail_slope = 1 - 2 * beta + (1.0 - 2.0 ** -53) + _NEWTON_STEPS_MAX\n"
        "    '1.0 - 2.0 * alpha in a string is no expression'\n"
        "    return _slope(alpha, u), (2.0 * alpha - 1.0) * (1.0 - beta)\n"
    )
    assert named(source, _REMOVED_SOLVER_NAMES) == ["_slope", "_cdf_eplus"]
    assert cancelling_weights(source) == [2, 4]


def test_removed_solver_names_are_named_nowhere():
    assert [(p.name, name) for p in MODULES if p != Path(__file__).resolve()
            for name in named(p.read_text(), _REMOVED_SOLVER_NAMES)] == []


def cap_reads(source: str) -> list:
    """The line of each read of ``_ALPHA_CAP`` in ``source``: a name, an
    attribute or an imported name, in line order."""
    return sorted(n.lineno for n in ast.walk(ast.parse(source))
                  if isinstance(n, ast.Name) and n.id == "_ALPHA_CAP"
                  or isinstance(n, ast.Attribute) and n.attr == "_ALPHA_CAP"
                  or isinstance(n, ast.ImportFrom) and any(
                      a.name == "_ALPHA_CAP" for a in n.names))


def test_cap_scan_flags_names_attributes_and_imports():
    source = (
        "from .risk_core import (\n"
        "    _ALPHA_CAP,\n"
        ")\n"
        "from tailrisk import risk_core\n"
        "'_ALPHA_CAP in a string is no read'\n"
        "ok = 0.5 <= a < _ALPHA_CAP or a < risk_core._ALPHA_CAP\n"
        "_ALPHA_CAP_NOTE = 1\n"
    )
    assert cap_reads(source) == [1, 6, 6]


def test_expectile_level_range_is_stated_in_risk_core_alone():
    # cli restates no cap: it prefixes the flag to risk_core's refusal
    assert [p.stem for p in PACKAGE if cap_reads(p.read_text())] == ["risk_core"]


_HOOKS = ("_cdf0", "_quantile0", "_mean0", "_es0", "_pdf0", "_support0", "mda")


def inherited_hooks(cls: type, base: type, hooks=_HOOKS) -> list:
    """The ``hooks`` that no class below ``base`` in ``cls``'s MRO defines."""
    below = cls.__mro__[:cls.__mro__.index(base)]
    return [h for h in hooks if not any(h in vars(k) for k in below)]


def test_hook_scan_flags_hooks_taken_from_the_base():
    class Base:
        def _cdf0(self, x):
            raise NotImplementedError

    class Law(Base):
        def _quantile0(self, u, out=None):
            return u

    class Shifted(Law):
        def mda(self):
            return None

    assert inherited_hooks(Shifted, Base, ("_cdf0", "_quantile0", "mda", "_es0")) == [
        "_cdf0", "_es0"]


@pytest.mark.parametrize("family", sorted(_FAMILIES))
def test_every_family_defines_its_hooks(family):
    # Distribution declares no hook; a family missing one fails here, at
    # test time, rather than on the first call that needs it
    assert inherited_hooks(_FAMILIES[family], Distribution) == []
    assert [h for h in _HOOKS if h in vars(Distribution)] == []


def test_no_weight_is_written_with_its_cancellation():
    # risk_core._combination forms the weights (2 alpha - 1)(1 - beta) and
    # 1 - alpha, whose sum is the denominator without the difference
    assert [(p.name, line) for p in PACKAGE for line in cancelling_weights(p.read_text())] == []


def imports_of(source: str, module: str) -> list:
    """The line of each import in ``source`` of the package's ``module`` or
    of a name from it, relative (``from .module``, ``from . import module``)
    or absolute (``tailrisk.module``)."""
    full = f"tailrisk.{module}"

    def is_site(node) -> bool:
        if isinstance(node, ast.Import):
            return any(a.name == full or a.name.startswith(full + ".") for a in node.names)
        if not isinstance(node, ast.ImportFrom):
            return False
        if node.module == full or node.level and node.module == module:
            return True
        package = node.level and node.module is None or node.module == "tailrisk"
        return package and any(a.name == module for a in node.names)
    return sorted(n.lineno for n in ast.walk(ast.parse(source)) if is_site(n))


def test_import_scan_flags_relative_and_absolute_imports():
    source = (
        "from .asymptotics import exact_ratio\n"
        "from tailrisk.asymptotics import _check_alpha\n"
        "from . import asymptotics\n"
        "import tailrisk.asymptotics as asy\n"
        "from tailrisk import asymptotics, risk_core\n"
        "from .risk_core import _alpha_grid\n"
        "import asymptotics_notes\n"
        "'from .asymptotics import x in a string is no import'\n"
    )
    assert imports_of(source, "asymptotics") == [1, 2, 3, 4, 5]


def test_montecarlo_takes_its_levels_from_risk_core():
    # the tables check expectile levels with risk_core's one rule, not the
    # expansion formulas' own domain
    assert imports_of((ROOT / "src" / "tailrisk" / "montecarlo.py").read_text(),
                      "asymptotics") == []


def ulp_floors(source: str) -> list:
    """The line of each ``2 ** -53`` in ``source`` (2 or 2.0, the exponent
    written -53 or -(53))."""
    def is_site(node) -> bool:
        return isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow) \
            and isinstance(node.left, ast.Constant) and node.left.value == 2 \
            and ast.unparse(node.right) == "-53"
    return sorted(n.lineno for n in ast.walk(ast.parse(source)) if is_site(n))


def test_floor_scan_flags_every_spelling_of_two_to_minus_53():
    source = (
        "_U_FLOOR = 2.0 ** -53\n"
        "top = 1.0 - 2 ** -(53)\n"
        "ulp = 2.0 ** -52 + 3.0 ** -53\n"
        "'2.0 ** -53 in a string is no expression'\n"
    )
    assert ulp_floors(source) == [1, 2]


def test_the_level_floor_is_stated_once():
    # distributions._U_FLOOR: the draws' uniforms and the quadrature's
    # nodes next to 1 keep the same distance from the ends of (0, 1)
    assert [p.stem for p in PACKAGE for _ in ulp_floors(p.read_text())] == ["distributions"]


def _tests_two_point(call: ast.Call) -> bool:
    """Whether ``call`` is an ``isinstance`` whose classes name ``TwoPoint``."""
    if not (isinstance(call.func, ast.Name) and call.func.id == "isinstance"
            and len(call.args) == 2):
        return False
    kinds = call.args[1].elts if isinstance(call.args[1], ast.Tuple) else [call.args[1]]
    return any(getattr(k, "id", getattr(k, "attr", None)) == "TwoPoint" for k in kinds)


def test_two_point_scan_flags_isinstance_tests_of_the_class():
    source = (
        "def f(src):\n"
        "    return isinstance(src, TwoPoint) or isinstance(src, (Sample, dist.TwoPoint))\n"
        "def g(src):\n"
        "    return isinstance(src, Sample), 'isinstance(src, TwoPoint)', TwoPoint(0, 1, 0.5)\n"
    )
    assert call_sites(source, _tests_two_point) == ["f", "f"]


def test_an_atomic_law_gives_its_steps_in_one_function():
    # distortion_value and the two-point ES check read the steps that
    # risk_core._step_quantile gives; a second branch on the class would
    # restate them
    assert [(p.stem, f) for p in PACKAGE
            for f in call_sites(p.read_text(), _tests_two_point)] == [
        ("risk_core", "_step_quantile")]


# calls that read a file's contents other than ``open``
_FILE_READERS = ("loadtxt", "genfromtxt", "fromfile", "read_csv", "reader", "read_text",
                 "read_bytes")


def _reads_a_file(call: ast.Call) -> bool:
    """Whether ``call`` is one of ``_FILE_READERS`` or an ``open`` whose
    mode (absent or not a literal, it may read) does not only write."""
    if any(_calls(name)(call) for name in _FILE_READERS):
        return True
    if not _calls("open")(call):
        return False
    modes = call.args[1:2] + [k.value for k in call.keywords if k.arg == "mode"]
    mode = getattr(modes[0], "value", None) if modes else "r"
    return not (isinstance(mode, str) and set(mode) & set("wax") and "+" not in mode)


def scenario_reads(source: str) -> list:
    """``line: what`` for each file read in ``source``, in line order."""
    found = [(node.lineno, ast.unparse(node.func)) for node in ast.walk(ast.parse(source))
             if isinstance(node, ast.Call) and _reads_a_file(node)]
    return [f"{line}: {what}" for line, what in sorted(found)]


def test_scenario_read_scan_flags_parsers_and_reading_opens():
    source = (
        "import csv\n"
        "with open(path, encoding='utf-8-sig') as fh, open(out, 'w') as out_fh:\n"
        "    rows = list(csv.reader(fh)) + [np.loadtxt(fh), Path(p).read_text()]\n"
        "open(out, mode='a'), open(log, 'r+'), open(p, mode), open(p, 'rb')\n"
        "p = Portfolio.from_csv(path)\n"
        "'np.loadtxt(path) in a string is no call'\n"
    )
    assert scenario_reads(source) == [
        "2: open", "3: Path(p).read_text", "3: csv.reader", "3: np.loadtxt",
        "4: open", "4: open", "4: open"]


def test_scenario_files_are_parsed_in_one_place():
    # from_csv's memo holds the one parse; a second parser, or a read in the
    # CLI, would be a second path past it
    assert [(p.stem, f) for p in PACKAGE for f in call_sites(p.read_text(), _calls("loadtxt"))] \
        == [("allocation", "from_csv")]
    assert scenario_reads((ROOT / "src" / "tailrisk" / "cli.py").read_text()) == []


def unused_functions(source: str, readers: list) -> list:
    """Public functions of ``source``, and public methods of its classes,
    that no module in ``readers`` reads as a name or attribute."""
    read = set()
    for tree in map(ast.parse, readers):
        read |= {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        read |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    body = ast.parse(source).body
    body += [m for n in body if isinstance(n, ast.ClassDef) for m in n.body]
    return [n.name for n in body if isinstance(n, ast.FunctionDef)
            and not n.name.startswith("_") and n.name not in read]


def test_unused_function_scan_flags_what_no_reader_calls():
    source = ("def used(): pass\ndef unused(): pass\ndef _private(): pass\n"
              "class Law:\n    def mean(self): pass\n    def spare(self): pass\n")
    assert unused_functions(source, ["used()\nLaw().mean()\n"]) == ["unused", "spare"]


def test_every_oracle_reference_is_called_from_a_test():
    # a reference that no test calls is dead code that nothing checks
    readers = [p.read_text() for p in MODULES if p.parent.name == "tests" and p != ORACLE]
    assert unused_functions(ORACLE.read_text(), readers) == []
    assert dead_private_names({"oracle": ORACLE.read_text()}) == []


def _fresh(code: str, *args: str) -> str:
    """stdout of a fresh interpreter running ``code`` against src/tailrisk."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    return out.stdout


def test_import_loads_neither_optimize_nor_integrate():
    # every CLI process pays for what `import tailrisk` loads; quadrature
    # is imported where it is used, and the Student t kernels of
    # scipy.special on the first Student t evaluation
    code = (
        "import sys\n"
        "heavy = ('scipy.optimize', 'scipy.integrate', 'scipy.special')\n"
        "import tailrisk\n"
        "print(sorted(m for m in heavy if m in sys.modules))\n"
        "import tailrisk.cli\n"
        "print(sorted(m for m in heavy if m in sys.modules))\n"
    )
    assert _fresh(code) == "[]\n[]\n"


# Every Student t result, as the hex of its bits, from a fresh interpreter.
# argv: the order of the first evaluations ("cdf" or "quantile" first,
# reaching the kernels through StudentT._cdf0 or _quantile0), which
# instance goes first ("unpickled" or "constructed"), whether scipy.special
# is imported before tailrisk, and a pickled StudentT(2.3) in hex.
_STUDENT_BITS = """
import json, pickle, sys
first, lead, early, blob = sys.argv[1:]
if early == "special-first":
    import scipy.special
import numpy as np
import tailrisk
assert ("scipy.special" in sys.modules) == (early == "special-first")

# levels below 2**-53 take the polished deep-tail quantile
us = [1e-300, 1e-20, 2.0 ** -54, 1e-8, 0.05, 0.5, 0.7, 1 - 1e-12]
xs = [-1e10, -40.0, -2.0, -0.3, 0.0, 0.3, 2.0, 1e6]
evals = {
    "cdf": lambda d: [d.cdf(np.array(xs)), d.cdf(2.5), d.cdf(-1e30)],
    "quantile": lambda d: [d.quantile(np.array(us)), d.quantile(1e-30), d.quantile(0.99)],
    "es": lambda d: [d.es(np.array([0.0, 0.3, 0.99, 1 - 1e-10])), d.es(1e-20), d.es(0.975)],
    "expectile": lambda d: [tailrisk.expectile(d, a) for a in (0.5, 0.9, 0.99, 1 - 1e-10)],
}
made = {"unpickled": pickle.loads(bytes.fromhex(blob)),
        "constructed": tailrisk.StudentT(2.3)}
out = {}
for name in [lead] + [k for k in made if k != lead]:
    for kind in [first] + [k for k in evals if k != first]:
        vals = evals[kind](made[name])
        out[f"{name}.{kind}"] = [float(v).hex() for v in np.hstack(vals)]
print(json.dumps(out, sort_keys=True))
"""


def test_student_t_bits_do_not_depend_on_when_the_kernels_load():
    blob = pickle.dumps(StudentT(2.3)).hex()
    want = json.loads(_fresh(_STUDENT_BITS, "cdf", "constructed", "special-first", blob))
    for first, lead in (("cdf", "unpickled"), ("quantile", "constructed")):
        got = json.loads(_fresh(_STUDENT_BITS, first, lead, "lazy", blob))
        assert got == want, (first, lead)
    assert want["unpickled.quantile"] == want["constructed.quantile"]


def test_cli_runs_without_a_student_law_leave_scipy_special_unloaded(tmp_path):
    csv = tmp_path / "scen.csv"
    csv.write_text("0,0\n0,1\n1,0\n3,3\n2,5\n")
    code = (
        "import contextlib, io, sys\n"
        "from tailrisk.cli import main\n"
        "runs = [\n"
        "    ['allocate', '--csv', sys.argv[1], '--alpha', '0.7'],\n"
        "    ['allocate', '--csv', sys.argv[1], '--alpha', '0.7', '--measure', 'es'],\n"
        "    ['table', '--dist', 'pareto:a=2.1', '--alphas', '0.99', '--ns', '1000'],\n"
        "    ['figure', '--kind', 'expansion', '--dist', 'pareto:a=2.1', '--points', '3'],\n"
        "]\n"
        "for argv in runs:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = main(argv)\n"
        "    print(argv[0], code, 'scipy.special' in sys.modules)\n"
    )
    assert _fresh(code, str(csv)).splitlines() == [
        "allocate 0 False", "allocate 0 False", "table 0 False", "figure 0 False",
    ]

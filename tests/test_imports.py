"""Every name a package module imports is used in that module, every
module-level constant is read somewhere in the package, only
``solver._schedule_values`` calls a schedule's ``s``, ``alpha`` or ``t``,
only ``solver._objective`` calls ``residual``, ``loss_at``, ``_value`` or
``objective`` in the solver, only ``solver._evaluate`` assigns ``best_f``,
``best_x``, ``f_avg``, ``gap_best`` or ``gap_avg``, only ``problems._draw``
draws from a run's random generator, no module starts threads or processes or pins a CPU, and
``residual``, ``loss_at`` and ``_value`` take one point, not a stack.

No linter ships with the test environment, so this walks each module's
syntax tree instead.  ``__init__.py`` is left out of the import check: it
imports names to re-export them.
"""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "xrda"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
CONSTANT = re.compile(r"_?[A-Z][A-Z0-9_]*$")


def imported_names(tree):
    """(bound name, line) for every import statement in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def unused_imports(source):
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return ["line %d: %s" % (line, name) for name, line in imported_names(tree)
            if name not in used]


def test_the_walk_finds_an_unused_import():
    source = ("import numpy as np\nfrom scipy.sparse.linalg import svds\n"
              "import os.path\n\nprint(np.pi, os.sep)\n")
    assert unused_imports(source) == ["line 2: svds"]


def test_package_modules_are_all_found():
    assert "reference.py" in {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def constants(tree):
    """(name, line) for every module-level assignment to an UPPER_CASE name."""
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else \
            [node.target] if isinstance(node, ast.AnnAssign) else []
        for target in targets:
            if isinstance(target, ast.Name) and CONSTANT.match(target.id):
                yield target.id, node.lineno


def read_names(tree):
    """Names the tree reads: loads, attribute lookups and imported names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def unread_constants(sources):
    """"module: NAME" for each constant that no source in ``sources`` (a
    {module name: source} dict) reads."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = {n for tree in trees.values() for n in read_names(tree)}
    return ["%s: %s" % (module, name) for module, tree in sorted(trees.items())
            for name, _ in constants(tree) if name not in read]


def test_the_walk_finds_an_unread_constant():
    sources = {"a": "import b\nKEPT = 1\nDEAD = (1, 2)\n_PRIVATE = 3\nlower = 4\n"
                    "print(_PRIVATE)\n",
               "b": "from a import KEPT\n_ALSO_DEAD: int = 5\n"
                    "import a\nprint(a.lower, KEPT)\n"}
    assert unread_constants(sources) == ["a: DEAD", "b: _ALSO_DEAD"]


def test_package_constants_are_all_read():
    sources = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    assert unread_constants(sources) == []


SCHEDULE_ATTRS = ("s", "alpha", "t")
EVALUATOR = ("solver.py", "_schedule_values")
OBJECTIVE_ATTRS = ("residual", "loss_at", "_value", "objective")
OBJECTIVE_EVALUATOR = ("solver.py", "_objective")


def calls_outside(sources, attrs, owner):
    """"module line N: .name()" for each call of an attribute named in
    ``attrs`` in ``sources`` (a {module name: source} dict) outside the
    function ``owner``, a (module, function name) pair."""
    found = []
    for module, source in sorted(sources.items()):
        tree = ast.parse(source)
        allowed = {id(node) for fn in ast.walk(tree)
                   if isinstance(fn, ast.FunctionDef) and (module, fn.name) == owner
                   for node in ast.walk(fn)}
        found += ["%s line %d: .%s()" % (module, node.lineno, node.func.attr)
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr in attrs and id(node) not in allowed]
    return found


def schedule_calls(sources):
    """Each call of an attribute named s, alpha or t outside the one
    evaluator, so that each schedule value is evaluated and checked in one
    place."""
    return calls_outside(sources, SCHEDULE_ATTRS, EVALUATOR)


def objective_calls(solver_source):
    """Each call of ``.residual``, ``.loss_at``, ``._value`` or
    ``.objective`` in the solver outside ``_objective``, so that every f
    the solver reports, of each iterate and of each averaged iterate, is
    computed and checked in one place."""
    return calls_outside({"solver.py": solver_source}, OBJECTIVE_ATTRS,
                         OBJECTIVE_EVALUATOR)


def test_the_walk_finds_a_schedule_call():
    sources = {"solver.py": "def _schedule_values(sch, n):\n"
                            "    return sch.s(n), sch.alpha(n), sch.t(n, 0.0)\n\n"
                            "def step(state):\n    return state.schedule.alpha(state.n)\n",
               "harness.py": "def _schedule_values(sch):\n    return sch.s(1)\n"
                             "x = sched.t\ny = sched.sigma(2)\n"}
    assert schedule_calls(sources) == ["harness.py line 2: .s()",
                                       "solver.py line 5: .alpha()"]


def test_only_the_evaluator_calls_the_schedule():
    sources = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    assert schedule_calls(sources) == []


def test_the_walk_finds_an_objective_call():
    source = ("def _objective(problem, x):\n"
              "    r = problem.residual(x)\n"
              "    return problem.loss_at(r) + problem.reg._value(x)\n\n"
              "def init(problem, x1):\n"
              "    f = problem.loss_at(problem.residual(x1)) + problem.reg.value(x1)\n"
              "    return f, problem.objective(x1), problem.reg._value(x1)\n")
    assert sorted(objective_calls(source)) == ["solver.py line 6: .loss_at()",
                                               "solver.py line 6: .residual()",
                                               "solver.py line 7: ._value()",
                                               "solver.py line 7: .objective()"]


def test_only_the_evaluator_computes_f_in_the_solver():
    assert objective_calls((PACKAGE / "solver.py").read_text()) == []


BOOKKEEPING_ATTRS = ("best_f", "best_x", "f_avg", "gap_best", "gap_avg")
BOOKKEEPER = ("solver.py", "_evaluate")


def bookkeeping_assignments(sources):
    """"module line N: .name" for each assignment to an attribute named
    best_f, best_x, f_avg, gap_best or gap_avg outside ``solver._evaluate``,
    so that the best iterate and each row's f of the averaged iterate and
    gaps are kept in one place."""
    found = []
    for module, source in sorted(sources.items()):
        tree = ast.parse(source)
        allowed = {id(node) for fn in ast.walk(tree)
                   if isinstance(fn, ast.FunctionDef) and (module, fn.name) == BOOKKEEPER
                   for node in ast.walk(fn)}
        found += ["%s line %d: .%s" % (module, node.lineno, node.attr)
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                  and node.attr in BOOKKEEPING_ATTRS and id(node) not in allowed]
    return found


def test_the_walk_finds_a_bookkeeping_assignment():
    sources = {"solver.py": "def _evaluate(state, row, f):\n"
                            "    state.best_f = row.gap_best = f\n\n"
                            "def _evaluate_kept(state, row, f, x):\n"
                            "    row.f_avg, row.gap_avg = f, f\n"
                            "    state.best_x = x\n"
                            "    return state.best_f, row.f_x\n",
               "harness.py": "def tamper(row):\n    row.gap_best += 1.0\n"
                             "    row.bound = row.gap_best\n"}
    assert sorted(bookkeeping_assignments(sources)) == ["harness.py line 2: .gap_best",
                                                        "solver.py line 5: .f_avg",
                                                        "solver.py line 5: .gap_avg",
                                                        "solver.py line 6: .best_x"]


def test_only_the_evaluator_keeps_the_objective_books():
    sources = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    assert bookkeeping_assignments(sources) == []


# every public method of numpy's Generator that draws from its stream
GENERATOR_DRAWS = frozenset(
    name for name in dir(np.random.Generator)
    if not name.startswith("_") and name != "bit_generator")
DRAW_EXEMPT = {("problems.py", "_draw"), ("problems.py", "synthetic_sparse_data")}


def generator_draws(sources):
    """"module line N: .name()" for each call of a Generator draw method on
    anything but an imported module (``np.power`` is no draw), outside the
    draw kernel and the synthetic-data recipe, whose generator is its own; so
    the replayable sampling stream is drawn in one place."""
    found = []
    for module, source in sorted(sources.items()):
        tree = ast.parse(source)
        modules = {name for name, _ in imported_names(tree)}
        allowed = {id(node) for fn in ast.walk(tree)
                   if isinstance(fn, ast.FunctionDef) and (module, fn.name) in DRAW_EXEMPT
                   for node in ast.walk(fn)}
        found += ["%s line %d: .%s()" % (module, node.lineno, node.func.attr)
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr in GENERATOR_DRAWS and id(node) not in allowed
                  and not (isinstance(node.func.value, ast.Name)
                           and node.func.value.id in modules)]
    return found


def test_the_walk_finds_a_generator_draw():
    sources = {"problems.py": "import numpy as np\n"
                              "def _draw(self, rng, count):\n"
                              "    return rng.integers(3, size=count)\n\n"
                              "def synthetic_sparse_data(seed):\n"
                              "    return np.random.default_rng(seed).standard_normal(2)\n\n"
                              "def other(rng):\n    return rng.choice(4), np.power(2, 3)\n",
               "solver.py": "def step(state, rng):\n"
                            "    state.rng.permutation(3)\n"
                            "    return rng.bit_generator.state, rng.random()\n"}
    assert generator_draws(sources) == ["problems.py line 9: .choice()",
                                        "solver.py line 2: .permutation()",
                                        "solver.py line 3: .random()"]


def test_only_the_sampler_draws_from_the_generator():
    sources = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    assert generator_draws(sources) == []


CONCURRENCY_MODULES = ("threading", "concurrent", "multiprocessing")


def concurrency_uses(sources):
    """"module line N: name" for each import of threading, concurrent.futures
    or multiprocessing and each use of ``sched_setaffinity``: the package
    runs on its caller's thread, and concurrency comes back only with a
    benchmark that needs it."""
    found = []
    for module, source in sorted(sources.items()):
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.Name):
                names = [node.id]
            else:
                continue
            found += ["%s line %d: %s" % (module, node.lineno, name) for name in names
                      if name.split(".")[0] in CONCURRENCY_MODULES
                      or name == "sched_setaffinity"]
    return found


def test_the_walk_finds_concurrency():
    sources = {"solver.py": "import os\nimport threading as th\n"
                            "from concurrent.futures import ThreadPoolExecutor\n"
                            "def run():\n    os.sched_setaffinity(0, {1})\n"
                            "    os.sched_getaffinity(0)\n",
               "harness.py": "import multiprocessing.pool\n"
                             "from os import sched_setaffinity\nimport time\n"}
    assert concurrency_uses(sources) == ["harness.py line 1: multiprocessing.pool",
                                         "harness.py line 2: sched_setaffinity",
                                         "solver.py line 2: threading",
                                         "solver.py line 3: concurrent.futures",
                                         "solver.py line 5: sched_setaffinity"]


def test_no_module_starts_threads_or_pins_a_cpu():
    sources = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    assert concurrency_uses(sources) == []


ONE_POINT_KERNELS = ("residual", "loss_at", "_value")


def stacked_forms(sources):
    """"module line N: function ..." for each read of ``.ndim`` and each
    ``axis=-1`` keyword inside a function named residual, loss_at or
    _value: the solver evaluates one iterate at a time, so each takes one
    point and keeps no second path for a stack of them."""
    found = []
    for module, source in sorted(sources.items()):
        for fn in ast.walk(ast.parse(source)):
            if not (isinstance(fn, ast.FunctionDef) and fn.name in ONE_POINT_KERNELS):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Attribute) and node.attr == "ndim":
                    found.append("%s line %d: %s reads .ndim" % (module, node.lineno, fn.name))
                elif (isinstance(node, ast.keyword) and node.arg == "axis"
                      and ast.unparse(node.value) == "-1"):
                    found.append("%s line %d: %s reduces along axis=-1"
                                 % (module, node.lineno, fn.name))
    return found


def test_the_walk_finds_a_stacked_form():
    sources = {"problems.py": "def residual(self, x):\n"
                              "    return x @ self.A.T if x.ndim == 2 else self.A @ x\n\n"
                              "def loss_at(self, r):\n    return np.sum(r, axis= -1)\n\n"
                              "def subgradient_at(self, r):\n"
                              "    return r.ndim, r.sum(axis=-1)\n",
               "regularizers.py": "class L1:\n    def _value(self, x):\n"
                                  "        return np.abs(x).sum(axis=-1) + x.sum(axis=0)\n"}
    assert stacked_forms(sources) == ["problems.py line 2: residual reads .ndim",
                                      "problems.py line 5: loss_at reduces along axis=-1",
                                      "regularizers.py line 3: _value reduces along axis=-1"]


def test_the_objective_kernels_take_one_point():
    sources = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    assert stacked_forms(sources) == []

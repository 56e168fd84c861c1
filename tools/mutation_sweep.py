"""Mutation sweep: apply each mutant of a fixed list to a copy of the code
and check that its tests fail, so that a refactor cannot quietly disarm a
test that guards the behaviour it moves.

Usage, from the root of the repository:

    python3 tools/mutation_sweep.py

Each entry of ``MUTANTS`` names a mutant, the file under the repository
root that it edits, the exact old text, the new text and the test files
that must kill it.  For each entry the sweep copies ``src/`` and
``tests/``, and the files the tests read (``README.md``, ``tools/``), to
a temporary directory, replaces the old text with the new one and runs
``pytest -x`` on the named test files there, with that copy's ``src``
first on ``PYTHONPATH``.  A mutant is killed when pytest reports a
failed test (exit code 1).  Each set of test files first runs once on
an unmutated copy and must pass there, so that a kill is the mutant's.

The sweep exits 1 if a mutant survives, if pytest ends in any other way
(a collection error, no tests collected), if a baseline run fails, or if
an old text does not occur exactly once in its file; that last check
runs for every entry before any test runs.  So a change that moves or
rewrites guarded code must update the list on purpose.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "tools", "README.md")

Mutant = namedtuple("Mutant", "name file old new tests")

MUTANTS = (
    Mutant("rda without (1 - ratio) xt_1", "src/xrda/solver.py",
           "xt_half = ratio * xt_half + (1.0 - ratio) * state.x_tilde_1",
           "xt_half = ratio * xt_half",
           ("tests/test_published_methods.py",)),
    Mutant("theoretical_bound with M for M * M", "src/xrda/solver.py",
           "M * M / (2.0 * sigma)", "M / (2.0 * sigma)",
           ("tests/test_published_methods.py",)),
    Mutant("_dual_bound without its support term", "src/xrda/reference.py",
           "    return value + _support_min(reg, A.T @ u, problem.d)",
           "    return value",
           ("tests/test_reference.py",)),
    Mutant("seed-mean factor 1.10 raised to 1.50", "src/xrda/harness.py",
           "if mean > 1.10 * bound + slack:", "if mean > 1.50 * bound + slack:",
           ("tests/test_harness.py",)),
    Mutant("_trace without its false-certificate refusal", "src/xrda/harness.py",
           "if row.gap_best < floor:", "if False:",
           ("tests/test_harness.py",)),
    Mutant("_load_reference without its re-certification check", "src/xrda/harness.py",
           "return ref if (ref.f_star, ref.certified_gap, ref.converged) == stored else None",
           "return ref",
           ("tests/test_harness.py",)),
    Mutant("_load_reference certifies at x_star in place of x_cert", "src/xrda/harness.py",
           'tol, np.asarray(data["x_cert"], dtype=float))',
           'tol, np.asarray(data["x_star"], dtype=float))',
           ("tests/test_reference_cache.py",)),
    Mutant("a second certificate on the L-BFGS-B path", "src/xrda/reference.py",
           '    ref = certify(problem, x, "logistic_smooth", tol, x)\n',
           '    lower_bound_certificate(problem, x)\n'
           '    ref = certify(problem, x, "logistic_smooth", tol, x)\n',
           ("tests/test_reference_cache.py",)),
    Mutant("an infinite box side kept in the linear point", "src/xrda/reference.py",
           "x = np.clip(np.where(np.isfinite(side), side, 0.0), lo, hi)",
           "x = np.clip(side, lo, hi)",
           ("tests/test_reference.py",)),
    Mutant("lad l1 LP multipliers with flipped sign", "src/xrda/reference.py",
           "x_star = mu[:d] - mu[d:]", "x_star = mu[d:] - mu[:d]",
           ("tests/test_reference.py",)),
    Mutant("lad box LP multipliers with flipped sign", "src/xrda/reference.py",
           "weights = -dual.ineqlin.marginals", "weights = dual.ineqlin.marginals",
           ("tests/test_reference.py",)),
    Mutant("lad simplex LP multipliers with flipped sign", "src/xrda/reference.py",
           "x_star = np.maximum(-dual.ineqlin.marginals, 0.0)",
           "x_star = np.maximum(dual.ineqlin.marginals, 0.0)",
           ("tests/test_reference.py",)),
    Mutant("step scales g by s_n / alpha_n", "src/xrda/solver.py",
           "g *= s_n / alpha_next", "g *= s_n / alpha_n",
           ("tests/test_published_methods.py",)),
    Mutant("schedule guard without its s_next > s_n check", "src/xrda/solver.py",
           "if s_next > s_n and s_next > s_n + _SCHED_EPS * max(1.0, abs(s_n)):",
           "if False:",
           ("tests/test_solver.py",)),
    Mutant("_evaluate keeps the last of tied minima", "src/xrda/solver.py",
           "if f < state.best_f:", "if f <= state.best_f:",
           ("tests/test_solver.py",)),
    Mutant("check_bound without its strict gap_avg comparison", "src/xrda/harness.py",
           'for label, gap in (("gap_best", r.gap_best), ("gap_avg", r.gap_avg)):',
           'for label, gap in (("gap_best", r.gap_best),):',
           ("tests/test_harness.py",)),
)


def occurrences(mutant):
    """How often the mutant's old text occurs in its file."""
    return (ROOT / mutant.file).read_text().count(mutant.old)


def run_tests(tests, mutant=None):
    """pytest's exit code on a copy of the repository, with the mutant's
    edit applied if one is given, and its output."""
    with tempfile.TemporaryDirectory(prefix="xrda_mutant_") as tmp:
        tmp = Path(tmp)
        for part in COPIED:
            if (ROOT / part).is_dir():
                shutil.copytree(ROOT / part, tmp / part,
                                ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy(ROOT / part, tmp / part)
        if mutant is not None:
            target = tmp / mutant.file
            target.write_text(target.read_text().replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH=str(tmp / "src"))
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
            cwd=tmp, env=env, capture_output=True, text=True)
        return done.returncode, done.stdout + done.stderr


def main():
    bad = ["%s: old text occurs %d times in %s, not once"
           % (m.name, occurrences(m), m.file) for m in MUTANTS if occurrences(m) != 1]
    if bad:
        print("\n".join(bad))
        return 1
    failures = 0
    for tests in sorted({m.tests for m in MUTANTS}):
        code, output = run_tests(tests)
        print("%-55s %s" % ("baseline " + " ".join(tests), "passed" if code == 0
                            else "pytest exit %d" % code))
        if code != 0:
            failures += 1
            print(output)
    for mutant in MUTANTS:
        start = time.perf_counter()
        code, output = run_tests(mutant.tests, mutant)
        verdict = {0: "SURVIVED", 1: "killed"}.get(code, "pytest exit %d" % code)
        print("%-55s %-14s %5.1f s" % (mutant.name, verdict, time.perf_counter() - start))
        if code != 1:
            failures += 1
            print(output)
    print("%d mutants, %d runs failed" % (len(MUTANTS), failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

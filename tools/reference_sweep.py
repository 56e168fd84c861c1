"""Reference sweep: solve a fixed matrix of reference instances and record
each result, so that two versions of ``xrda.reference`` compare instance
by instance.

Usage, from the root of the repository:

    python3 tools/reference_sweep.py OUT.json [BASELINE.json]

The matrix (870 instances): the lad and logistic losses, each with seven
regularizer settings (l1 0.1, box [0.1, 0.9], box [-1, 1], simplex on
the entropy mirror, l2 ball R = 1 and R = 3, and zero), on synthetic data
(k = 5, noise 0.2) at (d, m) in {(8, 30), (20, 50), (30, 80), (100, 50),
(200, 400)} with data seeds 1, 2 and 5, each at reference tolerance
1e-8, 1e-12 and inf; and the linear loss with six regularizer settings
(l1 1.5, l1 0.2, box [-1, 2], l2 ball R = 2, simplex on the entropy
mirror, zero) on 20 costs of dimension 10 (seed 3, about 30% zero
entries), each at tolerance 1e-8 and inf.

OUT.json maps each instance's key to the first 16 hex digits of the
sha256 of its ``x_star`` bytes and of its ``x_cert`` bytes (the point
whose certificate is the reported bound), ``repr`` of ``f_star`` and of
``certified_gap``, ``converged`` and ``method``; an instance whose solve
raises ValueError or RuntimeError, the errors the reference raises,
records the exception's type and message instead.  Any other exception
ends the sweep, and so does a numeric warning under
``-W error::RuntimeWarning``, as CI runs it.  With a
baseline, the sweep also prints how many instances differ in each field,
and the largest change of ``certified_gap`` with its instance.  The
sweep imports ``xrda`` from the ``src`` directory next to this file, so
a checkout of another version runs its own copy of the tool on its own
code.  Run both sides with one BLAS setting, as CI does with
``OPENBLAS_NUM_THREADS=1``: two runs of one version then write the same
file, which CI checks with ``cmp``.
"""

import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from xrda.geometry import EuclideanMirror, NegativeEntropyMirror
from xrda.problems import build_problem, synthetic_sparse_data
from xrda.reference import reference_optimum
from xrda.regularizers import (BoxIndicator, L1Penalty, L2BallIndicator,
                               SimplexIndicator, ZeroRegularizer)

EU, EN = EuclideanMirror(), NegativeEntropyMirror()
DATA_REGS = {
    "l1": (EU, L1Penalty(0.1)),
    "box0.1-0.9": (EU, BoxIndicator(0.1, 0.9)),
    "box-1-1": (EU, BoxIndicator(-1.0, 1.0)),
    "simplex": (EN, SimplexIndicator()),
    "ball1": (EU, L2BallIndicator(1.0)),
    "ball3": (EU, L2BallIndicator(3.0)),
    "zero": (EU, ZeroRegularizer()),
}
SIZES = ((8, 30), (20, 50), (30, 80), (100, 50), (200, 400))
DATA_SEEDS = (1, 2, 5)
DATA_TOLS = (1e-8, 1e-12, math.inf)
LINEAR_REGS = {
    "l1_1.5": (EU, L1Penalty(1.5)),
    "l1_0.2": (EU, L1Penalty(0.2)),
    "box-1-2": (EU, BoxIndicator(-1.0, 2.0)),
    "ball2": (EU, L2BallIndicator(2.0)),
    "simplex": (EN, SimplexIndicator()),
    "zero": (EU, ZeroRegularizer()),
}
COSTS, COST_DIM, COST_SEED = 20, 10, 3
LINEAR_TOLS = (1e-8, math.inf)
FIELDS = ("x_star", "f_star", "certified_gap", "converged", "method", "raises",
          "message", "x_cert")


def costs():
    rng = np.random.default_rng(COST_SEED)
    c = rng.standard_normal((COSTS, COST_DIM))
    return c * (rng.random((COSTS, COST_DIM)) >= 0.3)


def instances():
    """(key, loss, mirror, regularizer, data, tol) of every instance; data
    is (d, m, seed) for lad and logistic and the cost vector for linear."""
    for loss in ("lad", "logistic"):
        for name, (mirror, reg) in DATA_REGS.items():
            for d, m in SIZES:
                for seed in DATA_SEEDS:
                    for tol in DATA_TOLS:
                        key = "%s-%s-d%d-m%d-seed%d-tol%r" % (loss, name, d, m, seed, tol)
                        yield key, loss, mirror, reg, (d, m, seed), tol
    for name, (mirror, reg) in LINEAR_REGS.items():
        for i, c in enumerate(costs()):
            for tol in LINEAR_TOLS:
                yield "linear-%s-cost%d-tol%r" % (name, i, tol), "linear", mirror, reg, c, tol


def digest(x):
    """The first 16 hex digits of the sha256 of x's bytes."""
    return hashlib.sha256(np.ascontiguousarray(x).tobytes()).hexdigest()[:16]


def solve(loss, mirror, reg, data, tol, cache):
    if loss == "linear":
        problem = build_problem(loss, reg, mirror, c=data)
    else:
        if (loss, data) not in cache:
            d, m, seed = data
            cache[(loss, data)] = synthetic_sparse_data(loss, d=d, m=m, k=5, noise=0.2,
                                                        seed=seed)[:2]
        A, b = cache[(loss, data)]
        problem = build_problem(loss, reg, mirror, A=A, b=b)
    try:
        ref = reference_optimum(problem, tol=tol)
    except (ValueError, RuntimeError) as exc:  # the errors the reference raises
        return {"raises": type(exc).__name__, "message": str(exc)}
    return {"x_star": digest(ref.x_star), "f_star": repr(ref.f_star),
            "certified_gap": repr(ref.certified_gap), "converged": bool(ref.converged),
            "method": ref.method, "x_cert": digest(ref.x_cert)}


def compare(results, baseline):
    """Lines that count the instances differing in each field and name the
    largest change of certified_gap."""
    shared = sorted(set(results) & set(baseline))
    lines = ["%d instances, %d in the baseline, %d in both"
             % (len(results), len(baseline), len(shared))]
    for field in FIELDS:
        lines.append("%-14s differs on %d" % (
            field, sum(results[k].get(field) != baseline[k].get(field) for k in shared)))
    worst, where = 0.0, None
    for key in shared:
        new, old = results[key].get("certified_gap"), baseline[key].get("certified_gap")
        if new is not None and old is not None and new != old:
            delta = abs(float(new) - float(old))
            if not delta <= worst:  # an inf change, or a larger finite one
                worst, where = delta, key
    lines.append("largest |change of certified_gap|: %r (%s)" % (worst, where))
    return lines


def main(argv):
    if len(argv) not in (1, 2):
        sys.exit("usage: python3 tools/reference_sweep.py OUT.json [BASELINE.json]")
    cache, results = {}, {}
    for key, loss, mirror, reg, data, tol in instances():
        results[key] = solve(loss, mirror, reg, data, tol, cache)
    Path(argv[0]).write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")
    print("%d instances, %d raised" % (len(results),
                                        sum("raises" in r for r in results.values())))
    if len(argv) == 2:
        print("\n".join(compare(results, json.loads(Path(argv[1]).read_text()))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

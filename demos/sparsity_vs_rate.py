##
# Sparse recovery with four schedules on the same l1-regularized
# least-absolute-deviations problem: the classical forward-backward
# iteration, whose backward step s_n shrinks to zero; plain dual
# averaging, whose backward step grows without bound; the leap-frog
# schedule, which grows it too; and constant_backward, which keeps it
# bounded at s_1 = 1.  Iterates land exactly on the planted support when
# the backward step does not shrink to zero: a bounded step does it as
# well as a growing one, and that bounded control is what XRDA adds to RDA.
##
import numpy as np

from xrda.problems import build_problem, synthetic_sparse_data
from xrda.reference import reference_optimum
from xrda.regularizers import L1Penalty
from xrda.geometry import EuclideanMirror
from xrda.schedules import schedule_preset
from xrda.solver import run

A, b, x_true = synthetic_sparse_data("lad", d=100, m=50, k=5, noise=0.0, seed=201)
problem = build_problem("lad", L1Penalty(0.2), EuclideanMirror(), A=A, b=b)
ref = reference_optimum(problem, tol=1e-8)
print("reference: f* = %.6f  (%s, certified to %.1e)"
      % (ref.f_star, ref.method, ref.certified_gap))
print("planted support size:", np.count_nonzero(x_true),
      " reference support size:", np.count_nonzero(np.abs(ref.x_star) > 1e-10))
print()

KINDS = ("forward_backward", "rda", "leap_frog", "constant_backward")
results = {}
for kind in KINDS:
    results[kind] = run(problem, schedule_preset(kind), 3000, stride=500,
                        reference=ref).rows

print("     n | fwd-bwd gap    nnz | rda gap        nnz | leap-frog gap  nnz"
      " | const-bwd gap  nnz")
print("-" * 89)
for i in range(len(results["rda"])):
    row = [results[k][i] for k in KINDS]
    print("%6d" % row[0].n + "".join(" | %12.3e %5d" % (r.gap_best, r.nnz) for r in row))

print()
print("backward step at n = 3000:",
      ", ".join("%s %.3g" % (k, results[k][-1].backward_step) for k in KINDS))
print("All four close the objective gap at the same n^(-1/2) rate.  The three")
print("whose backward step does not shrink zero out the 95 spurious coordinates,")
print("constant_backward with its step held at 1; forward-backward, whose step")
print("shrinks like n^(-1/2), keeps them small-but-nonzero forever.")

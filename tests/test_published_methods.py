"""Presets against published methods and a metamorphic relation, each
written with its own arithmetic here rather than the solver's.

* ``rda`` with the l1 penalty is Xiao's l1-RDA (Xiao, *Dual averaging
  methods for regularized stochastic learning and online optimization*,
  JMLR 2010): after n subgradients with sum S_n,
  x_{n+1} = -sign(S_n) max(|S_n| - n lam, 0) / (c sqrt(n+1)).
* Scaling lad's A, b and lam by 4 and s_n by 1/4 scales f, the gaps and
  the bound by 4 and leaves the iterates where they were; a bound with
  the wrong power of M or of s breaks the relation.
"""

import numpy as np

from xrda.geometry import EuclideanMirror
from xrda.problems import build_problem, synthetic_sparse_data
from xrda.reference import reference_optimum
from xrda.regularizers import L1Penalty
from xrda.schedules import power_steps, schedule_preset
from xrda.solver import init, run, step

EU = EuclideanMirror()
LAD30 = synthetic_sparse_data("lad", 30, 60, 3, 0.2, seed=7)


def test_rda_is_xiaos_l1_rda():
    """The preset's x_{n+1} divides by its alpha_{n+1} = c sqrt(n+1):
    Xiao's beta_n is gamma sqrt(n), one index earlier."""
    A, b, _ = LAD30
    lam, c = 0.1, 1.0
    p = build_problem("lad", L1Penalty(lam), EU, A=A, b=b)
    st = init(p, schedule_preset("rda", c=c))
    S = np.zeros(p.d)
    worst = 0.0
    for n in range(1, 401):
        S += A.T @ np.sign(A @ st.x - b) / len(b)  # lad subgradient at x_n
        st = step(st, p)
        want = -np.sign(S) * np.maximum(np.abs(S) - n * lam, 0.0) / (c * np.sqrt(n + 1))
        worst = max(worst, float(np.max(np.abs(st.x - want))))
    assert worst <= 1e-12


def test_scaling_lad_scales_f_gaps_and_bound():
    A, b, _ = LAD30
    runs = []
    for scale in (1.0, 4.0):
        p = build_problem("lad", L1Penalty(0.1 * scale), EU, A=scale * A, b=scale * b)
        steps = power_steps(1.0 / scale, 0.5)
        res = run(p, schedule_preset("leap_frog", steps=steps), 300, stride=50,
                  reference=reference_optimum(p, tol=1e-10))
        runs.append(res)
    base, scaled = runs
    assert np.allclose(scaled.state.x, base.state.x, rtol=1e-10, atol=0.0)
    assert [r.n for r in scaled.rows] == [r.n for r in base.rows] == list(range(50, 301, 50))
    for r, s in zip(base.rows, scaled.rows):
        for field in ("f_x", "f_avg", "gap_best", "gap_avg", "bound"):
            want = 4.0 * getattr(r, field)
            assert abs(getattr(s, field) - want) <= 1e-10 * abs(want), field

"""Presets against published methods and a metamorphic relation, each
written with its own arithmetic here rather than the solver's.

* ``rda`` with the l1 penalty is Xiao's l1-RDA (Xiao, *Dual averaging
  methods for regularized stochastic learning and online optimization*,
  JMLR 2010): after n subgradients with sum S_n,
  x_{n+1} = -sign(S_n) max(|S_n| - n lam, 0) / (c sqrt(n+1)).
* ``leap_frog`` and ``rda`` on the simplex with the entropy mirror are
  entropic dual averaging (Nesterov, Math. Program. 2009; exponentiated
  gradient, Kivinen & Warmuth 1997): with t = 0 the recursion keeps
  xt_{n+1/2} = xt_1 - sum_{i<=n} s_i g_i / alpha_{n+1}, so
  x_{n+1} = softmax(log x_1 - sum_{i<=n} s_i g_i / alpha_{n+1}).
* Scaling lad's A, b and lam by 4 and s_n by 1/4 scales f, the gaps and
  the bound by 4 and leaves the iterates where they were; a bound with
  the wrong power of M or of s breaks the relation.
* Permuting the coordinates (the columns of A, x1 and a box's vector
  bounds) permutes every iterate of every preset the same way; a
  regularizer or mirror that mixes coordinates by position breaks it.
"""

import numpy as np
import pytest

from xrda.geometry import EuclideanMirror, NegativeEntropyMirror
from xrda.problems import build_problem, synthetic_sparse_data
from xrda.reference import reference_optimum
from xrda.regularizers import (BoxIndicator, L1Penalty, L2BallIndicator,
                               SimplexIndicator, ZeroRegularizer)
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


BOX_LO, BOX_HI = np.linspace(-0.6, -0.1, 8), np.linspace(0.1, 0.9, 8)
START = np.linspace(0.2, 1.0, 8)
# (mirror, the regularizer for a coordinate order, x1 in the original order)
PERMUTED_PAIRS = {
    "euclidean+l1": (EuclideanMirror(), lambda order: L1Penalty(0.1), None),
    "euclidean+box": (EuclideanMirror(),
                      lambda order: BoxIndicator(BOX_LO[order], BOX_HI[order]),
                      0.1 * START),
    "entropy+simplex": (NegativeEntropyMirror(), lambda order: SimplexIndicator(),
                        START / START.sum()),
    "euclidean+l2ball": (EuclideanMirror(), lambda order: L2BallIndicator(1.0),
                         0.1 * START),
    "euclidean+zero": (EuclideanMirror(), lambda order: ZeroRegularizer(), 0.1 * START),
    "entropy+zero": (NegativeEntropyMirror(), lambda order: ZeroRegularizer(), START),
}


@pytest.mark.parametrize("pair", sorted(PERMUTED_PAIRS))
@pytest.mark.parametrize("loss", ["lad", "logistic"])
def test_permuting_coordinates_permutes_every_iterate(loss, pair):
    A, b, _ = synthetic_sparse_data(loss, 8, 30, 2, 0.3, seed=5)
    mirror, make_reg, x1 = PERMUTED_PAIRS[pair]
    perm = np.random.default_rng(3).permutation(8)
    orders = (np.arange(8), perm)
    problems = [build_problem(loss, make_reg(q), mirror, A=A[:, q], b=b) for q in orders]
    starts = [None if x1 is None else x1[q] for q in orders]
    worst = 0.0
    for kind in ("leap_frog", "rda", "forward_backward", "constant_backward"):
        states = [init(p, schedule_preset(kind), x1=x) for p, x in zip(problems, starts)]
        for _ in range(300):
            states = [step(st, p) for st, p in zip(states, problems)]
            worst = max(worst, float(np.max(np.abs(states[0].x[perm] - states[1].x))))
    assert worst <= 1e-12


# (preset, s_n, alpha_n), each written out here
ENTROPIC_SCHEDULES = {
    "leap_frog": (schedule_preset("leap_frog"), lambda n: 1.0 / np.sqrt(n), lambda n: 1.0),
    "rda": (schedule_preset("rda", c=2.0), lambda n: 1.0, lambda n: 2.0 * np.sqrt(n)),
}


def softmax(z):
    e = np.exp(z - np.max(z))
    return e / np.sum(e)


@pytest.mark.parametrize("kind", sorted(ENTROPIC_SCHEDULES))
@pytest.mark.parametrize("loss", ["lad", "logistic", "linear"])
def test_entropic_dual_averaging_is_a_softmax_of_the_summed_subgradients(loss, kind):
    """From a start that is not uniform, so that xt_1 is no constant that
    normalization removes: a step that drops the (1 - ratio) xt_1 term of
    rda, or divides by alpha_n for alpha_{n+1}, fails here."""
    if loss == "linear":
        p = build_problem(loss, SimplexIndicator(), NegativeEntropyMirror(),
                          c=np.random.default_rng(3).standard_normal(20))
    else:
        A, b, _ = synthetic_sparse_data(loss, 20, 40, 3, 0.3, seed=2)
        p = build_problem(loss, SimplexIndicator(), NegativeEntropyMirror(), A=A, b=b)
    x1 = np.random.default_rng(7).dirichlet(np.ones(20))
    schedule, s, alpha = ENTROPIC_SCHEDULES[kind]
    st = init(p, schedule, x1=x1)
    S = np.zeros(p.d)
    worst = 0.0
    for n in range(1, 401):
        S += s(n) * p.subgradient(st.x)
        st = step(st, p)
        worst = max(worst, float(np.max(np.abs(st.x - softmax(np.log(x1) - S / alpha(n + 1))))))
    assert worst <= 1e-12

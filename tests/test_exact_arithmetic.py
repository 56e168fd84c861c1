"""The first steps of every preset, recomputed in 50-digit arithmetic.

``mpmath`` replays the iteration of ``xrda.solver`` (module docstring)
on a small logistic+l1 instance and the solver's trajectory must agree
with it to a relative 1e-12, fixed from float64 before any run: 20 steps
of a few roundings of 1.1e-16 each, with room to spare.  The loss is
smooth, so the float and the exact subgradient cannot take different
signs; the soft threshold of l1 is continuous, so a coordinate near its
kink moves both trajectories by as little.  The schedule's own float
values are the data of both runs.  The bound's loose inequality can only
catch gross errors; this checks every quantity the bound is built from.
"""

import mpmath
import numpy as np
import pytest

from xrda.geometry import EuclideanMirror
from xrda.problems import build_problem, synthetic_sparse_data
from xrda.regularizers import L1Penalty
from xrda.schedules import PRESET_KINDS, schedule_preset
from xrda.solver import init, step, trace_row

STEPS = 20
RTOL = 1e-12
LAM = 0.05


def schedule(kind):
    return schedule_preset(kind, mu=0.5 if kind == "averaged_leap_frog" else None)


def exact_trajectory(A, b, lam, sched, n_steps):
    """Per step: (x, gamma, s_sum, bound_acc, backward step), in mpmath."""
    m, d = A.shape
    A = mpmath.matrix(A.tolist())
    b = [mpmath.mpf(v) for v in b]
    s = lambda n: mpmath.mpf(sched.s(n))
    alpha = lambda n: mpmath.mpf(sched.alpha(n))

    def next_gamma(n, gamma):
        t = mpmath.mpf(sched.t(n, float(gamma)))
        mu = t / gamma if gamma > 0 else mpmath.mpf(0)
        return mu, (1 - mu) * gamma + s(n)

    zero = mpmath.matrix(d, 1)
    x, xt_half = zero, zero  # Euclidean: x is its own dual point; x_1 = 0
    gamma, s_sum, bound_acc = mpmath.mpf(0), s(1), s(1) ** 2 / alpha(1)
    out = []
    for n in range(1, n_steps + 1):
        mu, gamma_next = next_gamma(n, gamma)
        r = A * x
        w = [-b[i] / (1 + mpmath.exp(b[i] * r[i])) for i in range(m)]
        g = A.T * mpmath.matrix(w) / m
        ratio = alpha(n) / alpha(n + 1)
        xt_half = ratio * ((1 - mu) * xt_half + mu * x) - (s(n) / alpha(n + 1)) * g
        thresh = lam * gamma_next / alpha(n + 1)
        x = mpmath.matrix([mpmath.sign(v) * max(abs(v) - thresh, 0) for v in xt_half])
        gamma = gamma_next
        s_sum += s(n + 1)
        bound_acc += s(n + 1) ** 2 / alpha(n + 1)
        preview = next_gamma(n + 1, gamma)[1] / alpha(n + 2)
        out.append(([x[j] for j in range(d)], gamma, s_sum, bound_acc, preview))
    return out


def close(got, want):
    """|got - want| <= RTOL |want|, in the max norm for vectors."""
    got = np.atleast_1d(np.asarray(got, dtype=float))
    want = [mpmath.mpf(v) for v in np.atleast_1d(want)]
    err = max(abs(mpmath.mpf(g) - v) for g, v in zip(got, want))
    return err <= RTOL * max(abs(v) for v in want)


@pytest.mark.parametrize("kind", PRESET_KINDS)
def test_first_steps_match_50_digit_arithmetic(kind):
    A, b, _ = synthetic_sparse_data("logistic", d=5, m=12, k=2, noise=0.5, seed=7)
    problem = build_problem("logistic", L1Penalty(LAM), EuclideanMirror(), A=A, b=b)
    with mpmath.workdps(50):
        exact = exact_trajectory(A, b, LAM, schedule(kind), STEPS)
        st = init(problem, schedule(kind))
        for n, (x, gamma, s_sum, bound_acc, preview) in enumerate(exact, start=1):
            st = step(st, problem)
            row = trace_row(st, problem)
            for name, got, want in [("x", st.x, x), ("gamma", st.gamma, gamma),
                                    ("s_sum", st.s_sum, s_sum),
                                    ("bound_acc", st.bound_acc, bound_acc),
                                    ("backward_step", row.backward_step, preview)]:
                assert close(got, want), (kind, n, name)

import warnings

import numpy as np
import pytest
from scipy.optimize import NonlinearConstraint, minimize

from xrda import solver


def refine_minimize_1d(f, lo, hi, rounds=60, pts=33):
    """Minimize a 1-d convex function on [lo, hi] by repeated grid refinement.

    Independent of any closed form; used as the oracle for separable
    backward steps.  Accurate to ~1e-10 on well-scaled problems.
    """
    lo, hi = float(lo), float(hi)
    for _ in range(rounds):
        grid = np.linspace(lo, hi, pts)
        vals = np.array([f(g) for g in grid])
        j = int(np.argmin(vals))
        lo = grid[max(j - 1, 0)]
        hi = grid[min(j + 1, pts - 1)]
        if hi - lo < 1e-13 * max(1.0, abs(lo), abs(hi)):
            break
    return 0.5 * (lo + hi)


def l2ball_projection_oracle(y, radius):
    """Numeric argmin_z 0.5||z - y||^2 s.t. ||z|| <= radius, via trust-constr."""
    y = np.asarray(y, dtype=float)
    start = y * min(1.0, 0.5 * radius / max(np.linalg.norm(y), 1e-12))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        res = minimize(lambda z: 0.5 * float(np.sum((z - y) ** 2)),
                       start, jac=lambda z: z - y, method="trust-constr",
                       constraints=[NonlinearConstraint(
                           lambda z: float(z @ z), -np.inf, radius ** 2,
                           jac=lambda z: 2.0 * z[None, :])],
                       options={"xtol": 1e-16, "gtol": 1e-14,
                                "barrier_tol": 1e-14, "maxiter": 5000})
    assert res.status in (1, 2), res.message
    return res.x


def simplex_kl_oracle(y):
    """Numeric argmin_z sum z log(z/y) - z + y over the simplex, via SLSQP."""
    y = np.asarray(y, dtype=float)
    d = y.size
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        res = minimize(lambda z: float(np.sum(z * np.log(z / y)) - np.sum(z) + np.sum(y)),
                       np.full(d, 1.0 / d), jac=lambda z: np.log(z / y),
                       method="SLSQP",
                       bounds=[(1e-14, None)] * d,
                       constraints=[{"type": "eq",
                                     "fun": lambda z: float(np.sum(z)) - 1.0,
                                     "jac": lambda z: np.ones(d)}],
                       options={"ftol": 1e-16, "maxiter": 500})
    assert res.success, res.message
    return res.x


def replay_evaluation(p, state, points, rows, reference):
    """A stochastic run's evaluation of the points it kept, replayed: the
    ``(x, what, n)`` points, in iterate order, go through
    ``solver._objective`` in blocks of ``p._evaluation_width()`` points.  Each
    iterate's f updates ``state.best_f`` / ``best_x`` by a strict <, so
    the first of tied iterates is kept, and fills ``f_x`` of the row
    logged at its n; each averaged iterate's f fills that row's ``f_avg``
    and both gaps; the last iterate's residual and f become the state's.
    Returns the blocks, each a list of (what, n)."""
    width = p._evaluation_width()
    blocks = [points[start:start + width] for start in range(0, len(points), width)]
    row_at = {row.n: row for row in rows}
    for block in blocks:
        for (x, what, n), (residual, f) in zip(block, solver._objective(p, block)):
            row = row_at.get(n)
            if what == "averaged iterate":
                row.f_avg = f
                if reference is None:
                    row.gap_best = row.gap_avg = float("nan")
                else:
                    row.gap_best = state.best_f - reference.f_star
                    row.gap_avg = f - reference.f_star
                continue
            if f < state.best_f:
                state.best_f, state.best_x = f, x
            if row is not None:
                row.f_x = f
            state.residual, state.f_x = residual, f
    return [[(what, n) for _, what, n in block] for block in blocks]


def kept_points(state, logged):
    """The points a stochastic run keeps at a state: its iterate, and when
    the state is logged its averaged iterate as well."""
    points = [(state.x.copy(), "iterate", state.n)]
    if logged:
        points.append((solver.averaged_iterate(state), "averaged iterate", state.n))
    return points


@pytest.fixture
def rng():
    return np.random.default_rng(1234)

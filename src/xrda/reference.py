"""Certified reference optima and an independent proximal-subgradient loop.

``reference_optimum`` returns a ReferenceSolution whose ``certified_gap``
is an honest upper bound on f(x_star) - f*: every path pairs a primal
solve with a weak-duality lower bound, so a reference can only ever
over-state the gap, never under-state it.  Gap columns computed against
such a reference therefore never make the convergence bound look falsely
satisfied.

One lower bound is in use, weak duality for f = h(A x) + G(x):
f* >= -h*(u) - G*(-A'u) for any dual point u (``_dual_bound``).  It
makes u feasible for G (l1: scaled into ||A'u||_inf <= lam; zero:
projected onto the nullspace of A', valid up to the residual of that
projection, which the converged flag reports; an indicator of C adds its
support function min_{z in C} <A'u, z>, closed-form for box, simplex and
l2 ball) and then for h* (lad: scaled into |u_i| <= 1/m, h*(u) = b'u;
logistic: a sum of binary entropies; linear: finite only at u = 1).

``lower_bound_certificate`` picks the dual point of a point x and
returns its bound: for logistic and linear the row weights h'(A x) / m,
the gradient of h, where the bound equals the linearization
F(x) + min_{z in C} <g, z - x> by Fenchel-Young; for lad a point rebuilt
at x (``_lad_dual_point``), which at the LP's x* meets the LP's own bound
to rounding, so the LP's multipliers give only the primal point.

``certify`` turns a point into a ReferenceSolution, for every solve path
and for every cache entry the harness loads: f(x_star) and the
certificate at x_cert, the point whose bound is reported.  Lad, linear
and ``initial_point`` references are certified at x_star itself.  A
logistic reference's x_cert is the point of the largest bound its method
certified on the way, which may differ from x_star, the best-f point.

No loss formula is written here: values, row weights, curvatures and
gradients come from the problem's residual oracle
(``CompositeProblem.residual`` and the methods that take its result).

Primal solves, one method per (loss, regularizer) pair and no fallback:
lad solves a dual linear program (HiGHS) and reads x* from its
multipliers; on an l2 ball that excludes the unregularized LP point it
maximizes the smooth dual with L-BFGS-B and takes a Newton step on the
dual face.  Logistic uses L-BFGS-B (positive-part split for l1) and
Newton on the identified face for l1 and box, and accelerated projected
gradient on the simplex and the l2 ball.  Linear objectives are
analytic, and unbounded below where the certificate at their point is
-inf.  A method that stops short reports the gap it reached.
"""

import math

import numpy as np
from scipy.optimize import linprog, minimize
from scipy.special import xlogy

from .geometry import as_vector, pairing
from .regularizers import _prox_euclid_l2ball, canonical_argmin, mirror_prox

_LP_OPTS = {
    "presolve": True,
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
}

_LBFGS_OPTS = {"maxiter": 2000, "ftol": 1e-16, "gtol": 1e-12}

# one step certified every stalled L-BFGS-B point measured (logistic+l1 at
# d=200 and d=2000, box at d=200, gaps 1e-9 to 5e-8 -> below 2e-15)
_NEWTON_STEPS = 3


class ReferenceSolution:
    """A solved instance: point, value, a certified optimality gap, and
    x_cert, the point whose certificate bounds f*."""

    def __init__(self, x_star, f_star, certified_gap, converged, method, x_cert=None):
        self.x_star = x_star
        self.f_star = f_star
        self.certified_gap = certified_gap
        self.converged = converged
        self.method = method
        self.x_cert = x_cert

    def __repr__(self):
        return ("ReferenceSolution(f_star=%.12g, certified_gap=%.3g, converged=%s, "
                "method=%r)" % (self.f_star, self.certified_gap, self.converged,
                                self.method))


def _support_min(reg, g, dim):
    """min_{z in C} <g, z> for the indicator regularizers."""
    if reg.kind == "box":
        lo, hi = reg.bounds(dim)
        with np.errstate(invalid="ignore"):
            terms = np.minimum(g * lo, g * hi)
        terms[(g == 0) & np.isnan(terms)] = 0.0  # 0 * inf: a zero g_j adds 0
        return float(np.sum(terms))
    if reg.kind == "simplex":
        return float(np.min(g))
    if reg.kind == "l2ball":
        return -reg.radius * float(np.sqrt(np.dot(g, g)))
    raise ValueError("no support function for regularizer %r" % reg.kind)


def _logistic_conjugate(v):
    """Sum of binary-entropy conjugate terms; v entries must lie in [0, 1]."""
    return float(np.sum(xlogy(v, v) + xlogy(1.0 - v, 1.0 - v)))


def _nullspace_project(A, u):
    w, *_ = np.linalg.lstsq(A, u, rcond=None)
    return u - A @ w


def lower_bound_certificate(problem, x):
    """An honest lower bound on f* built from the point x; -inf if none.
    It picks the dual point of x, ``_lad_dual_point`` for lad and the row
    weights h'(A x) / m otherwise, and returns its ``_dual_bound``."""
    x = as_vector(x, dim=problem.d)
    if problem.loss == "lad":
        u = _lad_dual_point(problem, x)
    else:
        u = problem.row_weights(problem.residual(x), problem.b) / problem.m
    return _dual_bound(problem, u)


def _dual_bound(problem, u):
    """The weak-duality bound f* >= -F*(u) - G*(-A'u) of the dual point u,
    F(x) = h(A x), honest at any u; -inf where h*(u) is +inf.  First u is
    made feasible for G: l1 scales it into ||A'u||_inf <= lam and zero
    projects it onto the nullspace of A'; an indicator of C adds
    -G*(-A'u) = min_{z in C} <A'u, z>.  Then h*: lad scales u into
    |u_i| <= 1/m, where h*(u) = b'u; logistic's h* is the sum of binary
    entropies of v = -m b u, +inf outside [0, 1]; the linear loss
    (m = 1, b = 0) has h* = 0 at u = 1 and +inf elsewhere."""
    A, b, m, reg = problem.A, problem.b, problem.m, problem.reg
    if reg.kind == "zero":
        u = _nullspace_project(A, u)
    elif reg.kind == "l1":
        atu = float(np.max(np.abs(A.T @ u)))
        if atu > reg.lam:
            u = (reg.lam / atu) * u
    if problem.loss == "lad":
        umax = float(np.max(np.abs(u)))
        if umax > 1.0 / m:
            u = u * (1.0 / (m * umax))
        value = -pairing(u, b)
    elif problem.loss == "linear":
        value = 0.0 if u[0] == 1.0 else -math.inf
    else:
        v = -u * b * m
        if np.any(v < 0.0) or np.any(v > 1.0):
            return -math.inf
        value = -_logistic_conjugate(v) / m
    if reg.kind in ("l1", "zero"):
        return value
    return value + _support_min(reg, A.T @ u, problem.d)


def _lad_dual_point(problem, x):
    """A lad dual point u built at x, |u_i| <= 1/m.  A row whose residual
    r = A x - b is not within 1e-9 of 0 takes u_i = sign(r_i) / m.  The
    other rows take the least-squares solution of the optimality
    conditions of x, 0 in A'u + dG(x), on the coordinates where they are
    equations, clipped to |u_i| <= 1/m.  ``_dual_bound`` of any such u
    bounds f*; at the vertex that ``_solve_lad_lp`` reads x* from, it
    meets the LP's own bound to rounding, where u = sign(r) / m alone
    would leave the zero-residual rows at 0."""
    A, b, m, d, reg = problem.A, problem.b, problem.m, problem.d, problem.reg
    r = problem.residual(x) - b
    rows = np.flatnonzero(np.abs(r) <= 1e-9 * max(1.0, float(np.max(np.abs(b)))))
    u = np.sign(r) / m
    u[rows] = 0.0
    cols, extra = np.arange(d), None
    if reg.kind in ("l1", "simplex"):
        cols = np.flatnonzero(x)
    elif reg.kind == "box":
        lo, hi = reg.bounds(d)
        cols = np.flatnonzero((lo + 1e-9 < x) & (x < hi - 1e-9))
    target = -reg.lam * np.sign(x[cols]) if reg.kind == "l1" else np.zeros(cols.size)
    if reg.kind == "simplex":  # (A'u)_j = tau on the support
        extra = -np.ones(cols.size)
    elif reg.kind == "l2ball" and pairing(x, x) >= reg.radius ** 2 * (1.0 - 1e-9):
        extra = x  # A'u = -nu x on the sphere
    if rows.size:
        system = A[np.ix_(rows, cols)].T
        if extra is not None:
            system = np.column_stack([system, extra])
        rhs = target - A[:, cols].T @ u
        u[rows] = np.clip(np.linalg.lstsq(system, rhs, rcond=None)[0][:rows.size],
                          -1.0 / m, 1.0 / m)
    return u


def certify(problem, x_star, method, tol, x_cert):
    """The ReferenceSolution of x_star, bounded by the certificate at
    x_cert: certified_gap = f(x_star) - ``lower_bound_certificate(problem,
    x_cert)``, at least 0; a nan bound is no bound, so its gap is inf."""
    f_star = problem.objective(x_star)
    lower = lower_bound_certificate(problem, x_cert)
    gap = math.inf if math.isnan(lower) else max(0.0, f_star - lower)
    return ReferenceSolution(x_star, f_star, gap, gap <= tol, method, x_cert)


def _lad_dual(problem, cost, free=0, **constraints):
    """The lad dual LP over |u_i| <= 1/m and ``free`` unbounded variables."""
    m = problem.m
    dual = linprog(cost, bounds=[(-1.0 / m, 1.0 / m)] * m + [(None, None)] * free,
                   method="highs", options=_LP_OPTS, **constraints)
    if not dual.success:
        raise RuntimeError("dual reference LP failed: %s" % dual.message)
    return dual


def _solve_lad_lp(problem, tol):
    """One dual LP for lad; x* is read from its multipliers and certified
    at itself, so a wrong one can only widen the gap ``certify`` reports.
    The l2 ball reuses the zero regularizer's LP and goes on to _lad_ball
    if its point is outside.  A box with an open side has no finite LP
    here, and raises ValueError."""
    A, b, m, d = problem.A, problem.b, problem.m, problem.d
    reg = problem.reg
    # dual: maximize -b'u (- support corrections) over ||u||_inf <= 1/m
    if reg.kind == "l1":
        dual = _lad_dual(problem, b, A_ub=np.vstack([A.T, -A.T]),
                         b_ub=np.full(2 * d, reg.lam))
        mu = dual.ineqlin.marginals
        x_star = mu[:d] - mu[d:]
    elif reg.kind == "box":
        # maximize -b'u - sum_j max((-A'u)_j lo_j, (-A'u)_j hi_j)
        lo, hi = reg.bounds(d)
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise ValueError("the lad reference needs finite box bounds")
        dual = _lad_dual(problem, np.concatenate([b, np.ones(d)]), free=d,
                         A_ub=np.block([[-(lo[:, None] * A.T), -np.eye(d)],
                                        [-(hi[:, None] * A.T), -np.eye(d)]]),
                         b_ub=np.zeros(2 * d))
        weights = -dual.ineqlin.marginals
        x_star = np.clip(lo * weights[:d] + hi * weights[d:], lo, hi)
    elif reg.kind == "simplex":
        # minimize b'u - tau over tau <= (A'u)_j; x* is minus the multipliers
        dual = _lad_dual(problem, np.append(b, -1.0), free=1,
                         A_ub=np.hstack([-A.T, np.ones((d, 1))]), b_ub=np.zeros(d))
        x_star = np.maximum(-dual.ineqlin.marginals, 0.0)
    else:  # zero, and the l2 ball's first try
        dual = _lad_dual(problem, b, A_eq=A.T, b_eq=np.zeros(d))
        x_star = dual.eqlin.marginals
    if reg.kind == "l2ball" and np.linalg.norm(x_star) > reg.radius:
        x_star = _lad_ball(problem, x_star, dual.x[:m], tol)
    return certify(problem, x_star, "lad_lp", tol, x_star)


def _lad_ball(problem, x_lp, u, tol):
    """The point of lad on the l2 ball of radius R when the zero
    regularizer's LP point x_lp (LP dual point u) is outside it.  First the
    least-norm point of x_lp's zero-residual rows (|u_i| < 1/m), kept if it
    is in the ball and certified to tol.  Then L-BFGS-B on the smooth dual
    phi(u) = -b'u - R ||A'u|| over |u_i| <= 1/m, from sign(A x0 - b) / m
    at x0 = R x_lp / ||x_lp|| (phi has a kink at A'u = 0): x = -A'u / nu,
    nu = ||A'u|| / R, takes one Newton step in (x, u_Z, nu) on nu x + A'u
    = 0, A_Z x = b_Z, ||x|| = R, with Z the rows where |u_i| < 1/m.  Only x
    moves; the point it returns is certified at itself."""
    A, b, m, reg, R = problem.A, problem.b, problem.m, problem.reg, problem.reg.radius
    face = np.abs(u) < 1.0 / m
    x = np.linalg.lstsq(A[face], b[face], rcond=None)[0]
    if (np.linalg.norm(x) <= R
            and problem.objective(x) - lower_bound_certificate(problem, x) <= tol):
        return x

    def neg_phi(v):
        g = A.T @ v
        nrm = np.linalg.norm(g)
        return pairing(v, b) + R * nrm, (b + (R / nrm) * (A @ g)) if nrm > 0 else b

    u = minimize(neg_phi, np.sign((R / np.linalg.norm(x_lp)) * (A @ x_lp) - b) / m,
                 jac=True, method="L-BFGS-B", bounds=[(-1.0 / m, 1.0 / m)] * m,
                 options=_LBFGS_OPTS).x
    g = A.T @ u
    nu = np.linalg.norm(g) / R
    x = -g / nu
    # dx = -B'w / nu with B = [A_Z; x'] leaves B B' w = nu [A_Z x - b_Z; 0]
    face = np.abs(u) < 1.0 / m
    B = np.vstack([A[face], x])
    w = np.linalg.lstsq(B @ B.T, nu * np.append(B[:-1] @ x - b[face], 0.0), rcond=None)[0]
    z = _prox_euclid_l2ball(reg, x - (B.T @ w) / nu, 1.0)
    return z if problem.objective(z) < problem.objective(x) else x


def _logistic_value_grad(problem, x):
    r = problem.residual(x)
    w = problem.row_weights(r, problem.b)
    # A'(w / m), not (A'w) / m: the other rounding moves x* and its certificate
    return problem.loss_at(r), problem.A.T @ (w / problem.m)


def _solve_logistic(problem, tol):
    d, reg = problem.d, problem.reg
    if reg.kind == "l1":
        lam = reg.lam

        def split_obj(z):
            p, q = z[:d], z[d:]
            x = p - q
            val, grad = _logistic_value_grad(problem, x)
            val += lam * float(np.sum(p) + np.sum(q))
            return val, np.concatenate([grad + lam, -grad + lam])

        res = minimize(split_obj, np.zeros(2 * d), jac=True, method="L-BFGS-B",
                       bounds=[(0, None)] * 2 * d, options=_LBFGS_OPTS)
        x = res.x[:d] - res.x[d:]
    elif reg.kind in ("simplex", "l2ball"):
        x, x_cert = _accelerated_projected_gradient(problem, tol)
        return certify(problem, x, "logistic_smooth", tol, x_cert)
    else:
        x0, bounds = np.zeros(d), None
        if reg.kind == "box":
            lo, hi = reg.bounds(d)
            x0, bounds = np.clip(x0, lo, hi), list(zip(lo, hi))
        x = minimize(lambda z: _logistic_value_grad(problem, z), x0, jac=True,
                     method="L-BFGS-B", bounds=bounds, options=_LBFGS_OPTS).x

    ref = certify(problem, x, "logistic_smooth", tol, x)
    if ref.converged or reg.kind not in ("l1", "box"):
        return ref
    x, x_cert = _newton_on_face(problem, x, tol)
    return certify(problem, x, "logistic_smooth", tol, x_cert)


def _newton_on_face(problem, x, tol):
    """Newton steps for logistic loss on the face L-BFGS-B identified.

    For l1 the face fixes the support of x and its signs, and G adds the
    linear term lam sign(x); for box it fixes the coordinates at a bound,
    and those whose data column is all zero, which f does not depend on.
    A step is kept only if it stays on the face and lowers f; every
    point's certificate counts, so the gap to the largest lower bound
    falls with every step kept.  Steps stop once the gap reaches tol or
    a step is not kept.  Returns the best point and the point of the
    largest bound; a face with more free coordinates than rows has a
    singular Hessian and returns x as both.
    """
    reg, m = problem.reg, problem.m
    if reg.kind == "l1":
        free = np.flatnonzero(x)
        c = reg.lam * np.sign(x[free])
        lo, hi = np.where(c > 0, 0.0, -np.inf), np.where(c > 0, np.inf, 0.0)
    else:
        lo, hi = reg.bounds(problem.d)
        free = np.flatnonzero((lo < x) & (x < hi))
        free = free[problem.A[:, free].any(axis=0)]
        c, lo, hi = 0.0, lo[free], hi[free]
    if free.size > m:
        return x, x
    A_F = problem.A[:, free]
    f_x = problem.objective(x)
    x_cert, lower = x, lower_bound_certificate(problem, x)
    for _ in range(_NEWTON_STEPS):
        r = problem.residual(x)
        grad = A_F.T @ (problem.row_weights(r, problem.b) / m) + c
        hess = (A_F.T * problem.curvature(r)) @ A_F / m
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            break
        z = x.copy()
        z[free] -= step
        lower_z = lower_bound_certificate(problem, z)
        if lower_z > lower:
            x_cert, lower = z, lower_z
        f_z = problem.objective(z)
        if not (f_z < f_x and np.all((lo < z[free]) & (z[free] < hi))):
            break
        x, f_x = z, f_z
        if f_x - lower <= tol:
            break
    return x, x_cert


def _project_simplex(reg, y, s):
    """Euclidean projection onto the probability simplex by sorting (Duchi
    et al., ICML 2008), with the signature of the registry's backward steps."""
    v = np.sort(y)[::-1]
    css = np.cumsum(v) - 1.0
    rho = np.flatnonzero(v * np.arange(1, y.size + 1) > css)[-1]
    return np.maximum(y - css[rho] / (rho + 1), 0.0)


def _accelerated_projected_gradient(problem, tol):
    """Accelerated projected gradient (Beck & Teboulle, SIAM J. Imaging Sci.
    2009) for logistic loss on the simplex or the l2 ball, from the
    canonical argmin of G.  L starts at the curvature along the first
    gradient g and doubles until (g(z) - g(y))'s <= L ||s||^2 / 2,
    s = z - y, which implies the quadratic upper bound for convex f without
    cancelling f values; momentum resets when g'(z - x) > 0.  Returns the
    best point of those certified every 20 steps, for at most
    _LBFGS_OPTS["maxiter"] steps, and the point of the largest bound."""
    reg, steps = problem.reg, _LBFGS_OPTS["maxiter"]
    project = _project_simplex if reg.kind == "simplex" else _prox_euclid_l2ball
    grad = lambda v: problem.subgradient_at(problem.residual(v))
    x = y = canonical_argmin(reg, problem.d)
    g = grad(y)
    hgg = np.dot(problem.curvature(problem.residual(y)), (problem.A @ g) ** 2) / problem.m
    L = hgg / np.dot(g, g) if hgg > 0 else 1.0
    t, best_f, lower, x_cert = 1.0, np.inf, -np.inf, x
    for k in range(1, steps + 1):
        while True:
            z = project(reg, y - g / L, 1.0)
            g_z, s = grad(z), z - y
            if np.dot(g_z - g, s) <= 0.5 * L * np.dot(s, s):
                break
            L *= 2.0
        if np.dot(g, z - x) > 0:
            t = 1.0
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        y = z + ((t - 1.0) / t_next) * (z - x) if t > 1.0 else z
        x, t = z, t_next
        if k % 20 == 0 or k == steps:
            f_x = problem.objective(x)
            if f_x < best_f:
                best_x, best_f = x, f_x
            lower_x = lower_bound_certificate(problem, x)
            if lower_x > lower:
                x_cert, lower = x, lower_x
            if best_f - lower <= tol:
                break
        g = g_z if y is z else grad(y)
    return best_x, x_cert


def _solve_linear(problem, tol):
    c, reg, d = problem.A[0], problem.reg, problem.d
    if reg.kind == "simplex":
        x = np.zeros(d)
        x[int(np.argmin(c))] = 1.0
    elif reg.kind == "box":  # an open side the cost points to: a finite x, a -inf bound
        lo, hi = reg.bounds(d)
        side = np.where(c > 0, lo, np.where(c < 0, hi, 0.0))
        x = np.clip(np.where(np.isfinite(side), side, 0.0), lo, hi)
    elif reg.kind == "l2ball":
        nrm = float(np.sqrt(np.dot(c, c)))
        x = -(reg.radius / nrm) * c if nrm > 0 else np.zeros(d)
    else:  # l1 and zero: f(0) = 0 is f* wherever f is bounded below
        x = np.zeros(d)
    ref = certify(problem, x, "linear_analytic", tol, x)
    if ref.certified_gap == math.inf:
        raise ValueError("linear objective with this regularizer is unbounded below")
    return ref


def reference_optimum(problem, tol=1e-8):
    """Solve the instance to certified optimality, one method per pair.

    tol = inf short-circuits at the canonical argmin of G, the default
    start of a run.  The returned certified_gap always satisfies
    f* >= f_star - certified_gap.
    """
    if not tol > 0:
        raise ValueError("reference tolerance must be positive, got %r" % (tol,))
    if np.isinf(tol):
        x = canonical_argmin(problem.reg, problem.d)
        return certify(problem, x, "initial_point", tol, x)
    if problem.loss == "linear":
        return _solve_linear(problem, tol)
    if problem.loss == "lad":
        return _solve_lad_lp(problem, tol)
    return _solve_logistic(problem, tol)


def prox_subgradient_iterates(problem, steps, n_iters, x1=None):
    """Plain forward-backward loop: x <- prox_{s G}(grad_inv(grad(x) - s g)).

    Kept deliberately separate from the solver's recursion; used to pin
    down the schedule that collapses to this classical method.  Returns
    the list [x_1, ..., x_{n_iters+1}].
    """
    mirror, reg = problem.mirror, problem.reg
    x = canonical_argmin(reg, problem.d) if x1 is None else as_vector(x1, dim=problem.d).copy()
    out = [x.copy()]
    for k in range(1, n_iters + 1):
        s = steps(k)
        g = problem.subgradient(x)
        x = mirror_prox(reg, mirror, mirror.grad_inverse(mirror.grad(x) - s * g), s)
        out.append(x.copy())
    return out

"""The extended dual-averaging iteration.

One step from iterate n to n+1, with mu_n = t_n / gamma_n (0 when
gamma_n = 0):

    xt'_n       = (1 - mu_n) xt_{n-1/2} + mu_n xt_n
    xt_{n+1/2}  = (a_n/a_{n+1}) xt'_n + (1 - a_n/a_{n+1}) xt_1
                  - (s_n / a_{n+1}) g_n
    gamma_{n+1} = (1 - mu_n) gamma_n + s_n
    x_{n+1}     = mirror_prox(G, grad_inverse(xt_{n+1/2}),
                              gamma_{n+1} / a_{n+1})

where xt denotes dual-side vectors (xt_n = grad phi(x_n)), g_n is a
subgradient of F at x_n, and a_n is the schedule's alpha.  The backward
step recovers a subgradient of G at the new iterate,

    h_{n+1} = (a_{n+1} / gamma_{n+1}) (xt_{n+1/2} - xt_{n+1}),

and the same trajectory can be written in accumulated form: x_{n+1} is
the backward step at gamma_{n+1}/a_{n+1} from the point whose dual
coordinates are xt_1 - (sum_{i<=n} s_i g_i + t_i h_i) / a_{n+1}.
``argmin_form_step`` checks the recursion against that form.  The state
holds only the recursion, so the caller carries the dual sum: it starts
at zeros after ``init``, and each ``argmin_form_step`` call takes the sum
over the steps already taken and returns it with step n's terms added.

Under non-increasing s, non-decreasing alpha, and 0 <= t_n <= gamma_n,
the best and the s-weighted-average iterate satisfy

    f - f*  <=  (alpha_n D(x*, x_1) + (M^2 / 2 sigma)
                 sum_{i<=n} s_i^2 / alpha_i) / sum_{i<=n} s_i,

which ``theoretical_bound`` evaluates from the state's accumulators.

``step`` computes only the recursion's terms.  It leaves out each term
of weight exactly 0 (mu_n xt_n and (1 - a_n/a_{n+1}) xt_1) and
multiplies by no factor of exactly 1.  A left-out term is a signed zero
(or nan at an already overflowed dual point), so only the sign of a zero
entry can change, and no output reads it.  h is derived from the state
(``SolverState.h``), not stored, and no step reads it; for the Euclidean
mirror xt_{n+1} is x_{n+1} itself.

Only ``_schedule_values`` calls the schedule, and unless ``unsafe`` it
checks each value once, when it is first evaluated: step n evaluates
alpha_{n+1}, t_n and s_{n+1}, so a violation at index n+1 stops the run
at step n, before any bound uses it.  (A trace row's backward-step
column re-evaluates alpha_{n+1} and t_n, unchecked, as a preview.)

``_objective`` is the only code that computes f: for a block of points
it takes their residuals from one product
(``CompositeProblem._residuals``), then each point's ``loss_at`` plus
the regularizer's ``_value``, and checks that f is finite.
``_evaluate`` is the only code that keeps the books of f: it takes
``(x, what, n, row)`` points in iterate order as one ``_objective``
block.  An iterate updates ``best_f`` / ``best_x`` and fills its row's
``f_x``, and the iterate of ``state.n`` sets the state's ``residual``
and ``f_x``; an averaged iterate fills its row's ``f_avg`` and gaps.
``init`` and an exact or standalone ``step`` pass their own iterate, a
block of one, and ``trace_row`` of an evaluated state passes its
averaged iterate.  An exact step needs the residual A x_n for its
subgradient, so ``best_f`` of an exact run is the best f of all
iterates, x_1 included.

A stochastic trajectory never reads f or the residual, and for a
sampled g the theorem bounds the expected s-weighted mean of f(x_i) -
f*, not the f of each iterate, so a stochastic ``run`` evaluates f
exactly only at x_1 (in ``init``), at each trace-row iterate and its
averaged iterate, and at the last iterate.  Every step in between costs
a draw, a subgradient of the drawn rows and a backward step, and no pass
over the data.  Nor does a logged step pass over the data: ``run`` keeps
a copy of the iterate and of the averaged iterate, with the row that
``trace_row`` made of the fields that need no f, and passes the kept
points to ``_evaluate`` when they fill
``CompositeProblem._evaluation_width()`` points (their residuals and
copies within ``_RESIDUAL_BLOCK`` bytes: 8 points at m = 8000, d = 200)
and after the last point of the last step.
So each row's ``best_f`` is the best f among the evaluated iterates up
to the row's.  A product over several points rounds differently from a
product with one, so a stochastic f can differ in its last bits from
``residual(x)``'s; a block of one takes ``residual(x)`` itself.  A kept
point whose x is not finite has no finite f, so it is evaluated at once,
with the points kept before it, and stops the run at the step that
makes it; the run never steps on from a non-finite logged iterate.  A
finite x whose f is not finite (its residual overflows, say) waits for
its block.  A state's ``residual`` and ``f_x`` are those of ``state.x``
once it has been evaluated, and None before: inside a stochastic
``run`` they are set only at a state whose block closes at its step.
No output reads them there, so a callback changes no output.

A stochastic ``run`` draws its minibatches a block at a time: one
``CompositeProblem._draw`` call gives the indices and rows of up to
``_draw_width()`` successive steps (65 at d = 200, batch 1, and never
past ``n_iters``), and each step gets its rows, and leaves its
evaluation to ``run``, through the private ``_rows`` argument.
``_draw`` is the only code that draws from the run's generator, and a
block draw consumes it exactly as that many single draws, so ``step``
called on its own, which draws with one ``_draw(rng, 1)`` and evaluates
its iterate, takes the same trajectory.

Inputs are validated at the boundary: ``start_point`` checks the start
point (``init`` calls it, and the harness before it solves the
reference), ``build_problem`` the data and the mirror-regularizer pair,
and the public mirror and regularizer functions their arguments.
``step`` calls the unchecked kernels (``_grad``, ``_grad_inverse``,
``_prox``, ``_draw`` and ``_batch_subgradient``) on vectors it made
itself, so no check runs per step.  An overflowing schedule still fails
loudly: a non-finite f raises ValueError in ``_objective``, and so does
a non-finite dual point at the end of ``run``, which catches an overflow
at any step.
"""

import math
import time
from dataclasses import dataclass

import numpy as np

from .geometry import (ENTROPY_DOMAIN_FLOOR, MirrorDomainError, as_vector)
from .regularizers import _prox, canonical_argmin, mirror_prox

NNZ_THRESHOLD = 1e-12

# relative slack for the lazy schedule-constraint checks
_SCHED_EPS = 1e-12


class ScheduleError(RuntimeError):
    """A schedule violated its constraints mid-run."""


@dataclass
class SolverState:
    """Everything the iteration carries between steps.

    Single-owner: mutate only through ``step`` / ``run``.  It holds the
    recursion and what the bound and the trace read, nothing else (the
    accumulated form's dual sum is carried by ``argmin_form_step``'s
    caller).  Accumulators hold sums over iterates 1..n: ``s_sum`` = sum
    s_i, ``weighted_sum`` = sum s_i x_i, ``bound_acc`` = sum s_i^2 /
    alpha_i.  ``last_s`` and ``last_alpha`` are s_n and alpha_n.  ``h``
    is derived from ``last_alpha``, ``gamma``, ``x_tilde_half`` and
    ``x_tilde``, and ``x_tilde`` is ``x`` for the Euclidean mirror.
    ``residual`` (A x, from ``_objective``) and ``f_x`` are those of
    ``x`` once ``_evaluate`` has evaluated it, and None before; an exact
    step takes its subgradient from that residual.
    """

    schedule: object
    n: int
    x: np.ndarray
    x_tilde: np.ndarray
    x_tilde_half: np.ndarray
    x_tilde_1: np.ndarray
    x1: np.ndarray
    gamma: float
    s_sum: float
    weighted_sum: np.ndarray
    bound_acc: float
    residual: object
    f_x: float
    best_f: float
    best_x: np.ndarray
    last_s: float
    last_alpha: float

    @property
    def h(self):
        """h_n = (alpha_n / gamma_n) (xt_{n-1/2} - xt_n); zero while gamma_n = 0."""
        if self.gamma == 0.0:
            return np.zeros(self.x.size)
        return (self.last_alpha / self.gamma) * (self.x_tilde_half - self.x_tilde)


@dataclass
class TraceRow:
    n: int
    f_x: float
    f_avg: float
    gap_best: float
    gap_avg: float
    bound: float
    backward_step: float
    nnz: int
    elapsed_s: float


@dataclass
class RunResult:
    state: SolverState
    rows: list


def start_point(problem, x1=None):
    """A copy of the start x1 (default: the canonical argmin of G), checked:
    it must lie in the mirror's domain and minimize G, as the bound
    assumes.  ``init`` calls it, and the harness before the reference is
    solved."""
    reg = problem.reg
    canonical = canonical_argmin(reg, problem.d)
    x1 = canonical if x1 is None else as_vector(x1, dim=problem.d).copy()
    if problem.mirror.kind == "entropy" and np.any(x1 < ENTROPY_DOMAIN_FLOOR):
        raise MirrorDomainError(
            "start point lies outside the entropy mirror's domain (open positive "
            "orthant); pass a strictly positive x1 or use the simplex "
            "regularizer, whose default start is the uniform vector")
    if reg.value(x1) > reg.value(canonical) + 1e-9:
        raise ValueError(
            "start point does not minimize the regularizer: G(x1)=%g exceeds the "
            "canonical minimum %g" % (reg.value(x1), reg.value(canonical)))
    return x1


def init(problem, schedule, x1=None):
    """Start a run at ``start_point(problem, x1)``."""
    x1 = start_point(problem, x1)
    s1, alpha1 = _schedule_values(schedule, 0, 0.0, math.inf, 0.0, unsafe=False)[:2]
    xt1 = problem.mirror.grad(x1)
    state = SolverState(
        schedule=schedule, n=1, x=x1.copy(),
        x_tilde=xt1.copy(), x_tilde_half=xt1.copy(), x_tilde_1=xt1.copy(),
        x1=x1.copy(), gamma=0.0,
        s_sum=s1, weighted_sum=s1 * x1, bound_acc=s1 * s1 / alpha1,
        residual=None, f_x=None, best_f=math.inf, best_x=None,
        last_s=s1, last_alpha=alpha1)
    _evaluate(state, problem, [(state.x, "iterate", state.n, None)])
    return state


def _schedule_values(schedule, n, gamma_n, s_n, alpha_n, unsafe):
    """Evaluate step n's new values s_{n+1}, alpha_{n+1} and t_n, unless
    unsafe check them (0 < s_{n+1} <= s_n, 0 < alpha_{n+1}, alpha_n <=
    alpha_{n+1}, 0 <= t_n <= gamma_n), and return them with mu_n and
    gamma_{n+1} = (1 - mu_n) gamma_n + s_n.  ``init`` reads s_1 and alpha_1
    at n = 0, with s_0 = inf, alpha_0 = 0 and no t_0."""
    s_next = schedule.s(n + 1)
    alpha_next = schedule.alpha(n + 1)
    t_n = schedule.t(n, gamma_n) if n else 0.0
    if not unsafe:
        if not s_next > 0:
            raise ScheduleError("s_%d = %g is not positive" % (n + 1, s_next))
        if s_next > s_n + _SCHED_EPS * max(1.0, abs(s_n)):
            raise ScheduleError(
                "forward steps must be non-increasing: s_%d = %.17g exceeds s_%d = %.17g"
                % (n + 1, s_next, n, s_n))
        if not alpha_next > 0:
            raise ScheduleError("alpha_%d = %g is not positive" % (n + 1, alpha_next))
        if alpha_next < alpha_n * (1.0 - _SCHED_EPS):
            raise ScheduleError(
                "alpha must be non-decreasing: alpha_%d = %.17g is below alpha_%d = %.17g"
                % (n + 1, alpha_next, n, alpha_n))
        tslack = _SCHED_EPS * max(1.0, abs(gamma_n))
        if not -tslack <= t_n <= gamma_n + tslack:
            raise ScheduleError(
                "t_%d = %.17g outside [0, gamma_%d] = [0, %.17g]" % (n, t_n, n, gamma_n))
    mu = t_n / gamma_n if gamma_n > 0 else 0.0
    return s_next, alpha_next, t_n, mu, (1.0 - mu) * gamma_n + s_n


def step(state, problem, mode="exact", rng=None, unsafe=False, _rows=None):
    """Advance the state by one iteration; mutates and returns it.

    A stochastic step draws its minibatch from ``rng`` with one ``_draw``
    and the new iterate is evaluated at once, unless ``run`` passes the
    rows and targets it drew for this step as ``_rows``: then
    ``residual`` and ``f_x`` are set to None, and ``run`` keeps the
    iterate for a block evaluation only if it logs it or stops at it.  An
    exact step always evaluates at once, as the next one reads its
    residual.
    """
    s_n, alpha_n = state.last_s, state.last_alpha
    s_next, alpha_next, _, mu, gamma_next = _schedule_values(
        state.schedule, state.n, state.gamma, s_n, alpha_n, unsafe)
    if mode == "exact":
        g = problem.subgradient_at(state.residual)
    elif mode == "stochastic":
        if rng is None:
            raise ValueError("stochastic mode needs a numpy Generator")
        rows = _rows
        if rows is None:
            _, A, b = problem._draw(rng, 1)
            rows = A[0], b[0]
        g = problem._batch_subgradient(state.x, *rows)
    else:
        raise ValueError("mode must be 'exact' or 'stochastic', got %r" % (mode,))

    # no term of weight exactly 0 (module docstring)
    xt_half = state.x_tilde_half
    if mu:
        xt_half = (1.0 - mu) * xt_half + mu * state.x_tilde
    ratio = alpha_n / alpha_next
    if ratio != 1.0:
        xt_half = ratio * xt_half + (1.0 - ratio) * state.x_tilde_1
    c = s_n / alpha_next
    xt_half = xt_half - c * g
    # _prox returns a fresh array, so the identity map needs no copies
    mirror = problem.mirror
    euclidean = mirror.kind == "euclidean"
    y = xt_half if euclidean else mirror._grad_inverse(xt_half)
    x_next = _prox(problem.reg, mirror, y, gamma_next / alpha_next)
    xt_next = x_next if euclidean else mirror._grad(x_next)

    state.x = x_next
    state.x_tilde = xt_next
    state.x_tilde_half = xt_half
    state.gamma = gamma_next
    state.last_s = s_next
    state.last_alpha = alpha_next
    state.n += 1
    state.s_sum += s_next
    state.weighted_sum += s_next * x_next
    state.bound_acc += s_next * s_next / alpha_next

    if _rows is None:
        _evaluate(state, problem, [(state.x, "iterate", state.n, None)])
    else:
        state.residual = state.f_x = None
    return state


def _objective(problem, points):
    """The residual and f of each point of a block, ``(x, what, n)``
    triples in iterate order.  The residuals come from one product,
    ``CompositeProblem._residuals`` (``residual(x)`` for a block of one).
    Then each point in turn takes f = ``loss_at(residual) + _value(x)``
    and the check that f is finite: a non-finite f, say from an
    overflowing schedule, is a ValueError that names the first such point
    as ``what`` ``n``.  Returns the (residual, f) pairs in the points'
    order."""
    residuals = problem._residuals([x for x, _, _ in points])
    values = []
    for (x, what, n), residual in zip(points, residuals):
        f = float(problem.loss_at(residual) + problem.reg._value(x))
        if not math.isfinite(f):
            raise ValueError("objective is not finite at %s %d (f = %r)" % (what, n, f))
        values.append((residual, f))
    return values


def _evaluate(state, problem, points, reference=None):
    """The objective bookkeeping of ``points``, ``(x, what, n, row)`` in
    iterate order, evaluated as one ``_objective`` block.  An iterate's f
    updates ``best_f`` / ``best_x`` (a copy of x) when it is below
    ``best_f``, so of tied iterates the first is kept, and fills its
    row's ``f_x``; the iterate of ``state.n`` also sets the state's
    ``residual`` and ``f_x``.  An averaged iterate's f fills its row's
    ``f_avg`` and both gaps, with ``best_f`` over the iterates up to the
    row's; the gaps are nan without a reference."""
    values = _objective(problem, [(x, what, n) for x, what, n, _ in points])
    for (x, what, n, row), (residual, f) in zip(points, values):
        if what == "averaged iterate":
            row.f_avg = f
            if reference is None:
                row.gap_best = row.gap_avg = float("nan")
            else:
                row.gap_best = state.best_f - reference.f_star
                row.gap_avg = f - reference.f_star
            continue
        if f < state.best_f:
            state.best_f = f
            state.best_x = x.copy()
        if row is not None:
            row.f_x = f
        if n == state.n:
            state.residual = residual
            state.f_x = f


def averaged_iterate(state):
    """The s-weighted average of iterates 1..n."""
    return state.weighted_sum / state.s_sum


def theoretical_bound(state, d_star, M, sigma):
    """Guaranteed objective gap at the current n for constants (D*, M, sigma)."""
    if d_star < 0:
        raise ValueError("Bregman distance to the optimum cannot be negative")
    return (state.last_alpha * d_star + M * M / (2.0 * sigma) * state.bound_acc) / state.s_sum


def argmin_form_step(state, problem, dual_sum):
    """The next iterate x_{n+1} from the accumulated form instead of the
    forward recursion, for every supported mirror-regularizer pair, with
    an exact subgradient g_n.  ``dual_sum`` is sum_{i<n} s_i g_i + t_i h_i
    over the steps already taken (zeros after ``init``); returns x_{n+1}
    and the sum with s_n g_n + t_n h_n added, for the caller to pass at
    the next step.  Neither argument is modified."""
    mirror = problem.mirror
    _, alpha_next, t_n, _, gamma_next = _schedule_values(
        state.schedule, state.n, state.gamma, state.last_s, state.last_alpha, unsafe=False)
    g = problem.subgradient(state.x)
    dual_sum = dual_sum + state.last_s * g + t_n * state.h
    base = mirror.grad_inverse(state.x_tilde_1 - dual_sum / alpha_next)
    return mirror_prox(problem.reg, mirror, base, gamma_next / alpha_next), dual_sum


def trace_row(state, problem, reference=None, d_star=None, t0=None, unsafe=False):
    """Snapshot the state into a TraceRow; gaps and bound are nan without a
    reference, and the bound is also nan for unsafe runs.  The row is
    built with the state's ``f_x`` and no other f field; for an evaluated
    state ``_evaluate`` then fills ``f_avg`` and the gaps from the
    averaged iterate.  A state that is not evaluated yet (``f_x`` None,
    inside a stochastic ``run``) gives a row whose ``f_x``, ``f_avg`` and
    gaps are None, which ``run`` fills when it evaluates the row's
    points."""
    if reference is not None and d_star is not None and not unsafe:
        bound = theoretical_bound(state, d_star, problem.M, problem.mirror.sigma)
    else:
        bound = float("nan")
    nnz = int(np.count_nonzero(np.abs(state.x) > NNZ_THRESHOLD))
    elapsed = time.perf_counter() - t0 if t0 is not None else 0.0
    # gamma_{n+1}/alpha_{n+1} as the next step will use it
    _, alpha_next, _, _, gamma_next = _schedule_values(
        state.schedule, state.n, state.gamma, state.last_s, state.last_alpha, unsafe=True)
    row = TraceRow(state.n, state.f_x, None, None, None, bound,
                   gamma_next / alpha_next, nnz, elapsed)
    if state.f_x is not None:
        _evaluate(state, problem,
                  [(averaged_iterate(state), "averaged iterate", state.n, row)], reference)
    return row


def run(problem, schedule, n_iters, mode="exact", seed=None, stride=100,
        x1=None, reference=None, unsafe=False, callback=None, timing="deterministic"):
    """Run n_iters steps, logging a TraceRow whenever the iterate index n is a
    multiple of stride.  Exact mode ignores the seed entirely.

    A stochastic run evaluates f exactly at x_1, at each logged iterate
    and its averaged iterate, and at the last iterate, and nowhere in
    between.  With sampled subgradients the theorem bounds the expected
    s-weighted mean of f(x_i) - f*, which no single f enters: ``gap_avg``
    is f of the s-weighted average, at most that mean by convexity, and
    the best f of the evaluated iterates, which a stochastic trace's
    ``gap_best`` reports, is at least the best f of all of them.  The
    logged points are kept and passed to ``_evaluate`` in blocks (module
    docstring): a non-finite x stops the run at the step that makes it,
    another non-finite f when its block is evaluated, at the latest after
    the last step; the error names the point, and no row is returned.
    The callback sees every state, after its row is logged; a stochastic
    state has ``f_x`` and ``residual`` only when its block closed at its
    step, as at the last state, and None otherwise.  A callback changes no
    output."""
    if n_iters < 1:
        raise ValueError("need at least one iteration")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    if timing not in ("deterministic", "wall"):
        raise ValueError("timing must be 'deterministic' or 'wall', got %r" % (timing,))
    if mode not in ("exact", "stochastic"):
        raise ValueError("mode must be 'exact' or 'stochastic', got %r" % (mode,))
    rng = np.random.default_rng(seed) if mode == "stochastic" else None
    state = init(problem, schedule, x1=x1)
    d_star = None
    if reference is not None:
        d_star = problem.mirror.bregman(reference.x_star, state.x1)
    t0 = time.perf_counter() if timing == "wall" else None
    rows = []
    draws = problem._draw_width() if mode == "stochastic" else 0
    width = problem._evaluation_width()
    drawn = None
    kept = []  # (x, what, n, row): the points a stochastic run evaluates later
    for i in range(n_iters):
        if draws:
            j = i % draws
            if j == 0:
                _, A, b = problem._draw(rng, min(draws, n_iters - i))
            drawn = (A[j], b[j])
        state = step(state, problem, mode=mode, rng=rng, unsafe=unsafe, _rows=drawn)
        logged = state.n % stride == 0
        last = i == n_iters - 1
        row = None
        if logged:
            row = trace_row(state, problem, reference, d_star, t0, unsafe)
            rows.append(row)
        if drawn is not None and (logged or last):
            points = [(state.x.copy(), "iterate", state.n, row)]
            if logged:
                points.append((averaged_iterate(state), "averaged iterate", state.n, row))
            for point in points:
                kept.append(point)
                # a non-finite x has no finite f: name it, or an earlier
                # kept point, now rather than step on from it
                if (len(kept) == width or not np.isfinite(point[0]).all()
                        or (last and point is points[-1])):
                    _evaluate(state, problem, kept, reference)
                    kept = []
        if callback is not None:
            callback(state)
    # An overflowed dual point stays non-finite (a step scales it by
    # ratio (1 - mu) >= 0, 0 * inf is nan, and subtracting c g keeps an inf
    # or nan entry), though a backward step such as the box clip can still
    # return a finite x and f: one check here catches an overflow at any step.
    if not np.isfinite(state.x_tilde_half).all():
        raise ValueError("the dual point has non-finite entries at iterate %d"
                         % state.n)
    return RunResult(state, rows)

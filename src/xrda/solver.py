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
coordinates are xt_1 - (sum_{i<=n} s_i g_i + t_i h_i) / a_{n+1}
(``argmin_form_step``).  Under non-increasing s, non-decreasing alpha,
and 0 <= t_n <= gamma_n, the best and the s-weighted-average iterate
satisfy

    f - f*  <=  (alpha_n D(x*, x_1) + (M^2 / 2 sigma)
                 sum_{i<=n} s_i^2 / alpha_i) / sum_{i<=n} s_i,

which ``theoretical_bound`` evaluates from the state's accumulators.
Only ``_schedule_values`` calls the schedule, and unless ``unsafe`` it
checks each value once, when it is first evaluated: step n evaluates
alpha_{n+1}, t_n and s_{n+1}, so a violation at index n+1 stops the run
at step n, before any bound uses it.  (A trace row's backward-step
column re-evaluates alpha_{n+1} and t_n, unchecked, as a preview.)

The guarantee is on the best iterate, so ``_evaluate``, the only code
that computes f, evaluates every iterate, x_1 included.  An exact step
needs the residual A x_n for its subgradient, so ``step`` evaluates each
new iterate at once.  A stochastic trajectory never reads f or the
residual, so ``run`` evaluates its iterates in blocks: it keeps
up to ``CompositeProblem.block_width()`` of them (65 at m = 8000) and
takes their residuals from a BLAS-3 product instead of one
matrix-vector product per step.  ``loss_at`` and the regularizer's
``_value`` take the (K, m) and (K, d) stacks, so f of the whole block
is array code, each value bitwise what the kernels give on its own
row, and ``best_f`` comes from the first minimum of the block's f.
A block of K >= 4 iterates is evaluated on two threads: its row halves
``X[:K//2]`` and ``X[K//2:]`` each take one product that reads A once
and one ``loss_at`` pass, the first on ``run``'s thread and the second
on one worker thread that ``run`` opens and joins.  Both operations
release the GIL, so the halves run on two cores; the worker is kept off
the CPU that ``run``'s thread is on when the run starts, where the
platform tells (``_other_cpus``), because the scheduler otherwise woke
it on that busy CPU.  Each half keeps at
least 2 rows, because a 1-row product goes to gemv, which rounds
differently from the block's gemm, and the split is along the iterates,
never along A's rows, whose split changes bits too; so every f is
bitwise that of the unsplit block.  A block ends at every trace row,
at the end of the run, and after every step when a callback is given,
so ``trace_row`` and the callback always see a fully evaluated state.

A stochastic ``run`` also draws its minibatches a block at a time: one
``CompositeProblem._draw`` call gives the indices and rows of up to
``block_width()`` successive steps (fewer when the rows would pass 4 MB,
and never past ``n_iters``), and each step gets its rows, and leaves its
evaluation to ``run``, through the private ``_rows`` argument.
``_draw`` is the only code that draws from the run's generator, and a
block draw consumes it exactly as that many single draws, so ``step``
called on its own, which draws its rows itself, takes the same
trajectory.

Inputs are validated at the boundary: ``start_point`` checks the start
point (``init`` calls it, and the harness before it solves the
reference), ``build_problem`` the data and the mirror-regularizer pair,
and the public mirror, regularizer and sampling functions their
arguments.  ``step`` calls the private kernels behind them (``_grad``,
``_grad_inverse``, ``_prox``, ``_draw``, ``_batch_subgradient``,
``_value``) on vectors it made itself, so no check runs per step.  An overflowing schedule still fails loudly: a
non-finite f of an evaluated iterate raises ValueError, in stochastic
mode when its block closes, and so does a non-finite dual point at the
end of ``run``.
"""

import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
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

    Single-owner: mutate only through ``step`` / ``run``.  Accumulators
    hold sums over iterates 1..n: ``s_sum`` = sum s_i, ``weighted_sum``
    = sum s_i x_i, ``bound_acc`` = sum s_i^2 / alpha_i, ``dual_accum`` =
    sum s_i g_i + t_i h_i (this last one over steps taken, i.e. 1..n-1).
    ``last_s`` and ``last_alpha`` are s_n and alpha_n.  ``residual``
    (``CompositeProblem.residual``) and ``f_x`` are those of ``x``; an
    exact step takes its subgradient from that residual.
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
    dual_accum: np.ndarray
    h: np.ndarray
    residual: object
    f_x: float
    best_f: float
    best_x: np.ndarray
    last_s: float
    last_alpha: float


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
    d = problem.d
    s1, alpha1 = _schedule_values(schedule, 0, 0.0, math.inf, 0.0, unsafe=False)[:2]
    xt1 = problem.mirror.grad(x1)
    state = SolverState(
        schedule=schedule, n=1, x=x1.copy(),
        x_tilde=xt1.copy(), x_tilde_half=xt1.copy(), x_tilde_1=xt1.copy(),
        x1=x1.copy(), gamma=0.0,
        s_sum=s1, weighted_sum=s1 * x1, bound_acc=s1 * s1 / alpha1,
        dual_accum=np.zeros(d), h=np.zeros(d),
        residual=None, f_x=None, best_f=math.inf, best_x=None,
        last_s=s1, last_alpha=alpha1)
    _evaluate(state, problem, [x1])
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

    A stochastic step draws its minibatch from ``rng`` and the new iterate
    is evaluated at once, unless ``run`` passes the rows and targets it
    drew for this step as ``_rows``: then ``run`` evaluates the iterate,
    and ``residual``, ``f_x`` and ``best_f`` wait for it.  An exact step
    always evaluates at once, as the next one reads its residual.
    """
    s_n, alpha_n = state.last_s, state.last_alpha
    s_next, alpha_next, t_n, mu, gamma_next = _schedule_values(
        state.schedule, state.n, state.gamma, s_n, alpha_n, unsafe)
    if mode == "exact":
        g = problem.subgradient_at(state.residual)
    elif mode == "stochastic":
        if rng is None:
            raise ValueError("stochastic mode needs a numpy Generator")
        if _rows is None:
            _, A, b = problem._draw(rng, 1)
            g = problem._batch_subgradient(state.x, A[0], b[0])
        else:
            g = problem._batch_subgradient(state.x, *_rows)
    else:
        raise ValueError("mode must be 'exact' or 'stochastic', got %r" % (mode,))

    mirror = problem.mirror
    xt_prime = (1.0 - mu) * state.x_tilde_half + mu * state.x_tilde
    ratio = alpha_n / alpha_next
    xt_half = ratio * xt_prime + (1.0 - ratio) * state.x_tilde_1 - (s_n / alpha_next) * g
    x_next = _prox(problem.reg, mirror, mirror._grad_inverse(xt_half),
                   gamma_next / alpha_next)
    xt_next = mirror._grad(x_next)

    state.dual_accum += s_n * g + t_n * state.h
    state.h = (alpha_next / gamma_next) * (xt_half - xt_next)
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
        _evaluate(state, problem, [x_next])
    return state


def _evaluate(state, problem, xs, pool=None):
    """Objective bookkeeping for the iterates xs, oldest first, the last
    being ``state.x``: f of each, ``best_f`` / ``best_x`` from the first
    minimum of the block's f (what a strict ``<`` in iterate order
    keeps), then the residual and f of the last.  Several iterates are
    evaluated as arrays: one residual block, which reads A once, one
    ``loss_at`` and one ``_value`` pass over it.  Given a thread pool, a
    block of at least 4 iterates is split into two row halves, each with
    its own residual block and ``loss_at`` pass, the second on the pool's
    worker; every f is bitwise the unsplit block's.  A non-finite f, say
    from an overflowing schedule, is a ValueError naming the first such
    iterate."""
    if len(xs) == 1:
        residual = problem.residual(xs[0])
        f = np.array([problem.loss_at(residual) + problem.reg._value(xs[0])])
    else:
        X = np.array(xs)
        # the last residual's copy is allocated before the block, so that
        # freeing the block leaves no hole under it on the heap; copied
        # after, it raised peak RSS by 1.5 MB in about half of the
        # logistic-stoch-b1 runs
        residual = np.empty_like(state.residual)

        def losses(rows, last):
            rs = problem.residual(rows)
            if last:
                residual[...] = rs[-1]  # before loss_at overwrites the rows
            return problem.loss_at(rs)

        # both halves keep 2 rows or more: a 1-row product goes to gemv
        half = len(xs) // 2
        if pool is None or half < 2:
            f = losses(X, True)
        else:
            second = pool.submit(losses, X[half:], True)
            try:
                first = losses(X[:half], False)
            finally:  # the worker is done before anything leaves here
                rest = second.result()
            f = np.concatenate([first, rest])
        f = f + problem.reg._value(X)
    finite = np.isfinite(f)
    if not finite.all():
        i = int(finite.argmin())
        raise ValueError("objective is not finite at iterate %d (f = %r)"
                         % (state.n - len(xs) + 1 + i, float(f[i])))
    i = int(f.argmin())
    if f[i] < state.best_f:
        state.best_f = float(f[i])
        state.best_x = xs[i].copy()
    state.residual = residual
    state.f_x = float(f[-1])


def extract_h(state):
    """The recovered subgradient of G at the current iterate (zero at init)."""
    return state.h.copy()


def averaged_iterate(state):
    """The s-weighted average of iterates 1..n."""
    return state.weighted_sum / state.s_sum


def theoretical_bound(state, d_star, M, sigma):
    """Guaranteed objective gap at the current n for constants (D*, M, sigma)."""
    if d_star < 0:
        raise ValueError("Bregman distance to the optimum cannot be negative")
    return (state.last_alpha * d_star + M * M / (2.0 * sigma) * state.bound_acc) / state.s_sum


_ARGMIN_FORM_REGS = ("l1", "zero", "box")


def argmin_form_step(state, problem):
    """Next iterate computed from the accumulated dual sum instead of the
    forward recursion; Euclidean mirror with a separable-prox regularizer
    only.  Exact-gradient semantics."""
    mirror = problem.mirror
    reg = problem.reg
    if mirror.kind != "euclidean" or reg.kind not in _ARGMIN_FORM_REGS:
        raise NotImplementedError(
            "accumulated form supports the euclidean mirror with one of %s"
            % (_ARGMIN_FORM_REGS,))
    _, alpha_next, t_n, _, gamma_next = _schedule_values(
        state.schedule, state.n, state.gamma, state.last_s, state.last_alpha, unsafe=False)
    g = problem.subgradient(state.x)
    dual = state.dual_accum + state.last_s * g + t_n * state.h
    base = mirror.grad_inverse(state.x_tilde_1 - dual / alpha_next)
    return mirror_prox(reg, mirror, base, gamma_next / alpha_next)


def trace_row(state, problem, reference=None, d_star=None, t0=None, unsafe=False):
    """Snapshot the state into a TraceRow; gaps and bound are nan without a
    reference, and the bound is also nan for unsafe runs."""
    f_avg = problem.objective(averaged_iterate(state))
    nan = float("nan")
    if reference is not None:
        gap_best = state.best_f - reference.f_star
        gap_avg = f_avg - reference.f_star
    else:
        gap_best = gap_avg = nan
    if reference is not None and d_star is not None and not unsafe:
        bound = theoretical_bound(state, d_star, problem.M, problem.mirror.sigma)
    else:
        bound = nan
    nnz = int(np.count_nonzero(np.abs(state.x) > NNZ_THRESHOLD))
    elapsed = time.perf_counter() - t0 if t0 is not None else 0.0
    # gamma_{n+1}/alpha_{n+1} as the next step will use it
    _, alpha_next, _, _, gamma_next = _schedule_values(
        state.schedule, state.n, state.gamma, state.last_s, state.last_alpha, unsafe=True)
    return TraceRow(state.n, state.f_x, f_avg, gap_best, gap_avg, bound,
                    gamma_next / alpha_next, nnz, elapsed)


def _other_cpus():
    """The CPUs the calling thread may run on, less the one it runs on now;
    empty where the platform does not tell.  ``run``'s worker keeps off the
    calling thread's CPU: woken from ``run``'s thread, it was otherwise
    placed on that busy CPU and waited for it in 40 of 40 blocks on a
    2-vCPU Linux VM, so the halves' products overlapped for 17-41% of
    their time instead of 74-95%."""
    try:
        with open("/proc/thread-self/stat") as fh:
            cpu = int(fh.read().rsplit(")", 1)[1].split()[36])  # field 39
        return os.sched_getaffinity(0) - {cpu}
    except (OSError, AttributeError, ValueError, IndexError):
        return set()


def _keep_to(cpus):
    """Keep the calling thread to cpus, if any, where the platform lets it."""
    if cpus:
        try:
            os.sched_setaffinity(0, cpus)
        except OSError:
            pass


def run(problem, schedule, n_iters, mode="exact", seed=None, stride=100,
        x1=None, reference=None, unsafe=False, callback=None, timing="deterministic"):
    """Run n_iters steps, logging a TraceRow whenever the iterate index n is a
    multiple of stride.  Exact mode ignores the seed entirely.

    A stochastic run evaluates its iterates in blocks (see the module
    docstring); each block ends at a trace row, at the end of the run, or
    when it holds ``problem.block_width()`` iterates, and its second half
    is evaluated on a worker thread that is joined before ``run`` returns
    or raises.  With a callback every iterate is evaluated alone, before
    the callback sees it.  Either way the returned state and every
    TraceRow are fully evaluated, but an iterate evaluated alone may round
    f differently in the last bit: a callback can change the last bits of
    ``f_x``, ``best_f`` and ``gap_best`` (and on a near tie ``best_x``),
    and nothing else."""
    if n_iters < 1:
        raise ValueError("need at least one iteration")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    if timing not in ("deterministic", "wall"):
        raise ValueError("timing must be 'deterministic' or 'wall', got %r" % (timing,))
    rng = np.random.default_rng(seed) if mode == "stochastic" else None
    state = init(problem, schedule, x1=x1)
    d_star = None
    if reference is not None:
        d_star = problem.mirror.bregman(reference.x_star, state.x1)
    t0 = time.perf_counter() if timing == "wall" else None
    rows = []
    block = []
    width = problem.block_width()
    draws = problem._draw_width() if mode == "stochastic" else 0
    drawn = None
    # the worker starts at the first block of 4 or more iterates
    with ThreadPoolExecutor(max_workers=1, initializer=_keep_to,
                            initargs=(_other_cpus(),)) as pool:
        for i in range(n_iters):
            if draws:
                j = i % draws
                if j == 0:
                    _, A, b = problem._draw(rng, min(draws, n_iters - i))
                drawn = (A[j], b[j])
            state = step(state, problem, mode=mode, rng=rng, unsafe=unsafe, _rows=drawn)
            if drawn is not None:  # the step left its iterate to this loop
                block.append(state.x)
                if (callback is not None or len(block) == width
                        or state.n % stride == 0 or i == n_iters - 1):
                    _evaluate(state, problem, block, pool)
                    block.clear()
            if callback is not None:
                callback(state)
            if state.n % stride == 0:
                rows.append(trace_row(state, problem, reference, d_star, t0, unsafe))
    # An overflowed dual point stays non-finite (each step scales it by
    # ratio (1 - mu) >= 0, and 0 * inf is nan), though a backward step such
    # as the box clip can still return a finite x and f: one check here
    # catches an overflow at any step.
    if not np.isfinite(state.x_tilde_half).all():
        raise ValueError("the dual point has non-finite entries at iterate %d"
                         % state.n)
    return RunResult(state, rows)

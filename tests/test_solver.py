import collections
import math
import threading
from dataclasses import astuple
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import kept_points, replay_evaluation
from xrda.geometry import (EuclideanMirror, MirrorDomainError,
                           NegativeEntropyMirror)
from xrda import problems, solver
from xrda.config import parse_config
from xrda.harness import run_experiment, write_trace_csv
from xrda.problems import build_problem, synthetic_sparse_data
from xrda.reference import prox_subgradient_iterates, reference_optimum
from xrda.regularizers import (BoxIndicator, L1Penalty, L2BallIndicator,
                               SimplexIndicator, ZeroRegularizer, in_subdifferential,
                               supported_pairs)
from xrda.schedules import (PRESET_KINDS, Schedule, averaged_leap_frog,
                            constant_backward, constant_steps, forward_backward,
                            leap_frog, power_steps, rda, schedule_preset)
from xrda.solver import (ScheduleError, _evaluate, argmin_form_step,
                         averaged_iterate, init, run, step, theoretical_bound,
                         trace_row)

EU = EuclideanMirror()
EN = NegativeEntropyMirror()


def identity_lad(lam=0.5):
    return build_problem("lad", L1Penalty(lam), EU, A=np.eye(2),
                         b=np.array([1.0, 1.0]))


def random_lad(lam=0.1, seed=3, m=12, d=5, reg=None):
    A, b, _ = synthetic_sparse_data("lad", d=d, m=m, k=2, noise=0.1, seed=seed)
    return build_problem("lad", reg or L1Penalty(lam), EU, A=A, b=b)


def test_init_state():
    p = identity_lad()
    sched = rda(2.0)
    st = init(p, sched)
    assert st.n == 1
    assert np.array_equal(st.x, np.zeros(2))
    assert np.array_equal(st.x_tilde, np.zeros(2))
    assert np.array_equal(st.x_tilde_half, np.zeros(2))
    assert st.gamma == 0.0
    assert st.s_sum == 1.0
    assert np.array_equal(st.weighted_sum, np.zeros(2))
    assert st.bound_acc == 1.0 / 2.0  # s_1^2 / alpha_1
    assert np.array_equal(st.h, np.zeros(2))
    assert st.best_f == 1.0
    assert st.last_s == 1.0


def test_init_does_not_alias_start():
    p = identity_lad()
    x1 = np.zeros(2)
    st = init(p, leap_frog(constant_steps(1.0)), x1=x1)
    x1[0] = 99.0
    assert st.x[0] == 0.0 and st.x1[0] == 0.0


def test_init_entropy_needs_interior_start():
    p = build_problem("lad", ZeroRegularizer(), EN, A=np.eye(2),
                      b=np.array([1.0, 1.0]))
    with pytest.raises(MirrorDomainError, match="strictly positive x1"):
        init(p, leap_frog(constant_steps(1.0)))
    st = init(p, leap_frog(constant_steps(1.0)), x1=[0.5, 0.5])
    assert np.array_equal(st.x, [0.5, 0.5])

    # simplex regularizer defaults to the interior uniform point
    q = build_problem("lad", SimplexIndicator(), EN, A=np.eye(2),
                      b=np.array([1.0, 1.0]))
    st = init(q, leap_frog(constant_steps(1.0)))
    assert np.array_equal(st.x, [0.5, 0.5])


def test_init_start_must_minimize_regularizer():
    p = identity_lad()
    with pytest.raises(ValueError, match="does not minimize"):
        init(p, leap_frog(constant_steps(1.0)), x1=[1.0, 0.0])


def test_init_schedule_validation():
    p = identity_lad()
    with pytest.raises(ScheduleError, match="s_1"):
        init(p, Schedule("bad", lambda n: 0.0, lambda n: 1.0,
                         lambda n, g: 0.0))
    with pytest.raises(ScheduleError, match="alpha_1"):
        init(p, Schedule("bad", lambda n: 1.0, lambda n: -1.0,
                         lambda n, g: 0.0))


def test_gamma_forward_backward_identity():
    p = random_lad()
    steps = power_steps(1.0, 0.5)
    st = init(p, forward_backward(steps))
    for _ in range(40):
        st = step(st, p)
        assert st.gamma == steps(st.n - 1)  # bitwise


def test_gamma_leap_frog_running_sum():
    p = random_lad()
    steps = power_steps(0.5, 0.5)
    st = init(p, leap_frog(steps))
    acc = 0.0
    for k in range(1, 41):
        st = step(st, p)
        acc += steps(k)
        assert st.gamma == acc  # same accumulation order, bitwise


def test_gamma_constant_backward_pinned():
    p = random_lad()
    st = init(p, constant_backward(constant_steps(0.3)))
    for _ in range(40):
        st = step(st, p)
        assert st.gamma == 0.3  # mu = 1 exactly under constant steps
    st2 = init(p, constant_backward(power_steps(1.0, 0.5)))
    for _ in range(40):
        st2 = step(st2, p)
        assert st2.gamma == pytest.approx(1.0, rel=1e-12)


def test_gamma_averaged_leap_frog_exact_rationals():
    # mu = 1/2 with unit steps keeps gamma dyadic; mirror the recursion in
    # exact arithmetic and demand bitwise agreement while it is representable
    p = random_lad()
    st = init(p, averaged_leap_frog(0.5, constant_steps(1.0)))
    gamma = Fraction(0)
    for _ in range(50):
        st = step(st, p)
        mu = Fraction(1, 2) if gamma > 0 else Fraction(0)
        gamma = (1 - mu) * gamma + 1
        assert st.gamma == float(gamma)


def test_schedule_violations_stop_the_run():
    p = random_lad()

    growing = Schedule("bad", lambda n: float(n), lambda n: 1.0,
                       lambda n, g: 0.0)
    st = init(p, growing)
    with pytest.raises(ScheduleError, match="non-increasing"):
        step(step(st, p), p)

    shrinking_alpha = Schedule("bad", lambda n: 1.0, lambda n: 1.0 / n,
                               lambda n, g: 0.0)
    with pytest.raises(ScheduleError, match="non-decreasing"):
        step(init(p, shrinking_alpha), p)

    t_over = Schedule("bad", lambda n: 1.0, lambda n: 1.0,
                      lambda n, g: g + 1.0)
    with pytest.raises(ScheduleError, match="outside"):
        step(init(p, t_over), p)

    negative_t = Schedule("bad", lambda n: 1.0, lambda n: 1.0,
                          lambda n, g: -0.5)
    with pytest.raises(ScheduleError, match="outside"):
        step(init(p, negative_t), p)


def test_unsafe_skips_schedule_checks():
    p = random_lad()
    growing = Schedule("bad", lambda n: float(n), lambda n: 1.0,
                       lambda n, g: 0.0)
    st = init(p, growing)
    for _ in range(5):
        st = step(st, p, unsafe=True)
    assert st.n == 6
    row = trace_row(st, p, reference=reference_optimum(p, tol=float("inf")),
                    d_star=1.0, unsafe=True)
    assert math.isnan(row.bound)


def test_forward_backward_reduces_to_prox_subgradient():
    # alpha = 1 and t_n = s_{n-1} force mu = 1, so the recursion collapses to
    # the classical step; trajectories agree bitwise, not merely closely
    steps = power_steps(1.0, 0.5)
    cases = [
        random_lad(lam=0.2, seed=5),
        build_problem("lad", SimplexIndicator(), EN,
                      A=np.random.default_rng(6).standard_normal((8, 4)),
                      b=np.random.default_rng(7).standard_normal(8)),
    ]
    for p in cases:
        want = prox_subgradient_iterates(p, steps, 200)
        st = init(p, forward_backward(steps))
        for k in range(200):
            st = step(st, p)
            assert np.array_equal(st.x, want[k + 1]), (p.reg.kind, k)


def test_leap_frog_zero_reg_is_subgradient_descent():
    p = random_lad(reg=ZeroRegularizer(), seed=9)
    s = 0.05
    st = init(p, leap_frog(constant_steps(s)))
    x = np.zeros(p.d)
    for _ in range(100):
        st = step(st, p)
        x = x - s * p.subgradient(x)
    assert np.allclose(st.x, x, atol=1e-12)


@pytest.mark.parametrize("make_sched", [
    lambda: rda(1.0),
    lambda: leap_frog(power_steps(1.0, 0.5)),
    lambda: constant_backward(power_steps(1.0, 0.5)),
    lambda: averaged_leap_frog(0.5, power_steps(1.0, 0.5)),
])
def test_forward_matches_accumulated_form(make_sched):
    """Every supported pair; entropy+zero starts at x1 = 1, inside the
    mirror's domain."""
    regs = {"l1": L1Penalty(0.15), "box": BoxIndicator(-0.4, 0.4),
            "simplex": SimplexIndicator(), "l2ball": L2BallIndicator(0.8),
            "zero": ZeroRegularizer()}
    A, b, _ = synthetic_sparse_data("lad", d=5, m=12, k=2, noise=0.1, seed=13)
    for mirror, kind in supported_pairs():
        p = build_problem("lad", regs[kind], EN if mirror == "entropy" else EU, A=A, b=b)
        x1 = np.ones(p.d) if (mirror, kind) == ("entropy", "zero") else None
        st = init(p, make_sched(), x1=x1)
        dual_sum = np.zeros(p.d)
        for _ in range(100):
            predicted, dual_sum = argmin_form_step(st, p, dual_sum)
            st = step(st, p)
            err = float(np.max(np.abs(st.x - predicted)))
            assert err <= 1e-9, (mirror, kind, st.n, err)


def test_extracted_h_is_a_regularizer_subgradient():
    p = random_lad(lam=0.3, seed=17)
    st = init(p, leap_frog(power_steps(1.0, 0.5)))
    checked = 0
    for _ in range(150):
        st = step(st, p)
        if st.gamma > 0:
            h = st.h
            assert in_subdifferential(p.reg, h, st.x, 1e-8), st.n
            checked += 1
    assert checked == 150

    h = st.h
    h[:] = 0.0
    assert not np.array_equal(st.h, h) or np.all(st.h == 0.0)  # copy, not view


def test_bound_at_init():
    p = identity_lad()
    st = init(p, leap_frog(constant_steps(1.0)))
    # (alpha_1 d_star + (M^2 / 2 sigma) s_1^2/alpha_1) / s_1 with all ones
    assert theoretical_bound(st, d_star=0.5, M=1.0, sigma=1.0) == 1.0
    with pytest.raises(ValueError):
        theoretical_bound(st, d_star=-0.1, M=1.0, sigma=1.0)


def test_bound_matches_direct_summation():
    p = random_lad(seed=19)
    sched = rda(2.0)
    st = init(p, sched)
    for _ in range(999):
        st = step(st, p)
    n = st.n
    s_sum = sum(sched.s(i) for i in range(1, n + 1))
    acc = sum(sched.s(i) ** 2 / sched.alpha(i) for i in range(1, n + 1))
    d_star, M, sigma = 0.37, p.M, 1.0
    direct = (sched.alpha(n) * d_star + (M * M) / (2.0 * sigma) * acc) / s_sum
    assert theoretical_bound(st, d_star, M, sigma) == pytest.approx(direct, rel=1e-12)


def test_rda_backward_step_grows_like_sqrt():
    p = random_lad(seed=23)
    res = run(p, rda(1.0), n_iters=400, stride=100)
    previews = [row.backward_step for row in res.rows]
    assert previews == sorted(previews)
    # gamma_{n+1}/alpha_{n+1} = n / sqrt(n+1) at unit steps
    for row, n in zip(res.rows, (100, 200, 300, 400)):
        assert row.backward_step == pytest.approx(n / math.sqrt(n + 1), rel=1e-12)


def test_trace_rows_and_reference_columns():
    p = random_lad(seed=29)
    ref = reference_optimum(p, tol=1e-8)
    res = run(p, leap_frog(power_steps(1.0, 0.5)), n_iters=35, stride=10,
              reference=ref)
    assert [row.n for row in res.rows] == [10, 20, 30]
    gaps = [row.gap_best for row in res.rows]
    assert all(np.isfinite(gaps))
    assert gaps == sorted(gaps, reverse=True)  # best value never worsens
    assert gaps[-1] >= res.state.best_f - ref.f_star - 1e-15
    for row in res.rows:
        assert np.isfinite(row.bound)
        assert row.elapsed_s == 0.0
    final = trace_row(res.state, p, ref,
                      d_star=p.mirror.bregman(ref.x_star, res.state.x1))
    assert final.gap_best == res.state.best_f - ref.f_star
    assert final.f_x == p.objective(res.state.x)
    assert final.f_avg == p.objective(averaged_iterate(res.state))


def test_trace_without_reference_has_nan_gaps():
    p = random_lad(seed=31)
    res = run(p, rda(1.0), n_iters=10, stride=5)
    for row in res.rows:
        assert math.isnan(row.gap_best) and math.isnan(row.gap_avg)
        assert math.isnan(row.bound)
        assert np.isfinite(row.f_x)


def test_nnz_counts_above_threshold():
    p = identity_lad(lam=0.1)
    st = init(p, leap_frog(constant_steps(1.0)))
    st.x = np.array([0.5, 5e-13])
    row = trace_row(st, p)
    assert row.nnz == 1


def test_wall_timing_is_monotone():
    p = random_lad(seed=37)
    res = run(p, rda(1.0), n_iters=30, stride=10, timing="wall")
    times = [row.elapsed_s for row in res.rows]
    assert all(t > 0 for t in times)
    assert times == sorted(times)


def test_run_exact_is_deterministic():
    p = random_lad(seed=41)
    r1 = run(p, leap_frog(power_steps(1.0, 0.5)), n_iters=300)
    r2 = run(p, leap_frog(power_steps(1.0, 0.5)), n_iters=300)
    assert np.array_equal(r1.state.x, r2.state.x)
    assert r1.state.best_f == r2.state.best_f


def test_run_stochastic_seeding():
    A, b, _ = synthetic_sparse_data("logistic", d=6, m=20, k=2, noise=0.3,
                                    seed=43)
    p = build_problem("logistic", L1Penalty(0.05), EU, A=A, b=b, batch_size=4)
    r1 = run(p, rda(1.0), n_iters=200, mode="stochastic", seed=5)
    r2 = run(p, rda(1.0), n_iters=200, mode="stochastic", seed=5)
    r3 = run(p, rda(1.0), n_iters=200, mode="stochastic", seed=6)
    assert np.array_equal(r1.state.x, r2.state.x)
    assert not np.array_equal(r1.state.x, r3.state.x)


def test_step_mode_validation():
    p = random_lad(seed=47)
    st = init(p, rda(1.0))
    with pytest.raises(ValueError, match="Generator"):
        step(st, p, mode="stochastic")
    with pytest.raises(ValueError, match="mode"):
        step(st, p, mode="batch")


def test_run_argument_validation():
    p = random_lad(seed=53)
    sched = rda(1.0)
    with pytest.raises(ValueError):
        run(p, sched, n_iters=0)
    with pytest.raises(ValueError):
        run(p, sched, n_iters=10, stride=0)
    with pytest.raises(ValueError):
        run(p, sched, n_iters=10, timing="cpu")


def test_run_rejects_a_mode_before_it_evaluates_anything():
    """An unknown mode is refused with stride and timing, before ``init``
    evaluates the schedule or f(x_1)."""
    def untouched(*args):
        pytest.fail("the schedule was evaluated")

    p = random_lad(seed=53)
    with pytest.raises(ValueError, match="mode must be 'exact' or 'stochastic'"):
        run(p, Schedule("untouched", untouched, untouched, untouched), 10, mode="Exact")


def test_callback_sees_every_step():
    p = random_lad(seed=59)
    seen = []
    run(p, rda(1.0), n_iters=25, callback=lambda st: seen.append(st.n))
    assert seen == list(range(2, 27))


def test_best_and_average_match_recomputation():
    p = random_lad(seed=61)
    sched = leap_frog(power_steps(1.0, 0.5))
    xs = []
    res = run(p, sched, n_iters=50, callback=lambda st: xs.append(st.x.copy()))
    all_x = [res.state.x1] + xs
    fs = [p.objective(x) for x in all_x]
    assert res.state.best_f == min(fs)
    s = [sched.s(i) for i in range(1, len(all_x) + 1)]
    avg = sum(si * xi for si, xi in zip(s, all_x)) / sum(s)
    assert np.allclose(averaged_iterate(res.state), avg, rtol=1e-12)


def test_entropy_run_stays_in_simplex():
    A, b, _ = synthetic_sparse_data("lad", d=5, m=10, k=2, noise=0.2, seed=67)
    p = build_problem("lad", SimplexIndicator(), EN, A=A, b=b)
    seen = []
    res = run(p, leap_frog(power_steps(0.5, 0.5)), n_iters=200,
              callback=lambda st: seen.append(st.x.copy()))
    for x in seen:
        assert np.all(x > 0.0)
        assert np.sum(x) == pytest.approx(1.0, abs=1e-9)
    assert np.isfinite(res.state.best_f)


def count_products(p):
    """Swap p.A for a view that counts the matrix products taken with it,
    its transpose or any of its row selections; returns the tally."""
    tally = []

    class Counting(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            if ufunc is np.matmul:
                tally.append(method)
            return getattr(ufunc, method)(*(np.asarray(v) for v in inputs), **kwargs)

    p.A = p.A.view(Counting)
    return tally


@pytest.mark.parametrize("loss", ["lad", "logistic"])
def test_exact_step_makes_two_passes_over_the_data(loss):
    A, b, _ = synthetic_sparse_data(loss, d=5, m=12, k=2, noise=0.1, seed=3)
    p = build_problem(loss, L1Penalty(0.1), EU, A=A, b=b)
    tally = count_products(p)
    n = 25
    run(p, leap_frog(power_steps(1.0, 0.5)), n, stride=2 * n)
    assert len(tally) == 2 * n + 1


def test_stochastic_step_never_takes_a_full_gradient():
    A, b, _ = synthetic_sparse_data("logistic", d=5, m=12, k=2, noise=0.1, seed=3)
    p = build_problem("logistic", L1Penalty(0.1), EU, A=A, b=b, batch_size=1)
    tally = count_products(p)
    n = 25
    run(p, leap_frog(power_steps(1.0, 0.5)), n, mode="stochastic", seed=4,
        stride=2 * n)
    # one per sampled step (a batch of one takes its a' w elementwise), one
    # for the last iterate, one in init
    assert len(tally) == n + 1 + 1


def test_stochastic_blocks_end_at_every_trace_row(monkeypatch):
    """Each trace row's iterate and averaged iterate and the last iterate
    are evaluated, with one product over A per block of kept points,
    whatever the block width, and every row gets its f."""
    A, b, _ = synthetic_sparse_data("logistic", d=5, m=12, k=2, noise=0.1, seed=3)
    p = build_problem("logistic", L1Penalty(0.1), EU, A=A, b=b, batch_size=1)
    tally = count_products(p)
    n, stride = 25, 5
    for width in (p._evaluation_width(), 4, 1):
        monkeypatch.setattr(problems, "_EVALUATION_BLOCK", 8 * p.m * width)
        assert p._evaluation_width() == width
        tally.clear()
        res = run(p, leap_frog(power_steps(1.0, 0.5)), n, mode="stochastic", seed=4,
                  stride=stride)
        assert [r.n for r in res.rows] == [5, 10, 15, 20, 25]
        assert all(math.isfinite(r.f_x) and math.isfinite(r.f_avg) for r in res.rows)
        # one per sampled step; one per block of the 11 kept points (two per
        # trace row, and the last iterate, n = 26); one in init
        assert len(tally) == n + -(-11 // width) + 1


def stochastic_setup(loss, lam):
    A, b, _ = synthetic_sparse_data(loss, d=40, m=300, k=3, noise=0.3, seed=21)
    p = build_problem(loss, L1Penalty(lam), EU, A=A, b=b, batch_size=2)
    return p, leap_frog(power_steps(2.0, 0.5))


def replay(p, sched, n, seed):
    """The iterates 1..n+1 of a stochastic run, one step() at a time."""
    st = init(p, sched)
    rng = np.random.default_rng(seed)
    xs = [st.x.copy()]
    for _ in range(n):
        st = step(st, p, mode="stochastic", rng=rng)
        xs.append(st.x.copy())
    return st, xs


def replayed_evaluation(p, sched, n, seed, stride, reference=None):
    """Standalone steps, with the points that a stochastic run of this
    stride keeps evaluated in its blocks (``replay_evaluation``): the
    iterates 1..n+1, the rows' f columns, and the ``best_f``, ``best_x``,
    ``residual`` and ``f_x`` that the run ends with."""
    st = init(p, sched)
    ended = SimpleNamespace(best_f=st.best_f, best_x=st.best_x, residual=None, f_x=None)
    rng = np.random.default_rng(seed)
    xs, kept, rows = [st.x.copy()], [], []
    for i in range(n):
        st = step(st, p, mode="stochastic", rng=rng)
        xs.append(st.x.copy())
        logged = st.n % stride == 0
        if logged:
            rows.append(SimpleNamespace(n=st.n))
        if logged or i == n - 1:
            kept += kept_points(st, logged)
    replay_evaluation(p, ended, kept, rows, reference)
    return xs, rows, ended


def f_columns(rows):
    """The bits of each row's f_x, f_avg, gap_best and gap_avg."""
    return [np.array([r.f_x, r.f_avg, r.gap_best, r.gap_avg]).tobytes() for r in rows]


def test_standalone_stochastic_steps_evaluate_every_iterate():
    """``step`` called on its own evaluates its iterate, so ``best_f`` is
    the best f over every iterate, bitwise."""
    p, sched = stochastic_setup("logistic", 0.01)
    st, xs = replay(p, sched, 60, seed=4)
    fs = [p.objective(x) for x in xs]
    assert st.best_f == min(fs)
    assert np.array_equal(st.best_x, xs[int(np.argmin(fs))])
    assert st.f_x == fs[-1]


@pytest.mark.parametrize("budget", [None, 8 * 300 * 3])
@pytest.mark.parametrize("loss, lam", [("logistic", 0.01), ("lad", 0.1),
                                       ("logistic", 0.3)])
def test_stochastic_run_evaluates_x1_each_row_and_the_last_iterate(loss, lam, budget,
                                                                  monkeypatch):
    """A stochastic run takes the trajectory of standalone steps, bitwise,
    whatever the draw width, and evaluates f at x_1, at each trace row and
    at the last iterate: ``f_x``, ``best_f``, ``best_x`` and each row's f
    columns are those of its evaluated points in the run's blocks,
    bitwise, and agree with one-point evaluations to rounding."""
    if budget is not None:  # eleven draws per block
        monkeypatch.setattr(problems, "_DRAW_BLOCK", budget)
    p, sched = stochastic_setup(loss, lam)
    reference = SimpleNamespace(f_star=-1.0, x_star=np.full(p.d, 0.1))
    n, seed = 97, 8
    res = run(p, sched, n, mode="stochastic", seed=seed, stride=10, reference=reference)
    st, xs = replay(p, sched, n, seed)
    assert np.array_equal(res.state.x, st.x)
    assert np.array_equal(res.state.weighted_sum, st.weighted_sum)
    _, rows, ended = replayed_evaluation(p, sched, n, seed, 10, reference)
    assert [r.n for r in res.rows] == [r.n for r in rows] == list(range(10, n + 2, 10))
    assert f_columns(res.rows) == f_columns(rows)
    assert res.state.best_f == ended.best_f
    assert np.array_equal(res.state.best_x, ended.best_x)
    assert res.state.f_x == ended.f_x
    assert np.array_equal(res.state.residual, ended.residual)
    evaluated = [1] + [r.n for r in rows] + [n + 1]
    fs = {i: p.objective(xs[i - 1]) for i in evaluated}
    np.testing.assert_allclose([r.f_x for r in res.rows], [fs[r.n] for r in rows],
                               rtol=1e-14, atol=0.0)
    assert res.state.f_x == pytest.approx(fs[n + 1], rel=1e-14, abs=0.0)
    best = fs[1]  # x_1, evaluated in init as a block of one
    for r in res.rows:
        best = min(best, r.f_x)
        assert r.gap_best == best - reference.f_star
    # standalone steps evaluate every iterate, one at a time, so their best
    # is no worse than the best of the same one-point evaluations here
    assert st.best_f <= min(fs.values())


@pytest.mark.parametrize("budget", [None, 8 * 300 * 3])
@pytest.mark.parametrize("loss, lam", [("logistic", 0.01), ("lad", 0.1),
                                       ("logistic", 0.3)])
def test_stochastic_run_evaluates_every_iterate_in_blocks(loss, lam, budget,
                                                          monkeypatch):
    """At stride 1 every iterate is logged, so a stochastic run that draws
    in blocks evaluates every iterate, as standalone steps do: each row's
    f columns, ``best_f``, ``best_x`` and ``f_x`` are bitwise those of the
    run's evaluation blocks, and each f is the standalone step's to
    rounding."""
    if budget is not None:  # eleven draws per block
        monkeypatch.setattr(problems, "_DRAW_BLOCK", budget)
    p, sched = stochastic_setup(loss, lam)
    n, seed = 97, 8
    res = run(p, sched, n, mode="stochastic", seed=seed, stride=1)
    st, xs = replay(p, sched, n, seed)
    assert np.array_equal(res.state.x, st.x)
    _, rows, ended = replayed_evaluation(p, sched, n, seed, 1)
    assert [r.n for r in res.rows] == [r.n for r in rows] == list(range(2, n + 2))
    assert f_columns(res.rows) == f_columns(rows)
    assert res.state.best_f == ended.best_f
    assert np.array_equal(res.state.best_x, ended.best_x)
    assert res.state.f_x == ended.f_x
    fs = [p.objective(x) for x in xs]
    assert st.best_f == min(fs) and st.f_x == fs[-1]
    np.testing.assert_allclose([r.f_x for r in res.rows], fs[1:], rtol=1e-14, atol=0.0)
    assert res.state.best_f == pytest.approx(st.best_f, rel=1e-14, abs=0.0)


def test_stochastic_run_with_callback_sees_evaluated_states(monkeypatch):
    """A state's f and residual are those of its iterate once the run has
    evaluated it, and None before.  In blocks of three kept points (rows
    at 7, 14, ..., 35, each an iterate and its averaged iterate, then the
    last iterate 41), the blocks that close at steps 14, 21, 35 and 41
    hold that step's iterate, so the callback sees f_x there, equal to
    its row's f_x (the last state's is the run's last block's), and None
    at every other state, logged or not."""
    p, sched = stochastic_setup("logistic", 0.01)
    monkeypatch.setattr(problems, "_EVALUATION_BLOCK", 8 * p.m * 3)
    assert p._evaluation_width() == 3
    n, stride = 40, 7
    seen = {}

    def check(st):
        assert st.n not in seen
        seen[st.n] = st.f_x, st.residual, st.x

    res = run(p, sched, n, mode="stochastic", seed=3, stride=stride, callback=check)
    _, rows, ended = replayed_evaluation(p, sched, n, 3, stride)
    assert list(seen) == list(range(2, n + 2))
    evaluated = {k for k, (f_x, _, _) in seen.items() if f_x is not None}
    assert evaluated == {14, 21, 35, n + 1}
    row_f = {r.n: r.f_x for r in res.rows}
    for k, (f_x, residual, x) in seen.items():
        if k in evaluated:
            assert f_x == row_f.get(k, ended.f_x)
            assert f_x == float(p.loss_at(residual) + p.reg._value(x))
        else:
            assert residual is None
    f_x, residual, _ = seen[n + 1]
    assert f_x == ended.f_x == res.state.f_x
    assert np.array_equal(residual, ended.residual)
    assert f_columns(res.rows) == f_columns(rows)
    assert res.state.best_f == ended.best_f


@pytest.mark.parametrize("loss", ["lad", "logistic"])
def test_a_callback_changes_at_most_the_last_bits_of_f(loss, monkeypatch, tmp_path):
    """A stochastic run evaluates the same iterates with a callback as
    without one, so a callback changes not even the last bits of f: the
    draws, the iterates and the trace file are bitwise the same."""
    A, b, _ = synthetic_sparse_data(loss, d=6, m=8000, k=2, noise=0.3, seed=4)
    p = build_problem(loss, L1Penalty(0.05), EU, A=A, b=b, batch_size=1)
    sched = leap_frog(power_steps(0.5, 0.5))
    reference = SimpleNamespace(f_star=-1.0, x_star=np.full(p.d, 0.1))
    draw, real_step = p._draw, solver.step

    def traced_run(callback, path):
        draws, xs = [], []

        def record_draw(rng, count):
            out = draw(rng, count)
            draws.append(out[0])
            return out

        def record_step(*args, **kwargs):
            state = real_step(*args, **kwargs)
            xs.append(state.x.copy())
            return state

        p._draw = record_draw
        monkeypatch.setattr(solver, "step", record_step)
        result = run(p, sched, 150, mode="stochastic", seed=12, stride=7,
                     reference=reference, callback=callback)
        write_trace_csv(result.rows, path)
        return path.read_bytes(), np.concatenate(draws), np.array(xs)

    plain, plain_draws, plain_xs = traced_run(None, tmp_path / "plain.csv")
    observed, observed_draws, observed_xs = traced_run(lambda st: None,
                                                       tmp_path / "observed.csv")
    del p._draw
    assert len(plain_xs) == 150
    assert np.array_equal(plain_draws, observed_draws)
    assert np.array_equal(plain_xs.view(np.int64), observed_xs.view(np.int64))
    assert plain.count(b"\n") == 1 + 150 // 7
    assert observed == plain


def sampled_dual_sum(p, sched, states, seed):
    """sum s_i g_i + t_i h_i over the steps taken from ``states`` (each
    (n, x_n, s_n, gamma_n, h_n) before a step), with each sampled g_i
    replayed from a second generator of the run's seed: a block draw uses
    the generator as that many single draws do."""
    rng = np.random.default_rng(seed)
    dual_sum = np.zeros(p.d)
    for n, x, s, gamma, h in states:
        dual_sum += s * p.sample_subgradient(x, rng) + sched.t(n, gamma) * h
    return dual_sum


def before_step(st):
    return st.n, st.x.copy(), st.last_s, st.gamma, st.h


def test_exact_step_after_stochastic_run_matches_accumulated_form():
    p, sched = stochastic_setup("lad", 0.1)
    states = [before_step(init(p, sched))]
    st = run(p, sched, 33, mode="stochastic", seed=2, stride=10,
             callback=lambda st: states.append(before_step(st))).state
    expected = p.residual(st.x)
    np.testing.assert_allclose(st.residual, expected, rtol=1e-13,
                               atol=1e-13 * np.abs(expected).max())
    dual_sum = sampled_dual_sum(p, sched, states[:-1], seed=2)
    predicted = argmin_form_step(st, p, dual_sum)[0]
    st = step(st, p)
    assert float(np.max(np.abs(st.x - predicted))) <= 1e-9
    assert st.f_x == p.objective(st.x)


@pytest.mark.parametrize("stride", [1000, 7, 1])
def test_a_stochastic_run_takes_one_residual_per_evaluated_iterate(stride, monkeypatch):
    """Each point a stochastic run evaluates enters one ``_objective``
    block: x_1 in init, then, in iterate order and in blocks of
    ``_evaluation_width()`` points (5 here, so a block may end between an
    iterate and its averaged iterate), each trace row's iterate and
    averaged iterate and the last iterate when no row logs it; no other
    iterate is evaluated, and each kept iterate is a copy of the run's."""
    p, sched = stochastic_setup("logistic", 0.01)
    monkeypatch.setattr(problems, "_EVALUATION_BLOCK", 8 * p.m * 5)
    blocks, iterates = [], {}
    objective = solver._objective
    monkeypatch.setattr(solver, "_objective",
                        lambda q, points: blocks.append(points) or objective(q, points))
    n = 160
    res = run(p, sched, n, mode="stochastic", seed=1, stride=stride,
              callback=lambda st: iterates.__setitem__(st.n, st.x))
    iterates[1] = res.state.x1
    logged = [i for i in range(2, n + 2) if i % stride == 0]
    kept = [(what, i) for i in logged for what in ("iterate", "averaged iterate")]
    kept += [] if (n + 1) % stride == 0 else [("iterate", n + 1)]
    expected = [[("iterate", 1)]] + [kept[i:i + 5] for i in range(0, len(kept), 5)]
    assert [[(what, i) for _, what, i in block] for block in blocks] == expected
    for block in blocks[1:]:
        for x, what, i in block:
            if what == "iterate":
                assert np.array_equal(x, iterates[i]) and x is not iterates[i]


@pytest.mark.parametrize("budget", [None, 8 * 300 * 4 + 7, 8 * 300])
def test_residual_blocks_hold_at_most_the_byte_budget(budget, monkeypatch):
    """Each product over A that a stochastic run takes holds at most
    ``_evaluation_width()`` points, whose residuals fit in
    ``_EVALUATION_BLOCK`` bytes.  A block of several points takes one full
    product; a block of one is ``residual(x)``, which reads its support
    columns in products of at most ``_block_width()`` columns while x has
    at most d/4 nonzeros, and takes one full product when it has more."""
    if budget is not None:
        monkeypatch.setattr(problems, "_RESIDUAL_BLOCK", budget)
        monkeypatch.setattr(problems, "_EVALUATION_BLOCK", budget)
    p, sched = stochastic_setup("logistic", 0.03)  # 4 to 38 nonzeros
    width, chunk = p._evaluation_width(), p._block_width()
    assert 8 * p.m * width <= problems._EVALUATION_BLOCK or width == 1
    A = p.A
    calls = []

    class Counting(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            if ufunc is np.matmul:
                # a block is X @ A' with one point a row of X
                points = inputs[0].shape[0] if isinstance(inputs[1], Counting) else 1
                calls[-1][1].append((inputs[0].shape[-1], points))
            return getattr(ufunc, method)(*(np.asarray(v) for v in inputs), **kwargs)

    objective = solver._objective

    def recording(q, points):
        calls.append((np.count_nonzero(points[0][0]), [], len(points)))
        p.A = A.view(Counting)
        try:
            return objective(q, points)
        finally:
            p.A = A

    monkeypatch.setattr(solver, "_objective", recording)
    run(p, sched, 160, mode="stochastic", seed=1, stride=1)
    assert len(calls) == 1 + -(-320 // width)
    assert all(size <= width for _, _, size in calls)
    blocks = [(products, size) for _, products, size in calls if size > 1]
    for products, size in blocks:
        assert products == [(p.d, size)]
    singles = [(nnz, products) for nnz, products, size in calls if size == 1]
    sparse = [(nnz, [c for c, _ in products]) for nnz, products in singles
              if 4 * nnz <= p.d]
    assert all(products == [(p.d, 1)] for nnz, products in singles if 4 * nnz > p.d)
    for nnz, widths in sparse:
        assert max(widths) <= chunk and sum(widths) == nnz
        assert len(widths) == max(1, -(-nnz // chunk))
    if width == 1:  # every point is a block of one
        assert 0 < len(sparse) < len(singles)
        assert any(len(widths) > 1 for _, widths in sparse)
    else:
        assert blocks


@pytest.mark.parametrize("width", [2, 3, 8])
def test_each_evaluation_block_takes_one_product_within_the_byte_budget(width,
                                                                       monkeypatch):
    """A stochastic run evaluates its kept points in blocks whose
    residuals fit in ``_EVALUATION_BLOCK`` bytes, and takes one product over
    A per block: the budget here is one byte short of width + 1
    residuals."""
    A, b, _ = synthetic_sparse_data("logistic", d=6, m=8000, k=2, noise=0.3, seed=4)
    p = build_problem("logistic", L1Penalty(0.05), EU, A=A, b=b, batch_size=1)
    monkeypatch.setattr(problems, "_EVALUATION_BLOCK", 8 * p.m * (width + 1) - 1)
    assert p._evaluation_width() == width
    tally = count_products(p)
    objective = solver._objective
    blocks = []

    def counted(q, points):
        before = len(tally)
        out = objective(q, points)
        blocks.append((len(points), len(tally) - before))
        return out

    monkeypatch.setattr(solver, "_objective", counted)
    n, stride = 60, 7
    run(p, leap_frog(power_steps(0.5, 0.5)), n, mode="stochastic", seed=12, stride=stride)
    kept = 2 * (n // stride) + 1  # two per row, and the last iterate, n = 61
    sizes = [size for size, _ in blocks[1:]]  # blocks[0] is x_1, in init
    assert sizes == [width] * (kept // width) + ([kept % width] if kept % width else [])
    assert all(8 * p.m * size <= problems._EVALUATION_BLOCK for size in sizes)
    assert [products for _, products in blocks] == [1] * len(blocks)


@pytest.mark.parametrize("loss", ["lad", "logistic", "linear"])
def test_a_block_of_one_point_is_the_residual_bitwise(loss):
    """``_objective`` on a block of one point takes ``residual(x)`` and
    gives its bits, and f is ``objective(x)``'s, for a sparse and a dense
    point; ``_evaluate`` is that block."""
    if loss == "linear":
        p = build_problem("linear", L1Penalty(0.05), EU, c=np.linspace(-1.0, 1.0, 40))
    else:
        A, b, _ = synthetic_sparse_data(loss, d=40, m=300, k=3, noise=0.3, seed=21)
        p = build_problem(loss, L1Penalty(0.05), EU, A=A, b=b)
    rng = np.random.default_rng(5)
    sparse = np.zeros(p.d)
    sparse[[3, 17, 31]] = rng.standard_normal(3)
    for x in (sparse, rng.standard_normal(p.d)):
        [(residual, f)] = solver._objective(p, [(x, "iterate", 4)])
        assert np.asarray(residual).tobytes() == np.asarray(p.residual(x)).tobytes()
        assert np.float64(f).tobytes() == np.float64(p.objective(x)).tobytes()
        st = init(p, leap_frog(power_steps(1.0, 0.5)))
        st.x = x
        _evaluate(st, p, [(x, "iterate", st.n, None)])
        assert st.f_x == f and np.array_equal(st.residual, residual)


@pytest.mark.parametrize("spoiled, stops_at", [(np.nan, 8), (1.5e308, 9)],
                         ids=["nan", "overflow"])
def test_a_non_finite_f_inside_a_block_names_its_iterate_and_writes_no_trace(
        spoiled, stops_at, tmp_path, monkeypatch):
    """Iterate 8 of a stride-1 run is the middle point of the third block
    of five kept points (kept indices 10-14, iterate 8 at 12).  A nan
    iterate has no finite f, so the run stops at step 8.  An iterate of
    one entry 1.5e308 has a finite x and G, but its residual overflows,
    so its f = inf stops the run when the block is evaluated, after
    step 9.  Either way the error names iterate 8, not the block's first
    or last point, and no trace is written."""
    cfg = parse_config("\n".join([
        "spec_version = 1", "[problem]", "loss = logistic", "mirror = euclidean",
        "regularizer = l1", "lambda = 0.05", "d = 6", "m = 40", "k = 2",
        "noise = 0.3", "data_seed = 4", "[schedule]", "preset = leap_frog",
        "[run]", "iterations = 30", "mode = stochastic", "batch_size = 1",
        "seeds = 3", "reference_tol = inf", "[output]", "stride = 1"]) + "\n",
        name="spoiled")
    monkeypatch.setattr(problems, "_EVALUATION_BLOCK", 8 * 40 * 5)
    real_step = solver.step
    steps = []

    def spoiling_step(*args, **kwargs):
        state = real_step(*args, **kwargs)
        steps.append(state.n)
        if state.n == 8:
            state.x = np.zeros(6)
            state.x[0] = spoiled
        return state

    monkeypatch.setattr(solver, "step", spoiling_step)
    with np.errstate(over="ignore"), pytest.raises(
            ValueError, match="objective is not finite at iterate 8 "):
        run_experiment(cfg, out_dir=tmp_path)
    assert steps[-1] == stops_at
    assert list(tmp_path.glob("*.csv")) == []


@pytest.mark.parametrize("loss", ["logistic", "linear"])
def test_kept_points_fit_the_byte_budget_when_d_exceeds_m(loss, monkeypatch):
    """A stochastic run keeps at most ``_EVALUATION_BLOCK`` bytes of points,
    counting their own copies as well as their residuals: at d = 400 and
    m = 10 the copies bound a block to 3 points, where the residuals alone
    would allow 120.  The linear loss is one data row, and its copies
    bound it to 3 points as well."""
    if loss == "linear":
        p = build_problem("linear", L1Penalty(0.05), EU, c=np.linspace(-1.0, 1.0, 400))
    else:
        A, b, _ = synthetic_sparse_data(loss, d=400, m=10, k=3, noise=0.3, seed=4)
        p = build_problem(loss, L1Penalty(0.05), EU, A=A, b=b, batch_size=1)
    monkeypatch.setattr(problems, "_EVALUATION_BLOCK", 8 * 400 * 3)
    width = 3
    assert p._evaluation_width() == width
    real_step, objective = solver.step, solver._objective
    steps, blocks = [], []

    def recording_step(*args, **kwargs):
        state = real_step(*args, **kwargs)
        steps.append(state.n)
        return state

    def recording(q, points):
        blocks.append((steps[-1] if steps else 1, points))
        return objective(q, points)

    monkeypatch.setattr(solver, "step", recording_step)
    monkeypatch.setattr(solver, "_objective", recording)
    n, stride = 60, 7
    run(p, leap_frog(power_steps(0.5, 0.5)), n, mode="stochastic", seed=12, stride=stride)
    kept = 2 * (n // stride) + 1  # two per row, and the last iterate, n = 61
    sizes = [len(points) for _, points in blocks[1:]]  # blocks[0] is x_1, in init
    assert sizes == [width] * (kept // width) + ([kept % width] if kept % width else [])
    for _, points in blocks[1:]:
        assert sum(x.nbytes for x, _, _ in points) <= problems._EVALUATION_BLOCK
        assert 8 * p.m * len(points) <= problems._EVALUATION_BLOCK


@pytest.mark.parametrize("reg, mirror", [(L1Penalty(0.05), EU),
                                         (BoxIndicator(-0.5, 0.5), EU),
                                         (SimplexIndicator(), EN)],
                         ids=["l1", "box", "simplex"])
def test_a_linear_stochastic_run_takes_the_exact_iterates(reg, mirror):
    """The linear loss is one data row, so a batch of one draws that row
    and its subgradient is the cost c: a stochastic run takes the exact
    run's iterates, bitwise, and logs the same n, nnz, backward steps and
    bounds."""
    p = build_problem("linear", reg, mirror, c=np.linspace(-1.0, 1.0, 40) ** 3)
    sched = leap_frog(power_steps(0.5, 0.5))
    reference = SimpleNamespace(f_star=-1.0, x_star=np.full(p.d, 1.0 / p.d))
    exact = run(p, sched, 150, stride=7, reference=reference)
    sampled = run(p, sched, 150, mode="stochastic", seed=3, stride=7,
                  reference=reference)
    assert exact.state.x.tobytes() == sampled.state.x.tobytes()

    def columns(rows):
        return np.array([(r.n, r.nnz, r.backward_step, r.bound)
                         for r in rows]).tobytes()

    assert len(exact.rows) == 150 // 7
    assert columns(exact.rows) == columns(sampled.rows)


def test_exact_step_after_stochastic_steps_matches_accumulated_form():
    A, b, _ = synthetic_sparse_data("lad", d=5, m=12, k=2, noise=0.1, seed=13)
    p = build_problem("lad", L1Penalty(0.1), EU, A=A, b=b, batch_size=3)
    sched = leap_frog(power_steps(1.0, 0.5))
    st = init(p, sched)
    rng = np.random.default_rng(5)
    states = []
    for _ in range(3):
        states.append(before_step(st))
        st = step(st, p, mode="stochastic", rng=rng)
    dual_sum = sampled_dual_sum(p, sched, states, seed=5)
    predicted = argmin_form_step(st, p, dual_sum)[0]
    st = step(st, p)
    assert float(np.max(np.abs(st.x - predicted))) <= 1e-9


def counting(sched):
    """The schedule with s, alpha and t wrapped to count their calls."""
    calls = collections.Counter()

    def wrap(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)
        return counted

    wrapped = Schedule(sched.name, wrap("s", sched.s), wrap("alpha", sched.alpha),
                       wrap("t", sched.t))
    return wrapped, calls


def test_a_run_evaluates_each_schedule_value_once():
    p = random_lad(seed=43)
    sched, calls = counting(averaged_leap_frog(0.5, power_steps(1.0, 0.5)))
    run(p, sched, n_iters=10, stride=100)
    # init: s_1, alpha_1; step n: s_{n+1}, alpha_{n+1}, t_n
    assert calls == {"s": 11, "alpha": 11, "t": 10}
    sched, calls = counting(averaged_leap_frog(0.5, power_steps(1.0, 0.5)))
    run(p, sched, n_iters=10, stride=1, reference=reference_optimum(p, tol=1e-8))
    # a trace row's backward-step preview evaluates step n's values again
    assert calls["s"] <= 21 and calls["alpha"] <= 21 and calls["t"] <= 20


def jump_schedule():
    """s_n = n^(-1/2) up to n = 10, then s_11 = 100: not non-increasing."""
    return Schedule("jump", lambda n: n ** -0.5 if n <= 10 else 100.0,
                    lambda n: 1.0, lambda n, g: 0.0)


def test_a_jump_in_s_stops_the_step_that_evaluates_it():
    p = random_lad(seed=47)
    ref = reference_optimum(p, tol=1e-8)
    st = init(p, jump_schedule())
    for _ in range(9):
        st = step(st, p)
    s_sum, bound_acc = st.s_sum, st.bound_acc
    with pytest.raises(ScheduleError, match="s_11 = 100 exceeds s_10"):
        step(st, p)
    # checked before it enters the accumulators: the state is as it was
    assert st.n == 10 and st.s_sum == s_sum and st.bound_acc == bound_acc
    with pytest.raises(ScheduleError, match="s_11"):
        run(p, jump_schedule(), n_iters=10, stride=1, reference=ref)
    assert all(np.isfinite(row.bound)
               for row in run(p, jump_schedule(), 9, stride=1, reference=ref).rows)
    res = run(p, jump_schedule(), n_iters=10, stride=1, reference=ref, unsafe=True)
    assert res.rows[-1].n == 11 and math.isnan(res.rows[-1].bound)
    assert res.state.last_s == 100.0


def test_a_nan_schedule_value_is_a_violation():
    p = random_lad()
    for sched, name in [
            (Schedule("bad", lambda n: 1.0 if n < 3 else math.nan, lambda n: 1.0,
                      lambda n, g: 0.0), "s_3"),
            (Schedule("bad", lambda n: 1.0, lambda n: 1.0 if n < 3 else math.nan,
                      lambda n, g: 0.0), "alpha_3"),
            (Schedule("bad", lambda n: 1.0, lambda n: 1.0,
                      lambda n, g: 0.0 if n < 2 else math.nan), "t_2")]:
        st = step(init(p, sched), p)
        with pytest.raises(ScheduleError, match=name):
            step(st, p)


def replay_best(best_f, best_x, xs, fs):
    """best_f / best_x kept by a strict < over fs in iterate order."""
    for x, f in zip(xs, fs):
        if f < best_f:
            best_f, best_x = f, x
    return best_f, best_x


@pytest.mark.parametrize("K", [1, 3, 9, 64])
def test_evaluate_keeps_the_earliest_of_tied_minima(K):
    """Integer data and iterates in eighths make every residual exact, so
    the lad loss with b = 0 takes the same bits at c x and -c x: of K
    iterates evaluated in turn, or in one block, the first of tied minima
    is kept, and a tie with the best so far keeps that."""
    rng = np.random.default_rng(K)
    A = rng.integers(-3, 4, (30, 4)).astype(float)
    p = build_problem("lad", ZeroRegularizer(), EU, A=A, b=np.zeros(30))
    st = init(p, leap_frog(power_steps(1.0, 0.5)), x1=np.full(4, 4.0))
    low = rng.integers(-4, 5, 4) / 8.0
    xs = [(2 + j % 3) * (-1.0) ** j * low for j in range(K)]
    xs[K // 3] = low
    xs[K - 1] = -low
    fs = [p.objective(x) for x in xs]
    best_f, best_x = replay_best(st.best_f, st.best_x, xs, fs)

    def evaluate_in_turn(xs):
        for x in xs:
            st.n += 1
            st.x = x
            _evaluate(st, p, [(x, "iterate", st.n, None)])

    evaluate_in_turn(xs)
    assert st.best_f == best_f == min(fs) == fs[K - 1]
    assert st.best_x.tobytes() == best_x.tobytes() == xs[K // 3].tobytes()
    assert st.f_x == fs[-1]
    assert np.array_equal(st.residual, p.residual(xs[-1]))

    # iterates whose minimum ties the best so far keep the earlier one
    evaluate_in_turn([-x for x in xs])
    assert st.best_x.tobytes() == xs[K // 3].tobytes()

    # so does a stochastic run's block evaluation of kept iterates
    st = init(p, leap_frog(power_steps(1.0, 0.5)), x1=np.full(4, 4.0))
    for block in (xs, [-x for x in xs]):
        kept = [(x.copy(), "iterate", st.n + 1 + j, None) for j, x in enumerate(block)]
        _evaluate(st, p, kept)
        assert st.best_f == fs[K - 1]
        assert st.best_x.tobytes() == xs[K // 3].tobytes()


@pytest.mark.parametrize("bad", [2.0, np.nan], ids=["inf", "nan"])
@pytest.mark.parametrize("K, first, later",
                         [(1, 0, None), (5, 2, 4), (9, 0, 8), (64, 63, None)])
def test_evaluate_names_the_first_iterate_whose_f_is_not_finite(K, first, later, bad):
    """Of K iterates evaluated in turn, the first whose f is not finite
    stops the evaluation and is named by its iterate index; a coordinate
    of 2 leaves the box (f = inf), a nan one makes f nan."""
    p = build_problem("lad", BoxIndicator(-1.0, 1.0), EU, A=np.eye(3), b=np.zeros(3))
    st = init(p, leap_frog(power_steps(1.0, 0.5)))
    xs = [np.full(3, 0.1 * (j % 7)) for j in range(K)]
    xs[first] = np.array([bad, 0.0, 0.0])
    if later is not None:
        xs[later] = np.array([3.0, 0.0, 0.0])
    st.n = 40
    with pytest.raises(ValueError, match="not finite at iterate %d " % (40 + first + 1)):
        for x in xs:
            st.n += 1
            st.x = x
            _evaluate(st, p, [(x, "iterate", st.n, None)])


@pytest.mark.parametrize("K, first, later", [(4, 2, 3), (9, 5, None), (9, 8, None),
                                             (65, 40, 64), (65, 3, 40)])
def test_a_split_block_names_the_first_iterate_whose_f_is_not_finite(K, first, later,
                                                                    monkeypatch):
    """A stochastic run that stops partway through a block of K draws, at
    a non-finite f, names the iterate by its index, not by the block's
    end: step ``first`` of the second block is made to leave a nan
    iterate, and a later one (outside the box, f = inf) is never reached."""
    p = build_problem("lad", BoxIndicator(-1.0, 1.0), EU, A=np.eye(3), b=np.zeros(3),
                      batch_size=1)
    monkeypatch.setattr(problems, "_DRAW_BLOCK", K * 8 * p.d)
    assert p._draw_width() == K
    counts, draw = [], p._draw
    p._draw = lambda rng, count: counts.append(count) or draw(rng, count)
    bad = {K + first + 2: np.nan}
    if later is not None:
        bad[K + later + 2] = 3.0
    real_step = solver.step

    def spoiling_step(*args, **kwargs):
        state = real_step(*args, **kwargs)
        if state.n in bad:
            state.x = np.array([bad[state.n], 0.0, 0.0])
        return state

    monkeypatch.setattr(solver, "step", spoiling_step)
    with pytest.raises(ValueError, match="not finite at iterate %d " % (K + first + 2)):
        run(p, leap_frog(power_steps(1.0, 0.5)), 3 * K, mode="stochastic", seed=5,
            stride=1)
    del p._draw
    assert counts == [K, K]


@pytest.mark.parametrize("schedule, error", [
    (leap_frog(power_steps(1.0, 0.5)), None), (jump_schedule(), ScheduleError)])
def test_no_thread_outlives_a_run(schedule, error):
    """A run starts no thread: the thread count is the same before a
    stochastic run, during it as its callback sees it, and after it, also
    when a schedule violation stops it."""
    A, b, _ = synthetic_sparse_data("logistic", d=6, m=40, k=2, noise=0.1, seed=5)
    p = build_problem("logistic", L1Penalty(0.1), EU, A=A, b=b, batch_size=1)
    before = threading.active_count()
    during = []
    callback = lambda st: during.append(threading.active_count())
    if error is None:
        run(p, schedule, 30, mode="stochastic", seed=2, stride=7, callback=callback)
    else:
        with pytest.raises(error, match="s_11"):
            run(p, schedule, 30, mode="stochastic", seed=2, stride=7, callback=callback)
    assert during and set(during) == {before}
    assert threading.active_count() == before


@pytest.mark.parametrize("mode, batch", [("exact", None), ("stochastic", 1)])
@pytest.mark.parametrize("kind", PRESET_KINDS)
def test_a_run_reads_no_h(kind, mode, batch, monkeypatch):
    """A step computes only the recursion's terms, and h_n enters none of
    them: no preset's run derives ``SolverState.h``."""
    reads = []
    h = solver.SolverState.h
    monkeypatch.setattr(solver.SolverState, "h",
                        property(lambda st: reads.append(st.n) or h.fget(st)))
    A, b, _ = synthetic_sparse_data("logistic", d=6, m=24, k=2, noise=0.3, seed=8)
    p = build_problem("logistic", L1Penalty(0.1), EU, A=A, b=b, batch_size=batch)
    mu = 0.5 if kind == "averaged_leap_frog" else None
    run(p, schedule_preset(kind, mu=mu), 40, mode=mode, seed=3, stride=7)
    assert reads == []


def transcribed_run(p, sched, n_iters, mode, seed, stride, ref):
    """The module docstring's recursion term for term, with h stored, on a
    state from ``init``; it draws, evaluates and logs as ``run`` does: an
    exact run evaluates each iterate and row at once, a stochastic one
    keeps the rows' points and the last iterate for its evaluation blocks.
    Returns the final state, the last h and the trace rows."""
    rng = np.random.default_rng(seed)
    st = init(p, sched)
    d_star = p.mirror.bregman(ref.x_star, st.x1)
    h = np.zeros(p.d)
    rows, kept = [], []
    for i in range(n_iters):
        n, s_n, a_n, gamma_n = st.n, st.last_s, st.last_alpha, st.gamma
        s_next, a_next, t_n = sched.s(n + 1), sched.alpha(n + 1), sched.t(n, gamma_n)
        mu = t_n / gamma_n if gamma_n > 0 else 0.0
        if mode == "exact":
            g = p.subgradient(st.x)
        else:
            _, A, b = p._draw(rng, 1)
            g = p._sampled_subgradient(st.x, rng, (A[0], b[0]))
        xt_prime = (1.0 - mu) * st.x_tilde_half + mu * st.x_tilde
        ratio = a_n / a_next
        xt_half = ratio * xt_prime + (1.0 - ratio) * st.x_tilde_1 - (s_n / a_next) * g
        gamma_next = (1.0 - mu) * gamma_n + s_n
        x_next = solver.mirror_prox(p.reg, p.mirror, p.mirror.grad_inverse(xt_half),
                                    gamma_next / a_next)
        xt_next = p.mirror.grad(x_next)
        h = (a_next / gamma_next) * (xt_half - xt_next)
        st.x, st.x_tilde, st.x_tilde_half, st.gamma = x_next, xt_next, xt_half, gamma_next
        st.last_s, st.last_alpha, st.n = s_next, a_next, n + 1
        st.s_sum += s_next
        st.weighted_sum += s_next * x_next
        st.bound_acc += s_next * s_next / a_next
        logged = st.n % stride == 0
        if mode == "exact":
            _evaluate(st, p, [(st.x, "iterate", st.n, None)])
        else:
            st.residual = st.f_x = None
            if logged or i == n_iters - 1:
                kept += kept_points(st, logged)
        if logged:
            rows.append(trace_row(st, p, ref, d_star))
    replay_evaluation(p, st, kept, rows, ref)
    return st, h, rows


REFERENCE_PAIRS = {
    "l1": (L1Penalty(0.1), EU), "box": (BoxIndicator(0.1, 0.9), EU),
    "l2ball": (L2BallIndicator(0.8), EU), "zero": (ZeroRegularizer(), EU),
    "simplex": (SimplexIndicator(), EN)}


@pytest.mark.parametrize("mode, batch", [("exact", None), ("stochastic", 1),
                                         ("stochastic", 3)])
@pytest.mark.parametrize("pair", sorted(REFERENCE_PAIRS))
def test_run_is_the_transcribed_recursion_bitwise(pair, mode, batch):
    """``step`` leaves out the terms whose weight is exactly 0 and derives
    h from the state; ``run`` still gives the trace rows of the recursion
    with every term kept, bitwise, and the same state.  Leaving out a
    term can change only the sign of a zero, which ``+ 0.0`` clears."""
    reg, mirror = REFERENCE_PAIRS[pair]
    for loss in ("lad", "logistic"):
        A, b, _ = synthetic_sparse_data(loss, d=6, m=24, k=2, noise=0.3, seed=8)
        p = build_problem(loss, reg, mirror, A=A, b=b, batch_size=batch)
        ref = reference_optimum(p, tol=float("inf"))
        for kind in PRESET_KINDS:
            mu = 0.5 if kind == "averaged_leap_frog" else None
            res = run(p, schedule_preset(kind, mu=mu), 40, mode=mode, seed=6, stride=7,
                      reference=ref)
            st, h, rows = transcribed_run(p, schedule_preset(kind, mu=mu), 40, mode, 6,
                                          7, ref)
            assert len(res.rows) == len(rows) == 5
            for got, want in zip(res.rows, rows):
                assert np.array(astuple(got)).tobytes() == np.array(astuple(want)).tobytes(), \
                    (loss, kind, got.n)
            for got, want in [(res.state.x, st.x), (res.state.x_tilde_half, st.x_tilde_half),
                              (res.state.weighted_sum, st.weighted_sum), (res.state.h, h)]:
                assert np.array_equal(got + 0.0, want + 0.0), (loss, kind)

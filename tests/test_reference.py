import math
import warnings

import numpy as np
import pytest

from conftest import refine_minimize_1d
import xrda.reference as reference
from xrda.geometry import EuclideanMirror, NegativeEntropyMirror
from xrda.problems import build_problem, synthetic_sparse_data
from xrda.reference import (lower_bound_certificate, prox_subgradient_iterates,
                            recertify, reference_optimum)
from xrda.regularizers import (BoxIndicator, L1Penalty, L2BallIndicator,
                               SimplexIndicator, ZeroRegularizer,
                               canonical_argmin, supported_pairs)

EU = EuclideanMirror()
EN = NegativeEntropyMirror()


def random_problem(loss, reg, seed, m=15, d=6, mirror=EU, batch_size=None):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, d))
    b = rng.choice([-1.0, 1.0], size=m) if loss == "logistic" \
        else rng.standard_normal(m)
    return build_problem(loss, reg, mirror, A=A, b=b, batch_size=batch_size)


def test_identity_lad_l1_value():
    # f(x) = (|x1-1| + |x2-1|)/2 + 0.5 ||x||_1 is separable; freeze the
    # optimum against a per-coordinate numeric scan
    p = build_problem("lad", L1Penalty(0.5), EU, A=np.eye(2),
                      b=np.array([1.0, 1.0]))
    per_coord = lambda t: 0.5 * abs(t - 1.0) + 0.5 * abs(t)
    t_opt = refine_minimize_1d(per_coord, -2.0, 2.0)
    oracle = 2.0 * per_coord(t_opt)
    assert oracle == pytest.approx(1.0, abs=1e-9)

    ref = reference_optimum(p, tol=1e-8)
    assert ref.converged
    assert ref.f_star == pytest.approx(1.0, abs=1e-9)
    # the argmin is any point in [0,1]^2, so only the value is pinned
    assert p.objective(ref.x_star) == ref.f_star


def test_lad_l1_certified():
    p = random_problem("lad", L1Penalty(0.3), seed=11)
    ref = reference_optimum(p, tol=1e-8)
    assert ref.method == "lad_lp"
    assert ref.converged
    assert 0.0 <= ref.certified_gap <= 1e-8
    assert p.objective(ref.x_star) == ref.f_star


def test_lad_box_certified():
    p = random_problem("lad", BoxIndicator(-1.0, 1.0), seed=12)
    ref = reference_optimum(p, tol=1e-8)
    assert ref.method == "lad_lp"
    assert ref.converged
    assert np.all(ref.x_star >= -1.0 - 1e-9) and np.all(ref.x_star <= 1.0 + 1e-9)


def test_lad_zero_certified():
    p = random_problem("lad", ZeroRegularizer(), seed=13, m=20, d=4)
    ref = reference_optimum(p, tol=1e-8)
    assert ref.method == "lad_lp"
    assert ref.converged


def test_logistic_l1_certified():
    p = random_problem("logistic", L1Penalty(0.05), seed=14, m=25, d=5)
    ref = reference_optimum(p, tol=1e-8)
    assert ref.method == "logistic_smooth"
    assert ref.converged
    assert ref.certified_gap <= 1e-8


def test_logistic_box_and_zero_certified():
    for reg, seed in ((BoxIndicator(-0.5, 0.5), 15), (ZeroRegularizer(), 16)):
        p = random_problem("logistic", reg, seed=seed, m=30, d=4)
        ref = reference_optimum(p, tol=1e-6)
        assert ref.converged, (reg.kind, ref.certified_gap)


def feasible_point(reg, rng, d):
    """A random point where the regularizer is finite."""
    if reg.kind == "box":
        return rng.uniform(-1.0, 1.0, size=d)
    if reg.kind == "simplex":
        return rng.dirichlet(np.ones(d))
    z = rng.standard_normal(d) * 2.0
    if reg.kind == "l2ball":
        z *= min(1.0, 0.99 * reg.radius / np.linalg.norm(z))
    return z


@pytest.mark.parametrize("loss,reg,seed", [
    ("lad", L1Penalty(0.4), 21),
    ("logistic", L1Penalty(0.1), 22),
    ("lad", BoxIndicator(-1.0, 1.0), 23),
    ("lad", ZeroRegularizer(), 24),
    ("lad", SimplexIndicator(), 25),
    ("logistic", L2BallIndicator(0.7), 26),
])
def test_weak_duality(loss, reg, seed, rng):
    # any certificate value must sit below f at every point (in the domain)
    mirror = EN if reg.kind == "simplex" else EU
    p = random_problem(loss, reg, seed=seed, m=10, d=4, mirror=mirror)
    for _ in range(20):
        lb = lower_bound_certificate(p, rng.standard_normal(4))
        for _ in range(50):
            f = p.objective(feasible_point(reg, rng, 4))
            assert np.isfinite(f)
            assert lb <= f + 1e-9


def test_linear_analytic_cases():
    ref = reference_optimum(build_problem("linear", SimplexIndicator(), EN,
                                          c=[1.0, -3.0, 2.0]), tol=1e-8)
    assert ref.method == "linear_analytic"
    assert ref.converged
    assert ref.f_star == -3.0
    assert np.array_equal(ref.x_star, [0.0, 1.0, 0.0])

    ref = reference_optimum(build_problem("linear", BoxIndicator(-1.0, 2.0),
                                          EU, c=[1.0, 0.0, -1.0]), tol=1e-8)
    assert ref.f_star == -3.0
    assert np.array_equal(ref.x_star, [-1.0, 0.0, 2.0])

    ref = reference_optimum(build_problem("linear", L2BallIndicator(2.0), EU,
                                          c=[3.0, 4.0]), tol=1e-8)
    assert ref.f_star == pytest.approx(-10.0, rel=1e-14)

    ref = reference_optimum(build_problem("linear", L1Penalty(2.0), EU,
                                          c=[1.0, -1.5]), tol=1e-8)
    assert ref.f_star == 0.0 and ref.converged

    ref = reference_optimum(build_problem("linear", ZeroRegularizer(), EU,
                                          c=[0.0, 0.0]), tol=1e-8)
    assert ref.f_star == 0.0 and ref.converged


def test_linear_unbounded_raises():
    with pytest.raises(ValueError, match="unbounded"):
        reference_optimum(build_problem("linear", L1Penalty(1.0), EU,
                                        c=[1.0, -1.5]), tol=1e-8)
    with pytest.raises(ValueError, match="unbounded"):
        reference_optimum(build_problem("linear", ZeroRegularizer(), EU,
                                        c=[1.0, 0.0]), tol=1e-8)


def test_tol_inf_short_circuits():
    """The reference is the canonical argmin of G, also where it leaves the
    entropy mirror's open domain (a run then needs a positive x1)."""
    for reg, mirror in ((L1Penalty(0.3), EU), (ZeroRegularizer(), EN)):
        p = random_problem("lad", reg, seed=31, mirror=mirror)
        ref = reference_optimum(p, tol=float("inf"))
        assert ref.method == "initial_point"
        assert ref.converged
        assert np.array_equal(ref.x_star, canonical_argmin(p.reg, p.d))
        assert ref.f_star == p.objective(ref.x_star)


def test_invalid_tol():
    p = random_problem("lad", L1Penalty(0.3), seed=32)
    with pytest.raises(ValueError):
        reference_optimum(p, tol=0.0)
    with pytest.raises(ValueError):
        reference_optimum(p, tol=-1.0)


def test_lad_l2ball_certified():
    p = random_problem("lad", L2BallIndicator(1.0), seed=33, m=8, d=3)
    ref = reference_optimum(p, tol=1e-8)
    assert ref.method == "lad_lp"
    assert ref.converged and 0.0 <= ref.certified_gap <= 1e-8
    assert np.linalg.norm(ref.x_star) <= 1.0 + 1e-9
    assert ref.f_star == p.objective(ref.x_star)
    lb = ref.f_star - ref.certified_gap
    rng = np.random.default_rng(0)
    for _ in range(200):
        z = rng.standard_normal(3)
        z *= min(1.0, 0.99 / np.linalg.norm(z))
        assert lb <= p.objective(z) + 1e-9


def test_lad_entropy_simplex_certified():
    p = random_problem("lad", SimplexIndicator(), seed=34, m=8, d=4, mirror=EN)
    ref = reference_optimum(p, tol=1e-8)
    assert ref.method == "lad_lp"
    assert ref.converged and 0.0 <= ref.certified_gap <= 1e-8
    assert np.all(ref.x_star >= 0.0)
    assert np.sum(ref.x_star) == pytest.approx(1.0, abs=1e-9)
    assert ref.f_star == p.objective(ref.x_star)
    lb = ref.f_star - ref.certified_gap
    rng = np.random.default_rng(0)
    for _ in range(200):
        assert lb <= p.objective(rng.dirichlet(np.ones(4))) + 1e-9


def test_prox_subgradient_first_steps():
    # identity data, lam 0.1, unit steps: soft-threshold moves by 0.4 then 0.4
    p = build_problem("lad", L1Penalty(0.1), EU, A=np.eye(2),
                      b=np.array([1.0, 1.0]))
    out = prox_subgradient_iterates(p, steps=lambda n: 1.0, n_iters=2)
    assert len(out) == 3
    assert np.array_equal(out[0], np.zeros(2))
    assert out[1] == pytest.approx([0.4, 0.4], rel=1e-15)
    assert out[2] == pytest.approx([0.8, 0.8], rel=1e-15)


def test_prox_subgradient_custom_start_and_entropy():
    p = build_problem("lad", L1Penalty(0.1), EU, A=np.eye(2),
                      b=np.array([1.0, 1.0]))
    out = prox_subgradient_iterates(p, steps=lambda n: 0.5, n_iters=1,
                                    x1=[2.0, 2.0])
    assert np.array_equal(out[0], [2.0, 2.0])

    q = random_problem("lad", SimplexIndicator(), seed=35, m=6, d=3, mirror=EN)
    iters = prox_subgradient_iterates(q, steps=lambda n: 0.1, n_iters=20)
    for x in iters:
        assert np.all(x > 0.0)
        assert np.sum(x) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("reg", [L1Penalty(0.3), BoxIndicator(-1.0, 1.0),
                                 ZeroRegularizer()], ids=["l1", "box", "zero"])
def test_lad_reference_solves_one_lp(reg, monkeypatch):
    calls = []
    real = reference.linprog

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(reference, "linprog", counting)
    p = random_problem("lad", reg, seed=21, m=20, d=5)
    ref = reference_optimum(p, tol=1e-8)
    assert ref.converged
    assert len(calls) == 1


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("reg", [BoxIndicator(-1.0, 1.0), ZeroRegularizer()],
                         ids=["box", "zero"])
def test_lad_lp_degenerate_shape_certified(reg, seed):
    # more columns than rows: the optimum is not unique and the dual is
    # degenerate, so x* must still come out of the multipliers certified
    p = random_problem("lad", reg, seed=seed, m=50, d=100)
    ref = reference_optimum(p, tol=1e-8)
    assert ref.method == "lad_lp"
    assert ref.converged
    assert 0.0 <= ref.certified_gap <= 1e-8
    assert p.objective(ref.x_star) == ref.f_star
    if reg.kind == "box":
        assert np.all(ref.x_star >= -1.0) and np.all(ref.x_star <= 1.0)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_logistic_l1_certifies_to_1e_12(seed):
    # L-BFGS-B stops at gaps of 1e-9 to 4e-9 here; Newton on its signed
    # support closes them
    A, b, _ = synthetic_sparse_data("logistic", d=200, m=400, k=10, noise=0.5,
                                    seed=seed)
    p = build_problem("logistic", L1Penalty(0.05), EU, A=A, b=b)
    ref = reference_optimum(p, tol=1e-12)
    assert ref.method == "logistic_smooth"
    assert ref.converged
    assert ref.certified_gap <= 1e-12


@pytest.mark.parametrize("seed", [2, 3])
def test_logistic_box_certifies_past_lbfgs(seed):
    # L-BFGS-B stops at about 5e-8 here, with about 180 free coordinates
    A, b, _ = synthetic_sparse_data("logistic", d=200, m=400, k=10, noise=0.5,
                                    seed=seed)
    p = build_problem("logistic", BoxIndicator(-0.5, 0.5), EU, A=A, b=b)
    ref = reference_optimum(p, tol=1e-8)
    assert ref.converged
    assert np.all(np.abs(ref.x_star) <= 0.5)


def test_logistic_box_wide_data_gap_is_honest(rng):
    # more columns than rows; whatever the face, the reported gap must hold
    p = random_problem("logistic", BoxIndicator(-0.5, 0.5), seed=41, m=50, d=100)
    ref = reference_optimum(p, tol=1e-12)
    assert ref.f_star == p.objective(ref.x_star)
    lb = ref.f_star - ref.certified_gap
    for _ in range(200):
        assert lb <= p.objective(rng.uniform(-0.5, 0.5, size=100)) + 1e-12


def test_newton_on_a_singular_face_keeps_the_point():
    # every coordinate of 0 lies inside the box: 100 free coordinates on
    # 50 rows give a singular face Hessian
    p = random_problem("logistic", BoxIndicator(-0.5, 0.5), seed=42, m=50, d=100)
    x = np.zeros(100)
    lower = lower_bound_certificate(p, x)
    x_out, lower_out = reference._newton_on_face(p, x, lower, 1e-12)
    assert x_out is x and lower_out == lower


def test_logistic_box_with_a_zero_column_keeps_an_honest_gap(rng):
    # the zero column's coordinate stays free at 0, so the face Hessian
    # is exactly singular
    A = np.random.default_rng(0).standard_normal((40, 6))
    A[:, 2] = 0.0
    b = np.random.default_rng(1).choice([-1.0, 1.0], size=40)
    p = build_problem("logistic", BoxIndicator(-0.5, 0.5), EU, A=A, b=b)
    ref = reference_optimum(p, tol=1e-14)
    lb = ref.f_star - ref.certified_gap
    for _ in range(200):
        assert lb <= p.objective(rng.uniform(-0.5, 0.5, size=6)) + 1e-12


def test_logistic_box_with_a_zero_column_certifies():
    # f does not depend on the zero column's coordinate, so the Newton face
    # leaves it out and its Hessian is regular
    A = np.random.default_rng(0).standard_normal((40, 6))
    A[:, 2] = 0.0
    b = np.random.default_rng(1).choice([-1.0, 1.0], size=40)
    p = build_problem("logistic", BoxIndicator(-0.5, 0.5), EU, A=A, b=b)
    ref = reference_optimum(p, tol=1e-14)
    assert ref.converged and ref.certified_gap <= 1e-14


@pytest.mark.parametrize("x0", [3.0, 5.0, 8.0, -4.0])
def test_newton_never_returns_a_worse_point(x0):
    # far from the optimum log 2 the curvature is small and a full Newton
    # step overshoots inside this wide box
    p = build_problem("logistic", BoxIndicator(-1e3, 1e3), EU, A=np.ones((3, 1)),
                      b=np.array([1.0, 1.0, -1.0]))
    x = np.array([x0])
    lower = lower_bound_certificate(p, x)
    x_out, lower_out = reference._newton_on_face(p, x, lower, 1e-12)
    assert p.objective(x_out) <= p.objective(x)
    assert lower_out >= lower


@pytest.mark.parametrize("x0", [0.5, 1.0, 2.0])
def test_newton_stays_on_the_face(x0):
    # the optimum is negative, so the step from a positive start on the
    # positive face crosses zero
    p = build_problem("logistic", L1Penalty(0.01), EU, A=np.ones((3, 1)),
                      b=np.array([-1.0, -1.0, 1.0]))
    x = np.array([x0])
    x_out, _ = reference._newton_on_face(p, x, lower_bound_certificate(p, x), 1e-12)
    assert x_out[0] > 0.0


PAIR_REGS = {"l1": L1Penalty(0.3), "box": BoxIndicator(-1.0, 1.0),
             "simplex": SimplexIndicator(), "l2ball": L2BallIndicator(1.0),
             "zero": ZeroRegularizer()}


@pytest.mark.parametrize("loss", ["lad", "logistic"])
@pytest.mark.parametrize("pair", supported_pairs(), ids="+".join)
def test_every_supported_pair_certifies(pair, loss):
    # one certified method per pair and no fallback: a registry pair the
    # reference cannot solve fails here.  Seed 0's labels are not linearly
    # separable, so logistic loss has a minimizer without a regularizer.
    mirror = EN if pair[0] == "entropy" else EU
    p = random_problem(loss, PAIR_REGS[pair[1]], seed=0, mirror=mirror)
    ref = reference_optimum(p)
    assert ref.converged, ref


@pytest.mark.parametrize("loss", ["lad", "logistic"])
@pytest.mark.parametrize("pair", supported_pairs(), ids="+".join)
def test_a_reference_point_certifies_its_gap_again(pair, loss):
    """``recertify`` at x_star confirms the reference's certified_gap, so
    an honest cache entry is a hit.  For lad that takes the dual point of
    ``_lad_dual_bound``, as the LP's bound comes from its dual solution.
    At other points it stays below f*."""
    mirror = EN if pair[0] == "entropy" else EU
    p = random_problem(loss, PAIR_REGS[pair[1]], seed=0, mirror=mirror)
    ref = reference_optimum(p)
    f = p.objective(ref.x_star)
    assert f - recertify(p, ref.x_star) <= ref.certified_gap + 1e-12 * max(1.0, abs(f))
    rng = np.random.default_rng(1)
    for _ in range(20):
        assert recertify(p, rng.standard_normal(p.d)) <= ref.f_star


def set_instance(loss, reg, d, m, seed, noise=0.2):
    A, b, _ = synthetic_sparse_data(loss, d=d, m=m, k=5, noise=noise, seed=seed)
    mirror = EN if reg.kind == "simplex" else EU
    return build_problem(loss, reg, mirror, A=A, b=b)


SET_REGS = [SimplexIndicator()] + [L2BallIndicator(r) for r in (0.5, 2.0, 3.0, 3.3)]


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("reg", SET_REGS, ids=["simplex", "ball0.5", "ball2", "ball3",
                                               "ball3.3"])
@pytest.mark.parametrize("loss", ["lad", "logistic"])
def test_simplex_and_ball_certify(loss, reg, seed):
    # the ball binds at every radius here; for lad at radii 3 and 3.3 the
    # smooth dual alone stops at gaps of 1.0e-8 to 2.0e-8, and the Newton
    # step on its face closes them
    p = set_instance(loss, reg, d=30, m=80, seed=seed)
    ref = reference_optimum(p, tol=1e-8)
    assert ref.converged and 0.0 <= ref.certified_gap <= 1e-8
    assert ref.f_star == p.objective(ref.x_star)


@pytest.mark.parametrize("reg", [SimplexIndicator(), L2BallIndicator(2.0)],
                         ids=["simplex", "ball2"])
@pytest.mark.parametrize("loss", ["lad", "logistic"])
def test_simplex_and_ball_certify_at_d200(loss, reg):
    # the largest size of the synthetic sweep; lad+l2ball, the slowest
    # pair, takes about 0.35 s
    p = set_instance(loss, reg, d=200, m=400, seed=1)
    ref = reference_optimum(p, tol=1e-8)
    assert ref.converged and 0.0 <= ref.certified_gap <= 1e-8


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_lad_ball_wide_data_certifies_the_least_norm_interpolant(seed):
    # d > m and no noise: the ball holds the least-norm interpolant, f* = 0.
    # The smooth dual alone stops at gaps of 0.09 to 0.11 here.
    p = set_instance("lad", L2BallIndicator(3.0), d=100, m=50, seed=seed, noise=0.0)
    ref = reference_optimum(p, tol=1e-8)
    assert ref.converged and ref.certified_gap <= 1e-8
    assert ref.f_star <= 1e-8


@pytest.mark.parametrize("scale", [10.0, 100.0])
def test_logistic_simplex_certifies_on_scaled_data(scale):
    # at scale 10, f(z) - f(y) cancels near the optimum, and a backtracking
    # test on f values raised L until the method stopped at a gap of 2e-8;
    # at scale 100, without the momentum reset it stopped at 1e-7
    A, b, _ = synthetic_sparse_data("logistic", d=50, m=120, k=5, noise=0.2, seed=2)
    p = build_problem("logistic", SimplexIndicator(), EN, A=scale * A, b=b)
    ref = reference_optimum(p, tol=1e-8)
    assert ref.converged and ref.certified_gap <= 1e-8


def test_a_zero_subgradient_on_an_open_box_side_is_no_certificate():
    """On BoxIndicator(-inf, 1) with data column 2 zeroed, g_2 = 0 meets
    the infinite bound: it adds 0 to the box's support, with no warning,
    while the g_j > 0 of the other columns reach the open side, so the
    certificate at x = 0 is -inf and its gap inf, not 0 (f(0) = 0.693,
    f* = 0.3996).  A nan bound is no bound either."""
    A, b, _ = synthetic_sparse_data("logistic", d=4, m=40, k=1, noise=0.5, seed=3)
    A[:, 2] = 0.0
    p = build_problem("logistic", BoxIndicator(-np.inf, 1.0), EU, A=A, b=b)
    x = np.zeros(4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lower = lower_bound_certificate(p, x)
        ref = reference._finish(p, x, lower, "test", 1e-8)
    assert lower == -math.inf
    assert (ref.certified_gap, ref.converged) == (math.inf, False)
    ref = reference._finish(p, x, math.nan, "test", 1e-8)
    assert (ref.certified_gap, ref.converged) == (math.inf, False)

    box = BoxIndicator([-np.inf, 1.0, 0.0], [1.0, np.inf, 3.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert reference._support_min(box, np.array([0.0, 2.0, -1.0]), 3) == -1.0
        assert reference._support_min(box, np.array([0.0, -2.0, -1.0]), 3) == -math.inf

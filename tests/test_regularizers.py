import math
import warnings

import numpy as np
import pytest

from conftest import l2ball_projection_oracle, refine_minimize_1d, simplex_kl_oracle
from xrda.geometry import (EuclideanMirror, MirrorDomainError,
                           NegativeEntropyMirror)
from xrda.problems import build_problem, synthetic_sparse_data
from xrda.regularizers import (MEMBERSHIP_TOL, BoxIndicator, L1Penalty,
                               L2BallIndicator, SimplexIndicator, UnsupportedPairError,
                               ZeroRegularizer, _prox_euclid_l1, canonical_argmin,
                               ensure_supported, in_subdifferential,
                               mirror_prox, supported_pairs)
from xrda.schedules import leap_frog, power_steps
from xrda.solver import run

EU = EuclideanMirror()
EN = NegativeEntropyMirror()


def test_values():
    assert L1Penalty(2.0).value([1.0, -1.5]) == 5.0
    assert SimplexIndicator().value([0.25, 0.75]) == 0.0
    assert SimplexIndicator().value([0.3, 0.8]) == float("inf")
    box = BoxIndicator(-1.0, 1.0)
    assert box.value([0.5, -1.0]) == 0.0
    assert box.value([0.5, -1.5]) == float("inf")
    ball = L2BallIndicator(1.0)
    assert ball.value([0.6, 0.8]) == 0.0
    assert ball.value([0.8, 0.8]) == float("inf")
    assert ZeroRegularizer().value([3.0, 4.0]) == 0.0


def test_membership_tolerance():
    # points a hair outside the set still evaluate to 0
    assert SimplexIndicator().value([0.5, 0.5 + 5e-10]) == 0.0
    assert BoxIndicator(0.0, 1.0).value([1.0 + 5e-10]) == 0.0
    assert L2BallIndicator(1.0).value([1.0 + 5e-10, 0.0]) == 0.0


def test_param_validation():
    with pytest.raises(ValueError):
        L1Penalty(0.0)
    with pytest.raises(ValueError):
        L2BallIndicator(-1.0)
    with pytest.raises(ValueError):
        BoxIndicator(1.0, 0.0)


def test_box_bounds_need_one_length():
    with pytest.raises(ValueError, match=r"^box bounds have 3 and 5 entries; give "
                                         r"scalars or vectors of one length$"):
        BoxIndicator([0, 0, 0], [1] * 5)
    with pytest.raises(ValueError, match="scalars or non-empty vectors"):
        BoxIndicator(np.zeros((2, 2)), 1.0)
    with pytest.raises(ValueError, match="scalars or non-empty vectors"):
        BoxIndicator([], 1.0)
    for lo, hi in ((0.0, [1] * 5), ([0.0], [1] * 5), ([0] * 5, 1.0), ([0] * 5, [1] * 5)):
        assert BoxIndicator(lo, hi).value(np.full(5, 0.5)) == 0.0


@pytest.mark.parametrize("lo, hi", [(np.nan, 1.0), (0.0, np.nan), ([0.0, np.nan], 1.0),
                                    ([0.0, 0.0], [1.0, np.nan])])
def test_box_bounds_must_not_be_nan(lo, hi):
    # a nan bound used to pass: its value was inf and its backward step nan
    with pytest.raises(ValueError, match="^box bounds must not be nan$"):
        BoxIndicator(lo, hi)
    box = BoxIndicator(-np.inf, 1.0)  # an infinite bound leaves that side open
    assert box.value([-1e300, 1.0]) == 0.0


def test_registry():
    assert ("euclidean", "l1") in supported_pairs()
    ensure_supported(EU, L1Penalty(1.0))
    ensure_supported(EN, SimplexIndicator())
    ensure_supported(EN, ZeroRegularizer())
    with pytest.raises(UnsupportedPairError, match="supported pairs"):
        ensure_supported(EN, L1Penalty(1.0))
    with pytest.raises(UnsupportedPairError):
        ensure_supported(EU, SimplexIndicator())
    with pytest.raises(UnsupportedPairError):
        mirror_prox(SimplexIndicator(), EU, np.array([0.5, 0.5]), 1.0)


def test_soft_threshold_example():
    out = mirror_prox(L1Penalty(0.5), EU, np.array([1.2, -0.3, 0.5]), 1.0)
    assert np.array_equal(out, np.array([0.7, 0.0, 0.0]))


def test_prox_zero_step_is_identity():
    y = np.array([2.0, -3.0, 0.25])
    for reg in (L1Penalty(1.0), BoxIndicator(-1, 1), L2BallIndicator(0.5),
                ZeroRegularizer()):
        assert np.array_equal(mirror_prox(reg, EU, y, 0.0), y)
    ypos = np.array([2.0, 3.0])
    for reg in (SimplexIndicator(), ZeroRegularizer()):
        assert np.array_equal(mirror_prox(reg, EN, ypos, 0.0), ypos)


def test_prox_entropy_simplex_example():
    out = mirror_prox(SimplexIndicator(), EN, np.array([0.2, 0.6]), 3.7)
    assert np.allclose(out, [0.25, 0.75], rtol=1e-15)
    out2 = mirror_prox(SimplexIndicator(), EN, np.array([0.2, 0.6]), 0.001)
    assert np.array_equal(out, out2)  # indicator prox ignores the step size
    with pytest.raises(MirrorDomainError):
        mirror_prox(SimplexIndicator(), EN, np.array([0.0, 1.0]), 1.0)


def test_prox_negative_step_rejected():
    with pytest.raises(ValueError, match="nonnegative"):
        mirror_prox(L1Penalty(1.0), EU, np.zeros(2), -0.1)


@pytest.mark.parametrize("theta", [0.37, 2.0, 1e-300, 1e300])
def test_soft_threshold_equals_sign_times_shrink(theta):
    """The l1 backward step y - clip(y, -theta, theta) equals sign(y)
    max(|y| - theta, 0) under == for random y of many scales, zeros,
    +-theta and their neighbours, +-inf and nan; only the sign of a zero
    can differ, and the clip form gives +0."""
    rng = np.random.default_rng(11)
    y = np.concatenate([
        rng.standard_normal(5000) * 10.0 ** rng.integers(-8, 8, 5000),
        [0.0, -0.0, theta, -theta, np.nextafter(theta, 0.0), np.nextafter(theta, np.inf),
         -np.nextafter(theta, 0.0), -np.nextafter(theta, np.inf),
         np.inf, -np.inf, np.nan]])
    got = _prox_euclid_l1(L1Penalty(theta), y, 1.0)
    want = np.sign(y) * np.maximum(np.abs(y) - theta, 0.0)
    assert np.array_equal(got, want, equal_nan=True)
    assert not np.signbit(got[got == 0.0]).any()


def test_soft_threshold_vs_numeric_oracle():
    # s * lam = 0.37 on mixed signs, including an exact zero
    lam, s = 0.37, 1.0
    y = np.array([0.9, -1.1, 0.2, 0.0])
    out = mirror_prox(L1Penalty(lam), EU, y, s)
    assert np.allclose(out, [0.53, -0.73, 0.0, 0.0], atol=1e-12)
    for j in range(y.size):
        num = refine_minimize_1d(
            lambda z: 0.5 * (z - y[j]) ** 2 + s * lam * abs(z), -3.0, 3.0)
        assert out[j] == pytest.approx(num, abs=1e-6)


@pytest.mark.parametrize("reg,lo,hi", [
    (L1Penalty(0.8), -4.0, 4.0),
    (BoxIndicator(-0.5, 1.25), -0.5, 1.25),
    (ZeroRegularizer(), -4.0, 4.0),
])
def test_euclid_separable_prox_vs_oracle(reg, lo, hi, rng):
    for _ in range(20):
        y = rng.uniform(-2.5, 2.5, size=5)
        s = float(rng.uniform(0.01, 2.0))
        out = mirror_prox(reg, EU, y, s)
        for j in range(y.size):
            if reg.kind == "box":
                obj = lambda z: 0.5 * (z - y[j]) ** 2
            elif reg.kind == "l1":
                obj = lambda z: 0.5 * (z - y[j]) ** 2 + s * reg.lam * abs(z)
            else:
                obj = lambda z: 0.5 * (z - y[j]) ** 2
            num = refine_minimize_1d(obj, lo, hi)
            assert out[j] == pytest.approx(num, abs=1e-6)


def test_ball_prox_vs_oracle(rng):
    reg = L2BallIndicator(1.5)
    for _ in range(10):
        y = rng.uniform(-2.0, 2.0, size=4)
        out = mirror_prox(reg, EU, y, float(rng.uniform(0.1, 2.0)))
        num = l2ball_projection_oracle(y, reg.radius)
        assert np.allclose(out, num, atol=1e-6)


def test_entropy_simplex_prox_vs_oracle(rng):
    reg = SimplexIndicator()
    for _ in range(10):
        y = rng.uniform(0.05, 2.0, size=4)
        out = mirror_prox(reg, EN, y, float(rng.uniform(0.1, 2.0)))
        num = simplex_kl_oracle(y)
        assert np.allclose(out, num, atol=1e-6)


def test_prox_optimality_condition(rng):
    # (grad phi(y) - grad phi(x)) / s must be a subgradient of G at x
    for reg in (L1Penalty(0.6), BoxIndicator(-1.0, 0.5), ZeroRegularizer()):
        for _ in range(50):
            y = rng.uniform(-2.0, 2.0, size=6)
            s = float(rng.uniform(0.05, 3.0))
            x = mirror_prox(reg, EU, y, s)
            h = (y - x) / s
            assert in_subdifferential(reg, h, x, 1e-8)


def test_prox_dominance(rng):
    # the prox output beats 100 random competitors on D(z, y) + s G(z)
    cases = [
        (L1Penalty(0.5), EU, lambda: rng.uniform(-2, 2, 5)),
        (BoxIndicator(-1.0, 1.0), EU, lambda: rng.uniform(-1, 1, 5)),
        (L2BallIndicator(1.0), EU, lambda: rng.standard_normal(5) * 0.4),
        (SimplexIndicator(), EN, lambda: rng.dirichlet(np.ones(5))),
    ]
    for reg, mirror, draw in cases:
        y = rng.uniform(0.1, 2.0, size=5) if mirror is EN else rng.uniform(-2, 2, 5)
        s = 0.8
        x = mirror_prox(reg, mirror, y, s)
        fx = mirror.bregman(x, y) + s * reg.value(x)
        for _ in range(100):
            z = draw()
            fz = mirror.bregman(z, y) + s * reg.value(z)
            assert fx <= fz + 1e-9


def test_euclid_prox_nonexpansive(rng):
    for reg in (L1Penalty(0.7), BoxIndicator(-0.5, 2.0), L2BallIndicator(1.2),
                ZeroRegularizer()):
        for _ in range(50):
            y1 = rng.uniform(-3, 3, 6)
            y2 = rng.uniform(-3, 3, 6)
            s = float(rng.uniform(0.0, 2.0))
            d_out = np.linalg.norm(mirror_prox(reg, EU, y1, s)
                                   - mirror_prox(reg, EU, y2, s))
            assert d_out <= np.linalg.norm(y1 - y2) + 1e-10


def test_in_subdifferential_l1():
    reg = L1Penalty(1.0)
    assert in_subdifferential(reg, np.array([1.0, -0.2]), np.array([2.0, 0.0]), 1e-8)
    assert not in_subdifferential(reg, np.array([1.2, 0.0]), np.array([2.0, 0.0]), 1e-8)
    assert not in_subdifferential(reg, np.array([-1.0, 0.0]), np.array([2.0, 0.0]), 1e-8)


def test_in_subdifferential_box():
    reg = BoxIndicator(0.0, 1.0)
    x = np.array([0.5, 1.0, 0.0])
    assert in_subdifferential(reg, np.array([0.0, 3.0, -2.0]), x, 1e-8)
    assert not in_subdifferential(reg, np.array([0.1, 3.0, -2.0]), x, 1e-8)
    assert not in_subdifferential(reg, np.array([0.0, -3.0, 0.0]), x, 1e-8)
    # x outside the box has an empty subdifferential
    assert not in_subdifferential(reg, np.zeros(3), np.array([0.5, 1.5, 0.0]), 1e-8)


def test_in_subdifferential_zero_and_unsupported():
    assert in_subdifferential(ZeroRegularizer(), np.zeros(3), np.ones(3), 1e-8)
    assert not in_subdifferential(ZeroRegularizer(), np.array([1e-3, 0, 0]),
                                  np.ones(3), 1e-8)
    with pytest.raises(NotImplementedError):
        in_subdifferential(SimplexIndicator(), np.zeros(2), np.full(2, 0.5), 1e-8)
    with pytest.raises(NotImplementedError):
        in_subdifferential(L2BallIndicator(1.0), np.zeros(2), np.zeros(2), 1e-8)


def test_canonical_argmin():
    assert np.array_equal(canonical_argmin(L1Penalty(1.0), 3), np.zeros(3))
    assert np.array_equal(canonical_argmin(ZeroRegularizer(), 2), np.zeros(2))
    assert np.array_equal(canonical_argmin(BoxIndicator(-1.0, 2.0), 2), np.zeros(2))
    assert np.array_equal(canonical_argmin(BoxIndicator(1.0, 3.0), 2),
                          np.full(2, 2.0))
    assert np.array_equal(canonical_argmin(SimplexIndicator(), 4), np.full(4, 0.25))
    assert np.array_equal(canonical_argmin(L2BallIndicator(2.0), 3), np.zeros(3))
    with pytest.raises(ValueError):
        canonical_argmin(L1Penalty(1.0), 0)


def test_a_half_open_box_has_a_finite_canonical_argmin_and_runs():
    """The midpoint where both bounds are finite, 0 clipped into the box
    elsewhere: no inf or nan, no warning, and a run starts there."""
    box = BoxIndicator([1.0, -np.inf, -np.inf, 2.0], [np.inf, np.inf, -3.0, 4.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x1 = canonical_argmin(box, 4)
        assert np.array_equal(x1, [1.0, 0.0, -3.0, 3.0])
        A, b, _ = synthetic_sparse_data("lad", d=4, m=20, k=2, noise=0.1, seed=5)
        p = build_problem("lad", box, EU, A=A, b=b)
        res = run(p, leap_frog(power_steps(0.5, 0.5)), 30, stride=10)
    assert np.array_equal(res.state.x1, x1)
    assert len(res.rows) == 3 and np.isfinite(res.state.x).all()
    assert box.value(res.state.x) == 0.0


def test_canonical_argmin_minimizes(rng):
    for reg in (L1Penalty(0.5), BoxIndicator(-1, 2), SimplexIndicator(),
                L2BallIndicator(1.0), ZeroRegularizer()):
        x = canonical_argmin(reg, 4)
        assert reg.value(x) == 0.0


def test_ball_prox_of_a_huge_point_lies_on_the_sphere():
    # y.y overflows past |y| ~ 1e154; the projection must not
    ball = L2BallIndicator(2.0)
    root2 = np.sqrt(2.0)
    out = mirror_prox(ball, EU, [1e200, 1e200], 1.0)
    assert np.allclose(out, [root2, root2], rtol=1e-15, atol=0.0)
    out = mirror_prox(ball, EU, [1.7e308, -1.7e308, 3.0], 1.0)
    assert np.allclose(out[:2], [root2, -root2], rtol=1e-15, atol=0.0)
    assert 0.0 <= out[2] < 1e-300


def test_ball_prox_is_the_plain_rescaling_bit_for_bit(rng):
    # the scaled norm changes no bit where the plain y.y is finite
    ball = L2BallIndicator(1.5)
    for _ in range(200):
        y = rng.standard_normal(int(rng.integers(1, 50))) * 10.0 ** rng.uniform(-100, 100)
        nrm = float(np.sqrt(np.dot(y, y)))
        want = y if nrm <= ball.radius else y * (ball.radius / nrm)
        assert mirror_prox(ball, EU, y, 1.0).tobytes() == want.tobytes()


def stack_of_points(kind, K, d, rng):
    """K rows for regularizer kind, inside and outside its set."""
    if kind == "simplex":
        X = rng.dirichlet(np.ones(d), size=K)
        X[1::2] *= rng.uniform(0.5, 1.5, (len(X[1::2]), 1))
        X[2::3, 0] = -1e-3
        return X
    X = rng.standard_normal((K, d)) * rng.uniform(0.05, 1.0, (K, 1))
    X[1::3] *= 4.0
    return X


def one_row_value(reg, x):
    """G at one point, written out as plain numpy expressions."""
    tol = MEMBERSHIP_TOL
    if reg.kind == "l1":
        return reg.lam * float(np.sum(np.abs(x)))
    if reg.kind == "box":
        lo, hi = reg.bounds(x.size)
        inside = np.all(x >= lo - tol) and np.all(x <= hi + tol)
    elif reg.kind == "simplex":
        inside = np.all(x >= -tol) and abs(float(np.sum(x)) - 1.0) <= tol
    elif reg.kind == "l2ball":
        inside = float(np.sqrt(np.dot(x, x))) <= reg.radius + tol
    else:
        return 0.0
    return 0.0 if inside else float("inf")


STACKED = {"l1": L1Penalty(0.37),
           "box": BoxIndicator(-0.6, [0.5, 0.7, 0.9, 1.1, 1.3, 0.4, 0.6]),
           "simplex": SimplexIndicator(), "l2ball": L2BallIndicator(1.3),
           "zero": ZeroRegularizer()}


@pytest.mark.parametrize("K", [1, 3, 9, 64])
@pytest.mark.parametrize("kind", sorted(STACKED))
def test_value_of_a_stack_is_each_row_bitwise(kind, K):
    """Each of K points, inside and outside the set: ``value`` is a float,
    bitwise ``_value`` and the plain numpy formula, and leaves the point
    as it was."""
    reg = STACKED[kind]
    X = stack_of_points(kind, K, 7, np.random.default_rng(K))
    kept = X.copy()
    per_row = np.array([reg.value(x) for x in X])
    assert all(type(reg.value(x)) is float for x in X)
    assert per_row.tobytes() == np.array([float(reg._value(x)) for x in X]).tobytes()
    assert per_row.tobytes() == np.array([one_row_value(reg, x) for x in X]).tobytes()
    assert X.tobytes() == kept.tobytes()
    if kind in ("box", "simplex", "l2ball") and K > 1:
        assert 0.0 in per_row and np.inf in per_row


def test_ball_value_of_a_huge_point_is_inf_without_overflow():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert L2BallIndicator(2.0).value([1e200, 1e200]) == np.inf
        assert L2BallIndicator(2.0).value([1.7e308, -1.7e308, 1.7e308]) == np.inf
        assert L2BallIndicator(2.0).value([1e-320, 0.0]) == 0.0
        assert L2BallIndicator(2.0).value([1.0, 1.0]) == 0.0
        assert L2BallIndicator(2.0).value([1e-310, -1e-310]) == 0.0


def test_ball_membership_is_the_plain_norm_test_at_every_scale(rng):
    tol = 1e-9
    for _ in range(400):
        x = rng.standard_normal(int(rng.integers(1, 40))) * 10.0 ** rng.uniform(-100, 100)
        nrm = float(np.sqrt(np.dot(x, x)))
        radius = nrm * float(rng.uniform(0.5, 1.5))
        want = 0.0 if nrm <= radius + tol else np.inf
        assert L2BallIndicator(radius).value(x) == want


def test_ball_membership_holds_where_the_plain_squares_overflow(rng):
    # x.x overflows or underflows here; math.hypot scales, as _value does
    for exponent in (-300, -200, 160, 250, 300):
        for _ in range(50):
            x = rng.standard_normal(int(rng.integers(1, 40))) * 10.0 ** exponent
            nrm = math.hypot(*x)
            radius = nrm * float(rng.uniform(0.5, 1.5))
            want = 0.0 if nrm <= radius + 1e-9 else np.inf
            assert L2BallIndicator(radius).value(x) == want

"""Validation at the boundary, private kernels in the loop.

Public functions validate their vector arguments (``as_vector``); the
solver's step calls the kernels behind them on vectors it made itself.
These tests pin that split: each kernel equals its public function
bitwise, the public functions still reject bad input, a run's
validation count does not grow with its length, and an overflowing
schedule still fails loudly, with exit code 2 from the command line.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from xrda import geometry, problems, regularizers
from xrda.geometry import EuclideanMirror, NegativeEntropyMirror
from xrda.problems import build_problem, synthetic_sparse_data
from xrda.regularizers import (BoxIndicator, L1Penalty, L2BallIndicator,
                               SimplexIndicator, ZeroRegularizer, _prox,
                               mirror_prox, supported_pairs)
from xrda.schedules import leap_frog, power_steps
from xrda.solver import init, run, step

EU = EuclideanMirror()
EN = NegativeEntropyMirror()
MIRRORS = {"euclidean": EU, "entropy": EN}
REGULARIZERS = {"l1": L1Penalty(0.3), "box": BoxIndicator(-0.5, 0.5),
                "simplex": SimplexIndicator(), "l2ball": L2BallIndicator(1.5),
                "zero": ZeroRegularizer()}
SRC = Path(__file__).resolve().parent.parent / "src"


def same(a, b):
    """Bitwise equality of two float arrays or scalars."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def points(kind, seed=0, d=7):
    rng = np.random.default_rng(seed)
    if kind == "entropy":
        return [rng.random(d) + 0.01, rng.dirichlet(np.ones(d)), np.full(d, 1.0 / d)]
    return [rng.standard_normal(d) * 2.0, np.zeros(d), rng.uniform(-0.5, 0.5, d)]


@pytest.mark.parametrize("kind", ["euclidean", "entropy"])
def test_mirror_kernels_equal_the_public_maps(kind):
    mirror = MIRRORS[kind]
    for x in points(kind):
        assert same(mirror._grad(x), mirror.grad(x))
        v = mirror.grad(x)
        assert same(mirror._grad_inverse(v), mirror.grad_inverse(v))
        assert mirror._grad(x) is not x  # a copy, as the public map returns


@pytest.mark.parametrize("kind", sorted(REGULARIZERS))
def test_regularizer_kernels_equal_value(kind):
    reg = REGULARIZERS[kind]
    for x in points("entropy") + points("euclidean"):
        assert same(reg._value(x), reg.value(x))


@pytest.mark.parametrize("pair", supported_pairs(), ids="+".join)
def test_prox_kernel_equals_mirror_prox(pair):
    mirror, reg = MIRRORS[pair[0]], REGULARIZERS[pair[1]]
    for y in points(pair[0], seed=3):
        for s in (0.0, 1e-3, 0.4, 7.0):
            assert same(_prox(reg, mirror, y, s), mirror_prox(reg, mirror, y, s))


BAD_VECTORS = [np.array([1.0, np.nan]), np.array([np.inf, 0.5]),
               np.array([0.2, -np.inf]), np.ones((2, 2)), np.array(0.5), np.array([])]
BAD_IDS = ["nan", "inf", "-inf", "2-d", "0-d", "empty"]


@pytest.mark.parametrize("bad", BAD_VECTORS, ids=BAD_IDS)
@pytest.mark.parametrize("kind", ["euclidean", "entropy"])
def test_public_mirror_maps_still_validate(kind, bad):
    mirror = MIRRORS[kind]
    for fn in (mirror.grad, mirror.grad_inverse):
        with pytest.raises(ValueError):
            fn(bad)


@pytest.mark.parametrize("bad", BAD_VECTORS, ids=BAD_IDS)
@pytest.mark.parametrize("kind", sorted(REGULARIZERS))
def test_public_regularizer_value_still_validates(kind, bad):
    with pytest.raises(ValueError):
        REGULARIZERS[kind].value(bad)


@pytest.mark.parametrize("bad", BAD_VECTORS, ids=BAD_IDS)
@pytest.mark.parametrize("pair", supported_pairs(), ids="+".join)
def test_public_mirror_prox_still_validates(pair, bad):
    mirror, reg = MIRRORS[pair[0]], REGULARIZERS[pair[1]]
    with pytest.raises(ValueError):
        mirror_prox(reg, mirror, bad, 0.5)


def test_entropy_kernel_calls_a_non_finite_dual_point_a_value_error():
    # an overflowed dual point is a ValueError, as at the public boundary;
    # a finite one whose exponential overflows stays an OverflowError
    with pytest.raises(ValueError, match="non-finite"):
        EN._grad_inverse(np.array([0.5, np.inf]))
    with pytest.raises(OverflowError):
        EN._grad_inverse(np.array([0.5, 800.0]))


@pytest.mark.parametrize("loss, batch", [("logistic", 1), ("lad", 3)])
def test_step_draws_the_rows_sample_subgradient_draws(loss, batch):
    A, b, _ = synthetic_sparse_data(loss, d=6, m=30, k=2, noise=0.2, seed=8)
    p = build_problem(loss, L1Penalty(0.1), EU, A=A, b=b, batch_size=batch)
    x = np.random.default_rng(1).standard_normal(6)
    ours, public = np.random.default_rng(11), np.random.default_rng(11)
    for _ in range(20):
        idx, g = p._sample(x, ours)
        sample = p.sample_subgradient(x, public)
        assert np.array_equal(idx, sample.indices)
        assert same(g, sample.value)
    assert ours.bit_generator.state == public.bit_generator.state

    # step consumes the generator exactly as sample_subgradient does
    st = init(p, leap_frog(power_steps(1.0, 0.5)))
    stepping, sampling = np.random.default_rng(5), np.random.default_rng(5)
    for _ in range(20):
        p.sample_subgradient(st.x, sampling)
        st = step(st, p, mode="stochastic", rng=stepping)
        assert stepping.bit_generator.state == sampling.bit_generator.state


def counting_as_vector(monkeypatch):
    """Count the calls of as_vector from geometry, regularizers and problems."""
    calls = []
    original = geometry.as_vector

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for module in (geometry, regularizers, problems):
        monkeypatch.setattr(module, "as_vector", counted)
    return calls


@pytest.mark.parametrize("mode", ["exact", "stochastic"])
@pytest.mark.parametrize("pair", [("euclidean", "l1"), ("entropy", "simplex")],
                         ids="+".join)
def test_validation_count_does_not_grow_with_the_run(monkeypatch, mode, pair):
    A, b, _ = synthetic_sparse_data("logistic", d=8, m=40, k=2, noise=0.3, seed=2)
    p = build_problem("logistic", REGULARIZERS[pair[1]], MIRRORS[pair[0]], A=A, b=b,
                      batch_size=2)
    calls = counting_as_vector(monkeypatch)
    counts = []
    for n in (5, 120):
        calls.clear()
        run(p, leap_frog(power_steps(0.5, 0.5)), n, mode=mode, seed=3, stride=10 ** 6)
        counts.append(len(calls))
    assert counts[0] == counts[1]


def overflowing(loss, reg, scale):
    A, b, _ = synthetic_sparse_data(loss, d=20, m=40, k=3, noise=0.5, seed=1)
    p = build_problem(loss, reg, EU, A=A, b=b, batch_size=1)
    return p, leap_frog(power_steps(scale, 0.5))


@pytest.mark.parametrize("mode", ["exact", "stochastic"])
def test_a_non_finite_objective_stops_the_run(mode):
    # the iterate itself overflows: f is nan within a few steps
    p, sched = overflowing("logistic", L1Penalty(0.1), 1.7e308)
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="objective is not finite"):
        run(p, sched, 50, mode=mode, seed=1, stride=50)


def test_a_non_finite_dual_point_stops_the_run():
    # the box clip keeps x, and so f, finite while the dual point overflows;
    # no trace row is due, so only the check at the end of the run sees it
    p, sched = overflowing("lad", BoxIndicator(-1.0, 1.0), 5e307)
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="dual point"):
        run(p, sched, 40, mode="stochastic", seed=1, stride=10 ** 6)


CLI_CFG = """\
spec_version = 1
[problem]
loss = {loss}
mirror = euclidean
{regularizer}
d = 20
m = 40
k = 3
noise = 0.5
data_seed = 1
[schedule]
preset = leap_frog
step_scale = {scale}
[run]
iterations = {iterations}
{mode}
[output]
stride = {stride}
"""
STOCH_B1 = "mode = stochastic\nseeds = 1\nbatch_size = 1"


@pytest.mark.parametrize("loss, regularizer, scale, iterations, stride, mode", [
    ("logistic", "regularizer = l1\nlambda = 0.1", "1e300", 50, 10, ""),
    ("logistic", "regularizer = l1\nlambda = 0.1", "1e300", 50, 10, STOCH_B1),
    ("lad", "regularizer = box\nbox_lo = -1\nbox_hi = 1", "5e307", 40, 1000, STOCH_B1),
], ids=["exact", "stochastic-b1", "box-dual-b1"])
def test_cli_overflowing_schedule_exits_2(tmp_path, loss, regularizer, scale,
                                          iterations, stride, mode):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(CLI_CFG.format(loss=loss, regularizer=regularizer, scale=scale,
                                  iterations=iterations, stride=stride, mode=mode))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    out = tmp_path / "o"
    proc = subprocess.run([sys.executable, "-m", "xrda", "--config", str(cfg),
                           "--out", str(out), "run"],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 2, proc.stderr
    assert "finite" in proc.stderr.splitlines()[-1]
    assert not list(out.glob("exp_*.csv"))


ENTROPY_CFG = CLI_CFG.replace("mirror = euclidean", "mirror = entropy").replace(
    "iterations = {iterations}", "iterations = {iterations}\nreference_tol = inf")


@pytest.mark.parametrize("loss", ["lad", "logistic"])
@pytest.mark.parametrize("mode", ["", STOCH_B1], ids=["exact", "stochastic-b1"])
def test_cli_entropy_overflow_exits_2(tmp_path, loss, mode):
    # exp overflows inverting the entropy mirror at a finite dual point, an
    # OverflowError; reference_tol = inf skips the reference solve, which
    # this test does not need
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(ENTROPY_CFG.format(loss=loss, regularizer="regularizer = simplex",
                                      scale="1e300", iterations=50, stride=10,
                                      mode=mode))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    out = tmp_path / "o"
    proc = subprocess.run([sys.executable, "-m", "xrda", "--config", str(cfg),
                           "--out", str(out), "run"],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "overflow" in proc.stderr.splitlines()[-1]
    assert not list(out.glob("exp_*.csv"))

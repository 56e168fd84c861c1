"""Validation at the boundary, private kernels in the loop.

Public functions validate their vector arguments (``as_vector``); the
solver's step calls the kernels behind them on vectors it made itself.
These tests pin that split: each kernel equals its public function
bitwise, the public functions still reject bad input, a run's
validation count does not grow with its length, and an overflowing
schedule still fails loudly, with exit code 2 from the command line.
A stochastic run draws its samples a block at a time through
``_draw``, and replays exactly a loop of single steps that keeps the
trace rows' points and the last iterate and evaluates them in the run's
blocks.
"""

import os
import subprocess
import sys
from dataclasses import astuple
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import kept_points, replay_evaluation
from xrda import geometry, problems, regularizers
from xrda.geometry import EuclideanMirror, NegativeEntropyMirror
from xrda.problems import CompositeProblem, build_problem, synthetic_sparse_data
from xrda.regularizers import (BoxIndicator, L1Penalty, L2BallIndicator,
                               SimplexIndicator, ZeroRegularizer, _prox,
                               mirror_prox, supported_pairs)
from xrda.schedules import leap_frog, power_steps
from xrda.solver import init, run, step, trace_row

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
        idx, rows, targets = p._draw(ours, 1)
        g = p._sampled_subgradient(x, ours, (rows[0], targets[0]))
        saved = public.bit_generator.state
        sample = p.sample_subgradient(x, public)
        replay = np.random.default_rng()
        replay.bit_generator.state = saved
        assert np.array_equal(idx[0], p._draw(replay, 1)[0][0])
        assert same(g, sample)
    assert ours.bit_generator.state == public.bit_generator.state

    # step consumes the generator exactly as sample_subgradient does
    st = init(p, leap_frog(power_steps(1.0, 0.5)))
    stepping, sampling = np.random.default_rng(5), np.random.default_rng(5)
    for _ in range(20):
        p.sample_subgradient(st.x, sampling)
        st = step(st, p, mode="stochastic", rng=stepping)
        assert stepping.bit_generator.state == sampling.bit_generator.state


def block_problem(loss, batch):
    """m = 8000 rows, d = 6."""
    if loss == "linear":
        return build_problem("linear", L1Penalty(0.05), EU, c=np.linspace(-1.0, 1.0, 6))
    A, b, _ = synthetic_sparse_data(loss, d=6, m=8000, k=2, noise=0.3, seed=4)
    return build_problem(loss, L1Penalty(0.05), EU, A=A, b=b, batch_size=batch)


@pytest.mark.parametrize("callback", [False, True], ids=["blocks", "callback"])
@pytest.mark.parametrize("loss, batch", [("lad", 1), ("logistic", 1), ("lad", 3),
                                         ("logistic", 3), ("linear", 1)])
def test_run_replays_a_loop_of_single_steps(loss, batch, callback, monkeypatch):
    p = block_problem(loss, batch)
    # a block of draws holds 65 steps' rows
    monkeypatch.setattr(problems, "_DRAW_BLOCK", 65 * 8 * p.batch_size * p.d)
    assert p._draw_width() == 65
    sched = leap_frog(power_steps(0.5, 0.5))
    n_iters, stride = 150, 7  # 150 = 2 * 65 + 20, and 7 does not divide 65
    reference = SimpleNamespace(f_star=-1.0, x_star=np.full(p.d, 0.1))
    counts = []
    draw = p._draw
    p._draw = lambda rng, count: counts.append(count) or draw(rng, count)
    seen = []
    result = run(p, sched, n_iters, mode="stochastic", seed=12, stride=stride,
                 reference=reference,
                 callback=(lambda st: seen.append(st.x.copy())) if callback else None)

    # one draw per block of at most _draw_width() steps, none past n_iters
    assert counts == [65, 65, 20]
    del p._draw

    # one step, and one draw, at a time, keeping each trace row's iterate
    # and averaged iterate and the last iterate, with or without a
    # callback; the kept points are evaluated in run's blocks
    state = init(p, sched)
    d_star = p.mirror.bregman(reference.x_star, state.x1)
    rng = np.random.default_rng(12)
    xs, rows, kept = [], [], []
    for i in range(n_iters):
        _, drawn, targets = p._draw(rng, 1)
        state = step(state, p, "stochastic", rng, _rows=(drawn[0], targets[0]))
        xs.append(state.x.copy())
        logged = state.n % stride == 0
        if logged:
            rows.append(trace_row(state, p, reference, d_star))
        if logged or i == n_iters - 1:
            kept += kept_points(state, logged)
    blocks = replay_evaluation(p, state, kept, rows, reference)
    if loss != "linear":  # 43 points in blocks of 16 at m = 8000
        assert [len(block) for block in blocks] == [16, 16, 11]
    if loss == "linear":
        assert rng.bit_generator.state == np.random.default_rng(12).bit_generator.state
    assert same(result.state.x, state.x)
    assert same(result.state.best_f, state.best_f)
    assert same(result.state.best_x, state.best_x)
    assert same(result.state.f_x, state.f_x)
    assert len(result.rows) == len(rows) == n_iters // stride
    for got, want in zip(result.rows, rows):
        assert same(astuple(got), astuple(want))
    if callback:
        assert len(seen) == n_iters
        assert all(same(a, b) for a, b in zip(seen, xs))


class Gathered:
    """Stands in for A or b: indexing returns the index array itself."""

    def __getitem__(self, idx):
        return idx


SIZES = [1, 2, 3, 40, 8000, 10001, 2 ** 31 + 5]


@pytest.mark.parametrize("m, batch", [(m, 1) for m in SIZES]
                         + [(m, 3) for m in SIZES if m >= 3])
def test_a_block_draw_is_successive_single_draws(m, batch):
    # a problem of 2^31 rows does not fit in memory; _draw reads only these
    fake = SimpleNamespace(loss="lad", m=m, batch_size=batch, A=Gathered(), b=Gathered())
    for count in (1, 7, 65):
        ours, single = np.random.default_rng(m + count), np.random.default_rng(m + count)
        idx, A, b = CompositeProblem._draw(fake, ours, count)
        want = [CompositeProblem._draw(fake, single, 1)[0] for _ in range(count)]
        assert idx.shape == (count, batch) and idx.dtype == want[0].dtype
        assert np.array_equal(idx, np.concatenate(want))
        assert A is idx and b is idx
        assert ours.bit_generator.state == single.bit_generator.state


@pytest.mark.parametrize("loss, batch", [("lad", 1), ("logistic", 1), ("lad", 3)])
def test_a_block_draw_gathers_the_rows_of_its_indices(loss, batch):
    p = block_problem(loss, batch)
    idx, A, b = p._draw(np.random.default_rng(2), 65)
    assert A.shape == (65, batch, p.d) and b.shape == (65, batch)
    assert same(A, p.A[idx]) and same(b, p.b[idx])
    # each draw's rows are laid out as A[idx] of that draw alone, so the
    # matrix products of its subgradient take the same bits
    assert all(A[j].flags["C_CONTIGUOUS"] for j in range(65))
    assert p.A[idx[0]].flags["C_CONTIGUOUS"]


def bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


@pytest.mark.parametrize("loss", ["lad", "logistic"])
def test_one_row_subgradient_is_the_rows_subgradient_bitwise(loss):
    rng = np.random.default_rng(31)
    d, m = 9, 50
    A = rng.standard_normal((m, d))
    A[:, [2, 5]] = 0.0                       # zero entries in every row
    A[rng.random((m, d)) < 0.2] = 0.0
    b = rng.choice([-1.0, 1.0], size=m) if loss == "logistic" else rng.standard_normal(m)
    p = build_problem(loss, L1Penalty(0.1), EU, A=A, b=b, batch_size=1)
    signed_zeros = 0
    for trial in range(400):
        i = [int(rng.integers(m))]
        a = p.A[i]
        x = rng.standard_normal(d)
        x[rng.random(d) < 0.3] = 0.0         # zero entries in x
        r = float((a @ x)[0])
        if trial % 4 == 1 and r != 0.0:
            # |r| near 800: the logistic weight expit(-b r) underflows to 0
            x *= rng.choice([-1.0, 1.0]) * 800.0 / r
        bi = p.b[i]
        if loss == "lad" and trial % 4 == 2:
            bi = a @ x                        # r = b: the weight sign(0) is 0
        got = p._row_subgradient(x, a, bi)
        want = p._rows_subgradient(x, a, bi)
        assert np.array_equal(bits(got), bits(want)), (trial, got, want)
        signed_zeros += int(np.any((want == 0.0) & (a[0] != 0.0)))
    # the cases where a_j w is -0 were reached, so the + 0.0 is exercised
    assert signed_zeros > 20


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
    ("lad", "regularizer = box\nbox_lo = -1\nbox_hi = 1", "5e307", 40, None, STOCH_B1),
], ids=["exact", "stochastic-b1", "box-dual-b1"])
def test_cli_overflowing_schedule_exits_2(tmp_path, loss, regularizer, scale,
                                          iterations, stride, mode):
    # box-dual-b1 logs no trace row, so that only the end-of-run check of
    # the dual point can stop it; a given stride must log one, so it takes
    # the default stride of 100
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(CLI_CFG.format(loss=loss, regularizer=regularizer, scale=scale,
                                  iterations=iterations, stride=stride, mode=mode)
                   .replace("stride = None\n", ""))
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

import itertools
import os

import mpmath
import numpy as np
import pytest

from xrda.geometry import EuclideanMirror, NegativeEntropyMirror, dual_norm
from xrda.problems import (CompositeProblem, build_problem, read_dense_matrix,
                           synthetic_sparse_data, write_dense_matrix)
from xrda.regularizers import L1Penalty, SimplexIndicator, ZeroRegularizer

EU = EuclideanMirror()
EN = NegativeEntropyMirror()


def lad_identity(reg=None):
    return build_problem("lad", reg or ZeroRegularizer(), EU,
                         A=np.eye(2), b=np.array([1.0, 1.0]))


def test_logistic_at_zero():
    p = build_problem("logistic", ZeroRegularizer(), EU,
                      A=np.array([[1.0]]), b=np.array([1.0]))
    assert p.loss_value(np.zeros(1)) == pytest.approx(np.log(2.0), rel=1e-15)
    assert p.subgradient(np.zeros(1)) == pytest.approx(-0.5, rel=1e-15)


def test_logistic_large_margin_stable():
    p = build_problem("logistic", ZeroRegularizer(), EU,
                      A=np.array([[1.0]]), b=np.array([1.0]))
    assert p.loss_value(np.array([1000.0])) == 0.0  # exp(-1000) underflows cleanly
    assert p.loss_value(np.array([-1000.0])) == pytest.approx(1000.0, rel=1e-15)
    assert np.isfinite(p.subgradient(np.array([-1000.0]))).all()
    assert p.subgradient(np.array([-1000.0])) == pytest.approx(-1.0, rel=1e-12)


def test_lad_value_and_flat_subgradient():
    p = lad_identity()
    assert p.loss_value(np.zeros(2)) == 1.0
    assert p.objective(np.zeros(2)) == 1.0
    # residual exactly zero contributes nothing: sign(0) = 0
    assert np.array_equal(p.subgradient(np.array([1.0, 1.0])), np.zeros(2))
    assert np.array_equal(p.subgradient(np.array([1.0, 0.0])),
                          np.array([0.0, -0.5]))


def test_logistic_gradient_finite_diff(rng):
    A = rng.standard_normal((7, 4))
    b = rng.choice([-1.0, 1.0], size=7)
    p = build_problem("logistic", ZeroRegularizer(), EU, A=A, b=b)
    for _ in range(5):
        x = rng.standard_normal(4)
        g = p.subgradient(x)
        for j in range(4):
            e = np.zeros(4)
            e[j] = 1e-6
            num = (p.loss_value(x + e) - p.loss_value(x - e)) / 2e-6
            assert g[j] == pytest.approx(num, abs=1e-6)


@pytest.mark.parametrize("loss", ["lad", "logistic"])
def test_subgradient_inequality(loss, rng):
    A = rng.standard_normal((6, 3))
    b = rng.choice([-1.0, 1.0], size=6) if loss == "logistic" \
        else rng.standard_normal(6)
    p = build_problem(loss, ZeroRegularizer(), EU, A=A, b=b)
    for _ in range(200):
        x = rng.standard_normal(3)
        z = rng.standard_normal(3)
        g = p.subgradient(x)
        assert p.loss_value(z) >= p.loss_value(x) + g @ (z - x) - 1e-9


@pytest.mark.parametrize("loss,mirror,reg", [
    ("lad", EU, ZeroRegularizer()),
    ("logistic", EU, L1Penalty(0.1)),
    ("lad", EN, ZeroRegularizer()),
])
def test_subgradients_within_lipschitz_bound(loss, mirror, reg, rng):
    A = rng.standard_normal((6, 4))
    b = rng.choice([-1.0, 1.0], size=6) if loss == "logistic" \
        else rng.standard_normal(6)
    p = build_problem(loss, reg, mirror, A=A, b=b, batch_size=2)
    kind = mirror.dual_norm
    sampler = np.random.default_rng(7)
    for i in range(10_000):
        x = rng.standard_normal(4) * 2.0 if mirror is EU \
            else rng.dirichlet(np.ones(4))
        g = p.subgradient(x) if i % 2 == 0 \
            else p.sample_subgradient(x, sampler)
        assert dual_norm(g, kind) <= p.M + 1e-9


def test_lipschitz_examples():
    p = build_problem("lad", ZeroRegularizer(), EU,
                      A=np.array([[3.0, 4.0], [0.0, 1.0]]), b=np.zeros(2))
    assert p.M == 5.0
    q = build_problem("linear", ZeroRegularizer(), EN, c=[1.0, -3.0, 2.0])
    assert q.M == 3.0


@pytest.mark.parametrize("batch", [1, 2, 3, 4, 5, 6])
def test_minibatch_exactly_unbiased(batch, rng):
    A = rng.standard_normal((6, 3))
    b = rng.standard_normal(6)
    p = build_problem("lad", ZeroRegularizer(), EU, A=A, b=b, batch_size=batch)
    x = rng.standard_normal(3)
    full = p.subgradient(x)
    subsets = list(itertools.combinations(range(6), batch))
    mean = np.mean([p._rows_subgradient(x, A[list(s)], b[list(s)])
                    for s in subsets], axis=0)
    assert np.allclose(mean, full, atol=1e-12)


def test_sample_determinism_and_replay(rng):
    A = rng.standard_normal((8, 3))
    b = rng.standard_normal(8)
    p = build_problem("lad", ZeroRegularizer(), EU, A=A, b=b, batch_size=3)
    x = rng.standard_normal(3)

    g1, g2 = np.random.default_rng(42), np.random.default_rng(42)
    saved = g1.bit_generator.state
    s1 = p.sample_subgradient(x, g1)
    s2 = p.sample_subgradient(x, g2)
    assert np.array_equal(s1, s2)
    assert g1.bit_generator.state == g2.bit_generator.state
    idx, rows, targets = p._draw(np.random.default_rng(42), 1)
    assert len(set(idx[0])) == 3  # without replacement
    assert np.array_equal(s1, p._rows_subgradient(x, rows[0], targets[0]))

    # a generator state saved before the draw replays it
    g = np.random.default_rng(7)
    g.bit_generator.state = saved
    assert np.array_equal(p.sample_subgradient(x, g), s1)
    assert g.bit_generator.state == g1.bit_generator.state


@pytest.mark.parametrize("x, message", [
    ([np.nan, 0.0, 0.0, 0.0], "non-finite"), ([0.0, 0.0, 0.0], "dimension mismatch")],
    ids=["nan", "short"])
def test_a_bad_point_is_rejected_before_the_draw(x, message):
    A, b, _ = synthetic_sparse_data("lad", d=4, m=10, k=1, noise=0.1, seed=3)
    p = build_problem("lad", ZeroRegularizer(), EU, A=A, b=b, batch_size=2)
    rng = np.random.default_rng(4)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match=message):
        p.sample_subgradient(x, rng)
    assert rng.bit_generator.state == before


def test_linear_sample_is_deterministic():
    p = build_problem("linear", ZeroRegularizer(), EU, c=[2.0, -1.0])
    g = np.random.default_rng(0)
    assert np.array_equal(p.sample_subgradient(np.zeros(2), g), [2.0, -1.0])


def test_synthetic_data():
    A1, b1, x1 = synthetic_sparse_data("lad", d=30, m=12, k=4, noise=0.1, seed=5)
    A2, b2, x2 = synthetic_sparse_data("lad", d=30, m=12, k=4, noise=0.1, seed=5)
    assert np.array_equal(A1, A2) and np.array_equal(b1, b2) \
        and np.array_equal(x1, x2)
    A3, _, _ = synthetic_sparse_data("lad", d=30, m=12, k=4, noise=0.1, seed=6)
    assert not np.array_equal(A1, A3)

    assert A1.shape == (12, 30) and b1.shape == (12,)
    nz = x1[x1 != 0.0]
    assert nz.size == 4
    assert np.all((np.abs(nz) >= 1.0) & (np.abs(nz) <= 2.0))

    _, bl, _ = synthetic_sparse_data("logistic", d=10, m=40, k=3, noise=0.5, seed=1)
    assert np.all(np.abs(bl) == 1.0)


def test_synthetic_validation():
    with pytest.raises(ValueError):
        synthetic_sparse_data("linear", 4, 4, 1, 0.0, 0)
    with pytest.raises(ValueError):
        synthetic_sparse_data("lad", 4, 4, 5, 0.0, 0)
    with pytest.raises(ValueError):
        synthetic_sparse_data("lad", 4, 0, 1, 0.0, 0)
    with pytest.raises(ValueError):
        synthetic_sparse_data("lad", 4, 4, 1, -0.1, 0)


def test_matrix_file_roundtrip(tmp_path):
    arr = np.array([[1.0 / 3.0, -2.5e-17], [1e16, 0.0]])
    path = tmp_path / "A.txt"
    write_dense_matrix(path, arr)
    assert np.array_equal(read_dense_matrix(path), arr)

    vec = np.array([0.1, 0.2, 0.30000000000000004])
    vpath = tmp_path / "b.txt"
    write_dense_matrix(vpath, vec)
    assert np.array_equal(read_dense_matrix(vpath, ndmin=1), vec)


@pytest.mark.parametrize("shape", [(5, 3), (1, 4), (7,), (0,)])
def test_matrix_file_bytes_are_savetxt_bytes(tmp_path, shape):
    arr = np.random.default_rng(3).standard_normal(shape) * 10.0 ** np.arange(shape[-1])
    if arr.size:
        arr.flat[0] = -0.0
    write_dense_matrix(tmp_path / "ours.txt", arr)
    np.savetxt(tmp_path / "numpy.txt", arr, fmt="%.17g")
    assert (tmp_path / "ours.txt").read_bytes() == (tmp_path / "numpy.txt").read_bytes()


def test_a_failed_matrix_write_keeps_the_old_file(tmp_path, monkeypatch):
    path = tmp_path / "A.txt"
    write_dense_matrix(path, np.eye(2))
    old = path.read_bytes()

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="rename refused"):
        write_dense_matrix(path, np.ones((3, 3)))
    assert path.read_bytes() == old
    assert list(tmp_path.iterdir()) == [path]


def test_matrix_file_errors(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("1.0 2.0\n3.0 oops\n")
    with pytest.raises(ValueError, match="bad.txt"):
        read_dense_matrix(bad)
    ragged = tmp_path / "ragged.txt"
    ragged.write_text("1.0 2.0\n3.0\n")
    with pytest.raises(ValueError, match="ragged.txt"):
        read_dense_matrix(ragged)
    nonfinite = tmp_path / "inf.txt"
    nonfinite.write_text("1.0 inf\n")
    with pytest.raises(ValueError, match="non-finite"):
        read_dense_matrix(nonfinite)
    nan = tmp_path / "nan.txt"
    nan.write_text("1.0 2.0\nnan 3.0\n")
    with pytest.raises(ValueError, match="nan.txt has non-finite"):
        read_dense_matrix(nan)


def test_problem_validation():
    with pytest.raises(ValueError, match="unknown loss"):
        build_problem("huber", ZeroRegularizer(), EU, A=np.eye(2), b=np.zeros(2))
    with pytest.raises(ValueError, match="cost vector"):
        build_problem("linear", ZeroRegularizer(), EU)
    with pytest.raises(ValueError, match="no data matrix"):
        build_problem("linear", ZeroRegularizer(), EU, c=[1.0], A=np.eye(1))
    with pytest.raises(ValueError, match="needs a data matrix"):
        build_problem("lad", ZeroRegularizer(), EU)
    with pytest.raises(ValueError, match="2-d"):
        build_problem("lad", ZeroRegularizer(), EU, A=np.ones(3), b=np.ones(3))
    with pytest.raises(ValueError, match="labels"):
        build_problem("logistic", ZeroRegularizer(), EU,
                      A=np.eye(2), b=np.array([1.0, 0.5]))
    with pytest.raises(ValueError, match="non-finite"):
        build_problem("lad", ZeroRegularizer(), EU,
                      A=np.array([[np.nan]]), b=np.zeros(1))
    with pytest.raises(ValueError, match="batch size"):
        lad = dict(A=np.eye(2), b=np.zeros(2))
        build_problem("lad", ZeroRegularizer(), EU, batch_size=3, **lad)
    with pytest.raises(ValueError, match="batch size"):
        build_problem("lad", ZeroRegularizer(), EU, batch_size=0,
                      A=np.eye(2), b=np.zeros(2))
    # registry enforcement happens at construction
    with pytest.raises(ValueError):
        build_problem("lad", SimplexIndicator(), EU, A=np.eye(2), b=np.zeros(2))


def test_a_data_matrix_without_columns_is_refused():
    with pytest.raises(ValueError, match="data matrix must have at least one row and column"):
        build_problem("lad", ZeroRegularizer(), EU, A=np.zeros((3, 0)), b=np.zeros(3))


def test_a_3d_array_is_not_written_as_a_matrix(tmp_path):
    path = tmp_path / "cube.txt"
    with pytest.raises(ValueError, match=r"expected a 1-d or 2-d array, got shape \(2, 2, 2\)"):
        write_dense_matrix(path, np.zeros((2, 2, 2)))
    assert not path.exists()


@pytest.mark.parametrize("loss", ["lad", "logistic"])
def test_a_data_loss_refuses_a_cost_vector(loss):
    """A cost vector belongs to the linear loss alone; given with a data
    loss it is refused, not dropped."""
    with pytest.raises(ValueError, match="%s loss takes no cost vector" % loss):
        build_problem(loss, ZeroRegularizer(), EU, A=np.eye(2), b=np.ones(2),
                      c=[5.0, 5.0])


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_a_non_finite_entry_of_a_large_matrix_is_refused(bad):
    """The finiteness check finds one inf or nan among 8 million entries
    (A is 4000 x 2000, as in the d = 2000 benchmark)."""
    A = np.zeros((4000, 2000), order="F")
    A[1234, 1999] = bad
    with pytest.raises(ValueError, match="data matrix has non-finite entries"):
        build_problem("lad", ZeroRegularizer(), EU, A=A, b=np.zeros(4000))


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        build_problem("lad", ZeroRegularizer(), EU, A=np.eye(2), b=np.zeros(3))
    p = lad_identity()
    with pytest.raises(ValueError):
        p.loss_value(np.zeros(3))


@pytest.mark.parametrize("mirror", [EU, EN], ids=["euclidean", "entropy"])
def test_lipschitz_bound_matches_row_loop(mirror, rng):
    for m, d in ((1, 1), (7, 3), (50, 200), (400, 20)):
        A = rng.standard_normal((m, d)) * rng.uniform(0.1, 10.0, size=(m, 1))
        p = build_problem("lad", ZeroRegularizer(), mirror, A=A, b=np.zeros(m))
        expected = max(dual_norm(row, mirror.dual_norm) for row in A)
        assert p.M == pytest.approx(expected, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("nnz", [0, 1, 31, 32, 33, 100, 101, 400])
def test_residual_reads_only_the_support_while_it_is_sparse(nnz):
    """At d=400 the residual equals the row-major product for every support
    size, and reads only the support columns while nnz <= d/4."""
    d, m = 400, 60
    rng = np.random.default_rng(nnz)
    A_c = rng.standard_normal((m, d))
    support = rng.choice(d, size=nnz, replace=False)
    x = np.zeros(d)
    x[support] = rng.standard_normal(nnz)
    p = build_problem("lad", L1Penalty(0.1), EU, A=A_c, b=np.zeros(m))
    expected = A_c @ x
    np.testing.assert_allclose(p.residual(x), expected, rtol=1e-13,
                               atol=1e-13 * np.abs(expected).max(initial=0.0))
    if nnz < d:  # poison the other columns; p.A is its own F-ordered copy
        p.A[:, np.setdiff1d(np.arange(d), support)] = np.nan
        assert np.all(np.isfinite(p.residual(x))) == (4 * nnz <= d)


@pytest.mark.parametrize("loss, d, m", [("lad", 7, 600), ("logistic", 40, 300),
                                        ("lad", 3, 5)])
def test_synthetic_data_is_column_major_and_matches_row_major_recipe(loss, d, m):
    A, b, x = synthetic_sparse_data(loss, d, m, 2, 0.3, 11)
    rng = np.random.default_rng(11)
    A_c = rng.standard_normal((m, d))
    x_c = np.zeros(d)
    support = rng.choice(d, size=2, replace=False)
    signs = rng.choice([-1.0, 1.0], size=2)
    x_c[support] = signs * (1.0 + rng.random(2))
    response = A_c @ x_c + 0.3 * rng.standard_normal(m)
    b_c = response if loss == "lad" else np.where(response >= 0.0, 1.0, -1.0)
    assert A.flags.f_contiguous
    assert np.array_equal(A, A_c)
    assert np.array_equal(x, x_c)
    assert np.array_equal(b, b_c)


def test_problem_stores_data_column_major_without_copying_it():
    A = np.asfortranarray(np.random.default_rng(0).standard_normal((9, 4)))
    p = build_problem("lad", ZeroRegularizer(), EU, A=A, b=np.zeros(9))
    assert np.shares_memory(p.A, A)
    q = build_problem("lad", ZeroRegularizer(), EU, A=np.ascontiguousarray(A), b=np.zeros(9))
    assert q.A.flags.f_contiguous and np.array_equal(q.A, A)


RAISE_ALL = dict(over="raise", invalid="raise", divide="raise")


@pytest.mark.parametrize("z", [0.0, 1e-300, -1e-300, 1e-8, -1e-8, 1.0, -1.0,
                               36.7, -36.7, 709.0, -709.0, 745.2, -745.2,
                               800.0, -800.0, 1e6, -1e6])
def test_logistic_loss_is_softplus_to_two_ulp(z):
    """One row with label -1 makes loss_at(r) = log(1 + e^r) exactly."""
    p = build_problem("logistic", ZeroRegularizer(), EU,
                      A=np.array([[1.0]]), b=np.array([-1.0]))
    with np.errstate(**RAISE_ALL):
        got = p.loss_at(np.array([z]))
    with mpmath.workprec(200):
        exact = float(mpmath.log1p(mpmath.exp(mpmath.mpf(z))))
    assert abs(got - exact) <= 2 * np.spacing(exact)


def test_logistic_loss_matches_logaddexp_at_scale():
    A, b, x = synthetic_sparse_data("logistic", d=20, m=8000, k=4, noise=0.5, seed=7)
    p = build_problem("logistic", ZeroRegularizer(), EU, A=A, b=b)
    rng = np.random.default_rng(7)
    for r in (p.residual(x), p.residual(3.0 * x), 40.0 * rng.standard_normal(8000)):
        with np.errstate(**RAISE_ALL):
            got = p.loss_at(r)
            expected = float(np.sum(np.logaddexp(0.0, -b * r))) / 8000
        assert got == pytest.approx(expected, rel=1e-14, abs=0.0)


def count_gathered_columns(p):
    """Record the column count of each product's left operand."""
    widths = []

    class Counting(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            if ufunc is np.matmul:
                widths.append(inputs[0].shape[1])
            return getattr(ufunc, method)(*(np.asarray(v) for v in inputs), **kwargs)

    p.A = p.A.view(Counting)
    return widths


@pytest.mark.parametrize("nnz", [0, 1, 7, 8, 9, 16, 17])
def test_residual_gathers_blocks_of_at_most_512_kb(nnz):
    """At m=8192 a 512 KB block holds 8 columns; d/4 = 16 is the cutoff."""
    d, m = 64, 8192
    rng = np.random.default_rng(nnz)
    A_c = rng.standard_normal((m, d))
    x = np.zeros(d)
    x[rng.choice(d, size=nnz, replace=False)] = rng.standard_normal(nnz)
    p = build_problem("lad", L1Penalty(0.1), EU, A=A_c, b=np.zeros(m))
    widths = count_gathered_columns(p)
    expected = A_c @ x
    np.testing.assert_allclose(p.residual(x), expected, rtol=1e-13,
                               atol=1e-13 * np.abs(expected).max(initial=0.0))
    if 4 * nnz <= d:
        assert max(widths) <= 8
        assert len(widths) == max(1, -(-nnz // 8))
    else:
        assert widths == [d]


def bitwise(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("K", [1, 3, 9, 64])
@pytest.mark.parametrize("loss", ["lad", "logistic", "linear"])
def test_loss_at_of_a_stack_is_each_row_bitwise(loss, K):
    """At m = 8000, ``loss_at`` of each of K residuals is a float, bitwise
    the loss written out as plain numpy expressions, and leaves the
    residual as it was."""
    d, m = 5, 8000
    rng = np.random.default_rng(K)
    X = rng.standard_normal((K, d)) * 10.0 ** rng.uniform(-3, 2, (K, 1))
    if loss == "linear":
        p = build_problem("linear", ZeroRegularizer(), EU, c=rng.standard_normal(d))
    else:
        A, b, _ = synthetic_sparse_data(loss, d=d, m=m, k=2, noise=0.3, seed=K)
        p = build_problem(loss, L1Penalty(0.1), EU, A=A, b=b)
    rows = [p.residual(x) for x in X]
    kept = [np.copy(r) for r in rows]
    per_row = [p.loss_at(r) for r in rows]
    assert all(bitwise(r, k) for r, k in zip(rows, kept))
    if loss != "linear":
        assert all(type(v) is float for v in per_row)
        assert bitwise(per_row, [one_row_loss(loss, r, p.b) for r in rows])


@pytest.mark.parametrize("m, d", [(30, 8), (9000, 8), (8000, 200)])
def test_block_residuals_are_the_column_block_product_bitwise(m, d):
    """``_residuals`` of K >= 2 points is ``X @ A'`` with one point a row
    of X: a C-ordered (K, m) block, one contiguous residual per row.  At
    the shapes of the determinism sweep (m = 30 and 9000, d = 8) and of
    the stochastic benchmark (m = 8000, d = 200) its rows are bitwise the
    columns of ``A @ X'``, the product of the same points as columns.
    (This is OpenBLAS's rounding, not a law: at m = 300, d = 40 the two
    orders differ in last bits.)"""
    A, b, _ = synthetic_sparse_data("logistic", d=d, m=m, k=2, noise=0.3, seed=m)
    p = build_problem("logistic", L1Penalty(0.1), EU, A=A, b=b)
    rng = np.random.default_rng(d)
    for K in (2, 3, 8, 14, 16, 17, 43):
        xs = [rng.standard_normal(d) * (rng.random(d) < 0.5) for _ in range(K)]
        got = p._residuals(xs)
        assert got.flags.c_contiguous
        assert bitwise(got, (p.A @ np.stack(xs, axis=1)).T)


def one_row_loss(loss, r, b):
    """The loss of one residual, written out as plain numpy expressions."""
    if loss == "lad":
        return float(np.sum(np.abs(r - b))) / r.size
    z = -b * r
    return float(np.sum(np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z))))) / r.size


@pytest.mark.parametrize("m", [1, 2, 3, 40, 8000, 10001, 20000, 10**6])
def test_a_batch_of_one_draws_what_choice_draws(m):
    """integers(m, size=1) gives the index and generator state of
    choice(m, size=1, replace=False), so batch-1 runs replay unchanged."""
    ours, choosing = np.random.default_rng(m), np.random.default_rng(m)
    for _ in range(3000):
        idx = ours.integers(m, size=1)
        want = choosing.choice(m, size=1, replace=False)
        assert idx.dtype == want.dtype and np.array_equal(idx, want)
    assert ours.bit_generator.state == choosing.bit_generator.state


def test_sample_of_a_batch_of_one_replays_choice():
    A, b, _ = synthetic_sparse_data("logistic", d=4, m=40, k=2, noise=0.3, seed=2)
    p = build_problem("logistic", L1Penalty(0.1), EU, A=A, b=b, batch_size=1)
    x = np.random.default_rng(0).standard_normal(4)
    ours, choosing = np.random.default_rng(9), np.random.default_rng(9)
    for _ in range(200):
        idx, rows, targets = p._draw(ours, 1)
        g = p._sampled_subgradient(x, ours, (rows[0], targets[0]))
        want = choosing.choice(40, size=1, replace=False)
        assert np.array_equal(idx[0], want)
        assert bitwise(g, p._rows_subgradient(x, A[want], b[want]))
    assert ours.bit_generator.state == choosing.bit_generator.state

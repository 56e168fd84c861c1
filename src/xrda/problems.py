"""Composite problem instances: data-defined loss F plus regularizer G.

Three loss families are supported:

* ``lad``: least absolute deviation, F(x) = (1/m) sum_i |a_i'x - b_i|,
  with the subgradient convention sign(0) = 0.
* ``logistic``: F(x) = (1/m) sum_i log(1 + exp(-b_i a_i'x)) with labels
  b_i in {-1, +1}.  The loss is the softplus identity
  log(1 + e^z) = max(z, 0) + log1p(exp(-|z|)), the one ``np.logaddexp``
  applies per element, written with numpy's vectorized exp/log1p: the
  exponent is never positive, so nothing overflows, and it stays within
  1 ulp of 200-bit mpmath for |z| from 1e-300 to 1e6.  At m=8000 it takes
  57-79 us where ``np.logaddexp(0, z)`` took 300-400 us.  The subgradient
  weights use ``expit``.
* ``linear``: F(x) = <c, x>, stored as the one-row data loss A = c',
  b = 0 (m = 1), whose row weight is 1.

Each loss depends on x only through the residual r = A x: ``residual``
makes the pass over A for one point, and ``loss_at``, ``row_weights``,
``curvature`` (logistic only) and ``subgradient_at`` hold the only copy
of each formula; the loss kinds differ only in ``row_weights`` and
``loss_at``.  ``residual`` and ``loss_at`` take one point;
``_residuals`` takes the residuals of a block of points from one
product, ``residual(x)`` for a block of one and ``A @ X`` for more.  The
solver evaluates an exact run's iterates one at a time; a stochastic
run evaluates only the points it logs, in blocks of up to
``_evaluation_width()`` points (8 at m = 8000, d = 200), and
``solver._objective`` takes each block's ``_residuals``, then each
point's ``loss_at`` (see ``solver``).

A is stored column-major (Fortran order), so the columns of x's support
are contiguous.  When x has at most d/4 nonzeros, as the l1 iterates
mostly do, ``residual`` sums ``A[:, cols] @ x[cols]`` over blocks of
support columns of at most 512 KB (8 columns at m=8000, 16 at m=4000),
which stay in a 2 MB per-core L2, and reads only those columns; a
denser x takes one full product.  An F-ordered A is used without a copy;
a C-ordered one, such as ``np.loadtxt``'s in data-file mode, is copied
once.  ``synthetic_sparse_data`` fills its F-ordered A directly.

Stochastic oracles draw a minibatch of rows uniformly without
replacement and return the subgradient of the minibatch-average loss,
which is an unbiased estimate of a full subgradient.  ``_draw`` is the
only code that draws from a run's generator: it returns the indices of
``count`` successive minibatches and their rows from one gather, and a
stochastic ``run`` calls it once per block of at most ``_draw_width()``
steps.  A block draw leaves the generator where ``count`` single draws
leave it.  ``sample_subgradient`` takes one ``_draw(rng, 1)`` and
returns the subgradient array of its rows, and ``step`` called on its
own draws through it, so both replay a run's stream; a caller that
wants to replay one draw saves ``rng.bit_generator.state`` before it.
A batch of one takes its subgradient a_i w_i elementwise, bitwise the
(1, d) product's.
"""

import os
import tempfile
from pathlib import Path

import numpy as np
from scipy.special import expit

from .geometry import as_vector
from .regularizers import ensure_supported

LOSS_KINDS = ("lad", "logistic", "linear")

# m=4000, d=2000, 1 BLAS thread: 500 support columns 3.0 ms, 1000 5.8 ms, A @ x 5.7 ms
_SUPPORT_FRACTION = 0.25
# Xeon, 2 MB L2, 1 BLAS thread, 32 columns -> 512 KB per block: m=8000, nnz 50
# of 200, 561 -> 421 us; m=4000, d=2000, nnz 200, 807 -> 759 us; 256 KB and
# 1 MB blocks were slower than 512 KB at both sizes
# The same budget sizes a stochastic run's evaluation blocks
# (``_evaluation_width``): as many points as fit their residuals, and their
# kept copies, in it, one product over A per block
_RESIDUAL_BLOCK = 1 << 19  # bytes of A's columns gathered per product
# bytes of rows per ``_draw`` call in a stochastic run (``_draw_width``): 65
# one-row draws at d=200.  The width changes no output, only how many steps
# share one gather.  Xeon, 1 BLAS thread, logistic d=200, m=8000, batch 1:
# ``run`` took medians of 43-62 us per iteration with 4 to 1024 draws per
# gather, and the ranges of five runs each overlapped
_DRAW_BLOCK = 104_000
_ROW_BLOCK = 64        # rows per draw in synthetic_sparse_data: 1 MB at d=2000


class CompositeProblem:
    """Objective f = F + G together with its geometry and sampling setup.

    ``M`` is a bound on the dual norm of every per-sample subgradient,
    hence of every minibatch subgradient; it feeds the convergence
    bound.
    """

    def __init__(self, loss, reg, mirror, A=None, b=None, c=None, batch_size=None):
        if loss not in LOSS_KINDS:
            raise ValueError("unknown loss kind %r (choose from %s)" % (loss, LOSS_KINDS))
        ensure_supported(mirror, reg)
        self.loss = loss
        self.reg = reg
        self.mirror = mirror
        if loss == "linear":
            if c is None:
                raise ValueError("linear loss needs a cost vector c")
            if A is not None or b is not None:
                raise ValueError("linear loss takes no data matrix or targets")
            A, b = as_vector(c)[None, :], [0.0]  # <c, x> is the one-row residual
        elif A is None or b is None:
            raise ValueError("%s loss needs a data matrix A and targets b" % loss)
        A = np.asarray(A, dtype=float, order="F")
        if A.ndim != 2:
            raise ValueError("data matrix must be 2-d, got shape %s" % (A.shape,))
        b = as_vector(b, dim=A.shape[0])
        if not np.all(np.isfinite(A)):
            raise ValueError("data matrix has non-finite entries")
        if loss == "logistic" and not np.all(np.abs(b) == 1.0):
            raise ValueError("logistic targets must be +1/-1 labels")
        self.A = A
        self.b = b
        self.m, self.d = A.shape
        if self.m < 1 or self.d < 1:
            raise ValueError("data matrix must have at least one row and column")
        if batch_size is None:
            batch_size = self.m
        if not 1 <= batch_size <= self.m:
            raise ValueError("batch size %r not in [1, %d]" % (batch_size, self.m))
        self.batch_size = int(batch_size)
        self.M = self._lipschitz_bound()

    def _lipschitz_bound(self):
        kind = self.mirror.dual_norm
        # per-row maxima by reductions that allocate no m x d temporary
        A = self.A
        if kind == "l2":
            return float(np.sqrt(np.einsum("ij,ij->i", A, A).max()))
        if kind == "linf":
            return float(max(A.max(), -A.min()))
        raise ValueError("unknown norm tag %r" % (kind,))

    def residual(self, x):
        """A x: F depends on x only through it.  While x has at most d/4
        nonzeros the product reads only the support columns of A,
        ``_RESIDUAL_BLOCK`` bytes of them at a time."""
        support = np.flatnonzero(x)
        if support.size > _SUPPORT_FRACTION * self.d:
            return self.A @ x
        chunk = self._block_width()
        cols = support[:chunk]
        r = self.A[:, cols] @ x[cols]
        for start in range(chunk, support.size, chunk):
            cols = support[start:start + chunk]
            r += self.A[:, cols] @ x[cols]
        return r

    def _residuals(self, xs):
        """The residuals of the points xs, in order, from one product: a
        single point takes ``residual(x)``, so its bits are those of one
        evaluation; several take ``A @ X``, one row of the result each."""
        if len(xs) == 1:
            return [self.residual(x) for x in xs]
        return (self.A @ np.stack(xs, axis=1)).T

    def row_weights(self, r, b):
        if self.loss == "lad":
            return np.sign(r - b)
        if self.loss == "linear":
            return np.ones_like(r)
        return -b * expit(-b * r)

    def curvature(self, r):
        """Second derivative of each logistic row loss at r: p (1 - p) with
        p = expit(-b r), the factor of the Hessian A' diag(.) A / m; 1 - p
        is taken as expit(b r), which does not cancel as p nears 1."""
        return expit(-self.b * r) * expit(self.b * r)

    def loss_at(self, r):
        """F at the residual r = ``residual(x)``; r is left as it is."""
        if self.loss != "logistic":  # lad, and linear: b = 0, one row
            z = r - self.b
            if self.loss == "lad":
                np.abs(z, out=z)
            return float(z.sum()) / self.m
        # softplus(z) = max(z, 0) + log1p(exp(-|z|)) at z = -b r, taken as
        # t - min(w, 0) at w = b r: bitwise max(-w, 0) + t, one pass fewer
        w = r * self.b
        t = np.abs(w)
        np.negative(t, out=t)
        np.exp(t, out=t)
        np.log1p(t, out=t)
        np.minimum(w, 0.0, out=w)
        np.subtract(t, w, out=w)
        return float(w.sum()) / self.m

    def subgradient_at(self, r):
        return (self.A.T @ self.row_weights(r, self.b)) / self.m

    def loss_value(self, x):
        return self.loss_at(self.residual(as_vector(x, dim=self.d)))

    def subgradient(self, x):
        return self.subgradient_at(self.residual(as_vector(x, dim=self.d)))

    def _rows_subgradient(self, x, A, b):
        return (A.T @ self.row_weights(A @ x, b)) / A.shape[0]

    def _row_subgradient(self, x, a, b):
        """``_rows_subgradient`` of the one row a (a (1, d) array) and its
        target b, bitwise: the weight is worked out on scalars, the product
        a' w elementwise, and ``+ 0.0`` gives the +0 that the product's
        accumulation from zero gives where a_j w is -0."""
        return a[0] * self.row_weights((a @ x)[0], b[0]) + 0.0

    def objective(self, x):
        return self.loss_value(x) + self.reg.value(x)

    def sample_subgradient(self, x, rng):
        """Minibatch subgradient at x of one draw from rng; unbiased over
        uniformly drawn batches.  x is checked before the draw, so a bad x
        leaves rng as it was.  To replay a draw, save
        ``rng.bit_generator.state`` before it."""
        x = as_vector(x, dim=self.d)
        _, A, b = self._draw(rng, 1)
        return self._batch_subgradient(x, A[0], b[0])

    def _batch_subgradient(self, x, A, b):
        """The minibatch subgradient at x of the drawn rows A and targets b."""
        if self.batch_size == 1:
            return self._row_subgradient(x, A, b)
        return self._rows_subgradient(x, A, b)

    def _draw(self, rng, count):
        """The indices of ``count`` successive minibatch draws, a (count,
        batch) array, with their rows ``A[idx]`` and targets ``b[idx]`` from
        one gather; each draw's rows are a C-contiguous (batch, d) view.  A
        batch of one is drawn with ``integers(m, size=count)``, which gives
        the indices and generator state of ``count`` calls of ``choice(m,
        size=1, replace=False)``; a larger batch stacks ``count`` such
        ``choice`` calls."""
        if self.batch_size == 1:
            idx = rng.integers(self.m, size=(count, 1))
        else:
            idx = np.array([rng.choice(self.m, size=self.batch_size, replace=False)
                            for _ in range(count)])
        return idx, self.A[idx], self.b[idx]

    def _block_width(self):
        """How many m-vectors fit in ``_RESIDUAL_BLOCK`` bytes, and at least
        one: the columns of A a sparse ``residual`` gathers per product."""
        return max(1, _RESIDUAL_BLOCK // (8 * self.m))

    def _evaluation_width(self):
        """How many points a stochastic ``run`` keeps before it evaluates
        them with one ``_residuals`` product: as many as fit in
        ``_RESIDUAL_BLOCK`` bytes both their residuals (m each) and their
        kept copies (d each), and at least one."""
        return max(1, _RESIDUAL_BLOCK // (8 * max(self.m, self.d)))

    def _draw_width(self):
        """How many draws a stochastic ``run`` takes at once: as many as
        fit their rows in ``_DRAW_BLOCK`` bytes, and at least one."""
        return max(1, _DRAW_BLOCK // (8 * self.batch_size * self.d))


def build_problem(loss, reg, mirror, A=None, b=None, c=None, batch_size=None):
    """Validate and assemble a CompositeProblem; see CompositeProblem."""
    return CompositeProblem(loss, reg, mirror, A=A, b=b, c=c, batch_size=batch_size)


def synthetic_sparse_data(loss, d, m, k, noise, seed):
    """Planted k-sparse instance: returns (A, b, x_planted).

    A has standard normal entries; the planted solution has k support
    coordinates with magnitudes in [1, 2] and random signs.  For lad,
    b = A x_planted + noise * eps; for logistic, b = sign of the noisy
    response (zeros mapped to +1).

    A is F-ordered and filled in row blocks, which draw the same stream
    as one (m, d) draw; the response is taken over C-ordered row blocks,
    so A and b are bitwise those of the row-major recipe, without a
    second m x d copy.
    """
    if loss not in ("lad", "logistic"):
        raise ValueError("synthetic recipe supports lad or logistic, got %r" % (loss,))
    if not (1 <= k <= d):
        raise ValueError("planted sparsity k=%r must lie in [1, d]" % (k,))
    if m < 1 or noise < 0:
        raise ValueError("need m >= 1 and noise >= 0")
    rng = np.random.default_rng(seed)
    A = np.empty((m, d), order="F")
    for i in range(0, m, _ROW_BLOCK):
        A[i:i + _ROW_BLOCK] = rng.standard_normal((min(_ROW_BLOCK, m - i), d))
    x_planted = np.zeros(d)
    support = rng.choice(d, size=k, replace=False)
    signs = rng.choice([-1.0, 1.0], size=k)
    x_planted[support] = signs * (1.0 + rng.random(k))
    rows = [np.ascontiguousarray(A[i:i + _ROW_BLOCK]) @ x_planted
            for i in range(0, m, _ROW_BLOCK)]
    response = np.concatenate(rows) + noise * rng.standard_normal(m)
    if loss == "lad":
        b = response
    else:
        b = np.sign(response)
        b[b == 0.0] = 1.0
    return A, b, x_planted


def read_dense_matrix(path, ndmin=2):
    """Read the dense text format: one row per line, whitespace-separated."""
    try:
        out = np.loadtxt(path, dtype=float, ndmin=ndmin)
    except Exception as exc:
        raise ValueError("failed to read matrix file %s: %s" % (path, exc)) from exc
    if not np.all(np.isfinite(out)):
        raise ValueError("matrix file %s has non-finite entries" % (path,))
    return out


def _write_atomic(path, text):
    """Write text to path via a sibling temp file and a rename; the temp
    file is removed if anything fails.  Every file the package writes
    goes through here."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_dense_matrix(path, arr):
    """Atomically write the dense text format with full float64 round-trip
    precision: the bytes of ``np.savetxt(path, arr, fmt="%.17g")``."""
    arr = np.asarray(arr, dtype=float)
    if arr.ndim not in (1, 2):
        raise ValueError("expected a 1-d or 2-d array, got shape %s" % (arr.shape,))
    rows = arr[:, None] if arr.ndim == 1 else arr
    line = " ".join(["%.17g"] * rows.shape[1]) + "\n"
    _write_atomic(path, "".join(line % tuple(row) for row in rows))

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
* ``linear``: F(x) = <c, x>; no data rows.

Each loss depends on x only through the residual r = A x (<c, x> for
linear): ``residual`` makes the one pass over A, and ``loss_at``,
``row_weights`` and ``subgradient_at`` hold the only copy of each formula.

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
which is an unbiased estimate of a full subgradient.
"""

import numpy as np
from scipy.special import expit

from .geometry import as_vector, dual_norm, pairing
from .regularizers import ensure_supported

LOSS_KINDS = ("lad", "logistic", "linear")

# m=4000, d=2000, 1 BLAS thread: 500 support columns 3.0 ms, 1000 5.8 ms, A @ x 5.7 ms
_SUPPORT_FRACTION = 0.25
# Xeon, 2 MB L2, 1 BLAS thread, 32 columns -> 512 KB per block: m=8000, nnz 50
# of 200, 561 -> 421 us; m=4000, d=2000, nnz 200, 807 -> 759 us; 256 KB and
# 1 MB blocks were slower than 512 KB at both sizes
_RESIDUAL_BLOCK = 1 << 19  # bytes of A's columns gathered per product
_ROW_BLOCK = 64        # rows per draw in synthetic_sparse_data: 1 MB at d=2000


class GradientSample:
    """A stochastic subgradient with the rows and RNG state that produced it."""

    def __init__(self, value, indices, seed_state):
        self.value = value
        self.indices = indices
        self.seed_state = seed_state


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
            self.c = as_vector(c)
            self.A = None
            self.b = None
            self.d = self.c.size
            self.m = 1
        else:
            if A is None or b is None:
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
            self.c = None
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
        if self.loss == "linear":
            return dual_norm(self.c, kind)
        # per-row maxima by reductions that allocate no m x d temporary
        A = self.A
        if kind == "l2":
            return float(np.sqrt(np.einsum("ij,ij->i", A, A).max()))
        if kind == "linf":
            return float(max(A.max(), -A.min()))
        raise ValueError("unknown norm tag %r" % (kind,))

    def residual(self, x):
        """A x, or <c, x> for the linear loss: F depends on x only through it."""
        if self.loss == "linear":
            return pairing(self.c, x)
        support = np.flatnonzero(x)
        if support.size > _SUPPORT_FRACTION * self.d:
            return self.A @ x
        chunk = max(1, _RESIDUAL_BLOCK // (8 * self.m))
        cols = support[:chunk]
        r = self.A[:, cols] @ x[cols]
        for start in range(chunk, support.size, chunk):
            cols = support[start:start + chunk]
            r += self.A[:, cols] @ x[cols]
        return r

    def row_weights(self, r, b):
        if self.loss == "lad":
            return np.sign(r - b)
        return -b * expit(-b * r)

    def loss_at(self, r):
        if self.loss == "linear":
            return r
        if self.loss == "lad":
            return float(np.sum(np.abs(r - self.b))) / self.m
        z = -self.b * r
        return float(np.sum(np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z))))) / self.m

    def subgradient_at(self, r):
        if self.loss == "linear":
            return self.c.copy()
        return (self.A.T @ self.row_weights(r, self.b)) / self.m

    def loss_value(self, x):
        return self.loss_at(self.residual(as_vector(x, dim=self.d)))

    def subgradient(self, x):
        return self.subgradient_at(self.residual(as_vector(x, dim=self.d)))

    def _rows_subgradient(self, x, A, b):
        return (A.T @ self.row_weights(A @ x, b)) / A.shape[0]

    def objective(self, x):
        return self.loss_value(x) + self.reg.value(x)

    def sample_subgradient(self, x, rng):
        """Minibatch subgradient; unbiased over uniformly drawn batches."""
        state = rng.bit_generator.state
        if self.loss == "linear":
            return GradientSample(self.c.copy(), np.arange(0), state)
        idx = rng.choice(self.m, size=self.batch_size, replace=False)
        g = self._rows_subgradient(x, self.A[idx], self.b[idx])
        return GradientSample(g, idx, state)


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


def write_dense_matrix(path, arr):
    """Write the dense text format with full float64 round-trip precision."""
    np.savetxt(path, np.asarray(arr, dtype=float), fmt="%.17g")

"""Mirror maps, norm pairs, and Bregman distances.

The solver keeps its running iterate in dual coordinates: a mirror map
``phi`` identifies a primal point ``x`` with the dual vector
``grad(x)``, and the Bregman distance built from ``phi`` replaces the
squared Euclidean distance inside proximal steps.  Primal and dual
vectors are both plain 1-d float arrays; which side a vector lives on is
a convention of the ops that produce it (``grad`` and subgradients yield
dual vectors, ``grad_inverse`` yields primal ones).

Two mirrors are provided:

* ``EuclideanMirror``: phi(x) = ||x||_2^2 / 2 on all of R^d.  grad is
  the identity, the Bregman distance is ||x - y||_2^2 / 2, and phi is
  1-strongly convex for the (l2, l2) norm pair.
* ``NegativeEntropyMirror``: phi(x) = sum_i x_i log x_i on the open
  positive orthant.  grad(x) = 1 + log x, grad_inverse(v) = exp(v - 1),
  the Bregman distance is the generalized Kullback-Leibler divergence
  sum_i x_i log(x_i / y_i) - x_i + y_i, and phi is 1-strongly convex
  with respect to the l1 norm on the probability simplex (Pinsker's
  inequality).
"""

import numpy as np
from scipy.special import xlogy

# Positive entries below this are treated as outside the entropy
# mirror's domain (the open positive orthant), never clamped.
ENTROPY_DOMAIN_FLOOR = 1e-300


class MirrorDomainError(ValueError):
    """A point lies outside the domain a mirror-map operation needs."""


def as_vector(x, dim=None):
    """Coerce to a 1-d float64 array, checking shape and finiteness."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise ValueError("expected a 1-d vector, got shape %s" % (v.shape,))
    if v.size < 1:
        raise ValueError("expected a vector with at least one entry")
    if dim is not None and v.size != dim:
        raise ValueError("dimension mismatch: expected %d entries, got %d" % (dim, v.size))
    if not np.all(np.isfinite(v)):
        raise ValueError("vector has non-finite entries")
    return v


def pairing(g, x):
    """Dual pairing <g, x>.  Raises on dimension mismatch."""
    g = np.asarray(g, dtype=float)
    x = np.asarray(x, dtype=float)
    if g.shape != x.shape:
        raise ValueError("dimension mismatch: %s vs %s" % (g.shape, x.shape))
    return float(np.dot(g, x))


def norm(v, kind):
    """Norm of a vector by tag: "l1", "l2", or "linf"."""
    v = np.asarray(v, dtype=float)
    if kind == "l2":
        return float(np.sqrt(np.dot(v, v)))
    if kind == "l1":
        return float(np.sum(np.abs(v)))
    if kind == "linf":
        return float(np.max(np.abs(v))) if v.size else 0.0
    raise ValueError("unknown norm tag %r" % (kind,))


def dual_norm(g, kind):
    """Norm of a dual vector by tag; tags name the dual-side norm directly."""
    return norm(g, kind)


class _Mirror:
    """``grad`` and ``grad_inverse`` validate their argument and call the
    kernels ``_grad`` / ``_grad_inverse``, which the solver's step calls
    directly on the vectors it made itself."""

    def grad(self, x):
        return self._grad(as_vector(x))

    def grad_inverse(self, v):
        return self._grad_inverse(as_vector(v))


class EuclideanMirror(_Mirror):
    """phi(x) = ||x||_2^2 / 2 on R^d; the (l2, l2) self-dual geometry."""

    kind = "euclidean"
    sigma = 1.0
    primal_norm = "l2"
    dual_norm = "l2"

    def value(self, x):
        x = as_vector(x)
        return 0.5 * float(np.dot(x, x))

    def _grad(self, x):
        return x.copy()

    _grad_inverse = _grad

    def bregman(self, x, y):
        x = as_vector(x)
        y = as_vector(y, dim=x.size)
        d = x - y
        return 0.5 * float(np.dot(d, d))

    def __repr__(self):
        return "EuclideanMirror()"


class NegativeEntropyMirror(_Mirror):
    """phi(x) = sum_i x_i log x_i on the open positive orthant.

    The norm pair is (l1, linf) and sigma = 1: on the probability
    simplex the Bregman distance is the KL divergence, and Pinsker's
    inequality gives KL(x||y) >= ||x - y||_1^2 / 2.
    """

    kind = "entropy"
    sigma = 1.0
    primal_norm = "l1"
    dual_norm = "linf"

    def _check_domain(self, x, what="point"):
        if np.any(x < ENTROPY_DOMAIN_FLOOR):
            raise MirrorDomainError(
                "%s has entries below %.0e; the entropy mirror is only defined "
                "on the open positive orthant" % (what, ENTROPY_DOMAIN_FLOOR))

    def value(self, x):
        x = as_vector(x)
        self._check_domain(x)
        return float(np.sum(x * np.log(x)))

    def _grad(self, x):
        self._check_domain(x)
        return 1.0 + np.log(x)

    def _grad_inverse(self, v):
        with np.errstate(over="ignore"):
            out = np.exp(v - 1.0)
        if not np.all(np.isfinite(out)):
            # an overflowed dual point from the solver, not an exp overflow
            if not np.all(np.isfinite(v)):
                raise ValueError("vector has non-finite entries")
            raise OverflowError(
                "exp overflow inverting the entropy mirror at max dual entry %g" % np.max(v))
        return out

    def bregman(self, x, y):
        # First argument may touch the boundary: phi extends continuously
        # with 0 log 0 = 0, which xlogy computes.  Second argument must
        # stay interior since the formula divides by it.
        x = as_vector(x)
        y = as_vector(y, dim=x.size)
        if np.any(x < 0.0):
            raise MirrorDomainError("point has negative entries")
        self._check_domain(y, what="base point")
        return float(np.sum(xlogy(x, x) - xlogy(x, y) - x + y))

    def __repr__(self):
        return "NegativeEntropyMirror()"


MIRRORS = {
    "euclidean": EuclideanMirror,
    "entropy": NegativeEntropyMirror,
}


def make_mirror(kind):
    """Instantiate a mirror map by kind tag."""
    try:
        return MIRRORS[kind]()
    except KeyError:
        raise ValueError("unknown mirror kind %r (choose from %s)"
                         % (kind, sorted(MIRRORS))) from None

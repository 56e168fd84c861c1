"""Regularizers and their mirror proximal maps.

A regularizer G is the nonsmooth part of the composite objective
F + G.  Each kind knows its value (possibly +inf for indicators), and a
registry maps (mirror kind, regularizer kind) pairs to closed-form
backward steps

    mirror_prox(G, m, y, s) = argmin_z  D_phi(z, y) + s G(z),

so that unsupported pairings fail when a solver is configured, not deep
inside an iteration.  Indicator membership uses an absolute tolerance of
``MEMBERSHIP_TOL`` so that points produced by floating-point projections
evaluate to 0, not +inf.
"""

import math

import numpy as np

from .geometry import as_vector

MEMBERSHIP_TOL = 1e-9


class _Regularizer:
    """``value`` validates x and calls the kernel ``_value``, which the
    solver calls directly on the iterates it made itself."""

    def value(self, x):
        return float(self._value(as_vector(x)))


def _indicator(inside):
    return 0.0 if inside else math.inf


class L1Penalty(_Regularizer):
    """G(x) = lam * ||x||_1."""

    kind = "l1"

    def __init__(self, lam):
        if not lam > 0:
            raise ValueError("l1 weight must be positive, got %r" % (lam,))
        self.lam = float(lam)

    def _value(self, x):
        return self.lam * np.abs(x).sum()

    def __repr__(self):
        return "L1Penalty(lam=%g)" % self.lam


class BoxIndicator(_Regularizer):
    """Indicator of the box {x : lo <= x <= hi}, componentwise.

    Bounds may be scalars (broadcast against the iterate) or vectors; a
    vector with more than one entry sets the length of both.  An infinite
    bound leaves that side open; a nan bound is rejected.
    """

    kind = "box"

    def __init__(self, lo, hi):
        self.lo = np.asarray(lo, dtype=float)
        self.hi = np.asarray(hi, dtype=float)
        if self.lo.ndim > 1 or self.hi.ndim > 1 or not (self.lo.size and self.hi.size):
            raise ValueError("box bounds must be scalars or non-empty vectors")
        if len({self.lo.size, self.hi.size} - {1}) > 1:
            raise ValueError("box bounds have %d and %d entries; give scalars or "
                             "vectors of one length" % (self.lo.size, self.hi.size))
        if np.isnan(self.lo).any() or np.isnan(self.hi).any():
            raise ValueError("box bounds must not be nan")
        if np.any(self.lo > self.hi):
            raise ValueError("box has lo > hi in some coordinate")

    def bounds(self, dim):
        lo = np.broadcast_to(self.lo, (dim,))
        hi = np.broadcast_to(self.hi, (dim,))
        return lo, hi

    def _value(self, x):
        lo, hi = self.bounds(x.size)
        return _indicator(np.all((x >= lo - MEMBERSHIP_TOL) & (x <= hi + MEMBERSHIP_TOL)))

    def __repr__(self):
        return "BoxIndicator(lo=%s, hi=%s)" % (self.lo, self.hi)


class SimplexIndicator(_Regularizer):
    """Indicator of the probability simplex {x >= 0, sum x = 1}."""

    kind = "simplex"

    def _value(self, x):
        return _indicator(np.all(x >= -MEMBERSHIP_TOL)
                          and abs(np.sum(x) - 1.0) <= MEMBERSHIP_TOL)

    def __repr__(self):
        return "SimplexIndicator()"


class L2BallIndicator(_Regularizer):
    """Indicator of the l2 ball of a given radius about the origin."""

    kind = "l2ball"

    def __init__(self, radius):
        if not radius > 0:
            raise ValueError("ball radius must be positive, got %r" % (radius,))
        self.radius = float(radius)

    def _value(self, x):
        _, scale, nrm = _scaled_norm(x)
        return _indicator(nrm * scale <= self.radius + MEMBERSHIP_TOL)

    def __repr__(self):
        return "L2BallIndicator(radius=%g)" % self.radius


class ZeroRegularizer(_Regularizer):
    """G identically zero; backward steps reduce to the identity."""

    kind = "zero"

    def _value(self, x):
        return 0.0

    def __repr__(self):
        return "ZeroRegularizer()"


def _prox_euclid_l1(reg, y, s):
    # sign(y) max(|y| - s lam, 0) as y - clip(y, -s lam, s lam), in one fresh
    # array and 2 passes where that formula takes 5: the same bits up to the
    # sign of a zero (this gives +0), and the same at +-inf and nan
    theta = s * reg.lam
    out = y.clip(-theta, theta)
    np.subtract(y, out, out=out)
    return out


def _prox_euclid_box(reg, y, s):
    lo, hi = reg.bounds(y.size)
    return np.clip(y, lo, hi)


def _scaled_norm(x):
    """(z, 2^k, ||z||) with z = x / 2^k and 2^k near max|x|: the division
    is exact and max|z| is in [1, 2), so z.z cannot overflow, and ||x|| is
    ||z|| * 2^k, a float product that is inf, without a warning, past the
    largest float."""
    scale = math.ldexp(1.0, math.frexp(float(np.max(np.abs(x))))[1] - 1)
    z = x / scale
    return z, scale, float(np.sqrt(np.dot(z, z)))


def _prox_euclid_l2ball(reg, y, s):
    # bit for bit y * (radius / sqrt(y.y)) wherever y.y is finite, and
    # right beyond
    z, scale, nrm = _scaled_norm(y)
    if nrm * scale <= reg.radius:
        return y.copy()
    return z * (reg.radius / nrm)


def _prox_identity(reg, y, s):
    return y.copy()


def _prox_entropy_simplex(reg, y, s):
    # KL projection of a positive point onto the simplex is a rescaling.
    return y / float(np.sum(y))


# (mirror kind, regularizer kind) -> closed-form backward step
PROX_REGISTRY = {
    ("euclidean", "l1"): _prox_euclid_l1,
    ("euclidean", "box"): _prox_euclid_box,
    ("euclidean", "l2ball"): _prox_euclid_l2ball,
    ("euclidean", "zero"): _prox_identity,
    ("entropy", "simplex"): _prox_entropy_simplex,
    ("entropy", "zero"): _prox_identity,
}


class UnsupportedPairError(ValueError):
    """No closed-form backward step for this (mirror, regularizer) pair."""


def supported_pairs():
    return sorted(PROX_REGISTRY)


def ensure_supported(mirror, reg):
    """Raise UnsupportedPairError unless the pair has a backward step."""
    ensure_supported_kinds(mirror.kind, reg.kind)


def ensure_supported_kinds(mirror_kind, reg_kind):
    """``ensure_supported`` by the kinds alone, as the config reader
    checks a pair before it builds the regularizer."""
    if (mirror_kind, reg_kind) not in PROX_REGISTRY:
        raise UnsupportedPairError(
            "no backward step for mirror %r with regularizer %r; supported pairs: %s"
            % (mirror_kind, reg_kind, ", ".join("%s+%s" % p for p in supported_pairs())))


def mirror_prox(reg, mirror, y, s):
    """Backward step argmin_z D_phi(z, y) + s G(z) at step size s >= 0.

    s = 0 returns y unchanged (exactly).  y must lie in the interior of
    the mirror's domain; for the entropy mirror that means y > 0.
    """
    ensure_supported(mirror, reg)
    y = as_vector(y)
    if s < 0:
        raise ValueError("backward step size must be nonnegative, got %g" % s)
    return _prox(reg, mirror, y, s)


def _prox(reg, mirror, y, s):
    """``mirror_prox``'s kernel, for a supported pair, a finite 1-d y and
    s >= 0; the solver's step calls it directly."""
    if mirror.kind == "entropy":
        mirror._check_domain(y, what="prox base point")
    if s == 0.0:
        return y.copy()
    return PROX_REGISTRY[(mirror.kind, reg.kind)](reg, y, s)


def in_subdifferential(reg, h, x, tol):
    """Test h in dG(x) up to an absolute tolerance.

    Supported for L1Penalty, BoxIndicator, and ZeroRegularizer; the
    sign structure of those subdifferentials makes a per-coordinate
    test exact.
    """
    h = as_vector(h)
    x = as_vector(x, dim=h.size)
    if reg.kind == "l1":
        lam = reg.lam
        if np.any(np.abs(h) > lam + tol):
            return False
        active = np.abs(x) > tol
        return bool(np.all(np.abs(h[active] - lam * np.sign(x[active])) <= tol))
    if reg.kind == "box":
        lo, hi = reg.bounds(x.size)
        if np.any(x < lo - tol) or np.any(x > hi + tol):
            return False
        at_lo = x <= lo + tol
        at_hi = x >= hi - tol
        # interior coordinates force h = 0; boundary ones fix its sign
        if np.any(np.abs(h[~at_lo & ~at_hi]) > tol):
            return False
        if np.any(h[at_lo & ~at_hi] > tol):
            return False
        if np.any(h[at_hi & ~at_lo] < -tol):
            return False
        return True
    if reg.kind == "zero":
        return bool(np.all(np.abs(h) <= tol))
    raise NotImplementedError(
        "subdifferential membership test not supported for regularizer %r" % reg.kind)


def canonical_argmin(reg, dim):
    """A canonical minimizer of G in dimension dim, used as default start."""
    if dim < 1:
        raise ValueError("dimension must be positive, got %r" % (dim,))
    if reg.kind in ("l1", "zero"):
        return np.zeros(dim)
    if reg.kind == "box":
        lo, hi = reg.bounds(dim)
        if np.all(lo <= 0.0) and np.all(hi >= 0.0):
            return np.zeros(dim)
        # the midpoint where both bounds are finite, else 0 clipped into the box
        x = np.clip(0.0, lo, hi)
        finite = np.isfinite(lo) & np.isfinite(hi)
        x[finite] = 0.5 * (lo[finite] + hi[finite])
        return x
    if reg.kind == "simplex":
        return np.full(dim, 1.0 / dim)
    if reg.kind == "l2ball":
        return np.zeros(dim)
    raise NotImplementedError("no canonical minimizer for regularizer %r" % reg.kind)

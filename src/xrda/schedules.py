"""Step schedules: forward steps s_n, scaling alpha_n, and backward reuse t_n.

A Schedule bundles three sequences.  s_n > 0 weights the subgradient at
iteration n and must be non-increasing; alpha_n > 0 scales the distance
term and must be non-decreasing; t_n in [0, gamma_n] decides how much of
the accumulated backward subgradient is fed back, where gamma_n is the
running backward weight maintained by the solver (gamma_1 = 0, so t_1 is
forced to 0).  t is a callable of (n, gamma_n) so state-dependent
policies can plug in.

The sequences are evaluated lazily; the solver checks the monotonicity
and range constraints at each step and halts on the first violation.
"""

import math

PRESET_KINDS = (
    "forward_backward",
    "rda",
    "leap_frog",
    "constant_backward",
    "averaged_leap_frog",
)


class Schedule:

    def __init__(self, name, s, alpha, t):
        self.name = name
        self.s = s
        self.alpha = alpha
        self.t = t

    def __repr__(self):
        return "Schedule(%r)" % self.name


def constant_steps(value):
    """s_n = value."""
    value = float(value)
    if not value > 0:
        raise ValueError("constant step must be positive, got %r" % (value,))
    return lambda n: value


def power_steps(scale, exponent):
    """s_n = scale * n**(-exponent); exponent >= 0 keeps it non-increasing."""
    scale = float(scale)
    exponent = float(exponent)
    if not scale > 0:
        raise ValueError("step scale must be positive, got %r" % (scale,))
    if exponent < 0:
        raise ValueError("step exponent must be >= 0 so s is non-increasing, got %r"
                         % (exponent,))
    return lambda n: scale * n ** (-exponent)


def _zero_t(n, gamma):
    return 0.0


def forward_backward(steps):
    """Reuse every backward subgradient once: t_n = s_{n-1}, alpha = 1.

    Makes gamma_{n+1} = s_n, collapsing the iteration to the classical
    proximal subgradient step at size s_n.
    """
    return Schedule("forward_backward", steps, lambda n: 1.0,
                    lambda n, gamma: steps(n - 1) if n > 1 else 0.0)


def rda(c=1.0):
    """Dual averaging with unit steps and alpha_n = c sqrt(n); t = 0.

    With the l1 penalty (x1 = 0) this is Xiao's l1-RDA (JMLR 2010):
    x_{n+1} = -sign(S_n) max(|S_n| - n lam, 0) / (c sqrt(n+1)), with S_n
    the sum of the first n subgradients.  The divisor is alpha_{n+1}, so
    the index is shifted by one against Xiao's beta_n = gamma sqrt(n):
    here beta_n = c sqrt(n+1).
    """
    c = float(c)
    if not c > 0:
        raise ValueError("rda scaling c must be positive, got %r" % (c,))
    return Schedule("rda", lambda n: 1.0, lambda n: c * math.sqrt(n), _zero_t)


def leap_frog(steps):
    """Never reuse backward subgradients: t = 0, alpha = 1.

    The backward weight gamma_{n+1} = sum_{i<=n} s_i grows without
    bound, as RDA's does.  Exact sparsity needs only a backward step that
    does not shrink to zero; ``constant_backward`` keeps it bounded.
    """
    return Schedule("leap_frog", steps, lambda n: 1.0, _zero_t)


def constant_backward(steps):
    """t_n = s_n for n > 1, alpha = 1: gamma_n stays pinned at s_1."""
    return Schedule("constant_backward", steps, lambda n: 1.0,
                    lambda n, gamma: steps(n) if n > 1 else 0.0)


def averaged_leap_frog(mu, steps):
    """t_n = mu_n * gamma_n with mu_n in [0, 1]; mu may be a constant or callable."""
    if callable(mu):
        mu_fn = mu
    else:
        mu = float(mu)
        if not 0.0 <= mu <= 1.0:
            raise ValueError("averaging weight mu must lie in [0, 1], got %r" % (mu,))
        mu_fn = lambda n: mu
    return Schedule("averaged_leap_frog", steps, lambda n: 1.0,
                    lambda n, gamma: mu_fn(n) * gamma)


def schedule_preset(kind, c=None, mu=None, steps=None):
    """Build a preset schedule by name.

    ``steps`` defaults to s_n = n**(-1/2) where a preset needs a step
    sequence; the rda preset has s = 1 built in and rejects ``steps``.
    """
    if kind == "rda":
        if steps is not None or mu is not None:
            raise ValueError("rda preset takes only the scaling c")
        return rda(1.0 if c is None else c)
    if kind not in PRESET_KINDS:
        raise ValueError("unknown schedule preset %r (choose from %s)"
                         % (kind, PRESET_KINDS))
    if c is not None:
        raise ValueError("scaling c only applies to the rda preset")
    if mu is not None and kind != "averaged_leap_frog":
        raise ValueError("mu only applies to the averaged_leap_frog preset")
    if steps is None:
        steps = power_steps(1.0, 0.5)
    if kind == "forward_backward":
        return forward_backward(steps)
    if kind == "leap_frog":
        return leap_frog(steps)
    if kind == "constant_backward":
        return constant_backward(steps)
    if mu is None:
        raise ValueError("averaged_leap_frog preset needs the averaging weight mu")
    return averaged_leap_frog(mu, steps)

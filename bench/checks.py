"""Correctness checks on the program's outputs, and the plain-numpy floor.

The bound gate is honest: a logged gap is ``best_f - f_star`` where
``f_star`` may exceed the true optimum by up to the reference's
``certified_gap``, so the checked quantity is ``gap + certified_gap``,
not the gap alone with a fixed slack.
"""

import hashlib
import math
import statistics
import time
from dataclasses import astuple

import numpy as np
from scipy.special import expit

from xrda.config import build_problem_from_config, build_schedule_from_config
from xrda.solver import init, step

SLACK = 1e-9
STOCHASTIC_FACTOR = 1.10
FLOOR_TOL = 1e-12


def row_failures(rows, certified_gap, iterations, stride, strict):
    """Problems with one run's trace rows; strict checks every row's bound."""
    expected = [stride * (i + 1) for i in range(iterations // stride)]
    ns = [r.n for r in rows]
    if ns != expected:
        return ["logged n %s, expected %s" % (ns[:3] + ["..."], expected[:3] + ["..."])]
    failures = []
    for r in rows:
        values = (r.f_x, r.f_avg, r.gap_best, r.gap_avg, r.bound, r.backward_step)
        if not all(math.isfinite(v) for v in values):
            failures.append("n=%d: non-finite value in %r" % (r.n, values))
        elif strict:
            for label, gap in (("gap_best", r.gap_best), ("gap_avg", r.gap_avg)):
                if gap + certified_gap > r.bound + SLACK:
                    failures.append("n=%d: %s + certified_gap = %.17g exceeds bound %.17g"
                                    % (r.n, label, gap + certified_gap, r.bound))
    return failures


def seed_mean_failures(finals, certified_gap):
    """The stochastic form: seed-mean final gaps within 1.10 x the bound."""
    if not finals:
        return ["no trace rows to check"]
    bound = max(r.bound for r in finals)
    failures = []
    for label in ("gap_best", "gap_avg"):
        mean = statistics.fmean(getattr(r, label) for r in finals)
        if mean + certified_gap > STOCHASTIC_FACTOR * bound + SLACK:
            failures.append("seed-mean %s + certified_gap = %.17g exceeds %.2f x bound %.17g"
                            % (label, mean + certified_gap, STOCHASTIC_FACTOR, bound))
    return failures


def rows_text(rows):
    """Exact text of trace rows (repr round-trips every float)."""
    return "\n".join(",".join(repr(v) for v in astuple(r)) for r in rows)


def digest(*parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else part.encode())
        h.update(b"\0")
    return h.hexdigest()


def compare_csv_failures(csv_text, presets, results):
    """The compare CSV must summarize exactly the runs the harness made."""
    lines = csv_text.splitlines()
    if lines[0] != "preset,final_gap_best,final_nnz,median_backward_step":
        return ["compare CSV has header %r" % lines[0]]
    if len(lines) - 1 != len(presets):
        return ["compare CSV has %d rows for %d presets" % (len(lines) - 1, len(presets))]
    failures = []
    for line, preset, result in zip(lines[1:], presets, results):
        name, gap, nnz, median = line.split(",")
        last = result.rows[-1]
        want = (preset, last.gap_best, last.nnz,
                statistics.median(r.backward_step for r in result.rows))
        if (name, float(gap), int(nnz), float(median)) != want:
            failures.append("compare CSV row %r does not match the run %r" % (line, want))
    return failures


def _loss(kind, r, b, m):
    if kind == "lad":
        return float(np.sum(np.abs(r - b))) / m
    return float(np.sum(np.logaddexp(0.0, -b * r))) / m


def _weights(kind, r, b):
    if kind == "lad":
        return np.sign(r - b)
    return -b * expit(-b * r)


def floor_run(A, b, loss, lam, n_steps, rng=None, batch_size=None):
    """leap_frog (s_n = n^-1/2, alpha = 1, t = 0) on an l1 problem, in plain numpy.

    Per step: one ``A @ x`` that serves both the objective of the new
    iterate and the next full subgradient, one ``A.T @ w`` and one soft
    threshold.  With ``rng`` the subgradient comes from a sampled
    minibatch, drawn exactly as ``CompositeProblem.sample_subgradient``
    draws it, and the full ``A @ x`` serves only the objective.
    Returns the final iterate and the best objective value.
    """
    m, d = A.shape
    x = np.zeros(d)
    z = np.zeros(d)
    gamma = 0.0
    r = A @ x
    best = _loss(loss, r, b, m) + lam * float(np.sum(np.abs(x)))
    for n in range(1, n_steps + 1):
        s = 1.0 * n ** (-0.5)
        if rng is None:
            g = (A.T @ _weights(loss, r, b)) / m
        else:
            idx = rng.choice(m, size=batch_size, replace=False)
            Ai, bi = A[idx], b[idx]
            g = (Ai.T @ _weights(loss, Ai @ x, bi)) / batch_size
        z = z - s * g
        gamma += s
        x = np.sign(z) * np.maximum(np.abs(z) - gamma * lam, 0.0)
        r = A @ x
        f = _loss(loss, r, b, m) + lam * float(np.sum(np.abs(x)))
        if f < best:
            best = f
    return x, best


def floor_check(cfg, n_steps):
    """Time n_steps of the solver and of the floor on the config's problem.

    Returns (solver seconds per step, floor seconds per step, failures).
    The floor must reproduce the solver's iterate and best value to
    within 1e-12, which shows that both run the same arithmetic.
    """
    problem = build_problem_from_config(cfg)
    schedule = build_schedule_from_config(cfg)
    stochastic = cfg.mode == "stochastic"
    seed = cfg.seeds[0]

    t0 = time.perf_counter()
    rng = np.random.default_rng(seed) if stochastic else None
    state = init(problem, schedule)
    for _ in range(n_steps):
        step(state, problem, mode=cfg.mode, rng=rng)
    solver_s = (time.perf_counter() - t0) / n_steps

    t0 = time.perf_counter()
    x, best = floor_run(problem.A, problem.b, cfg.loss, cfg.lam, n_steps,
                        rng=np.random.default_rng(seed) if stochastic else None,
                        batch_size=problem.batch_size)
    floor_s = (time.perf_counter() - t0) / n_steps

    failures = []
    diff = float(np.max(np.abs(x - state.x)))
    if not diff <= FLOOR_TOL:
        failures.append("floor iterate differs from the solver's by %.3g after %d steps"
                        % (diff, n_steps))
    if not abs(best - state.best_f) <= FLOOR_TOL * max(1.0, abs(best)):
        failures.append("floor best value %.17g differs from the solver's %.17g"
                        % (best, state.best_f))
    return solver_s, floor_s, failures

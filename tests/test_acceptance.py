"""End-to-end acceptance checks, one per guaranteed property.

Each test prints a single ``[criterion k] name: PASS`` line (run pytest
with ``-s`` to see them on success).  The problem instances are frozen:
the convergence-rate window and the sparsity-contrast thresholds were
verified against these exact seeds, and the suite asserts runtime
budgets, so run it on an otherwise idle machine.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from conftest import (l2ball_projection_oracle, refine_minimize_1d,
                      simplex_kl_oracle)
from xrda.config import parse_config
from xrda.geometry import EuclideanMirror, NegativeEntropyMirror
from xrda.harness import run_experiment
from xrda.problems import build_problem, synthetic_sparse_data
from xrda.reference import prox_subgradient_iterates, reference_optimum
from xrda.regularizers import (BoxIndicator, L1Penalty, L2BallIndicator,
                               SimplexIndicator, ZeroRegularizer,
                               in_subdifferential, mirror_prox)
from xrda.schedules import power_steps, schedule_preset
from xrda.solver import argmin_form_step, init, run, step, theoretical_bound

EU = EuclideanMirror()
EN = NegativeEntropyMirror()

PRESETS = ("forward_backward", "rda", "leap_frog", "constant_backward",
           "averaged_leap_frog")

# frozen instances; the rate and sparsity checks are calibrated to these
LAD20 = dict(loss="lad", d=20, m=50, k=5, noise=0.5, seed=132, lam=0.1)
LOGIT20 = dict(loss="logistic", d=20, m=50, k=5, noise=0.1, seed=102, lam=0.1)
SPARSE100 = dict(loss="lad", d=100, m=50, k=5, noise=0.0, seed=201, lam=0.2)

REF_TOL = 1e-8


def report(num, name, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    suffix = " (%s)" % detail if detail else ""
    print("\n[criterion %d] %s: %s%s" % (num, name, verdict, suffix))
    assert ok, "%s%s" % (name, suffix)


def make_instance(spec, batch_size=None):
    A, b, _ = synthetic_sparse_data(spec["loss"], d=spec["d"], m=spec["m"],
                                    k=spec["k"], noise=spec["noise"],
                                    seed=spec["seed"])
    return build_problem(spec["loss"], L1Penalty(spec["lam"]), EU, A=A, b=b,
                         batch_size=batch_size)


def preset_schedule(kind):
    return schedule_preset(kind, mu=0.5 if kind == "averaged_leap_frog" else None)


class HCollector:
    """Records the recovered regularizer subgradient at every iteration."""

    def __init__(self, n_iters, d, reg):
        self.reg = reg
        self.H = np.empty((n_iters, d))
        self.X = np.empty((n_iters, d))
        self.gammas = np.empty(n_iters)
        self.count = 0

    def __call__(self, state):
        i = self.count
        self.H[i] = state.h
        self.X[i] = state.x
        self.gammas[i] = state.gamma
        self.count = i + 1


@pytest.fixture(scope="module")
def lad20():
    problem = make_instance(LAD20)
    ref = reference_optimum(problem, tol=REF_TOL)
    assert ref.converged
    return problem, ref


@pytest.fixture(scope="module")
def logit20():
    problem = make_instance(LOGIT20)
    ref = reference_optimum(problem, tol=REF_TOL)
    assert ref.converged
    return problem, ref


@pytest.fixture(scope="module")
def crit1_runs(lad20, logit20):
    """10^4 exact iterations for every preset on both d=20 instances."""
    out = {"results": {}, "hlogs": [], "elapsed": 0.0}
    for label, (problem, ref) in (("lad", lad20), ("logistic", logit20)):
        for kind in PRESETS:
            coll = HCollector(10_000, problem.d, problem.reg)
            t0 = time.perf_counter()
            res = run(problem, preset_schedule(kind), 10_000, stride=100,
                      reference=ref, callback=coll)
            out["elapsed"] += time.perf_counter() - t0
            out["results"][(label, kind)] = (res, ref)
            out["hlogs"].append(coll)
    return out


@pytest.fixture(scope="module")
def crit2_run(lad20):
    """10^5 iterations of dual averaging on the lad instance."""
    problem, ref = lad20
    coll = HCollector(100_000, problem.d, problem.reg)
    t0 = time.perf_counter()
    res = run(problem, preset_schedule("rda"), 100_000, stride=100,
              reference=ref, callback=coll)
    return {"rows": res.rows, "elapsed": time.perf_counter() - t0,
            "hlog": coll}


@pytest.fixture(scope="module")
def crit3_runs(lad20):
    """Forward-backward trajectories against the independent loop."""
    steps = power_steps(1.0, 0.5)
    lad_problem, _ = lad20
    simplex_problem = build_problem("lad", SimplexIndicator(), EN,
                                    A=lad_problem.A, b=lad_problem.b)
    out = {"max_err": {}, "hlogs": []}
    for label, problem in (("euclidean", lad_problem),
                           ("entropy", simplex_problem)):
        want = prox_subgradient_iterates(problem, steps, 1000)
        coll = HCollector(1000, problem.d, problem.reg)
        errs = []
        st = init(problem, schedule_preset("forward_backward", steps=steps))
        for k in range(1000):
            st = step(st, problem)
            coll(st)
            errs.append(float(np.max(np.abs(st.x - want[k + 1]))))
        out["max_err"][label] = max(errs)
        if problem.reg.kind == "l1":
            out["hlogs"].append(coll)
    return out


@pytest.fixture(scope="module")
def crit4_runs(lad20):
    """Forward recursion against the accumulated closed form, 500 steps."""
    problem, _ = lad20
    out = {"max_err": {}, "hlogs": []}
    for kind in ("rda", "leap_frog", "constant_backward", "averaged_leap_frog"):
        coll = HCollector(500, problem.d, problem.reg)
        errs = []
        st = init(problem, preset_schedule(kind))
        dual_sum = np.zeros(problem.d)
        for _ in range(500):
            predicted, dual_sum = argmin_form_step(st, problem, dual_sum)
            st = step(st, problem)
            coll(st)
            errs.append(float(np.max(np.abs(st.x - predicted))))
        out["max_err"][kind] = max(errs)
        out["hlogs"].append(coll)
    return out


def test_criterion_01_deterministic_bound(crit1_runs):
    worst = -np.inf
    rows_checked = 0
    for (label, kind), (res, ref) in crit1_runs["results"].items():
        slack = ref.certified_gap + 1e-9
        for row in res.rows:
            rows_checked += 1
            worst = max(worst, row.gap_best - row.bound - slack,
                        row.gap_avg - row.bound - slack)
    elapsed = crit1_runs["elapsed"]
    ok = worst <= 0 and rows_checked == 10 * 100 and elapsed < 30.0
    report(1, "guaranteed bound, exact gradients", ok,
           "worst margin %.3g, %d rows, %.1fs" % (worst, rows_checked, elapsed))


def test_criterion_02_rda_rate(crit2_run):
    rows = crit2_run["rows"]
    ns = np.array([r.n for r in rows], dtype=float)
    gaps = np.array([r.gap_best for r in rows], dtype=float)
    keep = (ns >= 100) & (ns <= 100_000) & (gaps > 0)
    slope = float(np.polyfit(np.log(ns[keep]), np.log(gaps[keep]), 1)[0])
    elapsed = crit2_run["elapsed"]
    ok = -0.65 <= slope <= -0.35 and elapsed < 60.0
    report(2, "dual-averaging n^(-1/2) rate", ok,
           "slope %.3f over %d rows, %.1fs" % (slope, int(keep.sum()), elapsed))


def test_criterion_03_forward_backward_reduction(crit3_runs):
    errs = crit3_runs["max_err"]
    worst = max(errs.values())
    ok = worst <= 1e-10
    report(3, "collapse to classical proximal subgradient", ok,
           "max deviation %.3g over %s" % (worst, sorted(errs)))


def test_criterion_04_formulation_equivalence(crit4_runs):
    errs = crit4_runs["max_err"]
    worst = max(errs.values())
    ok = worst <= 1e-9
    report(4, "forward recursion equals accumulated argmin form", ok,
           "max deviation %.3g over %s" % (worst, sorted(errs)))


def test_criterion_05_subgradient_extraction(crit1_runs, crit2_run,
                                             crit3_runs, crit4_runs):
    collectors = (crit1_runs["hlogs"] + [crit2_run["hlog"]]
                  + crit3_runs["hlogs"] + crit4_runs["hlogs"])
    checked = bad = 0
    for coll in collectors:
        for i in range(coll.count):
            if coll.gammas[i] > 0:
                checked += 1
                if not in_subdifferential(coll.reg, coll.H[i], coll.X[i], 1e-8):
                    bad += 1
    ok = checked > 200_000 and bad == 0
    report(5, "recovered subgradients lie in the subdifferential", ok,
           "%d/%d valid" % (checked - bad, checked))


def test_criterion_06_strong_convexity():
    rng = np.random.default_rng(2026)
    t0 = time.perf_counter()
    worst = np.inf
    for _ in range(10_000):
        x = rng.standard_normal(8) * 3.0
        y = rng.standard_normal(8) * 3.0
        gap = EU.bregman(x, y) - 0.5 * float(np.sum((x - y) ** 2))
        worst = min(worst, gap)
    for _ in range(10_000):
        x = rng.dirichlet(np.ones(8))
        y = rng.dirichlet(np.ones(8))
        x = np.maximum(x, 1e-12)
        y = np.maximum(y, 1e-12)
        gap = EN.bregman(x, y) - 0.5 * float(np.sum(np.abs(x - y))) ** 2
        worst = min(worst, gap)
    elapsed = time.perf_counter() - t0
    ok = worst >= -1e-10 and elapsed < 5.0
    report(6, "strong convexity of both mirrors", ok,
           "worst slack %.3g, %.2fs" % (worst, elapsed))


def test_criterion_07_stochastic_bound(logit20):
    base, ref = logit20
    problem = build_problem("logistic", base.reg, base.mirror, A=base.A,
                            b=base.b, batch_size=1)
    t0 = time.perf_counter()
    final_gaps = []
    bound = None
    for seed in range(20):
        res = run(problem, preset_schedule("rda"), 10_000, mode="stochastic",
                  seed=seed, stride=10_000, reference=ref)
        final_gaps.append(res.state.best_f - ref.f_star)
        bound = theoretical_bound(
            res.state, problem.mirror.bregman(ref.x_star, res.state.x1),
            problem.M, problem.mirror.sigma)
    elapsed = time.perf_counter() - t0
    mean_gap = float(np.mean(final_gaps))
    limit = 1.10 * bound + ref.certified_gap
    ok = mean_gap <= limit and elapsed < 120.0
    report(7, "bound under single-sample stochastic gradients", ok,
           "seed-mean gap %.3g vs %.3g, %.0fs" % (mean_gap, limit, elapsed))


def test_criterion_08_sparsity_contrast():
    problem = make_instance(SPARSE100)
    ref = reference_optimum(problem, tol=REF_TOL)
    fracs = {}
    for kind in ("leap_frog", "constant_backward", "forward_backward"):
        res = run(problem, preset_schedule(kind), 3000, stride=100,
                  reference=ref)
        nnz = [r.nnz for r in res.rows if r.n >= 500]
        assert len(nnz) == 26
        if kind == "forward_backward":
            fracs[kind] = float(np.mean([v > 15 for v in nnz]))
        else:
            fracs[kind] = float(np.mean([v <= 15 for v in nnz]))
        if kind == "constant_backward":
            # bounded, not growing: pinned at gamma / alpha = s_1 = 1
            assert res.rows[-1].backward_step == 1.0
    ok = all(frac >= 0.90 for frac in fracs.values())
    report(8, "a backward step that does not shrink drives iterate sparsity", ok,
           "leap_frog<=15 at %.0f%%, constant_backward<=15 at %.0f%%, "
           "forward_backward>15 at %.0f%%"
           % (100 * fracs["leap_frog"], 100 * fracs["constant_backward"],
              100 * fracs["forward_backward"]))


def test_criterion_09_prox_closed_forms():
    rng = np.random.default_rng(99)
    d = 3
    worst = 0.0

    def euclid_separable(reg, coord_obj, lo, hi):
        nonlocal worst
        for _ in range(200):
            y = rng.uniform(-2.0, 2.0, size=d)
            s = float(rng.uniform(0.01, 2.0))
            got = mirror_prox(reg, EU, y, s)
            want = np.array([refine_minimize_1d(
                lambda z: 0.5 * (z - y[j]) ** 2 + coord_obj(z, s), lo, hi)
                for j in range(d)])
            worst = max(worst, float(np.max(np.abs(got - want))))

    euclid_separable(L1Penalty(0.7), lambda z, s: s * 0.7 * abs(z), -3.0, 3.0)
    euclid_separable(BoxIndicator(-0.6, 1.1),
                     lambda z, s: 0.0 if -0.6 - 1e-9 <= z <= 1.1 + 1e-9
                     else float("inf"), -0.6, 1.1)
    euclid_separable(ZeroRegularizer(), lambda z, s: 0.0, -3.0, 3.0)

    ball = L2BallIndicator(1.3)
    for _ in range(200):
        y = rng.uniform(-2.0, 2.0, size=d)
        s = float(rng.uniform(0.01, 2.0))
        got = mirror_prox(ball, EU, y, s)
        want = l2ball_projection_oracle(y, 1.3)
        worst = max(worst, float(np.max(np.abs(got - want))))

    simplex = SimplexIndicator()
    for _ in range(200):
        y = rng.uniform(0.05, 2.5, size=d)
        s = float(rng.uniform(0.01, 2.0))
        got = mirror_prox(simplex, EN, y, s)
        want = simplex_kl_oracle(y)
        worst = max(worst, float(np.max(np.abs(got - want))))

    zero = ZeroRegularizer()
    for _ in range(200):
        y = rng.uniform(0.05, 2.5, size=d)
        s = float(rng.uniform(0.01, 2.0))
        got = mirror_prox(zero, EN, y, s)
        want = np.array([refine_minimize_1d(
            lambda z: z * np.log(z / y[j]) - z + y[j], 1e-6, 8.0)
            for j in range(d)])
        worst = max(worst, float(np.max(np.abs(got - want))))

    ok = worst <= 1e-6
    report(9, "backward-step closed forms match numeric argmin", ok,
           "max deviation %.3g over 6 combinations x 200 draws" % worst)


def acceptance_config(spec, preset, iterations, extra_run=""):
    mu_line = "mu = 0.5\n" if preset == "averaged_leap_frog" else ""
    return """\
spec_version = 1
[problem]
loss = %(loss)s
mirror = euclidean
regularizer = l1
lambda = %(lam)g
d = %(d)d
m = %(m)d
k = %(k)d
noise = %(noise)g
data_seed = %(seed)d
[schedule]
preset = %(preset)s
%(mu)s[run]
iterations = %(iters)d
%(extra)s[output]
stride = 100
""" % dict(spec, preset=preset, mu=mu_line, iters=iterations, extra=extra_run)


def test_criterion_10_byte_determinism(tmp_path):
    configs = {}
    for spec, label in ((LAD20, "lad20"), (LOGIT20, "logit20")):
        for kind in PRESETS:
            configs["%s_%s" % (label, kind)] = acceptance_config(
                spec, kind, 2000)
    configs["logit20_stochastic"] = acceptance_config(
        LOGIT20, "rda", 2000, extra_run="mode = stochastic\nseeds = 0 1\n"
                                        "batch_size = 1\n")
    for kind in ("leap_frog", "forward_backward"):
        configs["sparse100_%s" % kind] = acceptance_config(SPARSE100, kind, 1000)

    mismatched = []
    for name, text in sorted(configs.items()):
        cfg = parse_config(text, base_dir=tmp_path, name=name)
        first = run_experiment(cfg, out_dir=tmp_path / "a")
        second = run_experiment(cfg, out_dir=tmp_path / "b")
        for pa, pb in zip(first, second):
            if pa.read_bytes() != pb.read_bytes():
                mismatched.append(pa.name)
    ok = not mismatched and len(configs) == 13
    report(10, "repeated runs produce byte-identical traces", ok,
           "%d configs%s" % (len(configs),
                             ", mismatches: %s" % mismatched if mismatched else ""))

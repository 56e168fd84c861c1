"""The benchmark's workloads: xrda experiment configs generated from a seed.

Each workload is one INI config text plus the harness entry point that
runs it.  The workload seed becomes the config's ``data_seed`` and, for
stochastic workloads, is expanded into the list of sampling seeds; the
program under test only ever sees the generated config.

The logistic workloads certify their reference to 1e-6, not the default
1e-8: at d=2000 L-BFGS-B stops with certificates between about 3e-9
and 1.3e-8, so at 1e-8 roughly one seed in ten falls through to the
proximal-gradient polish, whose spectral-norm computation adds seconds
of set-up and tens of MB of memory to that seed alone.

``BENCHMARK.json`` lists only the two logistic workloads.  On a shared
2-vCPU host (Intel Xeon, 2 MiB L2 per core) the speed of CPU-bound
code drifts by up to a third over minutes, and a run's median moves
with it: ten 40 s runs of ``lad-compare-d200``, whose LP reference and
Python-bound step loop are both CPU-bound, spread by 31-35% of their
median (quartile distance), where ``logistic-exact-d2000``, bound by
reads of its 64 MB matrix, spread by 8-12%.  The lad workload stays here
to be run by hand, for work on the LP reference and the step loop.
For the same reason ``logistic-stoch-b1`` uses m=8000: its full-data
objective, evaluated every step for ``best_f``, then takes most of a
step; at m=2000 the Python overhead made run medians spread by up to 25%.
"""

import random
from dataclasses import dataclass

PRESETS = ("forward_backward", "rda", "leap_frog", "constant_backward",
           "averaged_leap_frog")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    entry: str            # "compare" or "run_experiment"
    loss: str
    lam: float
    noise: float
    mode: str             # "exact" or "stochastic"
    n_seeds: int
    batch_size: int       # None for full-data subgradients
    tol: float            # gap_best target behind solver.iters_to_tol
    reference_tol: float  # the config's reference_tol
    sizes: dict           # size name -> d, m, k, iterations, stride, floor_steps


WORKLOADS = {w.name: w for w in (
    Workload(
        name="lad-compare-d200",
        why=("compare over all five presets on lad+l1, d=200: the two-LP reference is "
             "half the wall time and the Python-bound step loop the other half"),
        entry="compare", loss="lad", lam=0.1, noise=0.2, mode="exact",
        n_seeds=1, batch_size=None, tol=1e-4, reference_tol=1e-8,
        sizes={"full": dict(d=200, m=400, k=10, iterations=3000, stride=100,
                            floor_steps=3000),
               "tiny": dict(d=8, m=16, k=2, iterations=200, stride=20,
                            floor_steps=50)}),
    Workload(
        name="logistic-exact-d2000",
        why=("run_experiment on logistic+l1, d=2000: a 64 MB data matrix makes the "
             "full-data oracle about 95% of a step and bypasses the LP and overhead"),
        entry="run_experiment", loss="logistic", lam=0.01, noise=0.5, mode="exact",
        n_seeds=1, batch_size=None, tol=2e-2, reference_tol=1e-6,
        sizes={"full": dict(d=2000, m=4000, k=20, iterations=400, stride=20,
                            floor_steps=50),
               "tiny": dict(d=12, m=40, k=3, iterations=100, stride=10,
                            floor_steps=50)}),
    Workload(
        name="logistic-stoch-b1",
        why=("run_experiment on logistic+l1, d=200, m=8000, batch 1, 2 seeds: one-row "
             "sampled subgradients, the full objective for best_f, the seed-mean check"),
        entry="run_experiment", loss="logistic", lam=0.01, noise=0.5,
        mode="stochastic", n_seeds=2, batch_size=1, tol=0.3, reference_tol=1e-6,
        sizes={"full": dict(d=200, m=8000, k=10, iterations=2000, stride=100,
                            floor_steps=2000),
               "tiny": dict(d=10, m=40, k=2, iterations=200, stride=20,
                            floor_steps=50)}),
)}


def sampling_seeds(workload, seed):
    """The stochastic seed list derived from the workload seed."""
    if workload.mode != "stochastic":
        return [0]
    return random.Random(seed).sample(range(1, 1_000_000), workload.n_seeds)


def config_text(workload, seed, size="full"):
    """The INI config the workload runs for this seed and size."""
    p = workload.sizes[size]
    lines = [
        "spec_version = 1",
        "",
        "[problem]",
        "loss = %s" % workload.loss,
        "mirror = euclidean",
        "regularizer = l1",
        "lambda = %r" % workload.lam,
        "d = %d" % p["d"],
        "m = %d" % p["m"],
        "k = %d" % p["k"],
        "noise = %r" % workload.noise,
        "data_seed = %d" % seed,
        "",
        "[schedule]",
        "preset = leap_frog",
        "",
        "[run]",
        "iterations = %d" % p["iterations"],
        "mode = %s" % workload.mode,
        "seeds = %s" % " ".join(str(s) for s in sampling_seeds(workload, seed)),
        "reference_tol = %r" % workload.reference_tol,
    ]
    if workload.batch_size is not None:
        lines.append("batch_size = %d" % workload.batch_size)
    lines += ["", "[output]", "stride = %d" % p["stride"]]
    return "\n".join(lines) + "\n"

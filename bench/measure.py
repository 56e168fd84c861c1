"""Repetitions of one workload through xrda's public harness, and their metrics.

A repetition parses the workload's config and makes one harness call
(``xrda.harness.compare`` or ``xrda.harness.run_experiment``) into a
fresh output directory, so the reference cache starts cold every time.
Untraced repetitions give the end-to-end metrics; traced repetitions
(see ``tracing``) give the per-layer metrics.  Every repetition's
outputs go through the correctness gate and must be byte-identical to
the first repetition's.
"""

import json
import resource
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import xrda.harness
from xrda.config import parse_config
from xrda.harness import read_trace_csv

from checks import (compare_csv_failures, digest, floor_check, row_failures,
                    rows_text, seed_mean_failures)
from environment import environment
from tracing import Tracer, instrument
from workloads import PRESETS, WORKLOADS, config_text

MIN_REPS = 3

# name -> (unit, better); trace 0 reports these
END_TO_END = {
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "iters_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "ok_frac": ("ratio", "higher"),
}

# name -> (unit, better); trace 1 reports these
PER_LAYER = {
    "reference.solve_s": ("s", "lower"),
    "reference.certified_gap": ("objective", "lower"),
    "reference.certificate_calls": ("count", "lower"),
    "reference.certificate_s": ("s", "lower"),
    "config.parse_s": ("s", "lower"),
    "config.build_problem_s": ("s", "lower"),
    "solver.steps": ("count", "higher"),
    "solver.step_s": ("s/step", "lower"),
    "solver.step_self_s": ("s/step", "lower"),
    "solver.init_s": ("s", "lower"),
    "solver.trace_row_s": ("s", "lower"),
    "solver.trace_rows": ("count", "lower"),
    "solver.iters_to_tol": ("count", "lower"),
    "solver.floor_ratio": ("ratio", "lower"),
    "schedules.evals": ("count", "lower"),
    "schedules.eval_s": ("s", "lower"),
    "geometry.grad_calls": ("count", "lower"),
    "geometry.grad_s": ("s", "lower"),
    "geometry.grad_inverse_s": ("s", "lower"),
    "geometry.as_vector_calls": ("count", "lower"),
    "regularizers.prox_calls": ("count", "lower"),
    "regularizers.prox_s": ("s", "lower"),
    "problems.subgradient_calls": ("count", "lower"),
    "problems.subgradient_s": ("s", "lower"),
    "problems.objective_calls": ("count", "lower"),
    "problems.objective_s": ("s", "lower"),
    "problems.sample_calls": ("count", "lower"),
    "problems.sample_s": ("s", "lower"),
    "problems.matvec_bytes_computed": ("B", "lower"),
    "harness.write_s": ("s", "lower"),
    "harness.trace_bytes": ("B", "lower"),
    "harness.cache_s": ("s", "lower"),
    "floor.step_s": ("s/step", "lower"),
    "tracing.overhead_s": ("s", "lower"),
}

_clock = time.perf_counter


@dataclass
class Rep:
    traced: bool
    wall_s: float
    setup_s: float
    iterate_s: float
    steps: int
    runs: list                      # (run id, output digest, failures)
    layers: dict = field(default=None)
    edges: list = field(default=None)


def _iters_to_tol(rows, tol, sentinel):
    return next((r.n for r in rows if r.gap_best <= tol), sentinel)


def _gate(workload, cfg, tracer, outcome):
    """Gate every run of one harness call; returns (run id, digest, failures)."""
    ref = tracer.references[0]
    common = []
    if not ref.converged:
        common.append("reference not converged (certified_gap %.3g, method %s)"
                      % (ref.certified_gap, ref.method))
    strict = cfg.mode == "exact"
    if workload.entry == "compare":
        csv_text = outcome.csv_path.read_text()
        common += compare_csv_failures(csv_text, PRESETS, tracer.results)
        csv_lines = csv_text.splitlines()[1:]
        runs = [(preset, result.rows, digest(rows_text(result.rows), line))
                for preset, result, line in zip(PRESETS, tracer.results, csv_lines)]
    else:
        runs = [(path.name, read_trace_csv(path), digest(path.read_bytes()))
                for path in outcome]
    if not strict:
        common += seed_mean_failures([rows[-1] for _, rows, _ in runs if rows],
                                     ref.certified_gap)
    return [(run_id, dig, common + row_failures(rows, ref.certified_gap, cfg.iterations,
                                                 cfg.stride, strict))
            for run_id, rows, dig in runs]


def _layers(workload, cfg, tracer, parse_s, write_s, trace_bytes):
    sp = "solver.run"
    problem = tracer.problem
    steps = tracer.calls("solver.step")
    subgrads = tracer.calls("problems.subgradient", sp)
    objectives = tracer.calls("problems.objective", sp)
    samples = tracer.calls("problems.sample", sp)
    matvec_rows = 2 * problem.m * subgrads + problem.m * objectives \
        + 2 * problem.batch_size * samples
    first = tracer.results[PRESETS.index(cfg.preset) if workload.entry == "compare" else 0]
    schedules = ("schedules.s", "schedules.alpha", "schedules.t")
    return {
        "reference.solve_s": tracer.total_s("reference.solve"),
        "reference.certified_gap": tracer.references[0].certified_gap,
        "reference.certificate_calls": tracer.calls("reference.certificate"),
        "reference.certificate_s": tracer.total_s("reference.certificate"),
        "config.parse_s": parse_s,
        "config.build_problem_s": tracer.total_s("config.build_problem"),
        "solver.steps": steps,
        "solver.step_s": tracer.total_s("solver.step") / steps,
        "solver.step_self_s": tracer.self_s("solver.step") / steps,
        "solver.init_s": tracer.total_s("solver.init"),
        "solver.trace_row_s": tracer.total_s("solver.trace_row"),
        "solver.trace_rows": tracer.calls("solver.trace_row"),
        "solver.iters_to_tol": _iters_to_tol(first.rows, workload.tol,
                                             cfg.iterations + cfg.stride),
        "schedules.evals": sum(tracer.calls(n) for n in schedules),
        "schedules.eval_s": sum(tracer.total_s(n) for n in schedules),
        "geometry.grad_calls": tracer.calls("geometry.grad", sp),
        "geometry.grad_s": tracer.total_s("geometry.grad", sp),
        "geometry.grad_inverse_s": tracer.total_s("geometry.grad_inverse", sp),
        "geometry.as_vector_calls": tracer.calls("geometry.as_vector", sp),
        "regularizers.prox_calls": tracer.calls("regularizers.prox", sp),
        "regularizers.prox_s": tracer.total_s("regularizers.prox", sp),
        "problems.subgradient_calls": subgrads,
        "problems.subgradient_s": tracer.total_s("problems.subgradient", sp),
        "problems.objective_calls": objectives,
        "problems.objective_s": tracer.total_s("problems.objective", sp),
        "problems.sample_calls": samples,
        "problems.sample_s": tracer.total_s("problems.sample", sp),
        "problems.matvec_bytes_computed": 8 * problem.d * matvec_rows,
        "harness.write_s": write_s,
        "harness.trace_bytes": trace_bytes,
        "harness.cache_s": tracer.self_s("harness.cached_reference"),
    }


def run_rep(workload, text, traced, work_dir):
    """One harness call on a cold output directory."""
    out = Path(tempfile.mkdtemp(prefix="rep-", dir=work_dir))
    tracer = Tracer()
    try:
        t0 = _clock()
        cfg = parse_config(text, name=workload.name)
        parse_s = _clock() - t0
        with instrument(tracer, full=traced):
            if workload.entry == "compare":
                outcome = xrda.harness.compare(cfg, PRESETS, out_dir=out)
            else:
                outcome = xrda.harness.run_experiment(cfg, out_dir=out)
        end = _clock()
        runs = _gate(workload, cfg, tracer, outcome)
        trace_bytes = sum(p.stat().st_size for p in out.glob("*.csv"))
    finally:
        shutil.rmtree(out, ignore_errors=True)
    rep = Rep(
        traced=traced,
        wall_s=end - t0,
        setup_s=(parse_s + tracer.total_s("config.build_problem")
                 + tracer.total_s("harness.cached_reference")),
        iterate_s=tracer.total_s("solver.run"),
        steps=sum(r.state.n - 1 for r in tracer.results),
        runs=runs)
    if traced:
        if workload.entry == "compare":
            write_s = end - tracer.last_run_end   # compare writes its CSV inline
        else:
            write_s = tracer.total_s("harness.write")
        rep.layers = _layers(workload, cfg, tracer, parse_s, write_s, trace_bytes)
        rep.edges = tracer.edge_table()
    return rep


def _metric(table, name, value):
    return {"value": value, "unit": table[name][0]}


def measure(name, seed, seconds, trace, size="full", out_root=Path(".bench_out"),
            blas_threads=None):
    """Run one workload for about ``seconds``; returns the result record.

    Repetitions run while another one fits in ``seconds``, and at least
    MIN_REPS of them.  With ``trace`` off all are untraced, and the first
    warms the process up (lazy imports, allocator): it is gated like the
    others but left out of the timings.  With ``trace`` on, the first is
    untraced and the rest are traced.
    """
    workload = WORKLOADS[name]
    text = config_text(workload, seed, size)
    cfg = parse_config(text, name=workload.name)
    out_root = Path(out_root)
    (out_root / "work").mkdir(parents=True, exist_ok=True)
    work_dir = tempfile.mkdtemp(dir=out_root / "work")
    reps = []
    took = []
    start = _clock()
    try:
        # start another repetition only if a typical one still fits in the time
        while len(reps) < MIN_REPS or (_clock() - start + statistics.median(took)
                                       <= seconds):
            t0 = _clock()
            reps.append(run_rep(workload, text, trace and len(reps) > 0, work_dir))
            took.append(_clock() - t0)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    solver_step_s, floor_step_s, floor_failures = floor_check(
        cfg, workload.sizes[size]["floor_steps"])

    # determinism: every run's outputs equal those of the first repetition
    expected = [dig for _, dig, _ in reps[0].runs]
    for rep in reps[1:]:
        for (run_id, dig, failures), want in zip(rep.runs, expected):
            if dig != want:
                failures.append("%s output differs from repetition 1 (traced=%s)"
                                % (run_id, rep.traced))
    attempted = sum(len(rep.runs) for rep in reps)
    failed = sum(1 for rep in reps for _, _, failures in rep.runs if failures)

    untraced = [rep for rep in reps if not rep.traced]
    if trace:
        traced = [rep for rep in reps if rep.traced]
        layers = {key: statistics.median(rep.layers[key] for rep in traced)
                  for key in traced[0].layers}
        layers["floor.step_s"] = floor_step_s
        layers["solver.floor_ratio"] = solver_step_s / floor_step_s
        layers["tracing.overhead_s"] = (statistics.median(r.wall_s for r in traced)
                                        - statistics.median(r.wall_s for r in untraced))
        metrics = {key: _metric(PER_LAYER, key, layers[key]) for key in PER_LAYER}
    else:
        timed = untraced[1:]
        values = {
            "wall_s": statistics.median(r.wall_s for r in timed),
            "setup_s": statistics.median(r.setup_s for r in timed),
            "iters_per_s": statistics.median(r.steps / r.iterate_s for r in timed),
            "peak_rss_mb": peak_rss_mb,
            "ok_frac": 1.0 - failed / attempted,
        }
        metrics = {key: _metric(END_TO_END, key, values[key]) for key in END_TO_END}

    problem_size = workload.sizes[size]
    return {
        "workload": workload.name,
        "why": workload.why,
        "seed": seed,
        "size": size,
        "trace": bool(trace),
        "config": text,
        "environment": environment(blas_threads,
                                   8 * problem_size["m"] * problem_size["d"]),
        "correct": failed == 0 and not floor_failures,
        "attempted": attempted,
        "failed": failed,
        "failures": [f for rep in reps for _, _, fs in rep.runs for f in fs]
        + floor_failures,
        "metrics": metrics,
        "repetitions": [{"traced": r.traced, "wall_s": r.wall_s, "setup_s": r.setup_s,
                         "iterate_s": r.iterate_s, "steps": r.steps} for r in reps],
        "floor": {"steps": problem_size["floor_steps"], "solver_step_s": solver_step_s,
                  "floor_step_s": floor_step_s},
        "spans": next((r.edges for r in reversed(reps) if r.traced), None),
    }


def write_record(record, out_root=Path(".bench_out")):
    results = Path(out_root) / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / ("%s-seed%d-trace%d.json" % (record["workload"], record["seed"],
                                                  record["trace"]))
    path.write_text(json.dumps(record, indent=1))
    return path

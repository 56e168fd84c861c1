"""Spans around the calls into each xrda layer, recorded from outside the package.

``instrument`` swaps wrappers into the module attributes that xrda's own
callers look up (``xrda.harness.run``, ``xrda.solver.step``, ...) and
into the instance methods of the problem and mirror the harness builds,
and restores everything on exit.  Nothing under ``src/`` is modified.

A span is one wrapped call: its name, its duration and the span that
caused it.  Spans are aggregated as they close, per (phase, name,
parent name), which is all the metrics need and keeps memory flat on
runs with hundreds of thousands of calls.  The phase is the nearest
enclosing span among ``PHASES``.  A span's self time is its duration
minus the time covered by its child spans.

Two levels:

* phases only (``full=False``): the harness's problem build, reference
  lookup and solver runs, a handful of calls per harness call.  This is
  what the untraced repetitions use to split wall time into set-up and
  iterate phases and to capture each run's result.
* full: every layer below as well.
"""

import time
from contextlib import contextmanager

import xrda.geometry
import xrda.harness
import xrda.problems
import xrda.reference
import xrda.regularizers
import xrda.solver

PHASES = ("config.build_problem", "harness.cached_reference", "solver.run")

_clock = time.perf_counter


class Tracer:
    """Aggregated spans plus the objects captured at the harness boundary."""

    def __init__(self):
        self._root = ["<root>", 0.0, "none"]
        self._stack = [self._root]
        self.edges = {}          # (phase, name, parent) -> [calls, total_s, self_s]
        self.results = []        # RunResult of every solver run, in call order
        self.references = []     # ReferenceSolution of every reference lookup
        self.problem = None      # the problem the harness built
        self.last_run_end = None

    def wrap(self, name, fn):
        stack = self._stack
        edges = self.edges
        is_phase = name in PHASES

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0, name if is_phase else parent[2]]
            stack.append(frame)
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = _clock() - t0
                stack.pop()
                parent[1] += dur
                key = (frame[2], name, parent[0])
                agg = edges.get(key)
                if agg is None:
                    agg = edges[key] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame[1]

        return traced

    def _sum(self, name, phase, column):
        return sum(agg[column] for (ph, nm, _), agg in self.edges.items()
                   if nm == name and (phase is None or ph == phase))

    def calls(self, name, phase=None):
        return self._sum(name, phase, 0)

    def total_s(self, name, phase=None):
        return self._sum(name, phase, 1)

    def self_s(self, name, phase=None):
        return self._sum(name, phase, 2)

    def edge_table(self):
        """Spans aggregated per (phase, name, parent), for the results file."""
        return [{"phase": ph, "name": nm, "parent": parent, "calls": agg[0],
                 "total_s": agg[1], "self_s": agg[2]}
                for (ph, nm, parent), agg in sorted(self.edges.items())]


def _instrument_schedule(tracer, schedule):
    for attr in ("s", "alpha", "t"):
        setattr(schedule, attr, tracer.wrap("schedules." + attr, getattr(schedule, attr)))
    return schedule


def _instrument_problem(tracer, problem):
    for attr, name in (("subgradient", "problems.subgradient"),
                       ("objective", "problems.objective"),
                       ("sample_subgradient", "problems.sample")):
        setattr(problem, attr, tracer.wrap(name, getattr(problem, attr)))
    mirror = problem.mirror
    for attr in ("grad", "grad_inverse", "bregman"):
        setattr(mirror, attr, tracer.wrap("geometry." + attr, getattr(mirror, attr)))
    problem.reg.value = tracer.wrap("regularizers.value", problem.reg.value)
    return problem


@contextmanager
def instrument(tracer, full):
    """Install the tracer's wrappers for the duration of the block."""
    H = xrda.harness
    orig_run = H.run
    orig_build = H.build_problem_from_config
    orig_cached = H.cached_reference

    def run_and_capture(*args, **kwargs):
        result = orig_run(*args, **kwargs)
        tracer.results.append(result)
        tracer.last_run_end = _clock()
        return result

    def build(cfg):
        tracer.problem = orig_build(cfg)
        return _instrument_problem(tracer, tracer.problem) if full else tracer.problem

    def cached_and_capture(*args, **kwargs):
        ref = orig_cached(*args, **kwargs)
        tracer.references.append(ref)
        return ref

    patches = [
        (H, "run", tracer.wrap("solver.run", run_and_capture)),
        (H, "build_problem_from_config", tracer.wrap("config.build_problem", build)),
        (H, "cached_reference", tracer.wrap("harness.cached_reference",
                                            cached_and_capture)),
    ]
    if full:
        def schedule_factory(fn):
            return lambda *a, **k: _instrument_schedule(tracer, fn(*a, **k))

        S, R = xrda.solver, xrda.reference
        patches += [
            (H, "reference_optimum", tracer.wrap("reference.solve", H.reference_optimum)),
            (H, "write_trace_csv", tracer.wrap("harness.write", H.write_trace_csv)),
            (H, "build_schedule_from_config",
             schedule_factory(H.build_schedule_from_config)),
            (H, "schedule_preset", schedule_factory(H.schedule_preset)),
            (S, "init", tracer.wrap("solver.init", S.init)),
            (S, "step", tracer.wrap("solver.step", S.step)),
            (S, "trace_row", tracer.wrap("solver.trace_row", S.trace_row)),
            (S, "mirror_prox", tracer.wrap("regularizers.prox", S.mirror_prox)),
            (R, "mirror_prox", tracer.wrap("regularizers.prox", R.mirror_prox)),
            (R, "lower_bound_certificate",
             tracer.wrap("reference.certificate", R.lower_bound_certificate)),
            (R, "linprog", tracer.wrap("reference.linprog", R.linprog)),
            (R, "minimize", tracer.wrap("reference.minimize", R.minimize)),
        ]
        for module in (xrda.geometry, xrda.problems, xrda.regularizers, S, R):
            patches.append((module, "as_vector",
                            tracer.wrap("geometry.as_vector", module.as_vector)))
    saved = []
    try:
        for obj, attr, value in patches:
            saved.append((obj, attr, getattr(obj, attr)))
            setattr(obj, attr, value)
        yield tracer
    finally:
        for obj, attr, value in reversed(saved):
            setattr(obj, attr, value)

"""Experiment harness: trace files, bound checking, preset comparison.

Trace CSVs have one column per field of ``solver.TraceRow``, header
``n,f_x,f_avg,gap_best,gap_avg,bound,backward_step,nnz,elapsed_s``,
each value written with ``%.17g`` (integers as ``str`` writes them,
floats so they round-trip exactly) and read back with its field's type.
Files are written atomically (temp file + rename).  With the default
deterministic timing a run is a pure function of (config text, seed)
and repeated invocations produce byte-identical files.

``run_experiment`` and ``compare`` share one setup (``_setup``), which
checks the start point, a config error, before it writes anything or
solves the reference, and one runner (``_trace``), which refuses a run
that logs no trace row or whose rows prove the reference's certificate
false.
"""

import hashlib
import json
import math
import statistics
from dataclasses import astuple, fields
from pathlib import Path

import numpy as np

from .config import ConfigError, build_problem_from_config, build_schedule_from_config
from .geometry import MirrorDomainError
from .problems import _write_atomic
from .reference import certify, reference_optimum
from .schedules import PRESET_KINDS, schedule_preset
from .solver import TraceRow, run, start_point

TRACE_FIELDS = tuple(f.name for f in fields(TraceRow))
TRACE_HEADER = ",".join(TRACE_FIELDS)
_TRACE_TYPES = tuple(f.type for f in fields(TraceRow))


def _fmt(value):
    return "%.17g" % value


def write_trace_csv(rows, path):
    """Atomically write trace rows; floats keep full round-trip precision."""
    path = Path(path)
    lines = [TRACE_HEADER] + [",".join(map(_fmt, astuple(r))) for r in rows]
    _write_atomic(path, "\n".join(lines) + "\n")
    return path


def read_trace_csv(path):
    path = Path(path)
    with open(path, "r", newline="") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != TRACE_HEADER:
        raise ValueError("%s is not a trace file (bad header)" % path)
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != len(TRACE_FIELDS):
            raise ValueError("%s line %d: expected %d fields, got %d"
                             % (path, lineno, len(TRACE_FIELDS), len(parts)))
        try:
            rows.append(TraceRow(*(kind(p) for kind, p in zip(_TRACE_TYPES, parts))))
        except ValueError as exc:
            raise ValueError("%s line %d: %s" % (path, lineno, exc)) from None
    return rows


def _reference_cache_path(out_dir, key):
    return Path(out_dir) / "_refcache" / ("%s.json" % key)


def _reference_cache_key(cfg, problem):
    """cfg.problem_key, which fixes synthetic data; data files enter the
    [problem] text only by path, so their contents are hashed in too."""
    if cfg.data_a is None:
        return cfg.problem_key
    digest = hashlib.sha256()
    for arr in (problem.A, problem.b):
        digest.update(repr(arr.shape).encode())
        for i in range(0, arr.shape[0], 256):  # row-major bytes, no copy of all of A
            digest.update(arr[i:i + 256].tobytes())
    return "%s_%s" % (cfg.problem_key, digest.hexdigest()[:16])


def _load_reference(cache, problem, tol):
    """The cached ReferenceSolution, or None if the entry is missing,
    unreadable or invalid: a hit is what ``reference.certify`` makes of the
    entry's x_star and x_cert again at tol, with exactly its f_star,
    certified_gap and converged.  An entry without x_cert, or whose
    points are not finite d-vectors, is a miss."""
    try:
        data = json.loads(cache.read_text())
        ref = certify(problem, np.asarray(data["x_star"], dtype=float), data["method"],
                      tol, np.asarray(data["x_cert"], dtype=float))
        stored = (data["f_star"], data["certified_gap"], data["converged"])
    except (OSError, ValueError, KeyError, TypeError):
        return None
    return ref if (ref.f_star, ref.certified_gap, ref.converged) == stored else None


def cached_reference(cfg, problem, out_dir):
    """Reference optimum, cached on disk keyed by the problem definition
    and, for data files, by their contents; an invalid entry is replaced.
    An entry holds x_star, f_star, certified_gap, converged, method and
    x_cert."""
    cache = _reference_cache_path(out_dir, _reference_cache_key(cfg, problem))
    ref = _load_reference(cache, problem, cfg.reference_tol)
    if ref is not None:
        return ref
    ref = reference_optimum(problem, tol=cfg.reference_tol)
    cache.parent.mkdir(parents=True, exist_ok=True)
    payload = {"x_star": [float(v) for v in ref.x_star], "f_star": ref.f_star,
               "certified_gap": ref.certified_gap, "converged": ref.converged,
               "method": ref.method, "x_cert": [float(v) for v in ref.x_cert]}
    _write_atomic(cache, json.dumps(payload))
    return ref


def _setup(cfg, out_dir, unsafe):
    """The output directory, problem and reference of ``run_experiment``
    and ``compare``.  The start point is checked (a config error) before
    anything is written or the reference is solved.  A reference with no
    finite certificate is refused unless unsafe: nothing then bounds its
    gap to f*, and the problem may have no minimizer (logistic loss on
    separable data).  So is a reference outside the mirror's domain,
    whose D(x*, x1) the bound cannot take: a lad or logistic reference
    on the zero regularizer minimizes over all of R^d, and may have
    negative entries, outside the entropy mirror's orthant."""
    problem = build_problem_from_config(cfg)
    try:
        x1 = start_point(problem, cfg.x1)
    except ValueError as exc:
        raise ConfigError(["[run] %s" % exc]) from None
    out = Path(out_dir) if out_dir is not None else Path(cfg.directory)
    out.mkdir(parents=True, exist_ok=True)
    reference = cached_reference(cfg, problem, out)
    if not unsafe and not math.isfinite(reference.certified_gap):
        raise RuntimeError(
            "the reference optimum has no finite certificate (%s, certified_gap = %g); "
            "the problem may have no minimizer, e.g. logistic loss on separable "
            "data; rerun with --unsafe to trace it anyway"
            % (reference.method, reference.certified_gap))
    try:
        problem.mirror.bregman(reference.x_star, x1)
    except MirrorDomainError as exc:
        raise RuntimeError(
            "the reference optimum lies outside the %s mirror's domain (%s), so the "
            "bound's D(x*, x1) is undefined; use a regularizer whose set lies inside "
            "the domain, such as simplex, or set reference_tol = inf to take the "
            "canonical start as the reference" % (problem.mirror.kind, exc)) from None
    return out, problem, reference


def _trace(cfg, problem, schedule, seed, reference, unsafe):
    """The trace rows of one run of the config's [run] settings, refused
    once the run ends if it logs no row (a stride above iterations + 1),
    or if a row's gap_best is below -certified_gap by more than 1e-9 *
    max(1, |f_star|): f(x_star) - f* <= certified_gap for an honest
    certificate, so no iterate's f is below f_star - certified_gap."""
    rows = run(problem, schedule, cfg.iterations, mode=cfg.mode, seed=seed,
               stride=cfg.stride, x1=cfg.x1, reference=reference, unsafe=unsafe,
               timing=cfg.timing).rows
    if not rows:
        raise RuntimeError("preset %s logged no rows; lower the stride"
                           % schedule.name)
    floor = -(reference.certified_gap + 1e-9 * max(1.0, abs(reference.f_star)))
    for row in rows:
        if row.gap_best < floor:
            raise RuntimeError(
                "preset %s: gap_best = %.12g at n=%d is below -(certified_gap = "
                "%.12g), so the reference's certificate is false"
                % (schedule.name, row.gap_best, row.n, reference.certified_gap))
    return rows


def run_experiment(cfg, out_dir=None, unsafe=False):
    """Run one trace per seed; returns the list of written paths.

    Exact mode ignores seed values, so listed seeds produce identical
    traces: it runs the trajectory once and writes it to every seed's
    file.  Every seed's run ends before any trace is written, so a run
    that fails leaves no trace of an earlier seed behind.  The reference
    optimum is computed once and cached.
    """
    out, problem, reference = _setup(cfg, out_dir, unsafe)
    schedule = build_schedule_from_config(cfg)
    traces = []
    for seed in cfg.seeds:
        if not traces or cfg.mode == "stochastic":
            rows = _trace(cfg, problem, schedule, seed, reference, unsafe)
        traces.append((out / ("%s_seed%d.csv" % (cfg.name, seed)), rows))
    return [write_trace_csv(rows, path) for path, rows in traces]


class BoundCheckReport:

    def __init__(self, strict, slack):
        self.strict = strict
        self.slack = slack
        self.checked_rows = 0
        self.failures = []

    @property
    def ok(self):
        return not self.failures

    def summary(self):
        mode = "strict" if self.strict else "seed-mean"
        if self.ok:
            return ("bound check (%s) passed: %d rows within bound + %g"
                    % (mode, self.checked_rows, self.slack))
        return "bound check (%s) FAILED:\n  " % mode + "\n  ".join(self.failures)


def check_bound(trace_paths, strict, slack=1e-9):
    """Verify gap columns against the bound column.

    Both columns are taken at the reference point x^ (the reference's
    x_star), not at the unknown minimizer: gap_best is best_f - f(x^),
    gap_avg is f(averaged iterate) - f(x^), and the bound uses
    D(x^, x_1).  With the reference's certified_gap, gap + certified_gap
    is an upper bound on best_f - f*.

    Strict mode compares every row of every trace; non-strict mode
    (stochastic runs) compares the seed-mean gaps at the final logged n
    against 1.10x the bound.  A stochastic run evaluates f only at x_1
    and the logged iterates, so its gap_best is the best of those: never
    below the best over all iterates, which makes its check stricter than
    one over every iterate would be.  A trace with a missing or
    non-finite bound or gap value (the bound column of an --unsafe run is
    nan) is refused, and a non-finite slack is a ConfigError.
    """
    if not trace_paths:
        raise ValueError("no trace files given")
    if not math.isfinite(slack):
        raise ConfigError(["--slack = %r is not a finite number" % slack])
    report = BoundCheckReport(strict, slack)
    finals = []
    for path in trace_paths:
        rows = read_trace_csv(path)
        if not rows:
            report.failures.append("%s: empty trace" % path)
            continue
        values = [v for r in rows for v in (r.gap_best, r.gap_avg, r.bound)]
        if not all(map(math.isfinite, values)):
            report.failures.append(
                "%s: missing or non-finite bound or gap values (as from --unsafe "
                "or a run without a reference); refusing to check" % path)
            continue
        if strict:
            for r in rows:
                report.checked_rows += 1
                for label, gap in (("gap_best", r.gap_best), ("gap_avg", r.gap_avg)):
                    if gap > r.bound + slack:
                        report.failures.append(
                            "%s: n=%d %s=%.12g exceeds bound=%.12g + %g"
                            % (path, r.n, label, gap, r.bound, slack))
        else:
            finals.append(rows[-1])
    if not strict and finals:
        ns = {r.n for r in finals}
        if len(ns) > 1:
            report.failures.append("traces end at different n: %s" % sorted(ns))
        else:
            report.checked_rows += len(finals)
            bound = max(r.bound for r in finals)
            for label, mean in (
                    ("gap_best", statistics.fmean(r.gap_best for r in finals)),
                    ("gap_avg", statistics.fmean(r.gap_avg for r in finals))):
                if mean > 1.10 * bound + slack:
                    report.failures.append(
                        "seed-mean %s=%.12g at n=%d exceeds 1.10 x bound=%.12g + %g"
                        % (label, mean, finals[0].n, bound, slack))
    return report


class CompareResult:

    def __init__(self, rows, csv_path):
        self.rows = rows
        self.csv_path = csv_path

    def table(self):
        header = ("preset", "final_gap_best", "final_nnz", "median_backward_step")
        cells = [header] + [
            (r["preset"], "%.6g" % r["final_gap_best"], str(r["final_nnz"]),
             "%.6g" % r["median_backward_step"]) for r in self.rows]
        widths = [max(len(row[j]) for row in cells) for j in range(len(header))]
        lines = []
        for i, row in enumerate(cells):
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
            if i == 0:
                lines.append("  ".join("-" * w for w in widths))
        return "\n".join(lines)


def compare(cfg, presets, out_dir=None, unsafe=False):
    """Run several presets on the config's problem and tabulate the outcome.

    Presets named in the config's [schedule] section keep its parameters;
    the others use preset defaults (s_n = n**-0.5, c = 1).  An empty list
    or a name not in ``PRESET_KINDS`` is a ConfigError, before any work.
    """
    errors = ["unknown preset %r (choose from %s)" % (p, ", ".join(PRESET_KINDS))
              for p in presets if p not in PRESET_KINDS]
    if errors or not presets:
        raise ConfigError(errors or ["no presets given"])
    out, problem, reference = _setup(cfg, out_dir, unsafe)
    rows = []
    for preset in presets:
        if preset == cfg.preset:
            schedule = build_schedule_from_config(cfg)
        elif preset == "averaged_leap_frog":
            schedule = schedule_preset(preset, mu=0.5)
        else:
            schedule = schedule_preset(preset)
        trace = _trace(cfg, problem, schedule, cfg.seeds[0], reference, unsafe)
        last = trace[-1]
        rows.append({
            "preset": preset,
            "final_gap_best": last.gap_best,
            "final_nnz": last.nnz,
            "median_backward_step": statistics.median(r.backward_step for r in trace),
        })
    csv_path = out / ("%s_compare.csv" % cfg.name)
    lines = ["preset,final_gap_best,final_nnz,median_backward_step"]
    for r in rows:
        lines.append("%s,%s,%d,%s" % (r["preset"], _fmt(r["final_gap_best"]),
                                      r["final_nnz"],
                                      _fmt(r["median_backward_step"])))
    _write_atomic(csv_path, "\n".join(lines) + "\n")
    return CompareResult(rows, csv_path)

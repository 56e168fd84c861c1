import hashlib
import inspect
import json
import math
import os
import re
from pathlib import Path

import numpy as np
import pytest

import xrda.harness as harness
from xrda.cli import main
from xrda.config import (build_problem_from_config, build_schedule_from_config,
                         parse_config)
from xrda.harness import (check_bound, compare, read_trace_csv,
                          run_experiment, write_trace_csv)
from xrda.problems import synthetic_sparse_data, write_dense_matrix
from xrda.reference import ReferenceSolution, reference_optimum
from xrda.schedules import Schedule
from xrda.solver import TraceRow

BASE_CFG = """\
spec_version = 1
[problem]
loss = lad
mirror = euclidean
regularizer = l1
lambda = 0.1
d = 6
m = 12
k = 2
noise = 0.1
data_seed = 3
[schedule]
preset = leap_frog
[run]
iterations = 300
[output]
stride = 50
"""

STOCH_CFG = BASE_CFG.replace("loss = lad", "loss = logistic").replace(
    "iterations = 300",
    "iterations = 300\nmode = stochastic\nseeds = 4 9\nbatch_size = 3")


def sample_rows():
    return [
        TraceRow(10, 1.0 / 3.0, 0.25, 1e-300, float("nan"), 2.5,
                 0.125, 3, 0.0),
        TraceRow(20, -1.5, 1e16, 0.0, 7e-12, float("inf"), 1.0, 0, 0.0),
    ]


def test_trace_roundtrip_exact(tmp_path):
    path = tmp_path / "t.csv"
    write_trace_csv(sample_rows(), path)
    back = read_trace_csv(path)
    assert len(back) == 2
    for orig, got in zip(sample_rows(), back):
        for field in TraceRow.__dataclass_fields__:
            a, b = getattr(orig, field), getattr(got, field)
            if isinstance(a, float) and math.isnan(a):
                assert math.isnan(b)
            else:
                assert a == b, field


def test_trace_read_errors(tmp_path):
    bad_header = tmp_path / "h.csv"
    bad_header.write_text("n,f_x\n1,2\n")
    with pytest.raises(ValueError, match="bad header"):
        read_trace_csv(bad_header)

    short_row = tmp_path / "s.csv"
    short_row.write_text(harness.TRACE_HEADER + "\n1,2,3\n")
    with pytest.raises(ValueError, match="line 2: expected 9 fields"):
        read_trace_csv(short_row)

    bad_float = tmp_path / "f.csv"
    bad_float.write_text(harness.TRACE_HEADER + "\n1,2,3,4,5,x,7,8,9\n")
    with pytest.raises(ValueError, match="line 2"):
        read_trace_csv(bad_float)


def test_trace_write_atomic(tmp_path):
    path = tmp_path / "t.csv"
    write_trace_csv(sample_rows(), path)
    write_trace_csv(sample_rows()[:1], path)
    assert len(read_trace_csv(path)) == 1
    assert list(tmp_path.iterdir()) == [path]  # no temp droppings

    with pytest.raises(OSError):
        write_trace_csv(sample_rows(), tmp_path / "missing" / "t.csv")


def test_run_experiment_exact_seeds_identical(tmp_path):
    cfg = parse_config(BASE_CFG.replace("iterations = 300",
                                        "iterations = 300\nseeds = 0 1"),
                       name="exp")
    paths = run_experiment(cfg, out_dir=tmp_path)
    assert [p.name for p in paths] == ["exp_seed0.csv", "exp_seed1.csv"]
    assert paths[0].read_bytes() == paths[1].read_bytes()
    rows = read_trace_csv(paths[0])
    assert [r.n for r in rows] == [50, 100, 150, 200, 250, 300]
    assert all(r.elapsed_s == 0.0 for r in rows)


def test_run_experiment_runs_exact_mode_once(tmp_path, monkeypatch):
    calls = []
    original = harness.run

    def counted(*args, **kwargs):
        calls.append(kwargs["seed"])
        return original(*args, **kwargs)

    monkeypatch.setattr(harness, "run", counted)
    cfg = parse_config(BASE_CFG.replace("iterations = 300",
                                        "iterations = 300\nseeds = 1 2 3"),
                       name="exp")
    paths = run_experiment(cfg, out_dir=tmp_path)
    assert calls == [1]
    assert [p.name for p in paths] == ["exp_seed1.csv", "exp_seed2.csv", "exp_seed3.csv"]
    assert paths[0].read_bytes() == paths[1].read_bytes() == paths[2].read_bytes()


def test_a_failing_seed_leaves_no_trace_of_an_earlier_one(tmp_path, monkeypatch, capsys):
    """Every seed's run ends before any trace is written: a stochastic
    config whose seed-4 run fails exits 2 and leaves no seed-3 CSV."""
    original = harness.run

    def fail_seed_4(*args, **kwargs):
        if kwargs["seed"] == 4:
            raise ValueError("objective is not finite at iterate 8 (f = nan)")
        return original(*args, **kwargs)

    monkeypatch.setattr(harness, "run", fail_seed_4)
    out = tmp_path / "o"
    cfg = write_cfg(tmp_path, STOCH_CFG.replace("seeds = 4 9", "seeds = 3 4"))
    assert main(["--config", cfg, "--out", str(out), "run"]) == 2
    assert "not finite at iterate 8" in capsys.readouterr().err
    assert out.is_dir() and list(out.glob("*_seed*.csv")) == []


def test_run_experiment_is_byte_reproducible(tmp_path):
    cfg = parse_config(BASE_CFG, name="exp")
    first = run_experiment(cfg, out_dir=tmp_path / "a")[0].read_bytes()
    second = run_experiment(cfg, out_dir=tmp_path / "b")[0].read_bytes()
    assert first == second


def test_reference_cache_hit(tmp_path, monkeypatch):
    cfg = parse_config(BASE_CFG, name="exp")
    run_experiment(cfg, out_dir=tmp_path)
    cache = tmp_path / "_refcache" / ("%s.json" % cfg.problem_key)
    assert cache.exists()

    def boom(*a, **kw):
        raise AssertionError("reference recomputed despite cache")

    monkeypatch.setattr(harness, "reference_optimum", boom)
    paths = run_experiment(cfg, out_dir=tmp_path)
    assert paths[0].exists()


def test_stochastic_seeds_differ_but_reproduce(tmp_path):
    cfg = parse_config(STOCH_CFG, name="st")
    p1 = run_experiment(cfg, out_dir=tmp_path / "a")
    assert p1[0].read_bytes() != p1[1].read_bytes()
    p2 = run_experiment(cfg, out_dir=tmp_path / "b")
    assert p1[0].read_bytes() == p2[0].read_bytes()
    assert p1[1].read_bytes() == p2[1].read_bytes()


def test_wall_timing_writes_real_times(tmp_path):
    cfg = parse_config(BASE_CFG.replace("stride = 50",
                                        "stride = 50\ntiming = wall"),
                       name="w")
    rows = read_trace_csv(run_experiment(cfg, out_dir=tmp_path)[0])
    times = [r.elapsed_s for r in rows]
    assert all(t > 0 for t in times)
    assert times == sorted(times)


def test_check_bound_strict_pass(tmp_path):
    cfg = parse_config(BASE_CFG, name="exp")
    paths = run_experiment(cfg, out_dir=tmp_path)
    report = check_bound(paths, strict=True)
    assert report.ok
    assert report.checked_rows == 6
    assert "passed" in report.summary()


def test_check_bound_strict_catches_tampering(tmp_path):
    cfg = parse_config(BASE_CFG, name="exp")
    path = run_experiment(cfg, out_dir=tmp_path)[0]
    rows = read_trace_csv(path)
    rows[2].gap_best = rows[2].bound + 1.0
    write_trace_csv(rows, path)
    report = check_bound([path], strict=True)
    assert not report.ok
    assert "exceeds bound" in report.summary()
    assert "n=%d" % rows[2].n in report.summary()


def test_check_bound_rejects_missing_bound(tmp_path):
    """An --unsafe trace has a nan bound column; a non-finite value in any
    gap or bound column of one row is refused just the same."""
    cfg = parse_config(BASE_CFG, name="exp")
    path = run_experiment(cfg, out_dir=tmp_path, unsafe=True)[0]
    report = check_bound([path], strict=True)
    assert not report.ok
    assert "refusing to check" in report.summary()
    path = run_experiment(cfg, out_dir=tmp_path)[0]
    for field, value in (("gap_avg", math.nan), ("bound", math.inf),
                         ("gap_best", -math.inf)):
        rows = read_trace_csv(path)
        setattr(rows[-1], field, value)
        write_trace_csv(rows, tmp_path / "tampered.csv")
        for strict in (True, False):
            report = check_bound([tmp_path / "tampered.csv"], strict=strict)
            assert not report.ok
            assert "refusing to check" in report.summary()


def test_check_bound_seed_mean_mode(tmp_path):
    cfg = parse_config(STOCH_CFG, name="st")
    paths = run_experiment(cfg, out_dir=tmp_path)
    report = check_bound(paths, strict=False)
    assert report.ok, report.summary()

    # traces truncated at different n are not comparable
    rows = read_trace_csv(paths[0])
    write_trace_csv(rows[:-1], paths[0])
    report = check_bound(paths, strict=False)
    assert not report.ok
    assert "different n" in report.summary()


@pytest.mark.parametrize("label", ["gap_best", "gap_avg"])
def test_check_bound_seed_mean_fails_past_its_limit(tmp_path, capsys, label):
    """The non-strict check fails when the mean over seeds of a gap column
    at the final n exceeds 1.10 x bound + slack, and passes just below."""
    cfg = parse_config(STOCH_CFG, name="st")
    paths = run_experiment(cfg, out_dir=tmp_path)
    traces = [read_trace_csv(path) for path in paths]
    bound = max(rows[-1].bound for rows in traces)
    limit = 1.10 * bound + 1e-9
    for mean, ok in ((limit * (1 + 1e-9), False), (limit * (1 - 1e-9), True)):
        for rows, offset in zip(traces, (-0.25 * bound, 0.25 * bound)):
            setattr(rows[-1], label, mean + offset)  # each seed apart, the mean as set
        for rows, path in zip(traces, paths):
            write_trace_csv(rows, path)
        report = check_bound(paths, strict=False)
        assert report.ok is ok, report.summary()
        if not ok:
            assert ("seed-mean %s=" % label) in report.summary()
            assert "exceeds 1.10 x bound=" in report.summary()
        assert main(["check-bound"] + [str(p) for p in paths]) == (0 if ok else 3)
        capsys.readouterr()


def test_compare_takes_mu_one_half_for_an_unconfigured_averaged_preset(tmp_path,
                                                                       monkeypatch):
    """A preset other than the config's own takes its defaults, and
    averaged_leap_frog, which has none for mu, takes mu = 0.5."""
    made = []
    real = harness.schedule_preset
    monkeypatch.setattr(harness, "schedule_preset",
                        lambda kind, **kw: made.append((kind, kw)) or real(kind, **kw))
    cfg = parse_config(BASE_CFG, name="exp")  # preset leap_frog
    compare(cfg, ["averaged_leap_frog", "rda", "leap_frog"], out_dir=tmp_path)
    assert made == [("averaged_leap_frog", {"mu": 0.5}), ("rda", {})]


def test_check_bound_input_validation(tmp_path):
    with pytest.raises(ValueError, match="no trace files"):
        check_bound([], strict=True)
    empty = tmp_path / "e.csv"
    empty.write_text(harness.TRACE_HEADER + "\n")
    report = check_bound([empty], strict=True)
    assert not report.ok
    assert "empty trace" in report.summary()


def test_compare_runs_presets(tmp_path):
    cfg = parse_config(BASE_CFG, name="exp")
    result = compare(cfg, ["forward_backward", "leap_frog", "rda"],
                     out_dir=tmp_path)
    assert [r["preset"] for r in result.rows] == \
        ["forward_backward", "leap_frog", "rda"]
    for r in result.rows:
        assert np.isfinite(r["final_gap_best"])
        assert r["median_backward_step"] > 0
    table = result.table()
    assert table.splitlines()[0].startswith("preset")
    assert "leap_frog" in table
    text = result.csv_path.read_text().splitlines()
    assert text[0] == "preset,final_gap_best,final_nnz,median_backward_step"
    assert len(text) == 4

    with pytest.raises(ValueError, match="no presets"):
        compare(cfg, [], out_dir=tmp_path)


def test_compare_single_preset_keeps_config_params(tmp_path):
    cfg = parse_config(BASE_CFG.replace(
        "preset = leap_frog",
        "preset = averaged_leap_frog\nmu = 0.25\nstep_kind = constant\n"
        "step_scale = 0.5"), name="exp")
    result = compare(cfg, ["averaged_leap_frog"], out_dir=tmp_path)
    assert len(result.rows) == 1


def write_cfg(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_cli_run_ok(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE_CFG)
    code = main(["--config", cfg, "--out", str(tmp_path / "o"), "run"])
    assert code == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 1 and out[0].endswith("exp_seed0.csv")
    assert (tmp_path / "o" / "exp_seed0.csv").exists()


def test_readme_config_runs_and_passes_the_strict_bound_check(tmp_path, capsys):
    """README's example config, as printed, is a valid experiment."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = re.findall(r"^```ini\n(.*?)^```$", readme, flags=re.M | re.S)
    assert len(blocks) == 1
    cfg = write_cfg(tmp_path, blocks[0])
    out = tmp_path / "o"
    assert main(["--config", cfg, "--out", str(out), "run"]) == 0, \
        capsys.readouterr().err
    assert main(["check-bound", "--strict", str(out / "exp_seed0.csv")]) == 0


def test_cli_needs_config(tmp_path, capsys):
    assert main(["run"]) == 1
    assert "needs --config" in capsys.readouterr().err


def test_cli_config_errors_exit_1(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE_CFG.replace("lambda = 0.1", ""))
    assert main(["--config", cfg, "run"]) == 1
    err = capsys.readouterr().err
    assert "config error:" in err
    assert "lambda" in err


def test_cli_runtime_errors_exit_2(tmp_path, capsys):
    broken = BASE_CFG.replace(
        "d = 6\nm = 12\nk = 2\nnoise = 0.1\ndata_seed = 3",
        "data_a = missing_A.txt\ndata_b = missing_b.txt")
    cfg = write_cfg(tmp_path, broken)
    assert main(["--config", cfg, "run"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("regularizer", [
    "regularizer = l1\nlambda = inf",
    "regularizer = box\nbox_lo = -inf 0 0 0 0 0\nbox_hi = 1 1 1 1 1 1"],
    ids=["lambda", "box_lo"])
def test_cli_non_finite_numbers_exit_1(tmp_path, capsys, regularizer):
    text = BASE_CFG.replace("regularizer = l1\nlambda = 0.1", regularizer)
    cfg = write_cfg(tmp_path, text)
    assert main(["--config", cfg, "--out", str(tmp_path / "o"), "run"]) == 1
    assert "finite number" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_reference_tol_inf_traces_against_the_start(tmp_path, capsys):
    """reference_tol = inf skips the reference solve: the canonical start
    is the reference, and its certificate lets `run` go ahead."""
    text = BASE_CFG.replace("iterations = 300", "iterations = 300\nreference_tol = inf")
    cfg = parse_config(text, name="exp")
    ref = harness.cached_reference(cfg, build_problem_from_config(cfg), tmp_path)
    assert ref.method == "initial_point" and math.isfinite(ref.certified_gap)
    out = tmp_path / "o"
    assert main(["--config", write_cfg(tmp_path, text), "--out", str(out), "run"]) == 0
    assert list(out.glob("exp_*.csv"))


E2E_CFG = """\
spec_version = 1
[problem]
loss = {loss}
mirror = {mirror}
{regularizer}
d = 30
m = 80
k = 5
noise = 0.2
data_seed = 1
[schedule]
preset = leap_frog
[run]
iterations = 300
[output]
stride = 20
"""


@pytest.mark.parametrize("loss, mirror, regularizer", [
    ("lad", "entropy", "regularizer = simplex"),
    ("logistic", "euclidean", "regularizer = l2ball\nradius = 2"),
], ids=["lad-simplex", "logistic-l2ball"])
def test_cli_run_then_strict_bound_check(tmp_path, capsys, loss, mirror, regularizer):
    """At the default reference_tol the reference certifies, and the
    strict bound check passes on every row."""
    cfg = write_cfg(tmp_path, E2E_CFG.format(loss=loss, mirror=mirror,
                                             regularizer=regularizer))
    out = tmp_path / "o"
    assert main(["--config", cfg, "--out", str(out), "run"]) == 0
    trace = out / "exp_seed0.csv"
    assert main(["check-bound", str(trace), "--strict"]) == 0
    entry = json.loads(next((out / "_refcache").glob("*.json")).read_text())
    assert entry["converged"] and entry["certified_gap"] <= 1e-8
    assert all(math.isfinite(r.bound) for r in read_trace_csv(trace))
    if mirror == "entropy":
        # the LP vertex has zero entries: D(x^, x1) stays finite through xlogy
        assert min(entry["x_star"]) == 0.0


ENTROPY_ZERO_CFG = BASE_CFG.replace(
    "mirror = euclidean\nregularizer = l1\nlambda = 0.1",
    "mirror = entropy\nregularizer = zero").replace(
    "d = 6\nm = 12\nk = 2\nnoise = 0.1\ndata_seed = 3",
    "d = 8\nm = 30\nk = 2\nnoise = 0.3\ndata_seed = 5").replace(
    "iterations = 300", "iterations = 300\nx1 = 1 1 1 1 1 1 1 1")


@pytest.mark.parametrize("command", [["run"], ["compare", "--presets", "leap_frog,rda"]],
                         ids=["run", "compare"])
def test_cli_refuses_a_reference_outside_the_mirror_domain(tmp_path, capsys, command):
    """The lad reference on the zero regularizer minimizes over all of
    R^d, and here has negative entries, where the entropy mirror's
    D(x*, x1) is undefined: exit 2, naming the mirror and the remedies,
    and no trace.  reference_tol = inf takes the canonical start instead."""
    cfg = write_cfg(tmp_path, ENTROPY_ZERO_CFG)
    out = tmp_path / "o"
    assert main(["--config", cfg, "--out", str(out)] + command) == 2
    err = capsys.readouterr().err
    assert "outside the entropy mirror's domain" in err
    assert "simplex" in err and "reference_tol = inf" in err
    assert not list(out.glob("exp_*.csv"))
    inf = write_cfg(tmp_path, ENTROPY_ZERO_CFG.replace(
        "[output]", "reference_tol = inf\n[output]"), name="inf.cfg")
    assert main(["--config", inf, "--out", str(out)] + command) == 0


SEPARABLE_CFG = STOCH_CFG.replace("regularizer = l1\nlambda = 0.1",
                                  "regularizer = zero").replace(
    "d = 6\nm = 12\nk = 2\nnoise = 0.1\ndata_seed = 3",
    "d = 20\nm = 40\nk = 3\nnoise = 0\ndata_seed = 1")


@pytest.mark.parametrize("command", [["run"], ["compare", "--presets", "leap_frog,rda"]],
                         ids=["run", "compare"])
def test_cli_refuses_a_reference_without_certificate(tmp_path, capsys, command):
    """Separable logistic data has no minimizer: the reference cannot be
    certified, which is a runtime error unless --unsafe."""
    cfg = write_cfg(tmp_path, SEPARABLE_CFG)
    out = tmp_path / "o"
    assert main(["--config", cfg, "--out", str(out)] + command) == 2
    assert "no finite certificate" in capsys.readouterr().err
    assert not list(out.glob("exp_*.csv"))
    assert main(["--config", cfg, "--out", str(out), "--unsafe"] + command) == 0


def test_cli_check_bound_exit_codes(tmp_path, capsys):
    cfg = parse_config(BASE_CFG, name="exp")
    path = run_experiment(cfg, out_dir=tmp_path)[0]
    assert main(["check-bound", str(path), "--strict"]) == 0
    assert "passed" in capsys.readouterr().out

    rows = read_trace_csv(path)
    rows[0].gap_avg = rows[0].bound + 5.0
    write_trace_csv(rows, path)
    assert main(["check-bound", str(path), "--strict"]) == 3
    # a generous slack forgives the exceedance; a non-finite one is refused
    assert main(["check-bound", str(path), "--strict", "--slack", "10"]) == 0
    for slack in ("nan", "inf"):
        capsys.readouterr()
        assert main(["check-bound", str(path), "--strict", "--slack", slack]) == 1
        assert "--slack = %s is not a finite number" % slack in capsys.readouterr().err


def test_cli_compare(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE_CFG)
    code = main(["--config", cfg, "--out", str(tmp_path / "o"),
                 "--stride", "100", "compare", "--presets",
                 "leap_frog,forward_backward"])
    assert code == 0
    out = capsys.readouterr().out
    assert "forward_backward" in out
    assert "exp_compare.csv" in out


def test_cli_gen_problem(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE_CFG)
    code = main(["--config", cfg, "--out", str(tmp_path / "o"), "gen-problem"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
    A = np.loadtxt(tmp_path / "o" / "exp_A.txt")
    assert A.shape == (12, 6)
    planted = np.loadtxt(tmp_path / "o" / "exp_planted.txt")
    assert np.count_nonzero(planted) == 2

    linear = write_cfg(tmp_path, """\
spec_version = 1
[problem]
loss = linear
mirror = entropy
regularizer = simplex
cost = 1.0 -3.0 2.0
[schedule]
preset = rda
[run]
iterations = 5
""", name="lin.cfg")
    assert main(["--config", linear, "--out", str(tmp_path / "o"),
                 "gen-problem"]) == 0
    cost = np.loadtxt(tmp_path / "o" / "lin_cost.txt")
    assert np.array_equal(cost, [1.0, -3.0, 2.0])


def test_cli_unsafe_traces_fail_bound_check(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE_CFG)
    out = tmp_path / "o"
    assert main(["--config", cfg, "--out", str(out), "--unsafe", "run"]) == 0
    capsys.readouterr()
    trace = out / "exp_seed0.csv"
    assert main(["check-bound", str(trace), "--strict"]) == 3
    assert "refusing" in capsys.readouterr().out


def test_failed_writes_leave_no_temp_files(tmp_path, monkeypatch):
    cfg = parse_config(BASE_CFG, name="exp")
    real_replace = os.replace

    def refuse(src, dst):
        raise OSError("rename refused")

    def leftovers():
        return sorted(p.name for p in tmp_path.rglob("*.tmp"))

    # cold cache: the reference cache write is the first to fail
    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="rename refused"):
        compare(cfg, ["leap_frog"], out_dir=tmp_path)
    assert leftovers() == []
    assert (tmp_path / "_refcache").is_dir()

    # warm cache: now the comparison CSV write fails
    monkeypatch.setattr(os, "replace", real_replace)
    run_experiment(cfg, out_dir=tmp_path)
    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="rename refused"):
        compare(cfg, ["leap_frog"], out_dir=tmp_path)
    assert leftovers() == []
    assert not (tmp_path / "exp_compare.csv").exists()


def test_reference_cache_follows_data_file_contents(tmp_path):
    A, b, _ = synthetic_sparse_data("lad", 6, 12, 2, 0.1, 3)
    write_dense_matrix(tmp_path / "A.txt", A)
    write_dense_matrix(tmp_path / "b.txt", b)
    text = BASE_CFG.replace(
        "d = 6\nm = 12\nk = 2\nnoise = 0.1\ndata_seed = 3\n",
        "data_a = A.txt\ndata_b = b.txt\n")
    cfg = parse_config(text, base_dir=tmp_path, name="files")
    out = tmp_path / "out"
    run_experiment(cfg, out_dir=out)

    write_dense_matrix(tmp_path / "A.txt", 2.0 * A)
    run_experiment(cfg, out_dir=out)
    problem = build_problem_from_config(cfg)
    cached = harness.cached_reference(cfg, problem, out)
    fresh = reference_optimum(problem, tol=cfg.reference_tol)
    assert cached.f_star == fresh.f_star
    assert problem.objective(cached.x_star) == cached.f_star
    assert len(list((out / "_refcache").glob("*.json"))) == 2


def _edit_payload(key, value):
    def edit(text):
        data = json.loads(text)
        if value is None:
            del data[key]
        else:
            data[key] = value(data[key])
        return json.dumps(data)
    return edit


@pytest.mark.parametrize("tamper", [
    _edit_payload("f_star", lambda f: f + 1.0),
    lambda text: text[:len(text) // 2],
    _edit_payload("x_star", lambda x: x[:-1]),
    _edit_payload("x_star", lambda x: [float("nan")] + x[1:]),
    _edit_payload("certified_gap", lambda g: -1.0),
    _edit_payload("certified_gap", lambda g: float("nan")),
    _edit_payload("method", None),
], ids=["f_star_raised", "truncated", "short_x_star", "nan_x_star",
        "negative_gap", "nan_gap", "missing_key"])
def test_invalid_reference_cache_is_recomputed(tmp_path, tamper):
    cfg = parse_config(BASE_CFG, name="exp")
    trace = run_experiment(cfg, out_dir=tmp_path)[0]
    cold_trace = trace.read_bytes()
    cache = tmp_path / "_refcache" / ("%s.json" % cfg.problem_key)
    cold_cache = cache.read_text()
    cache.write_text(tamper(cold_cache))

    run_experiment(cfg, out_dir=tmp_path)
    assert trace.read_bytes() == cold_trace
    assert cache.read_text() == cold_cache


SWEEP_LAD_L1 = """\
spec_version = 1
[problem]
loss = lad
mirror = euclidean
regularizer = l1
lambda = 0.1
d = 8
m = 30
k = 2
noise = 0.3
data_seed = 5
[schedule]
preset = leap_frog
[run]
iterations = 200
[output]
stride = 25
"""


@pytest.mark.parametrize("command", [["run"],
                                     ["compare", "--presets", "rda,leap_frog"]])
def test_a_false_cached_certificate_is_replaced(tmp_path, command):
    """A cache entry that passes the value checks (f_star = f(x_star),
    certified_gap >= 0) but claims x_star = 0 optimal with certified_gap
    = 0, where f(0) - f* = 1.08.  Its x_star does not certify that gap
    again, so the entry is a miss: the reference is solved again and
    overwrites it, the command exits 0, and the trace passes the strict
    bound check against the true optimum."""
    path = write_cfg(tmp_path, SWEEP_LAD_L1, name="sweep.ini")
    cfg = parse_config(SWEEP_LAD_L1, name="sweep")
    problem = build_problem_from_config(cfg)
    out = tmp_path / "o"
    cache = out / "_refcache" / ("%s.json" % cfg.problem_key)
    cache.parent.mkdir(parents=True)
    cache.write_text(json.dumps({"x_star": [0.0] * 8,
                                 "f_star": problem.objective(np.zeros(8)),
                                 "certified_gap": 0.0, "converged": True,
                                 "method": "lad_lp"}))
    assert main(["--config", path, "--out", str(out)] + command) == 0
    fresh = reference_optimum(problem, tol=cfg.reference_tol)
    entry = json.loads(cache.read_text())
    assert (entry["f_star"], entry["certified_gap"]) == (fresh.f_star, fresh.certified_gap)
    assert fresh.f_star < problem.objective(np.zeros(8)) - 1.0
    if command == ["run"]:
        trace = next(out.glob("*_seed*.csv"))
        assert main(["check-bound", str(trace), "--strict"]) == 0
    else:
        lines = (out / "sweep_compare.csv").read_text().splitlines()[1:]
        assert all(float(line.split(",")[1]) >= 0.0 for line in lines)


def test_trace_refuses_rows_that_prove_the_certificate_false():
    """The check past the cache: against a reference at x = 0 that claims
    certified_gap = 0, the iterates reach gap_best = -1.08, which proves
    the certificate false, so ``_trace`` refuses the run."""
    cfg = parse_config(SWEEP_LAD_L1, name="sweep")
    problem = build_problem_from_config(cfg)
    false = ReferenceSolution(np.zeros(8), problem.objective(np.zeros(8)), 0.0,
                              True, "lad_lp")
    with pytest.raises(RuntimeError, match="certificate is false"):
        harness._trace(cfg, problem, build_schedule_from_config(cfg), 0, false,
                       unsafe=False)


def test_data_file_cache_key_hashes_row_major_bytes(tmp_path):
    """The key streams A in row blocks: it equals the sha256 of the whole
    C-ordered bytes, so keys written before A was stored F-ordered still hit."""
    A, b, _ = synthetic_sparse_data("lad", 3, 600, 2, 0.1, 3)
    write_dense_matrix(tmp_path / "A.txt", A)
    write_dense_matrix(tmp_path / "b.txt", b)
    text = BASE_CFG.replace(
        "d = 6\nm = 12\nk = 2\nnoise = 0.1\ndata_seed = 3\n",
        "data_a = A.txt\ndata_b = b.txt\n")
    cfg = parse_config(text, base_dir=tmp_path, name="files")
    problem = build_problem_from_config(cfg)
    assert problem.A.flags.f_contiguous
    digest = hashlib.sha256()
    for arr in (problem.A, problem.b):
        digest.update(repr(arr.shape).encode())
        digest.update(np.ascontiguousarray(arr).tobytes())
    expected = "%s_%s" % (cfg.problem_key, digest.hexdigest()[:16])
    assert harness._reference_cache_key(cfg, problem) == expected


def test_cli_schedule_violation_at_the_last_step_exits_2(tmp_path, capsys, monkeypatch):
    # s_n = n^(-1/2) up to n = 10, then s_11 = 100: the tenth and last step
    # evaluates s_11, which would otherwise enter the final row's bound
    jump = Schedule("jump", lambda n: n ** -0.5 if n <= 10 else 100.0,
                    lambda n: 1.0, lambda n, g: 0.0)
    monkeypatch.setattr(harness, "build_schedule_from_config", lambda cfg: jump)
    cfg = write_cfg(tmp_path, BASE_CFG.replace("iterations = 300", "iterations = 10")
                    .replace("stride = 50", "stride = 1"))
    out = tmp_path / "o"
    assert main(["--config", cfg, "--out", str(out), "run"]) == 2
    assert "schedule violation" in capsys.readouterr().err
    assert not list(out.glob("exp_*.csv"))
    assert main(["--config", cfg, "--out", str(out), "--unsafe", "run"]) == 0
    rows = read_trace_csv(out / "exp_seed0.csv")
    assert rows[-1].n == 11 and math.isnan(rows[-1].bound)


def write_data_files(tmp_path, d):
    A, b, _ = synthetic_sparse_data("lad", d, 12, 2, 0.1, 3)
    write_dense_matrix(tmp_path / "A.txt", A)
    write_dense_matrix(tmp_path / "b.txt", b)
    return BASE_CFG.replace("d = 6\nm = 12\nk = 2\nnoise = 0.1\ndata_seed = 3",
                            "data_a = A.txt\ndata_b = b.txt")


@pytest.mark.parametrize("command", [["run"], ["compare", "--presets", "leap_frog"]],
                         ids=["run", "compare"])
@pytest.mark.parametrize("case", ["box_lo", "x1", "x1-data-files"])
def test_cli_bad_dimensions_exit_1_before_any_work(tmp_path, capsys, command, case):
    if case == "box_lo":
        text = BASE_CFG.replace("regularizer = l1\nlambda = 0.1",
                                "regularizer = box\nbox_lo = -1 -1 -1\nbox_hi = 1")
    elif case == "x1":
        text = BASE_CFG.replace("iterations = 300", "iterations = 300\nx1 = 0 0 0 0 0")
    else:
        text = write_data_files(tmp_path, 6).replace("iterations = 300",
                                                     "iterations = 300\nx1 = 0 0 0 0 0")
    out = tmp_path / "o"
    assert main(["--config", write_cfg(tmp_path, text), "--out", str(out)] + command) == 1
    assert "entries; need" in capsys.readouterr().err
    assert not (out / "_refcache").exists()


def test_cli_stride_override_is_checked_before_any_work(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE_CFG)
    out = tmp_path / "o"
    for command in (["run"], ["compare", "--presets", "leap_frog"]):
        assert main(["--config", cfg, "--out", str(out), "--stride", "0"] + command) == 1
        assert "--stride: [output] stride = 0 must be >= 1" in capsys.readouterr().err
        assert not out.exists()
    assert main(["--config", cfg, "--out", str(out), "--stride", "75", "run"]) == 0
    assert [r.n for r in read_trace_csv(out / "exp_seed0.csv")] == [75, 150, 225, 300]


def test_cli_rejects_a_stride_that_logs_no_row(tmp_path, capsys):
    """With 20 iterations a stride of 50, from the config or from --stride,
    is a config error (exit 1) before any work; 21 logs the last iterate.
    The default stride of 100 is refused once the run logs no row (exit
    2), before any trace is written."""
    short = BASE_CFG.replace("iterations = 300", "iterations = 20")
    out = tmp_path / "o"
    for text, extra in ((short, []), (short.replace("stride = 50", "stride = 21"),
                                      ["--stride", "50"])):
        assert main(["--config", write_cfg(tmp_path, text), "--out", str(out)]
                    + extra + ["run"]) == 1
        assert "stride = 50 exceeds iterations + 1 = 21" in capsys.readouterr().err
        assert not out.exists()
    cfg = write_cfg(tmp_path, short.replace("stride = 50", "stride = 21"))
    assert main(["--config", cfg, "--out", str(out), "run"]) == 0
    assert [r.n for r in read_trace_csv(out / "exp_seed0.csv")] == [21]
    default = tmp_path / "default"
    cfg = write_cfg(tmp_path, short.replace("[output]\nstride = 50\n", ""))
    for command, preset in ((["run"], "leap_frog"), (["compare", "--presets", "rda"], "rda")):
        assert main(["--config", cfg, "--out", str(default)] + command) == 2
        assert "preset %s logged no rows" % preset in capsys.readouterr().err
        assert not list(default.glob("*.csv"))


LINEAR_CFG = """\
spec_version = 1
[problem]
loss = linear
mirror = euclidean
regularizer = box
box_lo = -1
box_hi = 1
cost = 1.0 -2.0
[schedule]
preset = leap_frog
[run]
iterations = 20
"""


@pytest.mark.parametrize("old, new, message", [
    ("cost = 1.0 -2.0", "cost =", "[problem] cost list is empty"),
    ("iterations = 20", "iterations = 20\nmode = stochastic\nbatch_size = 2",
     "[problem] batch size 2 not in [1, 1]")])
def test_cli_linear_problem_errors_are_config_errors(tmp_path, capsys, old, new, message):
    cfg = write_cfg(tmp_path, LINEAR_CFG.replace(old, new))
    assert main(["--config", cfg, "--out", str(tmp_path / "o"), "run"]) == 1
    assert message in capsys.readouterr().err


def test_the_harness_takes_its_stride_from_the_config():
    for fn in (run_experiment, compare):
        assert "stride" not in inspect.signature(fn).parameters


def test_cli_unknown_preset_exits_1_before_any_run(tmp_path, capsys, monkeypatch):
    runs = []
    monkeypatch.setattr(harness, "run", lambda *a, **k: runs.append(a))
    out = tmp_path / "o"
    for presets, message in (("leap_frog,bogus", "unknown preset 'bogus'"),
                             (" , ", "no presets given")):
        code = main(["--config", write_cfg(tmp_path, BASE_CFG), "--out", str(out),
                     "compare", "--presets", presets])
        assert code == 1
        assert message in capsys.readouterr().err
        assert runs == [] and not out.exists()


@pytest.mark.parametrize("command", [["run"], ["compare", "--presets", "leap_frog"]],
                         ids=["run", "compare"])
@pytest.mark.parametrize("case, message", [
    ("x1-not-argmin", "does not minimize the regularizer"),
    ("entropy-zero", "outside the entropy mirror's domain")],
    ids=["x1-not-argmin", "entropy-zero"])
def test_cli_start_point_errors_exit_1_before_the_reference(tmp_path, capsys, monkeypatch,
                                                            command, case, message):
    """The bound assumes x1 minimizes G: a start that does not, or the
    entropy mirror's default start 0 under the zero regularizer, is a
    config error found before the reference is solved or anything is
    written."""
    if case == "x1-not-argmin":
        text = BASE_CFG.replace("iterations = 300", "iterations = 300\nx1 = 1 0 0 0 0 0")
    else:
        text = BASE_CFG.replace("mirror = euclidean\nregularizer = l1\nlambda = 0.1",
                                "mirror = entropy\nregularizer = zero")
    solves = []
    monkeypatch.setattr(harness, "reference_optimum", lambda *a, **k: solves.append(a))
    out = tmp_path / "o"
    assert main(["--config", write_cfg(tmp_path, text), "--out", str(out)] + command) == 1
    err = capsys.readouterr().err
    assert "config error:" in err and "[run] start point" in err and message in err
    assert solves == [] and not out.exists()


@pytest.mark.parametrize("command", [["run"], ["compare", "--presets", "leap_frog"],
                                     ["gen-problem"]], ids=["run", "compare", "gen-problem"])
@pytest.mark.parametrize("old, new, message", [
    ("seeds = 4 9", "seeds = -1 2", "[run] seeds = -1 2: every seed must be >= 0"),
    ("data_seed = 3", "data_seed = -3", "[problem] data_seed = -3 must be >= 0")],
    ids=["seeds", "data_seed"])
def test_cli_negative_seeds_exit_1_before_any_work(tmp_path, capsys, command, old, new,
                                                   message):
    """A negative run seed or data seed is a config error naming its key,
    found before the reference is solved or anything is written."""
    out = tmp_path / "o"
    text = STOCH_CFG.replace(old, new)
    assert main(["--config", write_cfg(tmp_path, text), "--out", str(out)] + command) == 1
    err = capsys.readouterr().err
    assert "config error:" in err and message in err
    assert not (out / "_refcache").exists() and not out.exists()

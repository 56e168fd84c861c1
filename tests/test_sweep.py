"""The determinism sweep's expected exit codes (tools/determinism_sweep.py)."""

import importlib.util
from pathlib import Path

from xrda import solver
from xrda.config import build_problem_from_config, build_schedule_from_config, parse_config

TOOL = Path(__file__).resolve().parent.parent / "tools" / "determinism_sweep.py"


def load_sweep():
    spec = importlib.util.spec_from_file_location("determinism_sweep", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_only_uncertified_logistic_commands_expect_exit_2():
    expected = {name: code for name, _, _, _, code in load_sweep().cases()}
    assert len(expected) == 102
    assert expected["logistic-l1-b1-m9000-run"] == 0
    assert expected["linear-simplex-b1-compare"] == 0
    assert sorted(name for name, code in expected.items() if code) == sorted(
        "logistic-%s-%s-%s" % (pair, mode, command)
        for pair in ("zero", "entropy_zero") for mode in ("exact", "b1", "b3")
        for command in ("run", "compare"))
    assert set(expected.values()) == {0, 2}


def test_an_unexpected_exit_code_fails_the_sweep(tmp_path, monkeypatch, capsys):
    sweep = load_sweep()
    monkeypatch.setattr(sweep, "run_case", lambda *args: 0)
    assert sweep.main([str(tmp_path / "all-zero")]) == 1
    out = capsys.readouterr().out
    assert out.count("MISMATCH: ") == 12
    assert "MISMATCH: logistic-zero-exact-run exited 0, expected 2" in out
    codes = {name: code for name, _, _, _, code in sweep.cases()}
    monkeypatch.setattr(sweep, "run_case", lambda case_dir, *args: codes[case_dir.name])
    assert sweep.main([str(tmp_path / "expected")]) == 0
    assert "MISMATCH" not in capsys.readouterr().out


def test_sweep_commands_turn_runtime_warnings_into_errors(tmp_path, monkeypatch, capsys):
    """Each command runs with RuntimeWarning as an error, as tier-1 and
    the demos do, so a warning cannot pass the sweep unseen."""
    sweep = load_sweep()
    envs = []
    monkeypatch.setattr(sweep, "run_case", lambda *args: envs.append(args[-1]) or 0)
    sweep.main([str(tmp_path / "out")])
    capsys.readouterr()
    assert len(envs) == 102
    assert all(env["PYTHONWARNINGS"] == "error::RuntimeWarning" for env in envs)


def test_the_large_case_spans_several_evaluation_blocks(monkeypatch):
    """The m = 9000 case logs 8 rows (200 iterations, stride 25), so a
    stochastic run keeps 17 points: each row's iterate and averaged
    iterate, and the last iterate.  They must fill at least two
    evaluation blocks, the last one partial, for the sweep to cover a
    block boundary; a change of the block width that drops it fails
    here."""
    cfg = parse_config(load_sweep().config_text("logistic", "l1", "b1", m=9000),
                       name="m9000")
    sizes = []
    objective = solver._objective
    monkeypatch.setattr(solver, "_objective",
                        lambda q, points: sizes.append(len(points)) or objective(q, points))
    solver.run(build_problem_from_config(cfg), build_schedule_from_config(cfg),
               cfg.iterations, mode=cfg.mode, seed=cfg.seeds[0], stride=cfg.stride)
    blocks = sizes[1:]  # sizes[0] is x_1, in init
    assert sum(blocks) == 17
    assert len(blocks) >= 2 and blocks[-1] < blocks[0]

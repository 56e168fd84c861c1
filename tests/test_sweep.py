"""The determinism sweep's expected exit codes (tools/determinism_sweep.py)."""

import importlib.util
from pathlib import Path

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

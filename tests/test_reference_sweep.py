"""The reference sweep's matrix (tools/reference_sweep.py)."""

import importlib.util
from pathlib import Path

from xrda.regularizers import supported_pairs

TOOL = Path(__file__).resolve().parent.parent / "tools" / "reference_sweep.py"


def load_sweep():
    spec = importlib.util.spec_from_file_location("reference_sweep", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_matrix_covers_every_regularizer_with_unique_keys():
    instances = list(load_sweep().instances())
    keys = [key for key, *_ in instances]
    assert len(keys) == len(set(keys)) == 870
    kinds = {kind for _, kind in supported_pairs()}
    for loss in ("lad", "logistic"):
        assert {reg.kind for _, l, _, reg, _, _ in instances if l == loss} == kinds
    assert {l for _, l, *_ in instances} == {"lad", "logistic", "linear"}


def test_a_baseline_comparison_counts_fields_and_names_the_largest_gap_change():
    sweep = load_sweep()
    old = {"a": {"f_star": "1.0", "certified_gap": "1e-16"},
           "b": {"f_star": "2.0", "certified_gap": "inf"},
           "c": {"raises": "ValueError", "message": "old"}}
    new = {"a": {"f_star": "1.0", "certified_gap": "3e-16"},
           "b": {"f_star": "2.5", "certified_gap": "inf"},
           "c": {"raises": "ValueError", "message": "new"}}
    lines = sweep.compare(new, old)
    assert "f_star         differs on 1" in lines
    assert "certified_gap  differs on 1" in lines
    assert "raises         differs on 0" in lines
    assert "message        differs on 1" in lines
    assert lines[-1] == "largest |change of certified_gap|: %r (a)" % (3e-16 - 1e-16)

"""The mutation sweep's list (tools/mutation_sweep.py) matches the code:
each mutant's old text occurs exactly once in its file, and its test
files exist, so a change that moves guarded code fails here before the
sweep runs."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "mutation_sweep.py"


def load_sweep():
    spec = importlib.util.spec_from_file_location("mutation_sweep", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SWEEP = load_sweep()
MUTANTS = SWEEP.MUTANTS


def test_mutant_names_are_unique():
    names = [m.name for m in MUTANTS]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_each_old_text_occurs_once(mutant):
    assert mutant.old != mutant.new
    assert SWEEP.occurrences(mutant) == 1
    assert mutant.tests and all((ROOT / t).is_file() for t in mutant.tests)

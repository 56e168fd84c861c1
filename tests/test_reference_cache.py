"""The on-disk reference cache: a hit is ``reference.certify`` run again
on the entry's points, so an honest entry is a hit and costs one
certificate and one objective, not a solve."""

from types import SimpleNamespace

import numpy as np
import pytest

import xrda.harness as harness
import xrda.reference as reference
from xrda.geometry import EuclideanMirror, NegativeEntropyMirror
from xrda.problems import build_problem, synthetic_sparse_data
from xrda.regularizers import BoxIndicator, L1Penalty, L2BallIndicator, SimplexIndicator

EU, EN = EuclideanMirror(), NegativeEntropyMirror()
REGS = {"l1": (EU, L1Penalty(0.1)), "box": (EU, BoxIndicator(0.1, 0.9)),
        "simplex": (EN, SimplexIndicator()), "ball": (EU, L2BallIndicator(1.0))}
SIZES = ((8, 30), (20, 50), (30, 80), (100, 50), (200, 400))


def logistic_instances():
    """(key, problem) of logistic x {l1 0.1, box [0.1, 0.9], simplex on
    the entropy mirror, l2 ball 1} at five sizes and data seeds 1, 2, 5."""
    for d, m in SIZES:
        for seed in (1, 2, 5):
            A, b, _ = synthetic_sparse_data("logistic", d=d, m=m, k=5, noise=0.2, seed=seed)
            for name, (mirror, reg) in REGS.items():
                key = "logistic-%s-d%d-m%d-seed%d" % (name, d, m, seed)
                yield key, build_problem("logistic", reg, mirror, A=A, b=b)


def config(key, tol):
    """The config fields ``cached_reference`` reads."""
    return SimpleNamespace(problem_key=key, data_a=None, reference_tol=tol)


def counting(calls, name, fn):
    def counted(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)
    return counted


def test_a_second_lookup_of_every_logistic_reference_solves_nothing(tmp_path, monkeypatch):
    """At reference_tol = 1e-12 a logistic reference is often certified at
    a point other than x_star; a load that certified x_star again missed
    35 of these 60 entries and solved them on every run."""
    instances = list(logistic_instances())
    assert len(instances) == 60
    for key, problem in instances:
        harness.cached_reference(config(key, 1e-12), problem, tmp_path)
    solves, missed = [], []
    monkeypatch.setattr(harness, "reference_optimum",
                        counting(solves, "solve", harness.reference_optimum))
    for key, problem in instances:
        before = len(solves)
        harness.cached_reference(config(key, 1e-12), problem, tmp_path)
        if len(solves) > before:
            missed.append(key)
    assert missed == []


def test_the_reference_path_makes_no_extra_pass(tmp_path, monkeypatch):
    """A logistic+l1 solve that L-BFGS-B certifies takes one certificate;
    a cache hit takes one certificate and one objective, and no solve."""
    A, b, _ = synthetic_sparse_data("logistic", d=20, m=50, k=5, noise=0.2, seed=1)
    problem = build_problem("logistic", L1Penalty(0.1), EU, A=A, b=b)
    calls = []
    monkeypatch.setattr(reference, "lower_bound_certificate",
                        counting(calls, "certificate", reference.lower_bound_certificate))
    monkeypatch.setattr(problem, "objective", counting(calls, "objective", problem.objective))
    monkeypatch.setattr(harness, "reference_optimum",
                        counting(calls, "solve", harness.reference_optimum))
    ref = reference.reference_optimum(problem, tol=1e-8)
    assert ref.converged and ref.x_cert is ref.x_star
    assert calls.count("certificate") == 1

    harness.cached_reference(config("l1", 1e-8), problem, tmp_path)
    assert calls.count("solve") == 1
    calls.clear()
    hit = harness.cached_reference(config("l1", 1e-8), problem, tmp_path)
    assert sorted(calls) == ["certificate", "objective"]
    assert (hit.f_star, hit.certified_gap) == (ref.f_star, ref.certified_gap)
    assert np.array_equal(hit.x_cert, ref.x_cert)

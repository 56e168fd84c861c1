import math

import pytest

from xrda.schedules import (PRESET_KINDS, Schedule, averaged_leap_frog,
                            constant_backward, constant_steps,
                            forward_backward, leap_frog, power_steps, rda,
                            schedule_preset)


def test_constant_steps():
    s = constant_steps(0.25)
    assert s(1) == 0.25 and s(1000) == 0.25
    with pytest.raises(ValueError):
        constant_steps(0.0)
    with pytest.raises(ValueError):
        constant_steps(-1.0)


def test_power_steps():
    s = power_steps(2.0, 0.5)
    assert s(1) == 2.0
    assert s(4) == 1.0
    assert power_steps(1.0, 0.0)(17) == 1.0
    with pytest.raises(ValueError):
        power_steps(0.0, 0.5)
    with pytest.raises(ValueError):
        power_steps(1.0, -0.1)


def test_forward_backward_schedule():
    steps = power_steps(1.0, 0.5)
    sched = forward_backward(steps)
    assert sched.name == "forward_backward"
    assert sched.alpha(1) == 1.0 and sched.alpha(99) == 1.0
    assert sched.t(1, 0.0) == 0.0
    assert sched.t(5, 123.0) == steps(4)  # reuse weight ignores gamma


def test_rda_schedule():
    sched = rda(2.0)
    assert sched.s(7) == 1.0
    assert sched.alpha(9) == 2.0 * 3.0
    assert sched.t(3, 1.5) == 0.0
    assert rda().alpha(4) == 2.0
    with pytest.raises(ValueError):
        rda(0.0)


def test_leap_frog_and_constant_backward():
    steps = constant_steps(0.5)
    lf = leap_frog(steps)
    assert lf.t(10, 4.0) == 0.0 and lf.alpha(10) == 1.0
    cb = constant_backward(steps)
    assert cb.t(1, 0.0) == 0.0
    assert cb.t(2, 0.5) == 0.5


def test_averaged_leap_frog():
    sched = averaged_leap_frog(0.25, constant_steps(1.0))
    assert sched.t(3, 2.0) == 0.5
    varying = averaged_leap_frog(lambda n: 1.0 / n, constant_steps(1.0))
    assert varying.t(4, 2.0) == 0.5
    with pytest.raises(ValueError):
        averaged_leap_frog(1.5, constant_steps(1.0))
    with pytest.raises(ValueError):
        averaged_leap_frog(-0.1, constant_steps(1.0))


def test_preset_dispatch():
    for kind in PRESET_KINDS:
        mu = 0.5 if kind == "averaged_leap_frog" else None
        sched = schedule_preset(kind, mu=mu)
        assert isinstance(sched, Schedule)
        assert sched.name == kind
    # default step sequence is n**-1/2
    assert schedule_preset("leap_frog").s(4) == 0.5
    assert schedule_preset("rda", c=3.0).alpha(4) == 6.0


def test_preset_rejections():
    with pytest.raises(ValueError, match="unknown schedule preset"):
        schedule_preset("nesterov")
    with pytest.raises(ValueError, match="only the scaling c"):
        schedule_preset("rda", steps=constant_steps(1.0))
    with pytest.raises(ValueError, match="only the scaling c"):
        schedule_preset("rda", mu=0.5)
    with pytest.raises(ValueError, match="only applies to the rda"):
        schedule_preset("leap_frog", c=2.0)
    for kind in ("forward_backward", "leap_frog", "constant_backward"):
        with pytest.raises(ValueError, match="mu only applies"):
            schedule_preset(kind, mu=0.5)
    with pytest.raises(ValueError, match="needs the averaging weight"):
        schedule_preset("averaged_leap_frog")


def test_rda_alpha_matches_sqrt():
    sched = rda(1.0)
    for n in (1, 2, 10, 1000):
        assert sched.alpha(n) == math.sqrt(n)

import math

import numpy as np
import pytest

from xrda.config import (ConfigError, build_problem_from_config,
                         build_schedule_from_config, parse_config,
                         parse_config_file, with_stride)
from xrda.problems import write_dense_matrix

GOLDEN = """\
spec_version = 1

# a comment
; another comment style
[problem]
loss = lad
mirror = euclidean
regularizer = l1
lambda = 0.1
d = 20
m = 50
k = 5
noise = 0.1
data_seed = 7

[schedule]
preset = rda
c = 2.0

[run]
iterations = 1000
mode = exact
seeds = 0 1 2

[output]
directory = out
stride = 50
timing = wall
"""

MINIMAL = """\
spec_version = 1
[problem]
loss = lad
mirror = euclidean
regularizer = zero
d = 4
m = 6
k = 1
noise = 0.0
data_seed = 0
[schedule]
preset = rda
[run]
iterations = 10
"""


def test_golden_parse():
    cfg = parse_config(GOLDEN, name="golden")
    assert cfg.name == "golden"
    assert cfg.loss == "lad" and cfg.mirror == "euclidean"
    assert cfg.regularizer == "l1" and cfg.lam == 0.1
    assert (cfg.d, cfg.m, cfg.k) == (20, 50, 5)
    assert cfg.noise == 0.1 and cfg.data_seed == 7
    assert cfg.preset == "rda" and cfg.c == 2.0
    assert cfg.iterations == 1000 and cfg.mode == "exact"
    assert cfg.seeds == [0, 1, 2]
    assert cfg.directory == "out" and cfg.stride == 50 and cfg.timing == "wall"
    assert len(cfg.problem_key) == 16
    int(cfg.problem_key, 16)


def test_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.mode == "exact"
    assert cfg.seeds == [0]
    assert cfg.reference_tol == 1e-8
    assert cfg.batch_size is None
    assert cfg.directory == "runs" and cfg.stride == 100
    assert cfg.timing == "deterministic"
    assert cfg.c == 1.0  # rda default scaling
    assert cfg.x1 is None


def test_all_errors_collected():
    text = """\
spec_version = 1
[problem]
loss = huber
mirror = euclidean
regularizer = l1
d = 4
m = 6
k = 1
noise = 0.0
data_seed = 0
[schedule]
preset = warp
[run]
iterations = zero
mode = sometimes
"""
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    errors = exc.value.errors
    assert len(errors) >= 5
    joined = "\n".join(errors)
    assert "loss = 'huber'" in joined
    assert "missing required key 'lambda'" in joined
    assert "preset = 'warp'" in joined
    assert "iterations = 'zero'" in joined
    assert "mode = 'sometimes'" in joined


def test_syntax_errors_carry_line_numbers():
    text = "spec_version = 1\n[problem\nloss lad\n"
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    joined = "\n".join(exc.value.errors)
    assert "line 2: malformed section header" in joined
    assert "line 3: expected 'key = value'" in joined


def test_spec_version_handling():
    with pytest.raises(ConfigError, match="missing header key 'spec_version"):
        parse_config(MINIMAL.replace("spec_version = 1\n", ""))
    with pytest.raises(ConfigError, match="unsupported spec_version"):
        parse_config(MINIMAL.replace("spec_version = 1", "spec_version = 2"))
    with pytest.raises(ConfigError, match="before the first section"):
        parse_config(MINIMAL.replace("spec_version = 1",
                                     "spec_version = 1\nstray = 3"))


def test_missing_sections():
    text = "spec_version = 1\n[problem]\nloss = lad\n"
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    joined = "\n".join(exc.value.errors)
    assert "missing required section [schedule]" in joined
    assert "missing required section [run]" in joined


def test_duplicates_flagged():
    text = GOLDEN + "\n[problem]\nloss = lad\n"
    with pytest.raises(ConfigError, match="duplicate section"):
        parse_config(text)
    text2 = GOLDEN.replace("lambda = 0.1", "lambda = 0.1\nlambda = 0.2")
    with pytest.raises(ConfigError, match="duplicate key"):
        parse_config(text2)


def test_unknown_and_disallowed_keys():
    with pytest.raises(ConfigError, match="unknown key 'flavor'"):
        parse_config(MINIMAL.replace("[schedule]", "flavor = mint\n[schedule]"))
    # 'lambda' is a real key, but only for the l1 regularizer
    with pytest.raises(ConfigError, match="not allowed with these settings"):
        parse_config(MINIMAL.replace("regularizer = zero",
                                     "regularizer = zero\nlambda = 0.1"))
    with pytest.raises(ConfigError, match="not allowed with these settings"):
        parse_config(MINIMAL.replace("preset = rda",
                                     "preset = rda\nstep_scale = 2.0"))
    with pytest.raises(ConfigError, match="unknown section"):
        parse_config(MINIMAL + "[extras]\nfoo = 1\n")


def test_negative_step_exponent_message():
    text = MINIMAL.replace("preset = rda",
                           "preset = leap_frog\nstep_exponent = -1")
    with pytest.raises(ConfigError, match="non-increasing"):
        parse_config(text)


def test_unsupported_pair_reported():
    text = MINIMAL.replace("mirror = euclidean\nregularizer = zero",
                           "mirror = entropy\nregularizer = l1\nlambda = 0.1")
    with pytest.raises(ConfigError, match="supported pairs"):
        parse_config(text)


def test_bad_box_bounds_reported():
    text = MINIMAL.replace(
        "regularizer = zero",
        "regularizer = box\nbox_lo = 1.0\nbox_hi = 0.0")
    with pytest.raises(ConfigError, match=r"\[problem\]"):
        parse_config(text)


def test_batch_size_checks():
    with pytest.raises(ConfigError, match="exceeds m"):
        parse_config(MINIMAL.replace("iterations = 10",
                                     "iterations = 10\nmode = stochastic\nbatch_size = 7"))
    cfg = parse_config(MINIMAL.replace("iterations = 10",
                                       "iterations = 10\nmode = stochastic\nbatch_size = 6"))
    assert cfg.batch_size == 6


def test_batch_size_is_not_allowed_in_exact_mode():
    for mode in ("", "mode = exact\n"):
        with pytest.raises(ConfigError) as exc:
            parse_config(MINIMAL.replace("iterations = 10",
                                         "iterations = 10\n%sbatch_size = 3" % mode))
        assert exc.value.errors == ["[run] key 'batch_size' is not allowed with "
                                    "these settings"]


@pytest.mark.parametrize("old, new, message", [
    ("loss = lad", "loss = lasso",
     "[problem] loss = 'lasso' is not one of ['lad', 'linear', 'logistic']"),
    ("loss = lad\n", "", "[problem] missing required key 'loss'"),
    ("regularizer = l1", "regularizer = L1",
     "[problem] regularizer = 'L1' is not one of "
     "['box', 'l1', 'l2ball', 'simplex', 'zero']"),
    ("preset = rda\nc = 2.0", "preset = averaged\nmu = 0.5\nstep_scale = 2",
     "[schedule] preset = 'averaged' is not one of ['averaged_leap_frog', "
     "'constant_backward', 'forward_backward', 'leap_frog', 'rda']"),
    ("mode = exact", "mode = stoch\nbatch_size = 3",
     "[run] mode = 'stoch' is not one of ['exact', 'stochastic']"),
], ids=["rejected-loss", "missing-loss", "rejected-regularizer", "rejected-preset",
        "rejected-mode"])
def test_a_rejected_choice_is_one_error(old, new, message):
    """The keys a missing or rejected choice would have allowed are not
    also reported as not allowed."""
    assert old in GOLDEN
    with pytest.raises(ConfigError) as exc:
        parse_config(GOLDEN.replace(old, new))
    assert exc.value.errors == [message]


def test_a_rejected_choice_still_reports_unknown_keys():
    with pytest.raises(ConfigError) as exc:
        parse_config(GOLDEN.replace("loss = lad", "loss = lasso\nlamda = 0.1"))
    assert exc.value.errors[1:] == ["[problem] unknown key 'lamda'"]


def test_empty_seeds_rejected():
    with pytest.raises(ConfigError, match="seeds list is empty"):
        parse_config(MINIMAL.replace("iterations = 10",
                                     "iterations = 10\nseeds ="))


@pytest.mark.parametrize("old, new, message", [
    ("loss = lad\n", "", "[problem] missing required key 'loss'"),
    ("regularizer = zero", "regularizer = l1\nlambda = 0", "[problem] lambda = 0 must be > 0"),
    ("preset = rda", "preset = leap_frog\nstep_scale = 0",
     "[schedule] step_scale = 0 must be > 0"),
    ("iterations = 10", "iterations = 10\nx1 = 0 a",
     "[run] x1 = '0 a' is not a whitespace-separated list of finite numbers"),
    ("preset = rda", "preset = averaged_leap_frog\nmu = 1.5",
     "[schedule] mu = 1.5 must lie in [0, 1]"),
], ids=["no-loss", "lambda-0", "step_scale-0", "x1-token", "mu-1.5"])
def test_rejected_values_name_their_key(old, new, message):
    with pytest.raises(ConfigError) as exc:
        parse_config(MINIMAL.replace(old, new))
    assert message in exc.value.errors


def test_data_source_exclusivity():
    both = MINIMAL.replace("d = 4", "d = 4\ndata_a = A.txt\ndata_b = b.txt")
    with pytest.raises(ConfigError, match="not both"):
        parse_config(both)

    half = MINIMAL.replace(
        "d = 4\nm = 6\nk = 1\nnoise = 0.0\ndata_seed = 0", "data_a = A.txt")
    with pytest.raises(ConfigError, match="both data_a and data_b"):
        parse_config(half)

    none = MINIMAL.replace(
        "d = 4\nm = 6\nk = 1\nnoise = 0.0\ndata_seed = 0", "")
    with pytest.raises(ConfigError, match="data files or a synthetic recipe"):
        parse_config(none)

    partial = MINIMAL.replace("d = 4\nm = 6\n", "d = 4\n")
    with pytest.raises(ConfigError, match="missing m"):
        parse_config(partial)


@pytest.mark.parametrize("old, new, message", [
    ("d = 4", "d = 0", "[problem] d = 0 must be >= 1"),
    ("m = 6", "m = 0", "[problem] m = 0 must be >= 1"),
    ("k = 1", "k = 0", "[problem] k = 0 must be >= 1"),
    ("noise = 0.0", "noise = -1", "[problem] noise = -1 must be >= 0"),
    ("data_seed = 0", "data_seed = -3", "[problem] data_seed = -3 must be >= 0"),
], ids=["d", "m", "k", "noise", "data_seed"])
def test_a_rejected_recipe_key_is_one_error(old, new, message):
    """A recipe key that is given but invalid is not also reported as
    missing from the recipe."""
    with pytest.raises(ConfigError) as exc:
        parse_config(MINIMAL.replace(old, new))
    assert exc.value.errors == [message]


def test_k_exceeds_d():
    with pytest.raises(ConfigError, match="k = 9 exceeds d = 4"):
        parse_config(MINIMAL.replace("k = 1", "k = 9"))


def test_x1_parsing():
    cfg = parse_config(MINIMAL.replace("iterations = 10",
                                       "iterations = 10\nx1 = 0 0 0 0"))
    assert cfg.x1 == [0.0, 0.0, 0.0, 0.0]


def test_problem_key_tracks_problem_only():
    base = parse_config(MINIMAL)
    assert parse_config(MINIMAL).problem_key == base.problem_key
    changed = parse_config(MINIMAL.replace("noise = 0.0", "noise = 0.5"))
    assert changed.problem_key != base.problem_key
    run_changed = parse_config(MINIMAL.replace("iterations = 10",
                                               "iterations = 99"))
    assert run_changed.problem_key == base.problem_key
    tol_changed = parse_config(MINIMAL.replace(
        "iterations = 10", "iterations = 10\nreference_tol = 1e-6"))
    assert tol_changed.problem_key != base.problem_key


def test_parse_config_file_and_builders(tmp_path):
    rng = np.random.default_rng(0)
    A = rng.standard_normal((6, 3))
    b = rng.standard_normal(6)
    write_dense_matrix(tmp_path / "A.txt", A)
    write_dense_matrix(tmp_path / "b.txt", b)
    (tmp_path / "exp.cfg").write_text("""\
spec_version = 1
[problem]
loss = lad
mirror = euclidean
regularizer = l1
lambda = 0.2
data_a = A.txt
data_b = b.txt
[schedule]
preset = averaged_leap_frog
mu = 0.25
step_kind = constant
step_scale = 0.5
[run]
iterations = 50
""")
    cfg = parse_config_file(tmp_path / "exp.cfg")
    assert cfg.name == "exp"
    problem = build_problem_from_config(cfg)
    assert np.array_equal(problem.A, A)
    assert np.array_equal(problem.b, b)
    sched = build_schedule_from_config(cfg)
    assert sched.name == "averaged_leap_frog"
    assert sched.s(9) == 0.5
    assert sched.t(3, 2.0) == 0.5


def test_build_problem_synthetic_is_deterministic():
    cfg = parse_config(MINIMAL)
    p1 = build_problem_from_config(cfg)
    p2 = build_problem_from_config(cfg)
    assert np.array_equal(p1.A, p2.A)
    assert np.array_equal(p1.b, p2.b)


def test_build_schedule_presets():
    cfg = parse_config(MINIMAL)
    assert build_schedule_from_config(cfg).name == "rda"
    cfg2 = parse_config(MINIMAL.replace("preset = rda",
                                        "preset = leap_frog\nstep_exponent = 0"))
    sched = build_schedule_from_config(cfg2)
    assert sched.s(100) == 1.0


def test_config_file_missing():
    with pytest.raises(ConfigError, match="cannot read config file"):
        parse_config_file("/nonexistent/exp.cfg")


LINEAR = MINIMAL.replace("loss = lad", "loss = linear").replace(
    "d = 4\nm = 6\nk = 1\nnoise = 0.0\ndata_seed = 0", "cost = 1.0 2.0 3.0 4.0")

# (key, base text, line to replace, line with the key set to {})
NUMBER_KEYS = [
    ("lambda", MINIMAL, "regularizer = zero", "regularizer = l1\nlambda = {}"),
    ("radius", MINIMAL, "regularizer = zero", "regularizer = l2ball\nradius = {}"),
    ("box_lo", MINIMAL, "regularizer = zero",
     "regularizer = box\nbox_lo = 0 {} 0 0\nbox_hi = 1 1 1 1"),
    ("box_hi", MINIMAL, "regularizer = zero",
     "regularizer = box\nbox_lo = 0 0 0 0\nbox_hi = 1 1 {} 1"),
    ("cost", LINEAR, "cost = 1.0 2.0 3.0 4.0", "cost = 1.0 {} 3.0 4.0"),
    ("noise", MINIMAL, "noise = 0.0", "noise = {}"),
    ("c", MINIMAL, "preset = rda", "preset = rda\nc = {}"),
    ("mu", MINIMAL, "preset = rda", "preset = averaged_leap_frog\nmu = {}"),
    ("step_scale", MINIMAL, "preset = rda", "preset = leap_frog\nstep_scale = {}"),
    ("step_exponent", MINIMAL, "preset = rda",
     "preset = leap_frog\nstep_exponent = {}"),
    ("x1", MINIMAL, "iterations = 10", "iterations = 10\nx1 = 0 0 {} 0"),
]


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
@pytest.mark.parametrize("key, base, old, new", NUMBER_KEYS,
                         ids=[k[0] for k in NUMBER_KEYS])
def test_non_finite_numbers_are_config_errors(key, base, old, new, value):
    parse_config(base.replace(old, new.format("0.5")))  # the finite text parses
    with pytest.raises(ConfigError, match="%s = .* finite" % key):
        parse_config(base.replace(old, new.format(value)))


@pytest.mark.parametrize("value", ["-inf", "nan"])
def test_reference_tol_may_be_inf_but_not_nan(value):
    """reference_tol = inf asks for no reference solve (the canonical
    start); the other non-finite numbers are config errors."""
    text = MINIMAL.replace("iterations = 10", "iterations = 10\nreference_tol = {}")
    assert parse_config(text.format("inf")).reference_tol == math.inf
    with pytest.raises(ConfigError, match="reference_tol = .* finite number or inf"):
        parse_config(text.format(value))


# (line to replace, replacement, error) in MINIMAL, whose d is 4, or in
# LINEAR, whose 4 costs give d = 4
BAD_DIMENSIONS = [
    ("regularizer = zero", "regularizer = box\nbox_lo = 0 0 0\nbox_hi = 1",
     r"\[problem\] box_lo has 3 entries; need 1 or d = 4"),
    ("regularizer = zero", "regularizer = box\nbox_lo = 0\nbox_hi = 1 1 1 1 1",
     r"\[problem\] box_hi has 5 entries; need 1 or d = 4"),
    ("iterations = 10", "iterations = 10\nx1 = 0 0 0", r"\[run\] x1 has 3 entries; need d = 4"),
]


@pytest.mark.parametrize("base", [MINIMAL, LINEAR], ids=["synthetic", "linear"])
@pytest.mark.parametrize("old, new, message", BAD_DIMENSIONS, ids=["box_lo", "box_hi", "x1"])
def test_dimensions_are_checked_against_d(base, old, new, message):
    with pytest.raises(ConfigError, match=message):
        parse_config(base.replace(old, new))


@pytest.mark.parametrize("base, old, new", [
    (MINIMAL, "regularizer = zero", "regularizer = box\nbox_lo = x\nbox_hi = 1"),
    (MINIMAL, "regularizer = zero", "regularizer = box\nbox_lo = 0\nbox_hi = x"),
    (LINEAR, "cost = 1.0 2.0 3.0 4.0", "cost = x"),
    (LINEAR, "cost = 1.0 2.0 3.0 4.0", "cost = 1 nan"),
    (LINEAR, "cost = 1.0 2.0 3.0 4.0", "cost ="),
], ids=["box_lo", "box_hi", "cost", "cost-nan", "cost-empty"])
def test_an_invalid_list_is_one_error(base, old, new):
    """A list that is given but invalid is reported as invalid, and not
    also as missing."""
    with pytest.raises(ConfigError) as info:
        parse_config(base.replace(old, new))
    assert len(info.value.errors) == 1, info.value.errors
    assert "needs" not in info.value.errors[0]


def test_box_bounds_of_two_lengths_are_reported_in_own_words():
    text = MINIMAL.replace("d = 4", "d = 5").replace(
        "regularizer = zero", "regularizer = box\nbox_lo = 0 0 0\nbox_hi = 1 1 1 1 1")
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert info.value.errors == ["[problem] box bounds have 3 and 5 entries; "
                                 "give scalars or vectors of one length"]


def test_scalar_and_full_box_bounds_parse():
    for lo, hi in (("0", "1"), ("0 0 0 0", "1"), ("0", "1 1 1 1")):
        cfg = parse_config(MINIMAL.replace(
            "regularizer = zero", "regularizer = box\nbox_lo = %s\nbox_hi = %s" % (lo, hi)))
        assert len(cfg.box_lo) in (1, 4)


def test_data_file_dimensions_are_checked_before_the_problem_is_built(tmp_path):
    A = np.random.default_rng(0).standard_normal((6, 3))
    write_dense_matrix(tmp_path / "A.txt", A)
    write_dense_matrix(tmp_path / "b.txt", A[:, 0])
    files = MINIMAL.replace("d = 4\nm = 6\nk = 1\nnoise = 0.0\ndata_seed = 0",
                            "data_a = A.txt\ndata_b = b.txt")
    cfg = parse_config(files.replace("iterations = 10", "iterations = 10\nx1 = 0 0 0 0"),
                       base_dir=tmp_path)
    with pytest.raises(ConfigError, match=r"x1 has 4 entries; need d = 3"):
        build_problem_from_config(cfg)
    cfg = parse_config(files.replace(
        "regularizer = zero", "regularizer = box\nbox_lo = -1 -1\nbox_hi = 1"),
        base_dir=tmp_path)
    with pytest.raises(ConfigError, match=r"box_lo has 2 entries; need 1 or d = 3"):
        build_problem_from_config(cfg)
    cfg = parse_config(files.replace("iterations = 10", "iterations = 10\nx1 = 0 0 0"),
                       base_dir=tmp_path)
    assert build_problem_from_config(cfg).d == 3


def test_with_stride_applies_the_config_rule():
    cfg = parse_config(MINIMAL)
    assert with_stride(cfg, 7).stride == 7 and cfg.stride == 100
    with pytest.raises(ConfigError, match=r"--stride: \[output\] stride = 0 must be >= 1"):
        with_stride(cfg, 0)


def test_a_stride_that_logs_no_row_is_a_config_error():
    """The iterates of a 10-step run are numbered up to 11, so a given
    stride of 12 or more would log no row; 11 logs the last one."""
    text = MINIMAL + "[output]\nstride = {}\n"
    assert parse_config(text.format(11)).stride == 11
    with pytest.raises(ConfigError, match=r"\[output\] stride = 12 exceeds "
                                          r"iterations \+ 1 = 11"):
        parse_config(text.format(12))
    cfg = parse_config(MINIMAL)
    assert cfg.stride == 100  # the default is not a given stride
    assert with_stride(cfg, 11).stride == 11
    with pytest.raises(ConfigError, match=r"--stride: \[output\] stride = 50 exceeds "
                                          r"iterations \+ 1 = 11"):
        with_stride(cfg, 50)


@pytest.mark.parametrize("key, base, old, new", [
    ("box_lo", MINIMAL, "regularizer = zero", "regularizer = box\nbox_lo =\nbox_hi = 1"),
    ("box_hi", MINIMAL, "regularizer = zero", "regularizer = box\nbox_lo = 0\nbox_hi ="),
    ("cost", LINEAR, "cost = 1.0 2.0 3.0 4.0", "cost ="),
    ("x1", MINIMAL, "iterations = 10", "iterations = 10\nx1 ="),
], ids=["box_lo", "box_hi", "cost", "x1"])
def test_empty_number_lists_are_config_errors(key, base, old, new):
    with pytest.raises(ConfigError, match=r"\[\w+\] %s list is empty" % key):
        parse_config(base.replace(old, new))

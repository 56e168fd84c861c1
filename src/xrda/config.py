"""Flat key-value experiment configs.

Grammar (documented in the README): a header line ``spec_version = 1``
before any section, then ``[problem]``, ``[schedule]``, ``[run]`` and
optionally ``[output]`` sections of ``key = value`` lines.  ``#`` or
``;`` start a comment, blank lines are ignored, list values are
whitespace-separated.  Parsing collects every validation error before
failing so a config round of fixes needs one pass.
"""

import hashlib
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

from .geometry import make_mirror
from .problems import build_problem, read_dense_matrix, synthetic_sparse_data
from .regularizers import (BoxIndicator, L1Penalty, L2BallIndicator,
                           SimplexIndicator, ZeroRegularizer, ensure_supported_kinds)
from .schedules import PRESET_KINDS, constant_steps, power_steps, schedule_preset

SPEC_VERSION = 1

SECTIONS = ("problem", "schedule", "run", "output")

_KNOWN_KEYS = {
    "problem": {"loss", "mirror", "regularizer", "lambda", "radius", "box_lo",
                "box_hi", "cost", "data_a", "data_b", "d", "m", "k", "noise",
                "data_seed"},
    "schedule": {"preset", "c", "mu", "step_kind", "step_scale", "step_exponent"},
    "run": {"iterations", "mode", "seeds", "batch_size", "reference_tol", "x1"},
    "output": {"directory", "stride", "timing"},
}


_RECIPE_KEYS = ("d", "m", "k", "noise", "data_seed")


class ConfigError(ValueError):
    """Carries every validation problem found in a config, or in another
    input of a command (presets, start point, slack); exit code 1."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("\n".join(self.errors))


@dataclass
class ExperimentConfig:
    name: str
    base_dir: Path
    # problem
    loss: str
    mirror: str
    regularizer: str
    lam: float = None
    radius: float = None
    box_lo: object = None
    box_hi: object = None
    cost: list = None
    data_a: str = None
    data_b: str = None
    d: int = None
    m: int = None
    k: int = None
    noise: float = None
    data_seed: int = None
    # schedule
    preset: str = None
    c: float = None
    mu: float = None
    step_kind: str = "power"
    step_scale: float = 1.0
    step_exponent: float = 0.5
    # run
    iterations: int = None
    mode: str = "exact"
    seeds: list = field(default_factory=lambda: [0])
    batch_size: int = None
    reference_tol: float = 1e-8
    x1: list = None
    # output
    directory: str = "runs"
    stride: int = 100
    timing: str = "deterministic"
    # canonical text of the problem definition, for reference caching
    problem_key: str = ""


def _tokenize(text):
    """Yield (lineno, kind, payload); kind in {'section', 'pair'}."""
    errors = []
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line.startswith("["):
            if not line.endswith("]") or len(line) < 3:
                errors.append("line %d: malformed section header %r" % (lineno, raw))
                continue
            out.append((lineno, "section", line[1:-1].strip().lower()))
            continue
        if "=" not in line:
            errors.append("line %d: expected 'key = value', got %r" % (lineno, raw))
            continue
        key, _, value = line.partition("=")
        out.append((lineno, "pair", (key.strip().lower(), value.strip())))
    return out, errors


def _collect_sections(tokens, errors):
    header = {}
    sections = {}
    current = None
    for lineno, kind, payload in tokens:
        if kind == "section":
            name = payload
            if name not in SECTIONS:
                errors.append("line %d: unknown section [%s]" % (lineno, name))
                current = {}
                continue
            if name in sections:
                errors.append("line %d: duplicate section [%s]" % (lineno, name))
                current = sections[name]
                continue
            current = sections.setdefault(name, {})
            continue
        key, value = payload
        target = header if current is None else current
        if key in target:
            errors.append("line %d: duplicate key %r" % (lineno, key))
            continue
        target[key] = value
    return header, sections


class _Reader:
    """Typed key extraction over one section's dict, accumulating errors.

    A choice that is missing or rejected decides which other keys the
    section reads, so ``finish`` then reports no key as not allowed:
    the choice's own error is the one to fix."""

    def __init__(self, section, data, errors):
        self.section = section
        self.data = dict(data)
        self.errors = errors
        self.choice_failed = False

    def error(self, msg):
        self.errors.append("[%s] %s" % (self.section, msg))

    def take(self, key):
        return self.data.pop(key, None)

    def take_choice(self, key, choices, default=None, required=False):
        raw = self.take(key)
        if raw is None:
            if required:
                self.error("missing required key %r" % key)
                self.choice_failed = True
            return default
        if raw not in choices:
            self.error("%s = %r is not one of %s" % (key, raw, sorted(choices)))
            self.choice_failed = True
            return default
        return raw

    def take_number(self, key, kind=float, default=None, required=False,
                    minimum=None, strict_min=None, allow_inf=False):
        """The value as kind (float or int), or default when it is missing or
        invalid (the error recorded); a float must be finite, or inf where
        allow_inf."""
        raw = self.take(key)
        if raw is None:
            if required:
                self.error("missing required key %r" % key)
            return default
        fmt = "%d" if kind is int else "%g"
        try:
            val = kind(raw)
        except ValueError:
            self.error("%s = %r is not %s"
                       % (key, raw, "an integer" if kind is int else "a number"))
            return default
        if not (kind is int or math.isfinite(val) or allow_inf and val == math.inf):
            self.error("%s = %r is not a finite number%s"
                       % (key, raw, " or inf" if allow_inf else ""))
            return default
        if minimum is not None and val < minimum:
            self.error(("%s = " + fmt + " must be >= " + fmt) % (key, val, minimum))
            return default
        if strict_min is not None and not val > strict_min:
            self.error(("%s = " + fmt + " must be > " + fmt) % (key, val, strict_min))
            return default
        return val

    def take_list(self, key, kind=float):
        """A whitespace-separated list of kind (finite floats or ints), or
        None when it is missing, empty or invalid (the error recorded)."""
        raw = self.take(key)
        if raw is None:
            return None
        try:
            vals = [kind(tok) for tok in raw.split()]
        except ValueError:
            vals = None
        if vals == []:
            self.error("%s list is empty" % key)
            return None
        if vals is None or not (kind is int or all(map(math.isfinite, vals))):
            self.error("%s = %r is not a whitespace-separated list of %s"
                       % (key, raw, "integers" if kind is int else "finite numbers"))
            return None
        return vals

    def finish(self):
        for key in sorted(self.data):
            if key in _KNOWN_KEYS[self.section]:
                continue
            self.error("unknown key %r" % key)
        if self.choice_failed:
            return
        for key in sorted(set(self.data) & _KNOWN_KEYS[self.section]):
            self.error("key %r is not allowed with these settings" % key)


def parse_config(text, base_dir=".", name="experiment"):
    """Parse and validate config text; raises ConfigError listing every issue."""
    tokens, errors = _tokenize(text)
    header, sections = _collect_sections(tokens, errors)

    version = header.pop("spec_version", None)
    if version is None:
        errors.append("missing header key 'spec_version = %d' before the first section"
                      % SPEC_VERSION)
    elif version != str(SPEC_VERSION):
        errors.append("unsupported spec_version %r (this package reads version %d)"
                      % (version, SPEC_VERSION))
    for key in sorted(header):
        errors.append("unexpected key %r before the first section" % key)

    for required in ("problem", "schedule", "run"):
        if required not in sections:
            errors.append("missing required section [%s]" % required)
    if errors and not all(s in sections for s in ("problem", "schedule", "run")):
        raise ConfigError(errors)

    cfg = ExperimentConfig(name=name, base_dir=Path(base_dir), loss=None,
                           mirror=None, regularizer=None)

    p = _Reader("problem", sections["problem"], errors)
    cfg.loss = p.take_choice("loss", ("lad", "logistic", "linear"), required=True)
    cfg.mirror = p.take_choice("mirror", ("euclidean", "entropy"), required=True)
    cfg.regularizer = p.take_choice(
        "regularizer", ("l1", "box", "simplex", "l2ball", "zero"), required=True)
    if cfg.regularizer == "l1":
        cfg.lam = p.take_number("lambda", required=True, strict_min=0.0)
    if cfg.regularizer == "l2ball":
        cfg.radius = p.take_number("radius", required=True, strict_min=0.0)
    # a key that is given but invalid is reported once, as invalid
    if cfg.regularizer == "box":
        absent = "box_lo" not in p.data or "box_hi" not in p.data
        cfg.box_lo = p.take_list("box_lo")
        cfg.box_hi = p.take_list("box_hi")
        if absent:
            p.error("box regularizer needs box_lo and box_hi")
        elif cfg.box_lo is not None and cfg.box_hi is not None:
            try:
                BoxIndicator(cfg.box_lo, cfg.box_hi)
            except ValueError as exc:  # reported here, so not by length again
                p.error(str(exc))
                cfg.box_lo = cfg.box_hi = None
    if cfg.loss == "linear":
        absent = "cost" not in p.data
        cfg.cost = p.take_list("cost")
        if absent:
            p.error("linear loss needs the cost vector (key 'cost')")
    elif cfg.loss is not None:
        missing = [key for key in _RECIPE_KEYS if key not in p.data]
        cfg.data_a = p.take("data_a")
        cfg.data_b = p.take("data_b")
        cfg.d = p.take_number("d", int, minimum=1)
        cfg.m = p.take_number("m", int, minimum=1)
        cfg.k = p.take_number("k", int, minimum=1)
        cfg.noise = p.take_number("noise", minimum=0.0)
        cfg.data_seed = p.take_number("data_seed", int, minimum=0)
        files_mode = cfg.data_a is not None or cfg.data_b is not None
        synth_mode = len(missing) < len(_RECIPE_KEYS)
        if files_mode and synth_mode:
            p.error("give either data files (data_a, data_b) or a synthetic recipe "
                    "(d, m, k, noise, data_seed), not both")
        elif files_mode:
            if cfg.data_a is None or cfg.data_b is None:
                p.error("file mode needs both data_a and data_b")
        elif synth_mode:
            if missing:
                p.error("synthetic recipe is missing %s" % ", ".join(missing))
            elif cfg.k is not None and cfg.d is not None and cfg.k > cfg.d:
                p.error("planted sparsity k = %d exceeds d = %d" % (cfg.k, cfg.d))
        else:
            p.error("%s loss needs data files or a synthetic recipe" % cfg.loss)
    p.finish()

    if cfg.mirror is not None and cfg.regularizer is not None:
        try:
            ensure_supported_kinds(cfg.mirror, cfg.regularizer)
        except ValueError as exc:
            errors.append("[problem] %s" % exc)

    s = _Reader("schedule", sections["schedule"], errors)
    cfg.preset = s.take_choice("preset", PRESET_KINDS, required=True)
    if cfg.preset == "rda":
        cfg.c = s.take_number("c", default=1.0, strict_min=0.0)
    if cfg.preset == "averaged_leap_frog":
        cfg.mu = s.take_number("mu", required=True)
        if cfg.mu is not None and not 0.0 <= cfg.mu <= 1.0:
            s.error("mu = %g must lie in [0, 1]" % cfg.mu)
    if cfg.preset is not None and cfg.preset != "rda":
        cfg.step_kind = s.take_choice("step_kind", ("power", "constant"),
                                      default=cfg.step_kind)
        cfg.step_scale = s.take_number("step_scale", default=cfg.step_scale,
                                       strict_min=0.0)
        if cfg.step_kind == "power":
            cfg.step_exponent = s.take_number("step_exponent",
                                              default=cfg.step_exponent)
            if cfg.step_exponent is not None and cfg.step_exponent < 0:
                s.error("step_exponent = %g must be >= 0: forward steps s must be "
                        "non-increasing" % cfg.step_exponent)
    s.finish()

    r = _Reader("run", sections["run"], errors)
    cfg.iterations = r.take_number("iterations", int, required=True, minimum=1)
    cfg.mode = r.take_choice("mode", ("exact", "stochastic"), default=cfg.mode)
    cfg.seeds = r.take_list("seeds", int) or cfg.seeds
    if min(cfg.seeds) < 0:
        r.error("seeds = %s: every seed must be >= 0" % " ".join(map(str, cfg.seeds)))
    if cfg.mode == "stochastic":
        cfg.batch_size = r.take_number("batch_size", int, minimum=1)
    # inf asks for no solve: the reference is the canonical start
    cfg.reference_tol = r.take_number("reference_tol", default=cfg.reference_tol,
                                      strict_min=0.0, allow_inf=True)
    cfg.x1 = r.take_list("x1")
    if cfg.m is not None and cfg.batch_size is not None and cfg.batch_size > cfg.m:
        r.error("batch_size = %d exceeds m = %d" % (cfg.batch_size, cfg.m))
    r.finish()

    if "output" in sections:
        o = _Reader("output", sections["output"], errors)
        cfg.directory = o.take("directory") or cfg.directory
        cfg.stride = _take_stride(o, cfg)
        cfg.timing = o.take_choice("timing", ("deterministic", "wall"),
                                   default=cfg.timing)
        o.finish()

    d = cfg.d if cfg.cost is None else len(cfg.cost)
    if d is not None:
        errors += _dimension_errors(cfg, d)

    if errors:
        raise ConfigError(errors)

    items = sorted(sections["problem"].items())
    items.append(("reference_tol", repr(cfg.reference_tol)))
    cfg.problem_key = hashlib.sha256(
        "\n".join("%s = %s" % kv for kv in items).encode()).hexdigest()[:16]
    return cfg


def _take_stride(reader, cfg):
    """The stride, or cfg's when none is given; one that is given must be
    >= 1 and log at least one row, and a run's iterates after x_1 are
    numbered 2 to iterations + 1."""
    stride = reader.take_number("stride", int, minimum=1)
    if stride is None:  # not given, or already reported
        return cfg.stride
    if cfg.iterations is not None and stride > cfg.iterations + 1:
        reader.error("stride = %d exceeds iterations + 1 = %d, so no trace row "
                     "would be logged" % (stride, cfg.iterations + 1))
    return stride


def with_stride(cfg, stride):
    """cfg with its [output] stride replaced, checked by the config's rule."""
    errors = []
    stride = _take_stride(_Reader("output", {"stride": str(stride)}, errors), cfg)
    if errors:
        raise ConfigError(["--stride: %s" % e for e in errors])
    return replace(cfg, stride=stride)


def _dimension_errors(cfg, d):
    """The problem has d coordinates: box bounds need 1 or d entries, and
    the start point x1 needs d."""
    errors = ["[problem] %s has %d entries; need 1 or d = %d" % (key, len(vals), d)
              for key, vals in (("box_lo", cfg.box_lo), ("box_hi", cfg.box_hi))
              if vals is not None and len(vals) not in (1, d)]
    if cfg.x1 is not None and len(cfg.x1) != d:
        errors.append("[run] x1 has %d entries; need d = %d" % (len(cfg.x1), d))
    return errors


def parse_config_file(path):
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(["cannot read config file %s: %s" % (path, exc)])
    return parse_config(text, base_dir=path.parent, name=path.stem)


def _make_regularizer(cfg):
    kind = cfg.regularizer
    if kind == "l1":
        return L1Penalty(cfg.lam)
    if kind == "box":
        return BoxIndicator(cfg.box_lo, cfg.box_hi)
    if kind == "simplex":
        return SimplexIndicator()
    if kind == "l2ball":
        return L2BallIndicator(cfg.radius)
    return ZeroRegularizer()


def build_problem_from_config(cfg):
    """Materialize the CompositeProblem a config describes."""
    mirror = make_mirror(cfg.mirror)
    reg = _make_regularizer(cfg)
    A = b = None  # the linear loss has only its cost vector
    if cfg.data_a is not None:
        A = read_dense_matrix(cfg.base_dir / cfg.data_a)
        b = read_dense_matrix(cfg.base_dir / cfg.data_b, ndmin=1)
        errors = _dimension_errors(cfg, A.shape[1])
        if errors:
            raise ConfigError(errors)
    elif cfg.loss != "linear":
        A, b, _ = synthetic_sparse_data(cfg.loss, cfg.d, cfg.m, cfg.k, cfg.noise,
                                        cfg.data_seed)
    try:
        return build_problem(cfg.loss, reg, mirror, A=A, b=b, c=cfg.cost,
                             batch_size=cfg.batch_size)
    except ValueError as exc:
        raise ConfigError(["[problem] %s" % exc])


def build_schedule_from_config(cfg):
    if cfg.preset == "rda":
        return schedule_preset("rda", c=cfg.c)
    if cfg.step_kind == "constant":
        steps = constant_steps(cfg.step_scale)
    else:
        steps = power_steps(cfg.step_scale, cfg.step_exponent)
    return schedule_preset(cfg.preset, mu=cfg.mu, steps=steps)

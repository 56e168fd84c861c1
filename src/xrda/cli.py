"""Command line entry point.

Subcommands: run (execute an experiment config), compare (several presets
on one problem), check-bound (verify traces against the bound column),
gen-problem (emit a synthetic dataset to files).  Exit codes: 0 success,
1 config/validation error, 2 runtime failure, 3 bound-check failure.
"""

import argparse
import sys
from pathlib import Path

from .config import ConfigError, parse_config_file, with_stride
from .harness import check_bound, compare, run_experiment
from .problems import synthetic_sparse_data, write_dense_matrix
from .solver import ScheduleError


def build_parser():
    parser = argparse.ArgumentParser(
        prog="xrda", description="Composite optimization experiment harness.")
    parser.add_argument("--config", metavar="PATH", help="experiment config file")
    parser.add_argument("--out", metavar="DIR",
                        help="output directory (overrides [output] directory)")
    parser.add_argument("--unsafe", action="store_true",
                        help="skip schedule constraint checks; traces lose the "
                             "bound column")
    parser.add_argument("--stride", type=int, metavar="N",
                        help="trace logging stride (overrides [output] stride)")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("run", help="run the configured experiment, one trace per seed")
    pc = sub.add_parser("compare", help="run several presets on the same problem")
    pc.add_argument("--presets", required=True,
                    help="comma-separated preset names")
    pb = sub.add_parser("check-bound", help="verify traces against the bound column")
    pb.add_argument("traces", nargs="+", metavar="TRACE.csv")
    pb.add_argument("--strict", action="store_true",
                    help="per-row check (deterministic runs); default compares "
                         "seed means at the final n")
    pb.add_argument("--slack", type=float, default=1e-9,
                    help="absolute slack added to the bound, e.g. a reference "
                         "certificate (default 1e-9)")
    sub.add_parser("gen-problem", help="write the [problem] dataset to text files")
    return parser


def _require_config(args):
    if not args.config:
        raise ConfigError(["this command needs --config PATH"])
    cfg = parse_config_file(args.config)
    return cfg if args.stride is None else with_stride(cfg, args.stride)


def _cmd_run(args):
    cfg = _require_config(args)
    paths = run_experiment(cfg, out_dir=args.out, unsafe=args.unsafe)
    for path in paths:
        print(path)
    return 0


def _cmd_compare(args):
    cfg = _require_config(args)
    presets = [p.strip() for p in args.presets.split(",") if p.strip()]
    result = compare(cfg, presets, out_dir=args.out, unsafe=args.unsafe)
    print(result.table())
    print(result.csv_path)
    return 0


def _cmd_check_bound(args):
    report = check_bound(args.traces, strict=args.strict, slack=args.slack)
    print(report.summary())
    return 0 if report.ok else 3


def _cmd_gen_problem(args):
    cfg = _require_config(args)
    out = Path(args.out) if args.out else Path(cfg.directory)
    out.mkdir(parents=True, exist_ok=True)
    if cfg.loss == "linear":
        path = out / ("%s_cost.txt" % cfg.name)
        write_dense_matrix(path, cfg.cost)
        print(path)
        return 0
    if cfg.d is None:
        raise ConfigError(["gen-problem needs a synthetic [problem] recipe "
                           "(d, m, k, noise, data_seed)"])
    A, b, planted = synthetic_sparse_data(cfg.loss, cfg.d, cfg.m, cfg.k,
                                          cfg.noise, cfg.data_seed)
    for suffix, arr in (("A", A), ("b", b), ("planted", planted)):
        path = out / ("%s_%s.txt" % (cfg.name, suffix))
        write_dense_matrix(path, arr)
        print(path)
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "compare": _cmd_compare,
    "check-bound": _cmd_check_bound,
    "gen-problem": _cmd_gen_problem,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print("config error:", file=sys.stderr)
        for line in exc.errors:
            print("  %s" % line, file=sys.stderr)
        return 1
    except ScheduleError as exc:
        print("schedule violation: %s" % exc, file=sys.stderr)
        return 2
    except (RuntimeError, ValueError, OverflowError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

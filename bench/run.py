"""xrda benchmark: run one workload through the public harness and report metrics.

Usage, from the root of the repository:

    python3 bench/run.py --workload lad-compare-d200 --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics of untraced repetitions,
after a first one that only warms the process up;
``--trace 1`` runs one untraced repetition and then traced ones, and
reports the per-layer metrics.  The metrics are printed by name and
unit, the full record (environment, configs, every repetition, span
table) goes to ``.bench_out/results/``, and the last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only when every
correctness check passed.  Workloads are listed in ``workloads.py``.
"""

import os

# BLAS runs on one thread: the steadier choice on a shared machine, and
# the single-threaded baseline.  Set before numpy is first imported.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _import_xrda():
    """Import xrda from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import xrda
    except ImportError as exc:
        sys.exit("cannot import xrda from %s: %s" % (SRC, exc))
    if not Path(xrda.__file__).resolve().is_relative_to(SRC):
        sys.exit("xrda was imported from %s, not from %s" % (xrda.__file__, SRC))
    sys.path.insert(0, str(HERE))


def main(argv=None):
    _import_xrda()
    from measure import END_TO_END, PER_LAYER, measure, write_record
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs the same workload at toy sizes (smoke tests)")
    args = parser.parse_args(argv)

    record = measure(args.workload, args.seed, args.seconds, args.trace, size=args.size,
                     blas_threads=BLAS_THREADS)
    path = write_record(record)

    print("workload %s, seed %d, size %s, trace %d: %s"
          % (args.workload, args.seed, args.size, args.trace, record["why"]))
    print("environment: %s" % json.dumps(record["environment"], sort_keys=True))
    print("repetitions: %d (%d traced); runs attempted %d, failed %d"
          % (len(record["repetitions"]), sum(r["traced"] for r in record["repetitions"]),
             record["attempted"], record["failed"]))
    table = PER_LAYER if args.trace else END_TO_END
    for name, metric in record["metrics"].items():
        print("  %-32s %-22r %-9s (%s is better)"
              % (name, metric["value"], metric["unit"], table[name][1]))
    for failure in record["failures"][:20]:
        print("FAILED: %s" % failure)
    print("record: %s" % path)
    print(json.dumps({key: record[key]
                      for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

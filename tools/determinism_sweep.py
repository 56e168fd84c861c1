"""Determinism sweep: run the xrda command line over a fixed matrix of configs
and keep everything it writes.

Usage, from the root of the repository:

    python3 tools/determinism_sweep.py OUT_DIR

The matrix: the lad and logistic losses, each with the six supported
pairs (the l1, box, l2ball and zero regularizers on the Euclidean
mirror, simplex and zero on the entropy mirror), each in exact mode, in
stochastic mode with batch 1 (seeds 1 2) and with batch 3 (seeds 3 4).
Entropy+zero starts at x1 = 1 with ``reference_tol = inf``, as its data
reference lies outside the entropy mirror's domain.  Every case runs
``xrda run`` (leap_frog) and ``xrda compare`` with the four other
presets; logistic with the zero regularizer runs both once more with
``--unsafe``.  One more case, logistic+l1 with batch 1 at m = 9000,
runs both commands on data large enough that a stochastic run evaluates
its logged points in several blocks (7 points a block, 17 points), so
the sweep covers a block boundary and a partial last block.  The linear
cost (``COST``, d = 8) runs on the simplex (entropy mirror), box, l2ball
and l1 pairs, the l1 weight at least max |cost| so that f is bounded
below, each in exact mode and with batch 1, with both commands.  Logistic
with the zero regularizer has no finite certificate, so without
``--unsafe`` those commands exit 2; every other command exits 0.  The
sweep prints a line for each command whose exit code is not the
expected one, and then exits 1.
Each command gets a directory under OUT_DIR with its config, the trace
CSVs and ``_refcache`` it writes, its standard output and error and its
exit code.  OUT_DIR must not exist yet.

Paths in the outputs are relative to the command's directory, so two
sweeps, of one version or of two that must agree, compare with
``diff -r``.  The commands run one at a time, with BLAS on one thread.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

LOSSES = ("lad", "logistic")
PAIRS = {
    "l1": "mirror = euclidean\nregularizer = l1\nlambda = 0.1",
    "box": "mirror = euclidean\nregularizer = box\nbox_lo = 0.1\nbox_hi = 0.9",
    "simplex": "mirror = entropy\nregularizer = simplex",
    "l2ball": "mirror = euclidean\nregularizer = l2ball\nradius = 1.0",
    "zero": "mirror = euclidean\nregularizer = zero",
    "entropy_zero": "mirror = entropy\nregularizer = zero",
}
# [run] keys of a pair: entropy+zero needs a start inside the orthant, and its
# data reference lies outside it
RUN_KEYS = {"entropy_zero": ["x1 = 1 1 1 1 1 1 1 1", "reference_tol = inf"]}
MODES = {
    "exact": "mode = exact",
    "b1": "mode = stochastic\nbatch_size = 1\nseeds = 1 2",
    "b3": "mode = stochastic\nbatch_size = 3\nseeds = 3 4",
}
COST = "cost = 0.5 -1.2 0.3 0.9 -0.4 1.1 -0.7 0.2"
LINEAR_PAIRS = dict(PAIRS, l1="mirror = euclidean\nregularizer = l1\nlambda = 1.5")
COMMANDS = {
    "run": ["run"],
    "compare": ["compare", "--presets",
                "forward_backward,rda,constant_backward,averaged_leap_frog"],
}


def config_text(loss, pair, mode, m=30):
    if loss == "linear":
        problem = [LINEAR_PAIRS[pair], COST]
    else:
        problem = [PAIRS[pair], "d = 8", "m = %d" % m, "k = 2", "noise = 0.3",
                   "data_seed = 5"]
    return "\n".join([
        "spec_version = 1",
        "[problem]",
        "loss = %s" % loss,
    ] + problem + [
        "[schedule]",
        "preset = leap_frog",
        "[run]",
        "iterations = 200",
        MODES[mode],
    ] + RUN_KEYS.get(pair, []) + [
        "[output]",
        "stride = 25",
    ]) + "\n"


def cases():
    """(directory name, config text, extra CLI flags, command, expected exit
    code) of every run."""
    for loss in LOSSES:
        for pair in PAIRS:
            for mode in MODES:
                # no finite certificate: exit 2 unless --unsafe
                uncertified = loss == "logistic" and pair in ("zero", "entropy_zero")
                flag_sets = [[], ["--unsafe"]] if uncertified else [[]]
                for flags in flag_sets:
                    expected = 2 if uncertified and not flags else 0
                    for command, args in COMMANDS.items():
                        name = "-".join([loss, pair, mode, command]
                                        + [f.strip("-") for f in flags])
                        yield name, config_text(loss, pair, mode), flags, args, expected
    # more data rows than the matrix's 30: several evaluation blocks
    for command, args in COMMANDS.items():
        yield ("logistic-l1-b1-m9000-" + command,
               config_text("logistic", "l1", "b1", m=9000), [], args, 0)
    for pair in ("simplex", "box", "l2ball", "l1"):
        for mode in ("exact", "b1"):
            for command, args in COMMANDS.items():
                yield ("-".join(["linear", pair, mode, command]),
                       config_text("linear", pair, mode), [], args, 0)


def run_case(case_dir, text, flags, args, env):
    case_dir.mkdir(parents=True)
    (case_dir / "sweep.ini").write_text(text)
    cmd = ([sys.executable, "-m", "xrda", "--config", "sweep.ini", "--out", "out"]
           + flags + args)
    proc = subprocess.run(cmd, cwd=case_dir, env=env, capture_output=True, text=True)
    (case_dir / "stdout.txt").write_text(proc.stdout)
    (case_dir / "stderr.txt").write_text(proc.stderr)
    (case_dir / "exit_code.txt").write_text("%d\n" % proc.returncode)
    return proc.returncode


def main(argv):
    if len(argv) != 1:
        sys.exit("usage: python3 tools/determinism_sweep.py OUT_DIR")
    out = Path(argv[0])
    if out.exists():
        sys.exit("%s exists; the sweep writes a new directory" % out)
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    codes, mismatches = {}, []
    for name, text, flags, args, expected in cases():
        codes[name] = run_case(out / name, text, flags, args, env)
        print("%-36s exit %d" % (name, codes[name]))
        if codes[name] != expected:
            mismatches.append("%s exited %d, expected %d" % (name, codes[name], expected))
    print("%d commands, %d exited non-zero"
          % (len(codes), sum(code != 0 for code in codes.values())))
    for line in mismatches:
        print("MISMATCH: " + line)
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

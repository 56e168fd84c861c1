##
# The file-driven side of the package: write a config, run it through
# the command line interface, check the logged bound, and compare
# schedule presets.  Everything here shells out to `python3 -m xrda`
# exactly as you would from a terminal.
##
import subprocess
import sys
import tempfile
from pathlib import Path

CONFIG = """\
spec_version = 1

[problem]
loss = lad
mirror = euclidean
regularizer = l1
lambda = 0.1
d = 20
m = 40
k = 4
noise = 0.2
data_seed = 7

[schedule]
preset = leap_frog

[run]
iterations = 2000

[output]
stride = 200
"""


def cli(*args):
    """Run one CLI command and echo it; a non-zero exit ends the demo with it."""
    cmd = [sys.executable, "-m", "xrda"] + list(args)
    print("$ python3 -m xrda " + " ".join(args))
    proc = subprocess.run(cmd, capture_output=True, text=True)
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        sys.stdout.write(proc.stderr)
    print("(exit %d)\n" % proc.returncode)
    if proc.returncode != 0:
        sys.exit(proc.returncode)
    return proc


def main():
    with tempfile.TemporaryDirectory(prefix="xrda_demo_") as tmp:
        work = Path(tmp)
        cfg = work / "lad_sparse.cfg"
        cfg.write_text(CONFIG)
        print("config at %s\n" % cfg)

        cli("--config", str(cfg), "--out", str(work), "run")

        trace = work / "lad_sparse_seed0.csv"
        print("first trace lines:")
        for line in trace.read_text().splitlines()[:4]:
            print("   ", line)
        print()

        # strict mode: every row must satisfy gap <= bound + slack
        cli("--config", str(cfg), "check-bound", "--strict", str(trace))

        # same problem under different schedules, one table
        cli("--config", str(cfg), "--out", str(work), "compare",
            "--presets", "forward_backward,rda,leap_frog")

        print("artifacts were written under", work, "(removed on exit)")


if __name__ == "__main__":
    main()

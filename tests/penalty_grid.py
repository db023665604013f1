"""The penalty grid: one Parseval train per (rho1, rho2, rho3) triple; not
part of the test suite.

Its file name does not match ``test_*.py``, so a plain ``pytest`` run does
not collect it. Each train runs ``pksvd train --method parseval`` in-process
on the 32x32 top-left crop of ``texture(0)``, with 4x4 blocks, m=32, k=4,
2 K-SVD and 3 ADMM iterations and every warning raised as an error, for
every triple drawn from ``PENALTIES`` (13^3 = 2197 trains). It prints one
CSV row per triple: the three penalties, the outcome (``trained`` or
``failed``), the type of the exception that failed the train and its
message. Run it from the root of a checkout:

    PYTHONPATH=src:perfbench python tests/penalty_grid.py > grid.csv

Two checkouts' grids, compared row by row, show which triples a change
moves from one outcome or exception type to another.
"""

import csv
import io
import itertools
import os
import sys
import tempfile
import warnings
from contextlib import redirect_stdout

# One BLAS thread, set before numpy is first imported, so that reruns agree.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from texture import texture  # noqa: E402

from pksvd import cli  # noqa: E402
from pksvd.imaging import write_pgm  # noqa: E402

PENALTIES = ("1e-300", "1e-250", "1e-200", "1e-150", "1e-100", "1e-50", "1e-20",
             "1e-3", "1", "1e3", "1e11", "1e100", "1e250")
DESK = ("--block_size", "4", "--m", "32", "--k", "4", "--ksvd_iters", "2",
        "--max_iters", "3")


def train(image, out, rho1, rho2, rho3):
    """Run one train; return (outcome, exception type, message)."""
    argv = ["train", image, "--method", "parseval", *DESK, "--out", out,
            "--rho1", rho1, "--rho2", rho2, "--rho3", rho3]
    args = cli.build_parser("train").parse_args(argv)
    try:
        with warnings.catch_warnings(), redirect_stdout(io.StringIO()):
            warnings.simplefilter("error")
            args.func(args)
    except Exception as exc:  # every failure is a row, not the end of the grid
        return "failed", type(exc).__name__, str(exc)
    return "trained", "", ""


def main():
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(("rho1", "rho2", "rho3", "outcome", "error", "message"))
    with tempfile.TemporaryDirectory() as work:
        image = os.path.join(work, "img.pgm")
        write_pgm(texture(0)[:32, :32], image)
        out = os.path.join(work, "d.pk")
        for triple in itertools.product(PENALTIES, repeat=3):
            writer.writerow((*triple, *train(image, out, *triple)))


if __name__ == "__main__":
    main()

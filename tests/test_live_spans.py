"""The benchmark's per-layer spans stay on live code.

``perfbench/spans.Tracer`` times the functions that its ``TARGETS`` name.
A target whose function exists but that no command reaches reads 0 on
every benchmark run, and its time is booked to its caller. This test runs
a train and the four recovery commands under the tracer, and checks that
every target that resolves in ``pksvd`` was called.
"""

import sys

import spans
from texture import texture

from pksvd.cli import main
from pksvd.imaging import write_pgm

# The Kronecker Sylvester solve is the reference the eigen route is tested
# against; no command calls it.
REFERENCE_ONLY = {"matrix_core.solve_sylvester"}


def test_every_resolving_target_is_called(tmp_path):
    image = str(tmp_path / "img.pgm")
    write_pgm(texture(0)[:16, :16], image)
    out = str(tmp_path)
    pair = ["--dict", f"{out}/d.pk", "--dual", f"{out}/d.dual.pk"]
    block = ["--block_size", "4"]
    tracer = spans.Tracer()
    tracer.install()
    try:
        for argv in (
            ["train", image, "--method", "parseval", *block, "--m", "16", "--k", "4",
             "--ksvd_iters", "1", "--max_iters", "1", "--out", f"{out}/d.pk",
             "--out-codes", f"{out}/c.bin", "--trace", f"{out}/t.csv"],
            ["denoise", image, *pair, "--sigma", "20", *block, "--out-prefix", f"{out}/dn"],
            ["inpaint", image, pair[0], pair[1], "--fraction", "0.5", *block,
             "--out-prefix", f"{out}/ip"],
            ["compress", image, *pair, *block, "--out-prefix", f"{out}/rd"],
            ["reconstruct", image, *pair, *block, "--out", f"{out}/rc.pgm"],
        ):
            assert main(argv) == 0, argv
    finally:
        tracer.uninstall()
    live = [f"{module}.{attr}" for module, attr in spans.TARGETS
            if getattr(sys.modules.get(f"pksvd.{module}"), attr, None) is not None]
    assert [name for name in live
            if name not in REFERENCE_ONLY and not tracer.calls[name]] == []

"""The three benchmark workloads: their inputs, commands and output checks.

Every workload runs one ``pksvd train`` and the four recovery commands
(``denoise``, ``inpaint``, ``compress``, ``reconstruct``) in a closed loop,
one command after another, so that it reports every end-to-end metric.
Each workload has a major part, made from the workload seed, that puts its
weight on one layer:

* ``train-desk``: the desk shapes (4x4 blocks, m=32, k=4, 20 K-SVD
  iterations) with 100 ADMM iterations on the 64x64 top-left crop;
  ``parseval_ksvd.update_codes``.
* ``train-full``: full-scale shapes (8x8 blocks, m=256, k=64) on the whole
  image with 1 K-SVD and 1 ADMM iteration; OMP inside K-SVD.
* ``recover-desk``: the recovery commands on the 64x64 top-left crop; the
  ball-constrained solver and its polish.

The minor part is a fixed probe: the recovery commands on a 48x48 crop
for the training workloads, and the desk train of ``train-desk`` on a
32x32 crop for ``recover-desk``. Probe images come from a fixed seed, so
their figures carry no seed-to-seed variance. Each part takes a few
seconds, so that a run holds several rounds and every metric is sampled
across the whole run and over a few seconds in all. The recovery commands
always use a fixed self-dual Parseval pair built from the DCT dictionary,
never a trained one, so no trainer change can move the recovery metrics.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
import re
from dataclasses import dataclass

import numpy as np

import texture

DESK = ("--block_size", "4", "--m", "32", "--k", "4")
RECOVER_BLOCK = 4
SIGMA = 20.0
FRACTION = 0.5
TIGHT_TOL = 1e-6
PROBE_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    train_image: str  # a key of make_inputs' paths
    train_args: tuple
    block_size: int
    k: int
    max_iters: int
    check_tight: bool  # require S S^T = I and S = A within TIGHT_TOL
    recover_image: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload("train-desk", "crop64", DESK + ("--max_iters", "100"),
                 4, 4, 100, True, "probe48"),
        Workload("train-full", "full", ("--ksvd_iters", "1", "--max_iters", "1"),
                 8, 64, 1, False, "probe48"),
        Workload("recover-desk", "probe32", DESK + ("--max_iters", "100"),
                 4, 4, 100, True, "crop64"),
    )
}

RECOVERY = ("denoise", "inpaint", "compress", "reconstruct")

# Before timing starts, every command runs once on the probe images (the
# train with 1 K-SVD and 1 ADMM iteration), so that first-call costs do
# not land in the first timed round.
WARMUP = Workload("warm-up", "probe32", DESK + ("--ksvd_iters", "1", "--max_iters", "1"),
                  4, 4, 1, False, "probe16")


# --- inputs -----------------------------------------------------------------

def self_dual_pair(dct):
    """(D D^T)^(-1/2) D: a Parseval frame that is its own analysis dual."""
    evals, evecs = np.linalg.eigh(dct @ dct.T)
    return (evecs / np.sqrt(evals)) @ evecs.T @ dct


def make_inputs(seed, workdir, pksvd):
    """Write the workload's images, the probe images and the fixed pair;
    return their paths."""
    pixels = texture.texture(seed)
    probe = texture.texture(PROBE_SEED)
    images = {"full": pixels, "crop64": pixels[:64, :64],
              "probe16": probe[:16, :16], "probe32": probe[:32, :32],
              "probe48": probe[:48, :48]}
    paths = {}
    for key, img in images.items():
        paths[key] = os.path.join(workdir, f"{key}.pgm")
        texture.write_pgm(img, paths[key])
    pair = self_dual_pair(pksvd.frames.dct_dictionary(16, 32).mat)
    paths["pair"] = os.path.join(workdir, "pair.pk")
    pksvd.formats.save_dictionary(pksvd.frames.Dictionary(pair), paths["pair"])
    return paths


# --- commands ----------------------------------------------------------------

@dataclass(frozen=True)
class Command:
    kind: str
    argv: tuple
    outputs: tuple


def commands(w, paths, outdir):
    """The CLI commands of one round, in order."""
    def out(name):
        return os.path.join(outdir, name)

    pair = paths["pair"]
    image = paths[w.recover_image]
    block = ("--block_size", str(RECOVER_BLOCK))
    return (
        Command("train", ("train", paths[w.train_image], "--method", "parseval",
                          *w.train_args, "--out", out("dict.pk"),
                          "--out-codes", out("codes.pkx"),
                          "--trace", out("trace.csv")),
                (out("dict.pk"), out("dict.dual.pk"), out("codes.pkx"),
                 out("trace.csv"))),
        Command("denoise", ("denoise", image, "--dict", pair, "--dual", pair,
                            "--sigma", repr(SIGMA), *block,
                            "--out-prefix", out("denoised")),
                (out("denoised.pgm"), out("denoised.csv"))),
        Command("inpaint", ("inpaint", image, "--dict", pair,
                            "--fraction", repr(FRACTION), *block,
                            "--out-prefix", out("inpainted")),
                (out("inpainted.pgm"), out("inpainted.corrupted.pgm"),
                 out("inpainted.csv"))),
        Command("compress", ("compress", image, "--dict", pair, "--dual", pair,
                             *block, "--out-prefix", out("rd")),
                (out("rd.csv"),)),
        Command("reconstruct", ("reconstruct", image, "--dict", pair,
                                "--dual", pair, *block,
                                "--out", out("recon.pgm")),
                (out("recon.pgm"),)),
    )


def digest(paths):
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as handle:
            h.update(handle.read())
    return h.hexdigest()


# --- independent readers and metrics ------------------------------------------

def read_pgm(path):
    """Read a comment-free binary PGM with maxval 255."""
    with open(path, "rb") as handle:
        blob = handle.read()
    header = re.match(rb"P5\s+(\d+)\s+(\d+)\s+255\s", blob)
    if header is None:
        raise ValueError(f"{path}: not an 8-bit binary PGM")
    width, height = int(header[1]), int(header[2])
    raster = blob[header.end():]
    if len(raster) != width * height:
        raise ValueError(f"{path}: raster has {len(raster)} bytes")
    return np.frombuffer(raster, dtype=np.uint8).reshape(height, width).astype(float)


def psnr(ref, img):
    mse = float(np.mean((np.asarray(ref, float) - np.asarray(img, float)) ** 2))
    return math.inf if mse == 0.0 else 10.0 * math.log10(255.0 ** 2 / mse)


def blocks(img, b):
    """Mean-removed b x b blocks, one column each, column-major inside."""
    h, w = img.shape
    tiles = (img - img.mean()).reshape(h // b, b, w // b, b)
    return tiles.transpose(0, 2, 3, 1).reshape(-1, b * b).T


def read_rows(path):
    with open(path, newline="", encoding="ascii") as handle:
        return list(csv.DictReader(handle))


# --- output checks -------------------------------------------------------------

def check(cmd, w, paths, pksvd):
    """Check one command's outputs. Returns (problems, quality values)."""
    return _CHECKS[cmd.kind](cmd, w, paths, pksvd)


def _check_train(cmd, w, paths, pksvd):
    problems, quality = [], {}
    dict_path, dual_path, codes_path, trace_path = cmd.outputs
    synth = pksvd.formats.load_dictionary(dict_path).mat
    analysis = pksvd.formats.load_dictionary(dual_path).mat
    codes = pksvd.formats.load_codes(codes_path)
    data = blocks(read_pgm(paths[w.train_image]), w.block_size)
    if codes.shape != (synth.shape[1], data.shape[1]):
        problems.append(f"codes shape {codes.shape}")
        return problems, quality
    if int((codes != 0).sum(axis=0).max()) > w.k:
        problems.append(f"a column uses more than k={w.k} atoms")
    rows = read_rows(trace_path)
    if len(rows) != w.max_iters:
        problems.append(f"trace has {len(rows)} rows, expected {w.max_iters}")
    err = float(np.linalg.norm(data - synth @ codes) / np.linalg.norm(data))
    if not 0.0 < err < 1.0:
        problems.append(f"fit error {err!r} outside (0, 1)")
        return problems, quality
    quality["train_fit_rel_err"] = err
    quality["train_fit_snr_db"] = -20.0 * math.log10(err)
    if w.check_tight:
        ident = float(np.linalg.norm(synth @ synth.T - np.eye(synth.shape[0])))
        match = float(np.linalg.norm(synth - analysis))
        if not (ident <= TIGHT_TOL and match <= TIGHT_TOL):
            problems.append(f"pair not tight: ||SS^T-I||={ident:.3e}, "
                            f"||S-A||={match:.3e}")
    return problems, quality


def _check_restored(problems, label, row, before, restored_psnr):
    value = float(row["psnr"])
    if not math.isfinite(value) or value <= before:
        problems.append(f"{label} psnr {value!r} does not beat its input {before:.4f}")
    if abs(restored_psnr - value) > 0.25:
        problems.append(f"written image psnr {restored_psnr:.4f} != reported {value:.4f}")
    return value


def _check_denoise(cmd, w, paths, pksvd):
    problems = []
    out_img, out_csv = cmd.outputs
    clean = read_pgm(paths[w.recover_image])
    noisy = pksvd.applications.add_gaussian_noise(
        clean, SIGMA, pksvd.cli.DEFAULTS["seed"])
    (row,) = read_rows(out_csv)
    value = _check_restored(problems, "denoised", row, psnr(clean, noisy),
                            psnr(clean, read_pgm(out_img)))
    eps_used = float(row["eps_used"])
    grid = [float(tok) for tok in pksvd.cli.DENOISE_EPS_GRID.split(",")]
    if eps_used not in grid:
        problems.append(f"eps_used {eps_used!r} not on the radius grid")
    return problems, {"denoise_psnr_db": value, "denoise_eps_used": eps_used}


def _check_inpaint(cmd, w, paths, pksvd):
    problems = []
    out_img, out_corrupt, out_csv = cmd.outputs
    clean = read_pgm(paths[w.recover_image])
    corrupted = read_pgm(out_corrupt)
    missing = float(np.mean(corrupted != clean))
    if missing > FRACTION + 1e-9:
        problems.append(f"corrupted image differs in {missing:.3f} of pixels")
    (row,) = read_rows(out_csv)
    value = _check_restored(problems, "inpainted", row, psnr(clean, corrupted),
                            psnr(clean, read_pgm(out_img)))
    return problems, {"inpaint_psnr_db": value}


def _check_compress(cmd, w, paths, pksvd):
    problems = []
    rows = read_rows(cmd.outputs[0])
    if len(rows) != len(pksvd.cli.COMPRESS_STEP_GRID.split(",")):
        problems.append(f"rate-distortion CSV has {len(rows)} rows")
        return problems, {}
    bpp = [float(r["bpp"]) for r in rows]
    db = [float(r["psnr"]) for r in rows]
    if not all(math.isfinite(v) and v >= 0.0 for v in bpp + db):
        problems.append("non-finite or negative rate-distortion value")
    elif not (db[0] > db[-1] and bpp[0] > bpp[-1]):
        problems.append("finest quantizer step is not the best and most costly")
    return problems, {}


def _check_reconstruct(cmd, w, paths, pksvd):
    # The pair is a Parseval frame and its own dual: reconstruction is exact
    # up to rounding, so the written image must equal the input.
    if not np.array_equal(read_pgm(paths[w.recover_image]),
                          read_pgm(cmd.outputs[0])):
        return ["reconstructed image differs from the input"], {}
    return [], {}


_CHECKS = {
    "train": _check_train,
    "denoise": _check_denoise,
    "inpaint": _check_inpaint,
    "compress": _check_compress,
    "reconstruct": _check_reconstruct,
}

"""Image-recovery pipelines built on a dictionary pair.

All three experiments operate block-by-block on a BlockedImage: denoising
constrains the analysis-domain residual, inpainting constrains the
observed-pixel residual, and compression quantizes analysis coefficients
and prices them with per-bit-plane Bernoulli entropies. Every pipeline is
deterministic given its inputs and seed, and each block's output depends
only on that block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadShape, EmptyBlockMask
from .frames import Dictionary
from .imaging import BlockedImage, check_tiling, from_blocks, psnr, to_blocks
from .matrix_core import as_matrix
from .sparse_solvers import _support_slots, bpdn


@dataclass(frozen=True)
class RdPoint:
    """One rate-distortion sample: bits per pixel, PSNR, quantizer step."""

    bits_per_pixel: float
    psnr_db: float
    quant_step: float


@dataclass(frozen=True)
class Mask:
    """Per-pixel observation flags for an image (True = observed)."""

    observed: np.ndarray

    def __post_init__(self):
        obs = np.asarray(self.observed, dtype=bool)
        if obs.ndim != 2 or obs.size == 0:
            raise BadShape("mask must be a non-empty 2-D boolean array")
        if not obs.any():
            raise BadShape("mask observes no pixels at all")
        object.__setattr__(self, "observed", obs)

    def block_columns(self, block_size):
        """Mask vectorized exactly like the image blocks (column-major)."""
        return to_blocks(self.observed.astype(float), block_size).blocks > 0.5


def _check_pair(block_size, synth: Dictionary, analysis: Dictionary | None = None):
    """Raise ``BadShape`` unless ``analysis``, when given, has the shape of
    ``synth``, whose rows, when ``block_size`` is given, are the pixels of
    a block_size x block_size block."""
    if analysis is not None and analysis.mat.shape != synth.mat.shape:
        raise BadShape(f"dictionary shapes differ: synthesis {synth.mat.shape}, "
                       f"analysis {analysis.mat.shape}")
    if block_size is not None and synth.n != block_size ** 2:
        raise BadShape(f"dictionary rows {synth.n} do not match block size "
                       f"{block_size} ({block_size ** 2} pixels per block)")


def add_gaussian_noise(img, sigma, seed):
    """Add i.i.d. zero-mean Gaussian noise with standard deviation sigma."""
    img = as_matrix(img, "image")
    if not (np.isfinite(sigma) and sigma >= 0):
        raise ValueError(f"sigma must be finite and nonnegative, got {sigma}")
    rng = np.random.default_rng(seed)
    return img + rng.normal(0.0, sigma, size=img.shape)


def random_mask(dims, missing_fraction, seed, block_size=8) -> Mask:
    """Per block, exactly round(fraction * b^2) uniformly random missing
    pixels. Raises ``EmptyBlockMask`` before any draw when that is every
    pixel of a block."""
    h, w = dims
    if not 0.0 <= missing_fraction <= 0.99:
        raise ValueError("missing fraction must be in [0, 0.99]")
    check_tiling(dims, block_size)
    b = block_size
    n_missing = int(round(missing_fraction * b * b))
    if n_missing == b * b:
        raise EmptyBlockMask(f"missing fraction {missing_fraction:g} removes all {b * b} "
                             f"pixels of every {b}x{b} block")
    rng = np.random.default_rng(seed)
    # One draw per block, row of blocks by row of blocks, then one scatter.
    bi, bj = np.divmod(np.arange((h // b) * (w // b)), w // b)
    flat = np.array([rng.choice(b * b, size=n_missing, replace=False) for _ in bi],
                    dtype=np.intp)
    observed = np.ones((h, w), dtype=bool)
    observed[(bi * b)[:, None] + flat // b, (bj * b)[:, None] + flat % b] = False
    return Mask(observed)


def denoise(noisy: BlockedImage, synth: Dictionary, analysis: Dictionary,
            eps_grid) -> list[BlockedImage]:
    """Per block: decompose with the analysis dictionary, find the
    minimum-l1 codes whose analysis-domain image stays within eps of the
    coefficients, then synthesize; one restoration for every radius eps
    of ``eps_grid``, in the grid's order.

    Implements the candidate-radius protocol (the caller keeps whichever
    result scores best). One homotopy path per block crosses every
    radius. The constraint ||A^T (y - S w)|| <= eps has m rows; with the
    thin QR A^T = QR it is the same constraint ||R (y - S w)|| <= eps on
    the n x m system R S, so the solve runs on n rows.
    """
    grid = np.asarray(eps_grid, dtype=float).reshape(-1)
    if grid.size == 0:
        raise ValueError("the eps grid is empty")
    if not (grid > 0).all():
        raise ValueError(f"eps must be positive, got {grid.tolist()}")
    _check_pair(noisy.block_size, synth, analysis)
    tri = np.linalg.qr(analysis.mat.T, mode="r")
    order = np.argsort(-grid, kind="stable")
    codes = bpdn(tri @ synth.mat, tri @ noisy.blocks, grid[order])
    out = [None] * grid.size
    for k, pos in enumerate(order):
        out[pos] = noisy.with_blocks(synth.mat @ codes[k])
    return out


def inpaint(observed: BlockedImage, mask: Mask, synth: Dictionary,
            eps: float = 0.01) -> BlockedImage:
    """Per block: fit minimum-l1 codes whose synthesis matches the
    observed pixels within ``eps``, then synthesize every pixel."""
    if not eps >= 0:
        raise ValueError(f"eps must be nonnegative, got {eps}")
    _check_pair(observed.block_size, synth)
    masks = mask.block_columns(observed.block_size)
    if masks.shape != observed.blocks.shape:
        raise BadShape("mask dimensions do not match the blocked image")
    empty = np.flatnonzero(~masks.any(axis=0))
    if empty.size:
        raise EmptyBlockMask(f"block {int(empty[0])} observes no pixels")
    systems, data, counts = _observed_systems(masks, observed.blocks, synth.mat)
    codes = bpdn(systems, data, [eps], counts)[0]
    return observed.with_blocks(synth.mat @ codes)


def _observed_systems(masks, blocks, mat):
    """Each block's observed rows of ``mat`` and of its column of
    ``blocks``, in ascending order and zero-padded to a common height q
    (zero rows change nothing), so that all blocks solve as one batch:
    both are gathered through the slots of ``masks`` (``_support_slots``)
    from ``mat`` and ``blocks`` padded with q zero rows. Returns the
    (N, q, m) systems, the q x N data and each block's count of observed
    rows. For a ``Dictionary`` D each count is the rank that
    ``np.linalg.matrix_rank`` gives: by interlacing, a row subset's
    singular values lie within D's, whose sigma_min ``Dictionary`` keeps
    above 1e-10 sigma_max, while ``matrix_rank`` drops only singular
    values at or below m * 2.2e-16 sigma_max, less than 1e-10 sigma_max
    for any m below about 4e5.
    """
    slots = _support_slots(masks)
    pad = ((0, slots.shape[1]), (0, 0))
    data = np.take_along_axis(np.pad(blocks, pad), slots.T, axis=0)
    return np.pad(mat, pad)[slots], data, masks.sum(axis=0)


def _binary_entropy(p):
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return float(-p * np.log2(p) - (1.0 - p) * np.log2(1.0 - p))


def _bitplane_rate_bits(quantized):
    """Entropy-model code length (bits) for sign + magnitude bit-planes.

    Every plane is priced as an i.i.d. Bernoulli source over all
    coefficients; the sign plane covers every coefficient as well.
    """
    count = quantized.size
    total = count * _binary_entropy(float(np.mean(quantized < 0)))
    # Every plane's count of ones from one histogram of the magnitudes: the
    # plane bits of each distinct magnitude times its count. np.unique, not
    # np.bincount, so that a fine step's large magnitudes cost no memory.
    values, counts = np.unique(np.abs(quantized).astype(np.int64), return_counts=True)
    planes = int(values[-1]).bit_length() if count else 0
    for ones in ((values >> np.arange(planes)[:, None]) & 1) @ counts:
        total += count * _binary_entropy(int(ones) / count)
    return total


def compress_rd(blocked: BlockedImage, synth: Dictionary, analysis: Dictionary,
                steps) -> list[RdPoint]:
    """Rate-distortion sweep over quantizer steps.

    For each step, analysis coefficients are uniformly quantized
    (mid-tread), priced by bit-plane entropy pooled over the whole image,
    and the PSNR of the synthesized reconstruction against the unquantized
    image is recorded.
    """
    steps = [float(s) for s in steps]
    if not steps:
        raise ValueError("the quantizer step list is empty")
    if not all(np.isfinite(s) and s > 0 for s in steps):
        raise ValueError(f"quantizer steps must be finite and positive, got {steps}")
    _check_pair(blocked.block_size, synth, analysis)
    original = from_blocks(blocked)
    coeffs = analysis.mat.T @ blocked.blocks
    peak = np.abs(coeffs).max()  # the bit-plane counts cast magnitudes to int64
    for step in steps:
        if peak / step >= 2.0 ** 63:
            raise BadShape(f"quantizer step {step:g} is too fine: the largest "
                           f"coefficient, {peak:.6g}, spans 2^63 steps or more")
    total_pixels = blocked.height * blocked.width
    points = []
    for step in steps:
        quantized = np.round(coeffs / step)
        rate = _bitplane_rate_bits(quantized) / total_pixels
        recon = from_blocks(blocked.with_blocks(synth.mat @ (step * quantized)))
        points.append(RdPoint(rate, psnr(original, recon), step))
    return points


def reconstruct_roundtrip(img, synth: Dictionary, analysis: Dictionary,
                          block_size=8):
    """Decompose-then-reconstruct flow; returns (image, PSNR vs input)."""
    _check_pair(block_size, synth, analysis)
    blocked = to_blocks(img, block_size, subtract_mean=True)
    recon_blocks = synth.mat @ (analysis.mat.T @ blocked.blocks)
    recon = from_blocks(blocked.with_blocks(recon_blocks))
    return recon, psnr(img, recon)

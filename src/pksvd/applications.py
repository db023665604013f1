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

from .errors import BadShape, EmptyBlockMask, SolverDidNotConverge
from .frames import Dictionary
from .imaging import BlockedImage, as_image, from_blocks, psnr, to_blocks
from .sparse_solvers import ZERO_THRESHOLD, _apply, _bpdn_columns

# Per-block solve tolerances: optimality at PSNR-grade accuracy, ball
# feasibility much tighter. Feasibility is re-checked afterwards, so the
# iteration cap cannot silently degrade results.
_APP_TOL = 1e-3
_APP_MAX_ITER = 1200
# Allowed relative overshoot of the constraint radius (matches the
# solver's advertised feasibility guarantee).
_FEAS_SLACK = 1e-3


@dataclass(frozen=True)
class RdPoint:
    """One rate-distortion sample: bits per pixel, PSNR, quantizer step."""

    bits_per_pixel: float
    psnr_db: float
    quant_step: float

    def __post_init__(self):
        if self.bits_per_pixel < 0:
            raise BadShape("bits per pixel must be nonnegative")


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


def add_gaussian_noise(img, sigma, seed):
    """Add i.i.d. zero-mean Gaussian noise with standard deviation sigma."""
    img = as_image(img)
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    rng = np.random.default_rng(seed)
    return img + rng.normal(0.0, sigma, size=img.shape)


def random_mask(dims, missing_fraction, seed, block_size=8) -> Mask:
    """Per block, exactly round(fraction * b^2) uniformly random missing
    pixels."""
    h, w = dims
    if not 0.0 <= missing_fraction <= 0.99:
        raise ValueError("missing fraction must be in [0, 0.99]")
    if h % block_size or w % block_size:
        raise BadShape(f"dims {dims} not divisible by block size {block_size}")
    b = block_size
    n_missing = int(round(missing_fraction * b * b))
    rng = np.random.default_rng(seed)
    observed = np.ones((h, w), dtype=bool)
    for bi in range(h // b):
        for bj in range(w // b):
            flat = rng.choice(b * b, size=n_missing, replace=False)
            block = np.ones(b * b, dtype=bool)
            block[flat] = False
            observed[bi * b:(bi + 1) * b, bj * b:(bj + 1) * b] = block.reshape(b, b)
    return Mask(observed)


def _column_system(system, j):
    return system[j] if system.ndim == 3 else system


def _prune_support(full_system, rhs, support, fit, limit):
    """Greedy backward elimination: drop atoms while the reduced refit
    stays feasible and does not raise the l1 norm."""
    l1 = float(np.abs(fit).sum())
    improved = True
    while improved and support.size > 1:
        improved = False
        for pos in np.argsort(np.abs(fit)):
            trial = np.delete(support, pos)
            cand, *_ = np.linalg.lstsq(full_system[:, trial], rhs, rcond=None)
            resid = float(np.linalg.norm(rhs - full_system[:, trial] @ cand))
            cand_l1 = float(np.abs(cand).sum())
            if resid <= limit and cand_l1 <= l1 + 1e-12:
                support, fit, l1 = trial, cand, cand_l1
                improved = True
                break
    return support, fit


def _polish_columns(system, blocks, sol, limits):
    """Per-column support refit (exact where the fit interpolates).

    Columns whose refit is feasible and no worse in l1 take the refit; an
    infeasible column additionally accepts a small l1 increase in exchange
    for exact feasibility. For a per-column stack, whose systems are small,
    the accepted support is further reduced by backward elimination,
    snapping near-sparse iterates onto the minimum-l1 vertex. Mirrors the
    basis-pursuit vertex polish. ``system`` is one shared matrix or a
    per-column stack.
    """
    prune = system.ndim == 3
    out = sol.copy()
    before = np.linalg.norm(blocks - _apply(system, sol), axis=0)
    for j in range(sol.shape[1]):
        w = sol[:, j]
        support = np.flatnonzero(np.abs(w) > ZERO_THRESHOLD)
        if support.size == 0:
            continue
        full = _column_system(system, j)
        rhs = blocks[:, j]
        fit, *_ = np.linalg.lstsq(full[:, support], rhs, rcond=None)
        resid = float(np.linalg.norm(rhs - full[:, support] @ fit))
        if resid > limits[j]:
            continue
        if prune:
            support, fit = _prune_support(full, rhs, support, fit, limits[j])
        l1_old = float(np.abs(w).sum())
        l1_new = float(np.abs(fit).sum())
        budget = l1_old if before[j] <= limits[j] else l1_old * 1.01 + 1e-9
        if l1_new <= budget:
            out[:, j] = 0.0
            out[support, j] = fit
    return out


def _solve_columns_strict(system, blocks, eps):
    """Batched ball-constrained l1 solve with per-column feasibility.

    One batched ADMM pass, a per-column support polish, then a
    pseudo-inverse step for whatever columns still miss their ball; raises
    with the first offending block index if any column ends up infeasible.
    ``system`` is one shared p x m matrix or an (N, p, m) stack. Returns
    the m x N codes.
    """
    eps_cols = np.broadcast_to(np.asarray(eps, dtype=float), (blocks.shape[1],))
    slack = eps_cols * _FEAS_SLACK + 1e-6 * max(1.0, float(np.abs(blocks).max()))
    limits = eps_cols + slack
    sol, _ = _bpdn_columns(system, blocks, eps_cols, tol=_APP_TOL,
                           max_iter=_APP_MAX_ITER)
    sol = _polish_columns(system, blocks, sol, limits)
    resid = blocks - _apply(system, sol)
    norms = np.linalg.norm(resid, axis=0)
    near = np.flatnonzero(norms > limits)
    if near.size:
        # Dictionaries have full row rank, so for the denoise (A^T S) and
        # the inpaint (zero-padded row subsets of S) systems each column's
        # residual lies in the system's range, and a pseudo-inverse step
        # lands the column at eps + slack / 2.
        target = eps_cols[near] + 0.5 * slack[near]
        reach = (1.0 - target / norms[near]) * resid[:, near]
        pinv = np.linalg.pinv(system[near] if system.ndim == 3 else system)
        sol[:, near] += _apply(pinv, reach)
        norms = np.linalg.norm(blocks - _apply(system, sol), axis=0)
    excess = norms - limits
    worst = int(np.argmax(excess))
    if excess[worst] > 0:
        raise SolverDidNotConverge(
            f"block {worst}: constraint residual exceeds eps {eps_cols[worst]:g} "
            f"by {excess[worst]:.4e}",
            residual=float(norms[worst]),
        )
    return sol


def denoise(noisy: BlockedImage, synth: Dictionary, analysis: Dictionary,
            eps: float) -> BlockedImage:
    """Per block: decompose with the analysis dictionary, find the
    minimum-l1 codes whose analysis-domain image stays within ``eps`` of
    the coefficients, then synthesize."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    if synth.mat.shape != analysis.mat.shape or synth.n != noisy.n:
        raise BadShape("dictionary shapes do not match the blocked image")
    coeffs = analysis.mat.T @ noisy.blocks
    system = analysis.mat.T @ synth.mat
    return noisy.with_blocks(synth.mat @ _solve_columns_strict(system, coeffs, eps))


def denoise_sweep(noisy: BlockedImage, synth: Dictionary, analysis: Dictionary,
                  eps_grid) -> list[BlockedImage]:
    """Run ``denoise`` once for every radius in ``eps_grid``.

    Implements the candidate-radius protocol (the caller keeps whichever
    result scores best). Each radius is an independent cold solve.
    """
    return [denoise(noisy, synth, analysis, float(e)) for e in eps_grid]


def inpaint(observed: BlockedImage, mask: Mask, synth: Dictionary,
            eps: float = 0.01) -> BlockedImage:
    """Per block: fit minimum-l1 codes whose synthesis matches the
    observed pixels within ``eps``, then synthesize every pixel."""
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    if synth.n != observed.n:
        raise BadShape("dictionary rows do not match the block size")
    masks = mask.block_columns(observed.block_size)
    if masks.shape != observed.blocks.shape:
        raise BadShape("mask dimensions do not match the blocked image")
    empty = np.flatnonzero(~masks.any(axis=0))
    if empty.size:
        raise EmptyBlockMask(f"block {int(empty[0])} observes no pixels")
    # Per-block observed-row restrictions of the dictionary, zero-padded
    # to a common height (zero rows change nothing), solved as one batch.
    n_blocks = observed.n_blocks
    counts = masks.sum(axis=0)
    q_max = int(counts.max())
    systems = np.zeros((n_blocks, q_max, synth.m))
    data = np.zeros((q_max, n_blocks))
    for j in range(n_blocks):
        rows = np.flatnonzero(masks[:, j])
        systems[j, : rows.size] = synth.mat[rows]
        data[: rows.size, j] = observed.blocks[rows, j]
    return observed.with_blocks(synth.mat @ _solve_columns_strict(systems, data, eps))


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
    magnitudes = np.abs(quantized).astype(np.int64)
    total = count * _binary_entropy(float(np.mean(quantized < 0)))
    max_mag = int(magnitudes.max()) if count else 0
    plane = 0
    while (max_mag >> plane) > 0:
        bits = (magnitudes >> plane) & 1
        total += count * _binary_entropy(float(bits.mean()))
        plane += 1
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
    if any(s <= 0 for s in steps):
        raise ValueError("quantizer steps must be positive")
    if synth.mat.shape != analysis.mat.shape or synth.n != blocked.n:
        raise BadShape("dictionary shapes do not match the blocked image")
    original = from_blocks(blocked)
    coeffs = analysis.mat.T @ blocked.blocks
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
    blocked = to_blocks(img, block_size, subtract_mean=True)
    recon_blocks = synth.mat @ (analysis.mat.T @ blocked.blocks)
    recon = from_blocks(blocked.with_blocks(recon_blocks))
    return recon, psnr(as_image(img), recon)

"""Image blocking, quality metrics, and binary PGM I/O.

Images are plain 2-D float64 arrays. Pixels stay real-valued through the
whole pipeline; quantization and clamping happen only when writing files.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadShape, MalformedFile
from .formats import atomic_write_bytes
from .matrix_core import as_matrix

DEFAULT_BLOCK = 8

_SSIM_WINDOW = 8
_SSIM_C1 = (0.01 * 255.0) ** 2
_SSIM_C2 = (0.03 * 255.0) ** 2
# Pixel magnitude above which ``ssim`` rejects its images: up to it, every
# product of two window statistics in the SSIM ratio stays below 1e305.
_SSIM_MAX_ABS = 1e76


@dataclass
class BlockedImage:
    """Non-overlapping b x b blocks of an image, one column per block.

    ``blocks`` has b*b rows and one column per block in raster order; each
    block is vectorized column-major. ``removed_mean`` is the scalar that
    was subtracted before blocking and is added back on reassembly.
    """

    height: int
    width: int
    block_size: int
    blocks: np.ndarray
    removed_mean: float = 0.0

    def __post_init__(self):
        b = self.block_size
        n_blocks = (self.height // b) * (self.width // b)
        if self.blocks.shape != (b * b, n_blocks):
            raise BadShape(
                f"blocks must be {b * b}x{n_blocks}, got {self.blocks.shape}"
            )

    @property
    def n_blocks(self):
        return self.blocks.shape[1]

    def with_blocks(self, new_blocks):
        return BlockedImage(
            self.height, self.width, self.block_size,
            np.asarray(new_blocks, dtype=float), self.removed_mean,
        )


def check_tiling(dims, block_size):
    """Raise ``BadShape`` unless block_size x block_size blocks tile an
    image of shape ``dims``."""
    h, w = dims
    if h % block_size or w % block_size:
        raise BadShape(f"image {h}x{w} not divisible into {block_size}x{block_size} blocks")


def to_blocks(img, block_size=DEFAULT_BLOCK, subtract_mean=False,
              mean_value=None) -> BlockedImage:
    """Partition an image into non-overlapping blocks.

    Requires both dimensions divisible by ``block_size``. When
    ``subtract_mean`` is set, ``mean_value`` (default: the image's own
    mean) is removed before blocking and recorded for reassembly.
    """
    img = as_matrix(img, "image")
    check_tiling(img.shape, block_size)
    h, w = img.shape
    b = block_size
    removed = 0.0
    if subtract_mean:
        removed = float(img.mean()) if mean_value is None else float(mean_value)
        img = img - removed
    tiles = img.reshape(h // b, b, w // b, b).swapaxes(1, 2)
    # Column-major vectorization inside each block: transpose before ravel.
    cols = tiles.transpose(0, 1, 3, 2).reshape(-1, b * b).T
    return BlockedImage(h, w, b, np.ascontiguousarray(cols), removed)


def from_blocks(blk: BlockedImage):
    """Reassemble the image, adding the removed mean back (unclamped)."""
    b = blk.block_size
    h, w = blk.height, blk.width
    tiles = blk.blocks.T.reshape(h // b, w // b, b, b).transpose(0, 1, 3, 2)
    img = tiles.swapaxes(1, 2).reshape(h, w)
    if blk.removed_mean != 0.0:
        img = img + blk.removed_mean
    return np.ascontiguousarray(img)


def psnr(a, b):
    """10 log10(255^2 / MSE) on unclamped reals; inf when images match."""
    a = as_matrix(a, "first image")
    b = as_matrix(b, "second image")
    if a.shape != b.shape:
        raise BadShape(f"shape mismatch {a.shape} vs {b.shape}")
    mse = float(np.mean((a - b) ** 2))
    if mse == 0.0:
        return float("inf")
    return float(10.0 * np.log10(255.0 ** 2 / mse))


def _window_means(img, size):
    """Means of all size x size windows (stride 1, fully inside): the sums
    of ``size`` shifted row slices, then of ``size`` shifted column slices."""
    rows = img.shape[0] - size + 1
    cols = img.shape[1] - size + 1
    col_sums = img[:rows].copy()
    for i in range(1, size):
        col_sums += img[i:i + rows]
    sums = col_sums[:, :cols].copy()
    for j in range(1, size):
        sums += col_sums[:, j:j + cols]
    return sums / (size * size)


def ssim(a, b):
    """Mean SSIM over all 8x8 uniform windows, stride 1.

    Population (divide-by-n) window statistics with the standard
    constants C1 = (0.01*255)^2 and C2 = (0.03*255)^2. Raises ``BadShape``
    when a pixel's magnitude exceeds ``_SSIM_MAX_ABS``, where the products
    of the window statistics would overflow.
    """
    a = as_matrix(a, "first image")
    b = as_matrix(b, "second image")
    if a.shape != b.shape:
        raise BadShape(f"shape mismatch {a.shape} vs {b.shape}")
    if min(a.shape) < _SSIM_WINDOW:
        raise BadShape(f"images must be at least {_SSIM_WINDOW}x{_SSIM_WINDOW}")
    peak = max(np.abs(a).max(), np.abs(b).max())
    if peak > _SSIM_MAX_ABS:
        raise BadShape(f"a pixel of magnitude {peak:g} exceeds {_SSIM_MAX_ABS:g}; "
                       "the SSIM terms would overflow")
    # The variances and the covariance do not change under a shift of
    # either image; from mean-centred copies, E[x^2] - E[x]^2 does not
    # cancel when the pixels share a large offset. The raw window means
    # are the centred ones plus the image mean.
    mean_a, mean_b = a.mean(), b.mean()
    a = a - mean_a
    b = b - mean_b
    mc_a = _window_means(a, _SSIM_WINDOW)
    mc_b = _window_means(b, _SSIM_WINDOW)
    mu_a = mc_a + mean_a
    mu_b = mc_b + mean_b
    var_a = _window_means(a * a, _SSIM_WINDOW) - mc_a * mc_a
    var_b = _window_means(b * b, _SSIM_WINDOW) - mc_b * mc_b
    cov = _window_means(a * b, _SSIM_WINDOW) - mc_a * mc_b
    num = (2 * mu_a * mu_b + _SSIM_C1) * (2 * cov + _SSIM_C2)
    den = (mu_a ** 2 + mu_b ** 2 + _SSIM_C1) * (var_a + var_b + _SSIM_C2)
    return float(np.mean(num / den))


def _next_token(blob, pos, path):
    """Read one whitespace-delimited header token, skipping # comments."""
    n = len(blob)
    while pos < n:
        c = blob[pos:pos + 1]
        if c.isspace():
            pos += 1
        elif c == b"#":
            end = blob.find(b"\n", pos)
            pos = n if end < 0 else end + 1
        else:
            break
    if pos >= n:
        raise MalformedFile(f"{path}: unexpected end of header", offset=pos)
    start = pos
    while pos < n and not blob[pos:pos + 1].isspace():
        pos += 1
    return blob[start:pos], pos


def read_pgm(path):
    """Read a binary (P5) PGM with maxval 255 into a float image."""
    with open(path, "rb") as handle:
        blob = handle.read()
    if blob[:2] != b"P5":
        raise MalformedFile(f"{path}: not a binary PGM (magic {blob[:2]!r})", offset=0)
    pos = 2
    values = []
    for _ in range(3):
        token, pos = _next_token(blob, pos, path)
        try:
            values.append(int(token))
        except ValueError:
            raise MalformedFile(
                f"{path}: non-integer header token {token!r}", offset=pos
            ) from None
    width, height, maxval = values
    if width < 1 or height < 1:
        raise MalformedFile(f"{path}: bad dimensions {width}x{height}", offset=pos)
    if maxval != 255:
        raise MalformedFile(f"{path}: only maxval 255 supported, got {maxval}",
                            offset=pos)
    if not blob[pos:pos + 1].isspace():
        raise MalformedFile(f"{path}: missing whitespace after maxval", offset=pos)
    pos += 1  # exactly one whitespace byte separates header from raster
    expected = width * height
    raster = blob[pos:]
    if len(raster) != expected:
        raise MalformedFile(
            f"{path}: expected {expected} raster bytes, found {len(raster)}",
            offset=pos,
        )
    img = np.frombuffer(raster, dtype=np.uint8).reshape(height, width)
    return img.astype(float)


def write_pgm(img, path):
    """Write a binary (P5) PGM, clamping to [0, 255] and rounding
    half away from zero."""
    img = as_matrix(img, "image")
    clamped = np.clip(img, 0.0, 255.0)
    quantized = np.floor(clamped + 0.5).astype(np.uint8)
    h, w = img.shape
    header = f"P5\n{w} {h}\n255\n".encode("ascii")
    atomic_write_bytes(path, header + quantized.tobytes())

"""Seeded procedural test image: oriented sinusoids, discs and grain.

The benchmark hands the program only files, so the image is written as a
binary PGM. Nothing is downloaded and no imaging package is needed.

The seed draws the phases, small jitters of orientation and period, the
disc positions, sizes and signs, and the grain. Orientations and periods
are stratified and the contrast is normalised, so every seed gives an
image of the same kind and the work per command varies little with it.
"""

from __future__ import annotations

import numpy as np

SIZE = 128
WAVES = 16
DISCS = 64


def texture(seed, size=SIZE):
    """Return a size x size uint8 image determined entirely by ``seed``."""
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:size, 0:size].astype(float)
    img = np.zeros((size, size))
    thetas = (np.arange(WAVES) + rng.uniform(0.0, 1.0, WAVES)) * np.pi / WAVES
    periods = (rng.permutation(np.geomspace(4.0, 24.0, WAVES))
               * rng.uniform(0.95, 1.05, WAVES))
    for theta, period in zip(thetas, periods):
        along = xx * np.cos(theta) + yy * np.sin(theta)
        img += np.sin(2.0 * np.pi * along / period + rng.uniform(0.0, 2.0 * np.pi))
    for _ in range(DISCS):
        cy, cx = rng.uniform(0.0, size, 2)
        radius = rng.uniform(2.0, 8.0)
        img[(yy - cy) ** 2 + (xx - cx) ** 2 <= radius ** 2] += rng.choice((-2.0, 2.0))
    img += rng.normal(0.0, 0.3, img.shape)
    # Mean 128, standard deviation 45, then clipped to [0, 255] and rounded.
    img = 128.0 + 45.0 * (img - img.mean()) / img.std()
    return np.rint(np.clip(img, 0.0, 255.0)).astype(np.uint8)


def write_pgm(pixels, path):
    """Write a uint8 array as a binary (P5, maxval 255) PGM."""
    h, w = pixels.shape
    with open(path, "wb") as handle:
        handle.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        handle.write(np.ascontiguousarray(pixels, dtype=np.uint8).tobytes())

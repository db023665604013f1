"""Frame-theoretic operations on dictionaries.

A dictionary is an n x m matrix (m >= n, full row rank) whose columns are
atoms. It acts as a synthesis operator; any matrix ``g`` with
``mat @ g.T = I`` is a dual (analysis) operator for it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BadShape, RankDeficient, UniqueDual
from .matrix_core import as_matrix

# The frame rule, which ``Dictionary`` alone applies: sigma_min <= 1e-6
# sigma_max (lambda_min <= 1e-12 lambda_max) is not a frame.
_RANK_TOL = 1e-6

# Scale of the null-space perturbation used by random_dual. Large enough
# that a sampled dual is far from the canonical one in every direction.
_DUAL_PERTURBATION_SCALE = 10.0


@dataclass(frozen=True)
class Dictionary:
    """Full-row-rank n x m matrix with atoms as columns (m >= n)."""

    mat: np.ndarray
    svals: np.ndarray = field(init=False, repr=False, compare=False)  # largest first

    def __post_init__(self):
        m = as_matrix(self.mat, "dictionary")
        if m.shape[1] < m.shape[0]:
            raise BadShape(
                f"dictionary must have at least as many atoms as rows, got {m.shape}"
            )
        object.__setattr__(self, "svals", np.linalg.svd(m, compute_uv=False))
        # On the squares: a frame operator whose eigenvalues leave the float range fails too.
        lo, hi = (float(s) * float(s) for s in self.svals[[-1, 0]])
        if lo <= _RANK_TOL ** 2 * hi:
            raise RankDeficient(f"lowest frame-operator eigenvalue {lo:.3e} is at most "
                                f"{_RANK_TOL ** 2:g} of the largest, {hi:.3e}; not a frame")
        object.__setattr__(self, "mat", m)

    @property
    def n(self):
        return self.mat.shape[0]

    @property
    def m(self):
        return self.mat.shape[1]


@dataclass(frozen=True)
class FrameBounds:
    """Optimal frame bounds 0 < lower <= upper."""

    lower: float
    upper: float

    @property
    def ratio(self):
        return self.upper / self.lower


def frame_bounds(d: Dictionary) -> FrameBounds:
    """Extreme eigenvalues of the frame operator, sigma_min^2 and sigma_max^2."""
    return FrameBounds(float(d.svals[-1]) ** 2, float(d.svals[0]) ** 2)


def canonical_dual(d: Dictionary) -> Dictionary:
    """Canonical dual: (mat @ mat.T)^{-1} @ mat.

    Satisfies mat @ dual.T = I; its kernel dual.T @ mat is the orthogonal
    projection onto the row space of ``mat``. Formed as U diag(1/s) V^T
    from the thin SVD mat = U diag(s) V^T, whose condition number, unlike
    the normal equations', is not squared.
    """
    u, s, vt = np.linalg.svd(d.mat, full_matrices=False)
    return Dictionary((u / s) @ vt)


def random_dual(d: Dictionary, seed: int) -> Dictionary:
    """A seeded random dual distinct from the canonical one.

    Constructed as dual.T = canonical.T + P with the columns of P drawn
    from the null space of ``mat``, so mat @ dual.T = I by construction.
    """
    if d.m == d.n:
        raise UniqueDual("square frame has a unique dual")
    base = canonical_dual(d)
    _, _, vt = np.linalg.svd(d.mat)
    null_basis = vt[d.n:, :].T  # m x (m - n), orthonormal columns
    rng = np.random.default_rng(seed)
    coeffs = _DUAL_PERTURBATION_SCALE * rng.standard_normal((d.m - d.n, d.n))
    perturbation = null_basis @ coeffs  # m x n, columns in null(mat)
    return Dictionary(base.mat + perturbation.T)


def parseval_residual(d: Dictionary) -> float:
    """|| mat @ mat.T - I ||_F = || svals^2 - 1 ||_2."""
    return float(np.linalg.norm(d.svals ** 2 - 1.0))


def is_parseval(d: Dictionary, tol: float) -> bool:
    """True iff || mat @ mat.T - I ||_F <= tol."""
    return parseval_residual(d) <= tol


def dct_dictionary(n: int, m: int) -> Dictionary:
    """Overcomplete separable DCT dictionary of shape n x m.

    n must be a perfect square, and m must be 1 when n = 1: the 1 x 1 grid
    has only the constant atom. A 1-D cosine grid of shape sqrt(n) x r,
    r = ceil(sqrt(m)), has entries cos(pi*i*j/r), its columns mean-removed
    (except the constant one) and normalized; the output is the first m
    atoms of its Kronecker square, scaled to unit norm.
    """
    if m < n:
        raise BadShape(f"need m >= n, got n={n}, m={m}")
    if n == 1 < m:
        raise BadShape(f"n=1 has one DCT atom, the constant, got m={m}")
    rn = int(round(np.sqrt(n)))
    if rn * rn != n:
        raise BadShape(f"n must be a perfect square, got n={n}")
    r = int(np.ceil(np.sqrt(m)))
    i = np.arange(rn)[:, None]
    j = np.arange(r)[None, :]
    d1 = np.cos(np.pi * i * j / r)
    d1[:, 1:] -= d1[:, 1:].mean(axis=0, keepdims=True)
    d1 /= np.linalg.norm(d1, axis=0, keepdims=True)
    full = np.kron(d1, d1)
    full /= np.linalg.norm(full, axis=0, keepdims=True)
    return Dictionary(full[:, :m])


def atom_distance_histogram(d: Dictionary, e: Dictionary, bins: int):
    """Histogram of per-atom distances 1 - max_j |d_i . e_j| over [0, 1].

    Atoms of both dictionaries must be unit norm and live in the same
    dimension. Returns (counts, bin_edges) as ``numpy.histogram`` does.
    """
    if d.n != e.n:
        raise BadShape(f"dimension mismatch: {d.n} vs {e.n}")
    for which, dic in (("first", d), ("second", e)):
        norms = np.linalg.norm(dic.mat, axis=0)
        if not np.allclose(norms, 1.0, atol=1e-8):
            raise BadShape(f"{which} dictionary atoms must be unit norm")
    corr = np.abs(d.mat.T @ e.mat)
    dist = 1.0 - corr.max(axis=1)
    return np.histogram(np.clip(dist, 0.0, 1.0), bins=bins, range=(0.0, 1.0))

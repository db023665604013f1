"""Executable checks of the frame-theory claims behind the trainer.

Exhaustive spark, the co-sparsity floor of analysis coefficients, the
optimal-proxy comparison between the canonical dual and sampled duals,
a linearity-violation search certifying that no universal sparse-producing
dual exists, and the projection identity of the canonical kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import NoViolationFound, NotGeneralPosition, TooLarge
from .frames import Dictionary, canonical_dual, random_dual
from .matrix_core import pseudo_inverse
from .sparse_solvers import ZERO_THRESHOLD, bp_bruteforce_oracle

_SPARK_MAX_ATOMS = 14


def spark(d: Dictionary) -> int:
    """Smallest number of linearly dependent columns, by enumeration.

    Returns m + 1 when every subset of columns is independent (full-rank
    square or undercomplete case). Limited to m <= 14 atoms.
    """
    if d.m > _SPARK_MAX_ATOMS:
        raise TooLarge(f"spark enumeration limited to m <= {_SPARK_MAX_ATOMS}")
    a = d.mat
    # A subset larger than n is dependent automatically, so only sizes up
    # to min(m, n) need a rank test.
    for size in range(1, min(d.m, d.n) + 1):
        for cols in combinations(range(d.m), size):
            sv = np.linalg.svd(a[:, cols], compute_uv=False)
            if sv[-1] <= 1e-10 * max(sv[0], 1.0):
                return size
    return min(d.m, d.n) + 1


def _assert_general_position(d: Dictionary):
    if spark(d) != d.n + 1:
        raise NotGeneralPosition(
            f"spark is {spark(d)}, need n + 1 = {d.n + 1} for general position"
        )


def cosparsity_floor_check(d: Dictionary, trials: int, seed: int) -> int:
    """Minimum observed support of analysis coefficients over random signals.

    Alternates generic unit signals with adversarial ones chosen orthogonal
    to n - 1 atoms (the constructions that reach the floor). Verifies the
    columns are in general position first, and raises if any signal's
    analysis support drops below m - n + 1.
    """
    _assert_general_position(d)
    rng = np.random.default_rng(seed)
    n, m = d.n, d.m
    floor = m - n + 1
    min_support = m + 1
    for trial in range(trials):
        if trial % 2 == 0 or n == 1:
            x = rng.standard_normal(n)
        else:
            # Signal orthogonal to n - 1 atoms: zeroes that many entries.
            cols = rng.choice(m, size=n - 1, replace=False)
            _, _, vt = np.linalg.svd(d.mat[:, cols].T)
            x = vt[-1, :]
        x /= np.linalg.norm(x)
        support = int(np.count_nonzero(np.abs(d.mat.T @ x) > ZERO_THRESHOLD))
        min_support = min(min_support, support)
    if min_support < floor:
        raise AssertionError(
            f"observed analysis support {min_support} below the floor {floor}"
        )
    return min_support


@dataclass(frozen=True)
class ProxyTrial:
    """Distances from one signal's l1-optimal codes to dual-frame codes."""

    frame: Dictionary
    signal: np.ndarray
    l1_codes: np.ndarray          # exact l1-synthesis minimizer
    canonical_codes: np.ndarray   # canonical-dual analysis coefficients
    canonical_distance: float
    alt_dual_distances: list

    def __post_init__(self):
        for codes, label in ((self.l1_codes, "l1"), (self.canonical_codes, "l2")):
            gap = np.linalg.norm(self.frame.mat @ codes - self.signal)
            if gap > 1e-8 * max(1.0, np.linalg.norm(self.signal)):
                raise ValueError(f"{label} codes do not synthesize the signal")


def proxy_trial(d: Dictionary, x, n_alt_duals: int, seed: int) -> ProxyTrial:
    """Compare the canonical dual's coefficients against sampled duals.

    Computes the exact l1 minimizer by brute force, the canonical-dual
    coefficients, and the distance of each sampled dual's coefficients to
    the l1 minimizer. The oracle limits the frame to m <= 12 atoms.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    u1 = bp_bruteforce_oracle(d, x).entries
    u2 = canonical_dual(d).mat.T @ x
    rng = np.random.default_rng(seed)
    distances = []
    for _ in range(n_alt_duals):
        alt = random_dual(d, int(rng.integers(0, 2 ** 62)))
        distances.append(float(np.linalg.norm(alt.mat.T @ x - u1)))
    return ProxyTrial(
        frame=d,
        signal=x,
        l1_codes=u1,
        canonical_codes=u2,
        canonical_distance=float(np.linalg.norm(u2 - u1)),
        alt_dual_distances=distances,
    )


@dataclass(frozen=True)
class CounterexampleReport:
    """A linearity violation of the l1-minimizer map."""

    trial: int
    frame: Dictionary
    x1: np.ndarray
    x2: np.ndarray
    violation: float


def random_general_position_frame(n, m, rng):
    """Random unit-norm n x m frame whose every n columns are independent."""
    for _ in range(64):
        mat = rng.standard_normal((n, m))
        mat /= np.linalg.norm(mat, axis=0, keepdims=True)
        d = Dictionary(mat)
        if spark(d) == n + 1:
            return d
    raise NotGeneralPosition("could not sample a general-position frame")


def nonexistence_search(n, m, trials: int, seed: int) -> CounterexampleReport:
    """Search for additivity violations of the l1-minimizer map.

    A single linear analysis operator reproducing the l1 minimizer for
    every signal would make x -> u1*(x) additive; exhibiting x1, x2 with
    u1*(x1 + x2) != u1*(x1) + u1*(x2) rules any such operator out. Raises
    ``NoViolationFound`` when all trials stay additive (the expected
    outcome for square frames, where the representation is unique).
    """
    if m > 10:
        raise TooLarge("search limited to m <= 10")
    if m < n:
        raise ValueError("need m >= n")
    rng = np.random.default_rng(seed)
    best_violation = 0.0
    for trial in range(trials):
        frame = random_general_position_frame(n, m, rng)
        x1 = rng.standard_normal(n)
        x2 = rng.standard_normal(n)
        u_a = bp_bruteforce_oracle(frame, x1).entries
        u_b = bp_bruteforce_oracle(frame, x2).entries
        u_ab = bp_bruteforce_oracle(frame, x1 + x2).entries
        violation = float(np.linalg.norm(u_ab - u_a - u_b))
        best_violation = max(best_violation, violation)
        if violation > 1e-6:
            return CounterexampleReport(trial, frame, x1, x2, violation)
    raise NoViolationFound(
        f"no additivity violation above 1e-6 in {trials} trials "
        f"(largest seen {best_violation:.3e})"
    )


@dataclass(frozen=True)
class ProjectionResiduals:
    """Deviation of the canonical kernel from an orthogonal projection."""

    idempotence: float
    symmetry: float
    rank_gap: int


def projection_identity_check(d: Dictionary) -> ProjectionResiduals:
    """Measure (K^2 - K), (K^T - K) and rank(K) - n for the canonical
    kernel K = dual.T @ mat."""
    kernel = canonical_dual(d).mat.T @ d.mat
    idem = float(np.linalg.norm(kernel @ kernel - kernel))
    sym = float(np.linalg.norm(kernel.T - kernel))
    svals = np.linalg.svd(kernel, compute_uv=False)
    rank = int(np.count_nonzero(svals > 0.5))
    return ProjectionResiduals(idem, sym, abs(rank - d.n))


def min_norm_codes(d: Dictionary, x):
    """Minimum-l2-norm synthesis codes via the pseudo-inverse."""
    return pseudo_inverse(d.mat) @ np.asarray(x, dtype=float).reshape(-1)

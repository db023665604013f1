"""ADMM learning of a Parseval tight frame with a co-trained analysis dual.

The trainer alternates: (v) analysis- then synthesis-dictionary updates,
each a symmetric Sylvester solve by eigendecomposition; (vi) gradient-
ascent multiplier updates for the two constraints (synth @ analysis.T = I
and synth = analysis); (vii) a support-preserving refresh of the sparse
codes: each column's exact least-squares codes on its own support for
the weighted objective

    || analysis.T @ (Y - synth @ X) ||_F^2 + rho1 * || Y - synth @ X ||_F^2,

that is || Y - synth @ X ||_W^2 with W = analysis @ analysis.T + rho1 I,
solved by the batched support refit that K-SVD uses: the support systems
are gathered from the weighted Gram padded with an identity block. The
supports are the exact nonzeros of the K-SVD start, as in K-SVD's own
refit, and they hold for the whole run: the trainer builds their slots
once. The objective is traced once per outer iteration together with the
constraint residuals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import PksvdError, SingularCoefficientGram
from .frames import _RANK_TOL, Dictionary
from .matrix_core import (
    as_matrix,
    check_sylvester_residual,
    generalized_eigh,
    solve_sylvester_eig,
)
from .sparse_solvers import ZERO_THRESHOLD, _refit_supports, _support_slots

_LOG_FLOOR = 1e-300

# Penalties above this are rejected: under it 2 rho1 G, rho2 S + rho3 S
# and their kin stay finite while the code Gram G and the dictionaries
# hold entries below about 9e57.
PENALTY_MAX = 1e250


@dataclass(frozen=True)
class PkvConfig:
    """Penalty weights and the iteration count for the ADMM trainer. The
    codes' sparsity comes from the supports of the K-SVD start, which the
    trainer never grows."""

    rho1: float = 0.1
    rho2: float = 1e11
    rho3: float = 1e11
    max_iters: int = 200

    def __post_init__(self):
        for name in ("rho1", "rho2", "rho3"):
            value = getattr(self, name)
            if not 0 < value <= PENALTY_MAX:  # NaN fails too
                raise ValueError(f"penalty {name} must be finite and positive, "
                                 f"at most {PENALTY_MAX:g}, got {value}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


@dataclass
class AdmmState:
    """Lagrange multipliers for the two equality constraints.

    ``mult_id`` (n x n) tracks synth @ analysis.T = I; ``mult_eq`` (n x m)
    tracks synth = analysis. Both start at zero.
    """

    mult_id: np.ndarray
    mult_eq: np.ndarray

    @classmethod
    def zeros(cls, n, m):
        return cls(np.zeros((n, n)), np.zeros((n, m)))


@dataclass
class ConvergenceTrace:
    """Per-iteration diagnostics plus optional per-update objective log."""

    log10_identity_residual: list = field(default_factory=list)
    log10_trace_gap: list = field(default_factory=list)
    log10_match_residual: list = field(default_factory=list)
    objective: list = field(default_factory=list)
    update_objectives: list = field(default_factory=list)

    def __len__(self):
        return len(self.objective)

    def record(self, synth, analysis, objective_value):
        ident, trace_gap, match = pair_residuals(synth, analysis)
        self.log10_identity_residual.append(float(np.log10(max(ident, _LOG_FLOOR))))
        self.log10_trace_gap.append(float(trace_gap))
        self.log10_match_residual.append(float(np.log10(max(match, _LOG_FLOOR))))
        self.objective.append(float(objective_value))


def pair_residuals(synth, analysis):
    """Constraint residuals of a dictionary pair (n x m matrices):
    ||S A^T - I||_F^2, the trace gap |log10 tr(S A^T) - log10 n| and
    ||S - A||_F^2."""
    n = synth.shape[0]
    gram = synth @ analysis.T
    ident = np.linalg.norm(gram - np.eye(n)) ** 2
    trace_gap = abs(np.log10(max(abs(np.trace(gram)), _LOG_FLOOR)) - np.log10(n))
    match = np.linalg.norm(synth - analysis) ** 2
    return ident, trace_gap, match


def objective_value(data, codes, synth, analysis, rho1):
    """Weighted analysis/synthesis data-fit objective. Its sums of squares
    are ``einsum`` reductions, whose rounding, unlike a BLAS dot's, does
    not depend on the thread count."""
    resid = data - synth @ codes
    weighted = analysis.T @ resid
    return float(np.einsum("ij,ij->", weighted, weighted)
                 + rho1 * np.einsum("ij,ij->", resid, resid))


def update_analysis(data, codes, synth, state, cfg):
    """Solve the analysis-dictionary stationarity condition.

    The condition is the Sylvester equation A1 @ phi + phi @ B1 = C1 with
    A1 = 2 (Y - synth X)(Y - synth X)^T, B1 = rho2 synth^T synth + rho3 I,
    C1 = ((rho2 + rho3) I - mult_id^T) synth + mult_eq. The current
    analysis matrix does not enter the condition. B1 is rho3 I plus a term
    of rank n, so it is never formed: with synth synth^T = Q diag(lam) Q^T
    (an n x n ``eigh``), V1 = synth^T Q diag(lam)^-1/2 has orthonormal
    columns, B1 has eigenvalue rho2 lam + rho3 on them and rho3 on their
    complement, and ``solve_sylvester_eig`` solves from that and the
    eigendecomposition of the symmetric A1. Directions whose lam is at or
    below ``frames._RANK_TOL`` times the largest join the complement
    (``Dictionary`` applies that tolerance to singular values, here it is
    applied to their squares): there lam carries an absolute rounding of
    about 1e-16 of the largest, which 1 / sqrt(lam) would blow up in V1,
    and rho2 lam is at most 1e-10 of B1's largest eigenvalue. The solve is
    checked by its backward error (``check_sylvester_residual``), with
    ||B1|| from all n eigenvalues rho2 lam + rho3 and the m - n of rho3.
    """
    n, m = synth.shape
    resid = data - synth @ codes
    a1 = 2.0 * (resid @ resid.T)
    c1 = ((cfg.rho2 + cfg.rho3) * np.eye(n) - state.mult_id.T) @ synth + state.mult_eq
    lam, q = np.linalg.eigh(synth @ synth.T)  # ascending: the floor cuts a prefix
    b1_norm = math.hypot(*(cfg.rho2 * lam + cfg.rho3).tolist(), cfg.rho3 * math.sqrt(m - n))
    low = np.searchsorted(lam, _RANK_TOL * lam[-1], side="right")
    lam, q = lam[low:], q[:, low:]
    frame = (synth.T @ q) / np.sqrt(lam)
    analysis = solve_sylvester_eig(np.linalg.eigh(a1),
                                   (cfg.rho2 * lam + cfg.rho3, frame, cfg.rho3), c1)
    b1_term = cfg.rho2 * ((analysis @ synth.T) @ synth) + cfg.rho3 * analysis
    check_sylvester_residual(a1 @ analysis + b1_term - c1, c1, (a1, analysis), (analysis, b1_norm))
    return analysis


def update_synthesis(data, codes, analysis, state, cfg):
    """Solve the synthesis-dictionary stationarity condition.

    The condition is A1 @ synth + synth @ B1 = C1 with A1 = 2 analysis
    analysis^T, B1 = M G^-1 and C1 = K G^-1 for the code Gram G = X X^T,
    ridge-regularized by 1e-8 * tr(G) / m, M = 2 rho1 G + rho2 analysis^T
    analysis + rho3 I and K = 2 W Y X^T + ((rho2 + rho3) I - mult_id)
    analysis - mult_eq for the weight W = analysis analysis^T + rho1 I. It
    is solved as A1 @ synth @ G + synth @ M = K from the eigenpairs of A1
    and of the pencil (M, G), so G is never inverted; the update fails with
    ``SingularCoefficientGram`` if G is not positive definite, and with
    ``SingularMetric`` if M is numerically singular: rho3 I is its only
    term definite by itself, and an atom that no code uses leaves a zero
    row in G. The current synthesis matrix does not enter the condition.
    The solve is checked in the form it solved, by its normwise backward
    error (``check_sylvester_residual``), so an ill-conditioned G does not
    amplify the rounding of an accurate solve.
    """
    n, m = analysis.shape
    gram = codes @ codes.T
    ridge = 1e-8 * np.trace(gram) / m
    gram_reg = gram + ridge * np.eye(m)

    frame_op = analysis @ analysis.T
    a1 = 2.0 * frame_op
    metric = (2.0 * cfg.rho1 * gram + cfg.rho2 * (analysis.T @ analysis)
              + cfg.rho3 * np.eye(m))
    rhs = (2.0 * (frame_op + cfg.rho1 * np.eye(n)) @ (data @ codes.T)  # 2 W Y X^T
           + ((cfg.rho2 + cfg.rho3) * np.eye(n) - state.mult_id) @ analysis - state.mult_eq)
    try:
        pencil = generalized_eigh(metric, gram_reg)
    except np.linalg.LinAlgError:
        raise SingularCoefficientGram(
            "code Gram matrix is singular even after regularization"
        ) from None
    synth = solve_sylvester_eig(np.linalg.eigh(a1), pencil, rhs)
    check_sylvester_residual(a1 @ synth @ gram_reg + synth @ metric - rhs, rhs,
                             (a1, synth, gram_reg), (synth, metric))
    return synth


def update_multipliers(synth, analysis, state, cfg):
    """Gradient-ascent step on both constraint multipliers."""
    n = synth.shape[0]
    return AdmmState(
        mult_id=state.mult_id + cfg.rho2 * (synth @ analysis.T - np.eye(n)),
        mult_eq=state.mult_eq + cfg.rho3 * (synth - analysis),
    )


def update_codes(data, codes, synth, analysis, cfg, slots=None):
    """Support-preserving code refresh.

    Every column's codes become the least-squares minimizer of the
    weighted objective on its own support: with W = analysis analysis^T
    + rho1 I and H = synth^T (W synth), column j solves
    H[S_j, S_j] x = ((W synth)^T y_j)[S_j] (``_refit_supports``, which
    gathers the systems from H padded with an identity block).
    The supports are the nonzero entries of ``codes``; ``slots``, the
    padded support slots of ``_support_slots``, gives them when the caller
    kept them from an earlier refresh. The refresh minimizes the objective
    exactly on these supports, and an entry off a support stays 0. An atom
    whose weighted norm is zero keeps its codes.
    """
    weighted = (analysis @ analysis.T + cfg.rho1 * np.eye(len(synth))) @ synth  # W synth
    return _refit_supports(synth.T @ weighted, weighted.T @ data, codes, slots)


def pksvd_train(data, cfg: PkvConfig, init, track_updates=False):
    """Run the full ADMM loop for ``cfg.max_iters`` iterations.

    ``init`` is the (Dictionary, codes) pair produced by the K-SVD
    initializer. Returns (synth Dictionary, analysis Dictionary, codes,
    trace). With ``track_updates`` the trace also logs the objective after
    every primal update: three entries per iteration, labeled "analysis",
    "synthesis" and "codes".

    The code supports are the nonzero entries of the initial codes, as in
    K-SVD's refit, and hold for the whole run: their slots
    (``_support_slots``) are built once, before the loop.

    An error that an update raises carries the update's label, as above,
    in its ``update`` attribute.
    """
    data = as_matrix(data, "data")
    init_dict, init_codes = init
    synth = init_dict.mat.copy()
    codes = np.asarray(init_codes, dtype=float).copy()
    n, m = synth.shape
    if codes.shape != (m, data.shape[1]):
        raise ValueError(f"codes must be {m}x{data.shape[1]}, got {codes.shape}")

    state = AdmmState.zeros(n, m)
    trace = ConvergenceTrace()
    slots = _support_slots(codes != 0)

    def log_update(label):
        if track_updates:
            trace.update_objectives.append(
                (label, objective_value(data, codes, synth, analysis, cfg.rho1))
            )

    for _ in range(cfg.max_iters):
        analysis = _labelled("analysis", update_analysis, data, codes, synth, state, cfg)
        log_update("analysis")
        synth = _labelled("synthesis", update_synthesis, data, codes, analysis, state, cfg)
        log_update("synthesis")
        state = update_multipliers(synth, analysis, state, cfg)
        codes = _labelled("codes", update_codes, data, codes, synth, analysis, cfg, slots)
        log_update("codes")
        trace.record(
            synth, analysis, objective_value(data, codes, synth, analysis, cfg.rho1)
        )

    return Dictionary(synth), Dictionary(analysis), codes, trace


def _labelled(label, update, *args):
    """``update(*args)``; an error it raises gets ``label`` as its ``update``."""
    try:
        return update(*args)
    except PksvdError as exc:
        exc.update = label
        raise


def support_histogram(codes):
    """Counts of per-column support sizes (0..m) under the zero threshold."""
    codes = np.asarray(codes)
    sizes = (np.abs(codes) > ZERO_THRESHOLD).sum(axis=0)
    return np.bincount(sizes, minlength=codes.shape[0] + 1)

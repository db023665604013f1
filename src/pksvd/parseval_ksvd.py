"""ADMM learning of a Parseval tight frame with a co-trained analysis dual.

The trainer alternates: (v) analysis- then synthesis-dictionary updates,
each a Sylvester solve; (vi) gradient-ascent multiplier updates for the
two constraints (synth @ analysis.T = I and synth = analysis); (vii) a
support-preserving Gauss-Seidel refresh of the sparse codes in row order,
repeated ``x_sweeps`` times and run one support slot at a time across
all columns. The weighted objective

    || analysis.T @ (Y - synth @ X) ||_F^2 + rho1 * || Y - synth @ X ||_F^2

is traced once per outer iteration together with the constraint residuals.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import SingularCoefficientGram
from .frames import Dictionary
from .matrix_core import as_matrix, solve_sylvester
from .sparse_solvers import ZERO_THRESHOLD

_LOG_FLOOR = 1e-300


@dataclass(frozen=True)
class PkvConfig:
    """Penalty weights and iteration counts for the ADMM trainer."""

    k: int
    rho1: float = 0.1
    rho2: float = 1e11
    rho3: float = 1e11
    max_iters: int = 200
    x_sweeps: int = 20

    def __post_init__(self):
        if min(self.rho1, self.rho2, self.rho3) <= 0:
            raise ValueError("all penalty parameters must be positive")
        if self.max_iters < 1 or self.x_sweeps < 1:
            raise ValueError("max_iters and x_sweeps must be >= 1")
        if self.k < 1:
            raise ValueError("sparsity budget k must be >= 1")


@dataclass
class AdmmState:
    """Lagrange multipliers for the two equality constraints.

    ``mult_id`` (n x n) tracks synth @ analysis.T = I; ``mult_eq`` (n x m)
    tracks synth = analysis. Both start at zero.
    """

    mult_id: np.ndarray
    mult_eq: np.ndarray
    iteration: int = 0

    @classmethod
    def zeros(cls, n, m):
        return cls(np.zeros((n, n)), np.zeros((n, m)), 0)


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
    """Weighted analysis/synthesis data-fit objective."""
    resid = data - synth @ codes
    return float(
        np.linalg.norm(analysis.T @ resid) ** 2 + rho1 * np.linalg.norm(resid) ** 2
    )


def update_analysis(data, codes, synth, analysis, state, cfg, method="schur"):
    """Solve the analysis-dictionary stationarity condition.

    The condition is the Sylvester equation A1 @ phi + phi @ B1 = C1 with
    A1 = 2 (Y - synth X)(Y - synth X)^T, B1 = rho2 synth^T synth + rho3 I,
    C1 = -mult_id^T synth + rho2 synth + mult_eq + rho3 synth. The current
    analysis matrix does not enter the condition; it is accepted only for
    signature parity with the synthesis update.
    """
    del analysis
    resid = data - synth @ codes
    a1 = 2.0 * (resid @ resid.T)
    b1 = cfg.rho2 * (synth.T @ synth) + cfg.rho3 * np.eye(synth.shape[1])
    c1 = -state.mult_id.T @ synth + cfg.rho2 * synth + state.mult_eq + cfg.rho3 * synth
    return solve_sylvester(a1, b1, c1, method=method)


def update_synthesis(data, codes, synth, analysis, state, cfg, method="schur"):
    """Solve the synthesis-dictionary stationarity condition.

    Requires the code Gram X X^T to be invertible; it is ridge-regularized
    by 1e-8 * tr(X X^T) / m before inversion and the update fails with
    ``SingularCoefficientGram`` if it stays singular.
    """
    del synth
    n, m = analysis.shape
    gram = codes @ codes.T
    ridge = 1e-8 * np.trace(gram) / m
    gram_reg = gram + ridge * np.eye(m)
    eig = np.linalg.eigvalsh(gram_reg)
    if eig[0] <= 0.0 or not np.isfinite(eig[0]):
        raise SingularCoefficientGram(
            "code Gram matrix is singular even after regularization"
        )

    def right_divide(mat):
        # mat @ inv(gram_reg) with gram_reg symmetric
        return np.linalg.solve(gram_reg, mat.T).T

    a1 = 2.0 * (analysis @ analysis.T)
    b1 = right_divide(2.0 * cfg.rho1 * gram + cfg.rho2 * (analysis.T @ analysis)
                      + cfg.rho3 * np.eye(m))
    data_codes = data @ codes.T
    c1 = right_divide(
        2.0 * cfg.rho1 * data_codes
        - state.mult_id @ analysis
        + cfg.rho2 * analysis
        - state.mult_eq
        + cfg.rho3 * analysis
        + 2.0 * analysis @ (analysis.T @ data_codes)
    )
    return solve_sylvester(a1, b1, c1, method=method)


def update_multipliers(synth, analysis, state, cfg):
    """Gradient-ascent step on both constraint multipliers."""
    n = synth.shape[0]
    return AdmmState(
        mult_id=state.mult_id + cfg.rho2 * (synth @ analysis.T - np.eye(n)),
        mult_eq=state.mult_eq + cfg.rho3 * (synth - analysis),
        iteration=state.iteration + 1,
    )


def update_codes(data, codes, synth, analysis, cfg, obj_log=None):
    """Support-preserving Gauss-Seidel code refresh, batched by support slot.

    Each of the ``cfg.x_sweeps`` sweeps visits rows 1..m in order and gives
    each row's nonzero entries the closed-form least-squares value for the
    weighted objective at the current residual; entries falling below the
    zero threshold are frozen at zero from then on, so supports never
    grow. Rows with empty support and atoms whose weighted norm is not
    positive are skipped. An entry's update reads and writes only its own
    column's residual, so a sweep equals visiting each column's support
    atoms in increasing index order; it runs as one vectorized step per
    support slot, step s updating the s-th support atom of every column.
    When ``obj_log`` is given, the objective after each row that had a
    live entry in the sweep is appended, as a row-at-a-time sweep sees it.
    """
    codes = codes.copy()
    # Entries at or below the zero threshold count as zero support-wise;
    # clamping them up front keeps supports monotone under that rule.
    codes[np.abs(codes) <= ZERO_THRESHOLD] = 0.0
    m, n_cols = codes.shape
    # The objective is sum_j r_j^T W r_j with W = rho1 I + analysis
    # analysis^T. Residuals are kept one column per row: resid[j] = r_j.
    resid = (data - synth @ codes).T
    kernel = analysis.T @ synth
    metric = (cfg.rho1 * synth + analysis @ kernel).T  # row k = W synth_k
    synth_rows = np.ascontiguousarray(synth.T)
    denom = cfg.rho1 * np.einsum("ij,ij->j", synth, synth) + np.einsum(
        "ij,ij->j", kernel, kernel
    )
    usable = denom > 0.0
    scale = np.divide(1.0, denom, out=np.zeros(m), where=usable)
    # slots[s, j] is the s-th support atom of column j, in increasing
    # index order; past the end of a support it names a zero entry. An
    # entry that is zero (frozen or padding) is never updated.
    present = codes != 0.0
    width = int(present.sum(axis=0).max(initial=0))
    slots = np.argsort(~present, axis=0, kind="stable")[:width]
    lanes = np.arange(n_cols)

    for _ in range(cfg.x_sweeps):
        if obj_log is not None:
            start = float(
                np.linalg.norm(resid @ analysis) ** 2
                + cfg.rho1 * np.linalg.norm(resid) ** 2
            )
            change = np.zeros(m)
            seen = np.zeros(m, dtype=bool)
        for atom in slots:
            old = codes[atom, lanes]
            live = (old != 0.0) & usable[atom]
            numer = np.einsum("ij,ij->i", metric[atom], resid)
            new = old + numer * scale[atom]
            new[np.abs(new) <= ZERO_THRESHOLD] = 0.0
            new = np.where(live, new, old)
            delta = new - old
            codes[atom, lanes] = new
            resid -= synth_rows[atom] * delta[:, None]
            if obj_log is not None:
                # Each update changes its column's objective by this much.
                change += np.bincount(
                    atom, weights=delta * (delta * denom[atom] - 2.0 * numer),
                    minlength=m,
                )
                seen[atom[live]] = True
        if obj_log is not None:
            obj_log.extend((start + np.cumsum(change)[seen]).tolist())
    return codes


def pksvd_train(data, cfg: PkvConfig, init, method="schur", track_updates=False):
    """Run the full ADMM loop for ``cfg.max_iters`` iterations.

    ``init`` is the (Dictionary, codes) pair produced by the K-SVD
    initializer. Returns (synth Dictionary, analysis Dictionary, codes,
    trace). With ``track_updates`` the trace also logs the objective after
    every primal update, labeled "analysis", "synthesis" or "codes_row".
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
    analysis = None

    def log_update(label):
        if track_updates:
            trace.update_objectives.append(
                (label, objective_value(data, codes, synth, analysis, cfg.rho1))
            )

    for _ in range(cfg.max_iters):
        analysis = update_analysis(data, codes, synth, analysis, state, cfg, method)
        log_update("analysis")
        synth = update_synthesis(data, codes, synth, analysis, state, cfg, method)
        log_update("synthesis")
        state = update_multipliers(synth, analysis, state, cfg)
        if track_updates:
            row_log = []
            codes = update_codes(data, codes, synth, analysis, cfg, obj_log=row_log)
            trace.update_objectives.extend(("codes_row", v) for v in row_log)
        else:
            codes = update_codes(data, codes, synth, analysis, cfg)
        trace.record(
            synth, analysis, objective_value(data, codes, synth, analysis, cfg.rho1)
        )

    return Dictionary(synth), Dictionary(analysis), codes, trace


def support_histogram(codes):
    """Counts of per-column support sizes (0..m) under the zero threshold."""
    codes = np.asarray(codes)
    sizes = (np.abs(codes) > ZERO_THRESHOLD).sum(axis=0)
    return np.bincount(sizes, minlength=codes.shape[0] + 1)

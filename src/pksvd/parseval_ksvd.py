"""ADMM learning of a Parseval tight frame with a co-trained analysis dual.

The trainer alternates: (v) analysis- then synthesis-dictionary updates,
each a symmetric Sylvester solve by eigendecomposition; (vi) gradient-
ascent multiplier updates for the two constraints (synth @ analysis.T = I
and synth = analysis); (vii) a support-preserving refresh of the sparse
codes in row order, repeated ``x_sweeps`` times:
Gauss–Seidel on per-column support Grams, in column batches.
The weighted objective

    || analysis.T @ (Y - synth @ X) ||_F^2 + rho1 * || Y - synth @ X ||_F^2

is traced once per outer iteration together with the constraint residuals.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import SingularCoefficientGram
from .frames import Dictionary
from .matrix_core import (
    as_matrix,
    check_sylvester_residual,
    generalized_eigh,
    solve_sylvester_eig,
)
from .sparse_solvers import ZERO_THRESHOLD, _support_slots

_LOG_FLOOR = 1e-300

# Entries of the per-column support Grams (width x width x columns) one
# code-refresh batch may hold: 64 columns (a 2 MiB buffer) at width 64,
# all columns at desk scale. A larger budget takes fewer steps but grows
# the peak memory of a full-scale call past 4 MiB.
_CODE_BATCH_ENTRIES = 2 ** 18

# Penalties above this are rejected: under it 2 rho1 G, rho2 S + rho3 S
# and their kin stay finite while the code Gram G and the dictionaries
# hold entries below about 9e57.
PENALTY_MAX = 1e250


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
        for name in ("rho1", "rho2", "rho3"):
            value = getattr(self, name)
            if not 0 < value <= PENALTY_MAX:  # NaN fails too
                raise ValueError(f"penalty {name} must be finite and positive, "
                                 f"at most {PENALTY_MAX:g}, got {value}")
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


def update_analysis(data, codes, synth, state, cfg):
    """Solve the analysis-dictionary stationarity condition.

    The condition is the Sylvester equation A1 @ phi + phi @ B1 = C1 with
    A1 = 2 (Y - synth X)(Y - synth X)^T, B1 = rho2 synth^T synth + rho3 I,
    C1 = -mult_id^T synth + rho2 synth + mult_eq + rho3 synth. The current
    analysis matrix does not enter the condition; it is solved from the
    eigendecompositions of the symmetric A1 and B1.
    """
    resid = data - synth @ codes
    a1 = 2.0 * (resid @ resid.T)
    b1 = cfg.rho2 * (synth.T @ synth) + cfg.rho3 * np.eye(synth.shape[1])
    c1 = -state.mult_id.T @ synth + cfg.rho2 * synth + state.mult_eq + cfg.rho3 * synth
    analysis = solve_sylvester_eig(np.linalg.eigh(a1), np.linalg.eigh(b1), c1)
    check_sylvester_residual(a1 @ analysis + analysis @ b1 - c1, c1)
    return analysis


def update_synthesis(data, codes, analysis, state, cfg):
    """Solve the synthesis-dictionary stationarity condition.

    The condition is A1 @ synth + synth @ B1 = C1 with A1 = 2 analysis
    analysis^T, B1 = M G^-1 and C1 = K G^-1 for the code Gram G = X X^T,
    ridge-regularized by 1e-8 * tr(G) / m. It is solved as
    A1 @ synth @ G + synth @ M = K from the eigenpairs of A1 and of the
    pencil (M, G), so G is never inverted; the update fails with
    ``SingularCoefficientGram`` if G is not positive definite. The current
    synthesis matrix does not enter the condition.
    """
    m = analysis.shape[1]
    gram = codes @ codes.T
    ridge = 1e-8 * np.trace(gram) / m
    gram_reg = gram + ridge * np.eye(m)

    a1 = 2.0 * (analysis @ analysis.T)
    metric = (2.0 * cfg.rho1 * gram + cfg.rho2 * (analysis.T @ analysis)
              + cfg.rho3 * np.eye(m))
    data_codes = data @ codes.T
    rhs = (
        2.0 * cfg.rho1 * data_codes
        - state.mult_id @ analysis
        + cfg.rho2 * analysis
        - state.mult_eq
        + cfg.rho3 * analysis
        + 2.0 * analysis @ (analysis.T @ data_codes)
    )
    try:
        pencil = generalized_eigh(metric, gram_reg)
    except np.linalg.LinAlgError:
        raise SingularCoefficientGram(
            "code Gram matrix is singular even after regularization"
        ) from None
    synth = solve_sylvester_eig(np.linalg.eigh(a1), pencil, rhs)
    # The stated system's residual is (A1 @ synth @ G + synth @ M - K) G^-1
    # and C1 = K G^-1; one solve with G (symmetric) right-divides both.
    n = synth.shape[0]
    stacked = np.vstack([a1 @ synth @ gram_reg + synth @ metric - rhs, rhs])
    divided = np.linalg.solve(gram_reg, stacked.T).T
    check_sylvester_residual(divided[:n], divided[n:])
    return synth


def update_multipliers(synth, analysis, state, cfg):
    """Gradient-ascent step on both constraint multipliers."""
    n = synth.shape[0]
    return AdmmState(
        mult_id=state.mult_id + cfg.rho2 * (synth @ analysis.T - np.eye(n)),
        mult_eq=state.mult_eq + cfg.rho3 * (synth - analysis),
        iteration=state.iteration + 1,
    )


def _count_above(x):
    """The number of entries of ``x`` above the zero threshold in absolute
    value. NaN entries are not counted, so a sweep that makes one is
    replayed too."""
    return np.count_nonzero(np.abs(x) > ZERO_THRESHOLD)


def update_codes(data, codes, synth, analysis, cfg, obj_log=None):
    """Support-preserving code refresh in row order.

    Gauss–Seidel on per-column support Grams, in column batches.

    Each of the ``cfg.x_sweeps`` sweeps visits rows 1..m in order and gives
    each row's nonzero entries the closed-form least-squares value for the
    weighted objective at the current codes; entries falling below the
    zero threshold are frozen at zero from then on, so supports never
    grow. Rows with empty support and atoms whose weighted norm is not
    positive are skipped. An entry's update reads and writes only its own
    column, so a sweep equals visiting each column's support atoms in
    increasing index order. With W = rho1 I + analysis analysis^T and
    H = synth^T W synth, column j's steps are Gauss–Seidel on the normal
    equations of its own support S_j, H[S_j, S_j] x = (synth^T W y_j)[S_j],
    so no residual is kept. One step updates the s-th support atom of
    every column in a batch, in place, in buffers allocated once per call;
    a batch's support Grams hold at most ``_CODE_BATCH_ENTRIES`` entries.
    Each Gram row is laid out (width, columns) with the columns innermost,
    as the codes are, so each column's sums run in the same order whatever
    its batch. The buffers are at least two columns wide, and a batch of
    one column runs as two identical lanes: ``einsum`` sums a one-column
    product in another order. Past the Grams, the working set is a few
    (width, N) arrays: the m x N products and sort order are freed once
    each column's atoms and right-hand side are gathered.

    A sweep's steps do not apply the zero threshold. Each entry is written
    once per sweep, at its own step, so the sweep's result shows every
    entry that its step took to the threshold: when fewer entries lie
    above the threshold than before the sweep, the batch's codes are
    restored from a copy taken before it and the sweep is run again with
    the freeze applied at every step. Both give the same bits whenever no
    entry is frozen. When ``obj_log`` is given, every sweep runs with the
    freeze, and the objective after each row that had a live entry in the
    sweep is appended, as a row-at-a-time sweep sees it.
    """
    codes = codes.copy()
    # Entries at or below the zero threshold count as zero support-wise;
    # clamping them up front keeps supports monotone under that rule.
    codes[np.abs(codes) <= ZERO_THRESHOLD] = 0.0
    m, n_cols = codes.shape
    kernel = analysis.T @ synth
    hess = cfg.rho1 * (synth.T @ synth) + kernel.T @ kernel  # synth^T W synth
    target = (cfg.rho1 * synth + analysis @ kernel).T @ data  # synth^T W data
    del kernel
    denom = np.diag(hess)
    scale = np.divide(1.0, denom, out=np.zeros(m), where=denom > 0.0)
    # slots[s, j] is the s-th support atom of column j, in increasing
    # index order; past the end of a support it names a zero entry.
    present = codes != 0.0
    width = int(present.sum(axis=0).max(initial=0))
    slots = _support_slots(present, width)
    lanes = np.arange(n_cols)
    rhs = target[slots, lanes]
    del target, present
    batch = max(1, min(n_cols, _CODE_BATCH_ENTRIES // max(width, 1) ** 2))
    buffer_cols = max(batch, 2)
    grams = np.empty((width, width, buffer_cols))
    # The work buffers of one step and the codes before a sweep, allocated
    # once per call.
    buffers = (*np.empty((3, buffer_cols)), np.empty(buffer_cols, dtype=bool))
    before_sweep = np.empty((width, buffer_cols))
    if obj_log is not None:
        # The codes at the start of each sweep and each entry's objective
        # change, kept per column and summed once at the end, so that the
        # log does not depend on how the columns were batched.
        snaps = np.zeros((cfg.x_sweeps, width, n_cols))
        change = np.zeros((cfg.x_sweeps, width, n_cols))

    for lo in range(0, n_cols, batch):
        hi = min(lo + batch, n_cols)
        cols = slice(lo, hi) if hi - lo > 1 else [lo, lo]  # two lanes at least
        atoms = slots[:, cols]
        size = atoms.shape[1]
        gram = grams[:, :, :size]
        for s in range(width):
            # gram[s, t, j] = hess[atoms[s, j], atoms[t, j]]
            gram[s] = hess[atoms[s], atoms]
        x = codes[atoms, lanes[cols]]
        # Zero entries (padding, frozen) and unusable atoms take no step.
        step = np.where(x != 0.0, scale[atoms], 0.0)
        # Step s reads slot s's Gram row and right-hand side and writes
        # slot s's codes.
        slot_views = tuple(zip(gram, rhs[:, cols], x, step))
        numer, move, mag, dead = (buf[:size] for buf in buffers)
        before = before_sweep[:, :size]
        above = _count_above(x)
        for sweep in range(cfg.x_sweeps):
            if obj_log is None:
                np.copyto(before, x)
                for gram_row, rhs_row, row, row_step in slot_views:
                    np.einsum("tj,tj->j", gram_row, x, out=numer)
                    np.subtract(rhs_row, numer, out=numer)
                    np.multiply(numer, row_step, out=move)
                    row += move
                if _count_above(x) == above:
                    continue
                np.copyto(x, before)  # some entry reached the threshold
            else:
                snaps[sweep, :, lo:hi] = x[:, :hi - lo]
            for s, (gram_row, rhs_row, row, row_step) in enumerate(slot_views):
                np.einsum("tj,tj->j", gram_row, x, out=numer)
                np.subtract(rhs_row, numer, out=numer)
                np.multiply(numer, row_step, out=move)
                if obj_log is not None:
                    old = row.copy()
                row += move
                # An entry that reaches the zero threshold is frozen at zero.
                np.less_equal(np.abs(row, out=mag), ZERO_THRESHOLD, out=dead)
                np.putmask(row, dead, 0.0)
                np.putmask(row_step, dead, 0.0)
                if obj_log is not None:
                    # Each update changes its column's objective by this much.
                    delta = row - old
                    change[sweep, s, lo:hi] = (
                        delta * (delta * denom[atoms[s]] - 2.0 * numer)
                    )[:hi - lo]
            above = _count_above(x)
        codes[atoms, lanes[cols]] = x

    if obj_log is not None:
        rows = slots.ravel()
        usable = scale[slots] > 0.0
        for snap, entry_change in zip(snaps, change):
            start = np.zeros_like(codes)
            start[slots, lanes] = snap
            start_value = objective_value(data, start, synth, analysis, cfg.rho1)
            per_row = np.bincount(rows, weights=entry_change.ravel(), minlength=m)
            seen = np.zeros(m, dtype=bool)
            seen[slots[(snap != 0.0) & usable]] = True
            obj_log.extend((start_value + np.cumsum(per_row)[seen]).tolist())
    return codes


def pksvd_train(data, cfg: PkvConfig, init, track_updates=False):
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

    def log_update(label):
        if track_updates:
            trace.update_objectives.append(
                (label, objective_value(data, codes, synth, analysis, cfg.rho1))
            )

    for _ in range(cfg.max_iters):
        analysis = update_analysis(data, codes, synth, state, cfg)
        log_update("analysis")
        synth = update_synthesis(data, codes, analysis, state, cfg)
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

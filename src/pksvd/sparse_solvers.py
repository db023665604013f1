"""Sparse coding engines.

* ``omp`` — greedy orthogonal matching pursuit; ``_omp_columns`` runs it
  on many columns at once (Batch-OMP, used by K-SVD).
* ``bpdn`` — operator-splitting ADMM for min ||w||_1 s.t. ||b - A w||_2 <= eps.
* ``basis_pursuit`` — the eps = 0 specialization with a vertex polish step.
* ``bp_bruteforce_oracle`` — exact LP optimum by basic-solution enumeration,
  kept fully independent of the ADMM code path.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import SolverDidNotConverge, TooLarge
from .frames import Dictionary
from .matrix_core import as_matrix

# Entries with absolute value at or below this are counted as zero.
ZERO_THRESHOLD = 1e-6

_ORACLE_MAX_ATOMS = 12

# Entries of the support-Gram inverses (columns x k x k) one Batch-OMP
# batch may hold: 16 columns at k = 64, 4096 columns at k = 4.
_OMP_BATCH_ENTRIES = 2 ** 16

# A candidate atom whose squared distance from the span of the support is
# at most this fraction of its squared norm counts as dependent on it.
_SCHUR_FLOOR = 1e-12


@dataclass(frozen=True)
class SparseVec:
    """Coefficient vector plus its support under ZERO_THRESHOLD."""

    entries: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=float)
        if e.ndim != 1:
            raise ValueError(f"entries must be 1-D, got shape {e.shape}")
        if not np.all(np.isfinite(e)):
            raise ValueError("entries contain non-finite values")
        object.__setattr__(self, "entries", e)

    @property
    def length(self):
        return self.entries.size

    @property
    def support(self):
        return np.flatnonzero(np.abs(self.entries) > ZERO_THRESHOLD)

    @property
    def l1(self):
        return float(np.abs(self.entries).sum())


def omp(d: Dictionary, y, k: int, residual_tol: float = 0.0) -> SparseVec:
    """Orthogonal matching pursuit with budget ``k`` on one signal.

    A one-column call of ``_omp_columns``, which states the rule.
    """
    y = np.asarray(y, dtype=float).reshape(-1)
    if y.size != d.n:
        raise ValueError(f"signal length {y.size} does not match dictionary rows {d.n}")
    if k < 0 or k > d.n:
        raise ValueError(f"budget k={k} must be in [0, n={d.n}]")
    return SparseVec(_omp_columns(d.mat, y[:, None], k, residual_tol)[:, 0])


def _omp_columns(dict_mat, data, k, residual_tol=0.0):
    """Orthogonal matching pursuit on every column of ``data`` (Batch-OMP).

    Per column: add the unused atom most correlated with the residual
    (ties go to the lowest index), re-solve least squares on the support,
    and stop once ``k`` atoms are in use or the residual norm is at most
    ``residual_tol``. The least-squares solves use the precomputed Gram
    matrix D^T D and projections D^T Y: each column keeps the inverse of
    its support Gram and grows it by the Schur complement of the new atom
    (Rubinstein, Zibulevsky & Elad 2008). A column whose new atom is
    numerically dependent on its support already has a residual at
    rounding level; it keeps its codes and stops. Residuals are explicit,
    Y - D X, and columns go in batches whose inverses hold at most
    ``_OMP_BATCH_ENTRIES`` entries. Returns the m x N codes.
    """
    dict_mat = as_matrix(dict_mat, "dictionary")
    data = np.asarray(data, dtype=float)
    if data.ndim != 2 or data.shape[0] != dict_mat.shape[0]:
        raise ValueError(f"data shape {data.shape} does not match {dict_mat.shape}")
    gram = dict_mat.T @ dict_mat
    codes = np.zeros((dict_mat.shape[1], data.shape[1]))
    width = max(1, _OMP_BATCH_ENTRIES // max(k, 1) ** 2)
    for start in range(0, data.shape[1], width):
        block = slice(start, start + width)
        codes[:, block] = _omp_block(dict_mat, gram, data[:, block].T, k,
                                     residual_tol).T
    return codes


def _omp_block(dict_mat, gram, y, k, residual_tol):
    """``_omp_columns`` on one batch with signals as the rows of ``y``.

    Every array carries one lane (signal) per row; a lane leaves the batch
    when it stops, so all remaining lanes hold supports of equal size.
    """
    n_atoms = dict_mat.shape[1]
    out = np.zeros((y.shape[0], n_atoms))
    lanes = np.flatnonzero(_col_norms(y.T) > residual_tol)
    y = y[lanes]
    proj = y @ dict_mat
    corr = proj
    codes = np.zeros((lanes.size, n_atoms))
    support = np.zeros((lanes.size, 0), dtype=np.intp)
    inv = np.zeros((lanes.size, 0, 0))
    while lanes.size and support.shape[1] < k:
        rows = np.arange(lanes.size)[:, None]
        score = np.abs(corr)
        score[rows, support] = -1.0
        new = np.argmax(score, axis=1)
        cross = gram[support, new[:, None]]
        half = np.einsum("lij,lj->li", inv, cross)
        schur = gram[new, new] - np.einsum("li,li->l", cross, half)
        stalled = schur <= _SCHUR_FLOOR * gram[new, new]
        schur[stalled] = 1.0  # keeps the arithmetic finite; the lane stops
        size = support.shape[1]
        grown = np.empty((lanes.size, size + 1, size + 1))
        edge = -half / schur[:, None]
        # In place: grown's top-left block is inv + half half^T / schur.
        top = grown[:, :size, :size]
        np.multiply(half[:, :, None], -edge[:, None, :], out=top)
        top += inv
        grown[:, :size, size] = edge
        grown[:, size, :size] = edge
        grown[:, size, size] = 1.0 / schur
        inv = grown
        support = np.column_stack([support, new])
        coef = np.einsum("lij,lj->li", inv, np.take_along_axis(proj, support, axis=1))
        fresh = np.zeros_like(codes)
        fresh[rows, support] = coef
        fresh[stalled] = codes[stalled]
        codes = fresh
        resid = y - codes @ dict_mat.T
        done = stalled | (_col_norms(resid.T) <= residual_tol)
        done |= support.shape[1] == k
        out[lanes[done]] = codes[done]
        keep = ~done
        lanes, y, proj, codes, support, inv = (
            lanes[keep], y[keep], proj[keep], codes[keep], support[keep], inv[keep]
        )
        corr = resid[keep] @ dict_mat
    return out


def _col_norms(v):
    return np.sqrt(np.einsum("ij,ij->j", v, v))


def _project_l2_ball(v, radius):
    nrm = np.linalg.norm(v)
    if nrm <= radius:
        return v
    return v * (radius / nrm)


def _soft_threshold(v, t):
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


def bpdn(a, b, eps: float, tol: float = 1e-6, max_iter: int = 2000) -> SparseVec:
    """min ||w||_1  s.t.  ||b - A w||_2 <= eps  via operator splitting.

    ADMM on the splitting (w; z = w; r = b - A w) with a soft-threshold
    step for z and a projection onto the eps-ball for r. The penalty is
    rebalanced when primal and dual residuals drift apart. Raises
    ``SolverDidNotConverge`` after ``max_iter`` iterations, reporting the
    best iterate and its residuals.
    """
    a = as_matrix(a, "A")
    b = np.asarray(b, dtype=float).reshape(-1)
    p, m = a.shape
    if b.size != p:
        raise ValueError(f"b has length {b.size}, expected {p}")
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    if np.linalg.norm(b) <= eps:
        return SparseVec(np.zeros(m))

    w, converged = _bpdn_columns(a, b[:, None], eps, tol=tol, max_iter=max_iter)
    w = w[:, 0]
    if not converged:
        resid = float(np.linalg.norm(b - a @ w))
        raise SolverDidNotConverge(
            f"ADMM did not reach tol={tol:g} in {max_iter} iterations "
            f"(constraint residual {resid:.3e})",
            best=SparseVec(w),
            residual=resid,
            gap=max(0.0, resid - eps),
            iterations=max_iter,
        )
    return SparseVec(w)


def _bpdn_columns(a, b, eps, tol=1e-6, max_iter=2000, rho=1.0, feas_abs=None,
                  warm=None, return_state=False):
    """Vectorized ADMM over many independent ball-constrained l1 columns.

    ``b`` is p x N and column j is solved against its own radius
    ``eps[j]`` (scalar eps broadcasts). ``a`` is either one shared p x m
    system or a stack of N per-column systems shaped (N, p, m); zero rows
    may be used to pad per-column systems to a common height. All
    iteration steps act columnwise, so this equals N separate solves.
    ``feas_abs`` optionally overrides the per-column absolute feasibility
    target (default tol-relative). ``warm``, when given, is the state dict
    returned by a previous call on the same (a, b) and seeds the iteration
    (used to continue along a radius grid); the call then also returns the
    updated state. Returns (W, converged[, state]).
    """
    a = np.asarray(a, dtype=float)
    b_all = np.asarray(b, dtype=float)
    n_cols = b_all.shape[1]
    stacked = a.ndim == 3
    m = a.shape[-1]
    if (a.ndim not in (2, 3)) or a.shape[-2] != b_all.shape[0] or (
        stacked and a.shape[0] != n_cols
    ):
        raise ValueError(f"system shape {a.shape} does not match b {b_all.shape}")
    eps_all = np.ascontiguousarray(
        np.broadcast_to(np.asarray(eps, dtype=float), (n_cols,))
    )

    out = np.zeros((m, n_cols))
    # Columns whose data already fits inside the ball have the exact
    # solution w = 0 and are never iterated on.
    active_idx = np.flatnonzero(_col_norms(b_all) > eps_all)
    # Per-column normalization keeps every column's trajectory independent
    # of the rest of the batch; w scales linearly with (b, eps).
    scale = np.maximum(_col_norms(b_all[:, active_idx]), 1e-300)
    b = b_all[:, active_idx] / scale
    eps_act = eps_all[active_idx] / scale
    col_ref = np.maximum(1.0, _col_norms(b))
    if feas_abs is None:
        feas_target = tol * col_ref
    else:
        feas_target = (
            np.ascontiguousarray(
                np.broadcast_to(np.asarray(feas_abs, dtype=float), (n_cols,))
            )[active_idx]
            / scale
        )

    if stacked:
        sys_act = a[active_idx]
        gram = np.einsum("nqa,nqb->nab", sys_act, sys_act)
        gram[:, np.arange(m), np.arange(m)] += 1.0
        inv = np.linalg.inv(gram)

        def matvec(sys_mats, w_cols):
            return np.einsum("nqm,mn->qn", sys_mats, w_cols)

        def rmatvec(sys_mats, v_cols):
            return np.einsum("nqm,qn->mn", sys_mats, v_cols)

        def quad_solve(solver, rhs_cols):
            return np.einsum("nab,bn->an", solver, rhs_cols)
    else:
        sys_act = a
        inv = np.linalg.cholesky(np.eye(m) + a.T @ a)

        def matvec(sys_mats, w_cols):
            return sys_mats @ w_cols

        def rmatvec(sys_mats, v_cols):
            return sys_mats.T @ v_cols

        def quad_solve(solver, rhs_cols):
            return np.linalg.solve(solver.T, np.linalg.solve(solver, rhs_cols))

    if warm is None:
        w = np.zeros((m, active_idx.size))
        z = np.zeros_like(w)
        uz = np.zeros_like(w)
        r = b.copy()
        rho = np.full(active_idx.size, float(rho))
    else:
        w = warm["w"][:, active_idx] / scale
        z = warm["z"][:, active_idx] / scale
        uz = warm["uz"][:, active_idx]
        rho = warm["rho"][active_idx].copy()
        resid = b - matvec(sys_act, w)
        norms0 = _col_norms(resid)
        clip = np.ones(norms0.size)
        np.divide(eps_act, norms0, out=clip, where=norms0 > eps_act)
        r = resid * clip
    ur = np.zeros_like(b)
    state = None
    if warm is not None or return_state:
        state = {
            "w": np.zeros((m, n_cols)),
            "z": np.zeros((m, n_cols)),
            "uz": np.zeros((m, n_cols)),
            "rho": np.full(n_cols, 1.0),
        }
    # Per-column penalties: the quadratic step is penalty-free, so each
    # column carries its own rho and rebalances it independently.
    relax = 1.7
    check_every = 8

    it = 0
    while active_idx.size and it < max_iter:
        it += 1
        rhs = (z - uz) + rmatvec(sys_act, b - r - ur)
        w = quad_solve(inv, rhs)
        aw = matvec(sys_act, w)

        z_old = z
        r_old = r
        # Over-relaxed copies of w and A w for the prox and dual steps.
        w_h = relax * w + (1.0 - relax) * z
        aw_h = relax * aw + (1.0 - relax) * (b - r)
        z = _soft_threshold(w_h + uz, 1.0 / rho)
        v = b - aw_h - ur
        norms = _col_norms(v)
        shrink = np.ones(norms.size)
        np.divide(eps_act, norms, out=shrink, where=norms > eps_act)
        r = v * shrink

        uz += w_h - z
        ur += aw_h + r - b

        if it % check_every == 0 or it == max_iter:
            feas_norm = _col_norms(aw + r - b)
            split_norm = _col_norms(w - z)
            dual = rho * np.sqrt(
                _col_norms(z - z_old) ** 2
                + _col_norms(rmatvec(sys_act, r - r_old)) ** 2
            )
            done = (
                (feas_norm <= feas_target)
                & (split_norm <= tol * col_ref)
                & (dual <= tol * col_ref)
            )
            if done.any():
                out[:, active_idx[done]] = w[:, done] * scale[done]
                if state is not None:
                    cols = active_idx[done]
                    state["w"][:, cols] = w[:, done] * scale[done]
                    state["z"][:, cols] = z[:, done] * scale[done]
                    state["uz"][:, cols] = uz[:, done]
                    state["rho"][cols] = rho[done]
                keep = ~done
                active_idx = active_idx[keep]
                b, eps_act, col_ref, rho = (
                    b[:, keep], eps_act[keep], col_ref[keep], rho[keep]
                )
                feas_target = feas_target[keep]
                scale = scale[keep]
                w, z, r, uz, ur = (
                    w[:, keep], z[:, keep], r[:, keep], uz[:, keep], ur[:, keep]
                )
                if stacked:
                    sys_act = sys_act[keep]
                    inv = inv[keep]
                continue
            # Per-column residual balancing keeps each penalty productive.
            primal = np.sqrt(split_norm ** 2 + feas_norm ** 2)
            grow = primal > 10 * dual
            shrink_rho = dual > 10 * primal
            if grow.any():
                rho[grow] *= 2.0
                uz[:, grow] /= 2.0
                ur[:, grow] /= 2.0
            if shrink_rho.any():
                rho[shrink_rho] /= 2.0
                uz[:, shrink_rho] *= 2.0
                ur[:, shrink_rho] *= 2.0

    converged = active_idx.size == 0
    if not converged:
        out[:, active_idx] = w * scale
        if state is not None:
            state["w"][:, active_idx] = w * scale
            state["z"][:, active_idx] = z * scale
            state["uz"][:, active_idx] = uz
            state["rho"][active_idx] = rho
    if state is not None:
        return out, converged, state
    return out, converged


def basis_pursuit(d: Dictionary, x, tol: float = 1e-9) -> SparseVec:
    """min ||u||_1 s.t. mat @ u = x, solved as the eps = 0 split problem.

    The ADMM solution is polished by re-solving least squares on its
    support; the polished point is kept only when it stays feasible and
    lowers the l1 objective, so the result is never worse than the raw
    ADMM iterate.
    """
    a = d.mat
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.size != d.n:
        raise ValueError(f"signal length {x.size} does not match dictionary rows {d.n}")
    feas_tol = tol * max(1.0, np.linalg.norm(x))

    w, converged = _bpdn_columns(
        a, x[:, None], eps=0.0, tol=min(tol, 1e-9), max_iter=20000
    )
    u = w[:, 0]
    u = _polish_vertex(a, x, u, feas_tol)
    resid = float(np.linalg.norm(a @ u - x))
    if resid > feas_tol:
        if not converged:
            raise SolverDidNotConverge(
                f"basis pursuit stalled at constraint residual {resid:.3e}",
                best=SparseVec(u),
                residual=resid,
                iterations=20000,
            )
        raise SolverDidNotConverge(
            f"constraint residual {resid:.3e} exceeds tolerance {feas_tol:.3e}",
            best=SparseVec(u),
            residual=resid,
        )
    return SparseVec(u)


def _polish_vertex(a, x, u, feas_tol):
    """Refit ``u`` on its support; keep the refit only if it wins."""
    support = np.flatnonzero(np.abs(u) > ZERO_THRESHOLD)
    if support.size == 0 or support.size > a.shape[0]:
        return u
    sol, *_ = np.linalg.lstsq(a[:, support], x, rcond=None)
    candidate = np.zeros_like(u)
    candidate[support] = sol
    feasible = np.linalg.norm(a @ candidate - x) <= feas_tol
    if feasible and np.abs(candidate).sum() <= np.abs(u).sum() + feas_tol:
        return candidate
    return u


def bp_bruteforce_oracle(d: Dictionary, x) -> SparseVec:
    """Exact l1-synthesis optimum by enumerating basic feasible solutions.

    Works on the split LP min 1.v s.t. [A | -A] v = x, v >= 0: every
    vertex is supported on n linearly independent columns, so checking
    all n-subsets of the 2m split columns finds the optimum. Limited to
    m <= 12 atoms.
    """
    if d.m > _ORACLE_MAX_ATOMS:
        raise TooLarge(f"oracle limited to m <= {_ORACLE_MAX_ATOMS}, got m={d.m}")
    a = d.mat
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.size != d.n:
        raise ValueError(f"signal length {x.size} does not match dictionary rows {d.n}")
    n, m = a.shape
    split = np.hstack([a, -a])

    best_u = None
    best_obj = np.inf
    if np.linalg.norm(x) == 0.0:
        return SparseVec(np.zeros(m))
    for cols in combinations(range(2 * m), n):
        basis = split[:, cols]
        sv = np.linalg.svd(basis, compute_uv=False)
        if sv[-1] <= 1e-10 * max(sv[0], 1.0):
            continue
        v = np.linalg.solve(basis, x)
        if np.any(v < -1e-10):
            continue
        obj = float(np.abs(v).sum())
        if obj < best_obj - 1e-15:
            best_obj = obj
            u = np.zeros(m)
            for ci, vi in zip(cols, v):
                if ci < m:
                    u[ci] += vi
                else:
                    u[ci - m] -= vi
            best_u = u
    if best_u is None:
        raise ValueError("no feasible basic solution found; is the frame full rank?")
    return SparseVec(best_u)

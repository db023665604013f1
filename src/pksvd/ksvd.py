"""Baseline K-SVD dictionary learning.

Alternates column-batched OMP sparse coding (Batch-OMP) with atom-by-atom
rank-1 updates of the restricted residual. Used both standalone and as
the initializer of the Parseval trainer. Per-block means are preserved: no
mean removal happens inside training.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .frames import Dictionary
from .matrix_core import as_matrix
from .sparse_solvers import _TIE_RTOL, _refit_supports, omp

_OMP_RESIDUAL_TOL = 1e-12
# Residual-to-code-row norm ratio up to which an atom update takes one
# power step from the current atom (see ``_update_atoms``).
_POWER_STEP_TOL = 1e-5


@dataclass(frozen=True)
class KsvdConfig:
    """Per-column budget and sweep count; the atom count is ``init``'s."""

    k: int
    iters: int = 20

    def __post_init__(self):
        if self.k < 1 or self.iters < 0:
            raise ValueError("k must be >= 1 and iters >= 0")


def _canonical_sign(atom, row):
    """Flip so the atom's largest-magnitude entry is positive; of entries
    tied with it (within ``_TIE_RTOL``), the lowest-index one decides."""
    mag = np.abs(atom)
    pivot = atom[(mag >= (1.0 - _TIE_RTOL) * mag.max()).argmax()]
    if pivot < 0:
        return -atom, -row
    return atom, row


def _code_columns(dict_mat, data, k, prev_codes):
    """Sparse-code every column, never worsening the previous codes.

    Fresh OMP codes are compared against a least-squares refit of each
    column's previous support; the better of the two is kept, so the
    coding stage cannot increase the data-fit objective. The refit wins
    only when it lowers the column's residual norm by more than
    ``_OMP_RESIDUAL_TOL``: below that the two fits are equally exact, and
    rounding alone must not pick between supports. The Gram D^T D and
    the projections are formed once and shared by the OMP and the refit.
    """
    gram = dict_mat.T @ dict_mat
    proj = data.T @ dict_mat
    codes = omp(dict_mat, data, k, _OMP_RESIDUAL_TOL, proj, gram)
    if prev_codes is None:
        return codes
    refit = _refit_supports(gram, proj.T, prev_codes)
    gain = _fit_errors(dict_mat, data, codes) - _fit_errors(dict_mat, data, refit)
    better = prev_codes.any(axis=0) & (gain > _OMP_RESIDUAL_TOL)
    codes[:, better] = refit[:, better]
    return codes


def _fit_errors(dict_mat, data, codes):
    return np.linalg.norm(data - dict_mat @ codes, axis=0)


def _update_atoms(dict_mat, data, codes):
    """One pass of atom-wise rank-1 updates; unused atoms are replaced by
    the worst-represented training column.

    An atom becomes the top left singular vector u of its restricted
    residual E, and its code row u^T E. u comes from the top eigenvector of
    the smaller Gram: of E E^T, or, when fewer columns than rows use the
    atom, of E^T E, mapped through E. The residual data - dict @ codes is
    kept across the pass: each atom update rewrites only the columns that
    use the atom.

    An atom whose columns already fit takes one power step instead. Write
    E = d x^T + R, with d the current atom, x its code row on the columns
    that use it and R the residual there. When ||R||_F <= tau ||x|| (tau is
    ``_POWER_STEP_TOL``), sigma_2 / sigma_1 <= tau / (1 - tau) and d lies
    within an angle of about tau of u. One step u ~ E E^T d shrinks that
    angle by (sigma_2 / sigma_1)^2, to about tau^3 (1e-15), the accuracy
    of the eigensolver itself. All atoms are screened once at the start of
    the pass, on the summed residual norms of the columns each one uses;
    an atom that passes is checked again on the current residual before
    its step, and every other atom takes the eigensolver.
    """
    dict_mat = dict_mat.copy()
    codes = codes.copy()
    resid = data - dict_mat @ codes
    row_sq = np.einsum("ij,ij->i", codes, codes)
    bound_sq = _POWER_STEP_TOL ** 2 * row_sq
    present = codes != 0
    fits = present @ np.einsum("ij,ij->j", resid, resid) <= bound_sq
    # Atom j's update rewrites row j on its own columns only, so every
    # atom's columns are listed once, up front.
    rows, cols = np.nonzero(present)
    users = np.split(cols, np.cumsum(np.bincount(rows, minlength=codes.shape[0]))[:-1])
    taken = set()
    for j, used in enumerate(users):
        if used.size == 0:
            errs = np.linalg.norm(resid, axis=0)
            for worst in np.argsort(errs)[::-1]:
                if int(worst) not in taken:
                    break
            taken.add(int(worst))
            col = data[:, int(worst)]
            nrm = np.linalg.norm(col)
            if nrm > 0:
                dict_mat[:, j] = col / nrm
            continue
        rest = resid[:, used]
        restricted = rest + dict_mat[:, j, None] * codes[j, used]
        if fits[j] and np.vdot(rest, rest) <= bound_sq[j]:
            top = restricted @ (dict_mat[:, j] @ restricted)
            top /= np.linalg.norm(top)
        elif used.size < restricted.shape[0]:
            top = restricted @ np.linalg.eigh(restricted.T @ restricted)[1][:, -1]
            top /= np.linalg.norm(top)
        else:
            top = np.linalg.eigh(restricted @ restricted.T)[1][:, -1]
        atom, row = _canonical_sign(top, top @ restricted)
        dict_mat[:, j] = atom
        codes[j, used] = row
        resid[:, used] = restricted - atom[:, None] * row
    return dict_mat, codes


def ksvd_train(data, cfg: KsvdConfig, init: Dictionary):
    """Train a dictionary on the columns of ``data``.

    ``init`` must have the rows of ``data`` and unit-norm atoms. Returns the
    learned ``Dictionary`` (``init``'s atom count, unit-norm atoms) and the
    final codes. The objective ||data - dict @ codes||_F^2 never increases.
    """
    data = as_matrix(data, "data")
    n = data.shape[0]
    if init.n != n:
        raise ValueError(f"init must have {n} rows, got {init.mat.shape}")
    if not np.allclose(np.linalg.norm(init.mat, axis=0), 1.0, atol=1e-8):
        raise ValueError("init atoms must be unit norm")
    if cfg.k > n:
        raise ValueError(f"budget k={cfg.k} exceeds signal dimension {n}")

    dict_mat = init.mat.copy()
    codes = None
    for _ in range(cfg.iters):
        codes = _code_columns(dict_mat, data, cfg.k, codes)
        dict_mat, codes = _update_atoms(dict_mat, data, codes)
    if codes is None:
        codes = _code_columns(dict_mat, data, cfg.k, None)
    return Dictionary(dict_mat), codes

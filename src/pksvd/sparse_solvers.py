"""Sparse coding engines, each run on many columns at once.

* ``omp`` — greedy orthogonal matching pursuit with a budget of k atoms
  (Batch-OMP, used by K-SVD).
* ``bpdn`` — min ||w||_1 s.t. ||b - A w||_2 <= eps, solved exactly by the
  LASSO homotopy: one path per column gives the code at every radius of
  a descending grid, down to basis pursuit at eps = 0. Denoising runs it
  on the n x m system R S from the thin QR A^T = QR of its analysis
  operator, inpainting on per-block row subsets of the dictionary.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularCoefficientGram, SolverDidNotConverge
from .matrix_core import as_matrix

# Entries with absolute value at or below this are counted as zero.
ZERO_THRESHOLD = 1e-6


def _omp_lane_entries(n, m, k):
    """Entries of one Batch-OMP lane's buffers: its inverse Cholesky
    factor (k x k); its codes, correlations and scores (m each); its
    residual and data (n each) and its projections (m)."""
    return k * k + 4 * m + 2 * n


# Entries of the lane buffers one Batch-OMP batch may hold: 64 lanes at
# the full shape (n = 64, m = 256, k = 64), 1908 at the desk shape
# (n = 16, m = 32, k = 4).
_OMP_BATCH_ENTRIES = 64 * _omp_lane_entries(64, 256, 64)

# Entries of the support systems (columns x w x w, for the support width
# w) one batch of the least-squares refit may hold: 16 columns at w = 64.
_REFIT_BATCH_ENTRIES = 2 ** 16

# Atom scores within this fraction of the largest, or homotopy event
# times within it of the smallest, count as tied; the lowest index wins
# (Batch-OMP atoms, K-SVD atom signs, homotopy joins and drops).
_TIE_RTOL = 1e-12

# A candidate atom whose squared distance from the span of the support is
# at most this fraction of its squared norm counts as dependent on it.
_SCHUR_FLOOR = 1e-12

# A homotopy code may miss its radius by this fraction of its data norm.
_RADIUS_RTOL = 1e-9
# Homotopy steps after which the paths still running count as failed.
_PATH_MAX_STEPS = 10_000
# A homotopy event within this fraction of the path's starting lam from
# lam = 0 counts as the end of the path.
_PATH_END_RTOL = 1e-12
# A join step whose correlation gains on lam by at most this rate is not
# taken: it is rounding on an atom tied to the support.
_JOIN_FLOOR = 1e-9
# Entries of the per-lane support systems one homotopy batch may hold.
_PATH_BATCH_ENTRIES = 2 ** 20
# A homotopy lane's factor products have its system's rank, padded to a
# multiple of this, as their width.
_GRAM_PAD = 8


def omp(dict_mat, data, k, residual_tol=0.0, proj=None, gram=None):
    """Orthogonal matching pursuit on every column of ``data`` (Batch-OMP).

    Per column: add the unused atom most correlated with the residual
    (scores within a relative ``_TIE_RTOL`` of the largest tie, and the
    lowest index wins), re-solve least squares on the support, and stop
    once ``k`` atoms are in use or the residual norm is at most
    ``residual_tol``. The least-squares solves use the precomputed Gram
    matrix D^T D and projections D^T Y: each column keeps the inverse
    Cholesky factor R = L^-1 of its support Gram L L^T and appends one
    row per new atom (Rubinstein, Zibulevsky & Elad 2008). A column whose new atom is
    numerically dependent on its support already has a residual at
    rounding level; it keeps its codes and stops. Residuals are explicit,
    Y - D X. Columns go in batches whose lane buffers, as
    ``_omp_lane_entries`` counts them, hold at most ``_OMP_BATCH_ENTRIES``
    entries: 64 lanes at n = 64, m = 256, k = 64. Each batch allocates its
    supports and factors once, at full size k. The residual's products,
    and so the scores, round differently by batch height; the tie window
    keeps rounding-level score differences from picking between tied
    atoms. The codes come from per-lane products of R and z, so a lane's
    codes depend on its batch only through its support. ``proj``, the
    N x m projections Y^T D, and ``gram``, D^T D, are formed here once for
    all batches unless the caller passes them. Returns the m x N codes.
    Raises ``ValueError`` unless the budget satisfies 0 <= k <= n.
    """
    dict_mat = as_matrix(dict_mat, "dictionary")
    data = np.asarray(data, dtype=float)
    if data.ndim != 2 or data.shape[0] != dict_mat.shape[0]:
        raise ValueError(f"data shape {data.shape} does not match {dict_mat.shape}")
    if not 0 <= k <= dict_mat.shape[0]:
        raise ValueError(f"budget k={k} must be in [0, n={dict_mat.shape[0]}]")
    if gram is None:
        gram = dict_mat.T @ dict_mat
    if proj is None:  # once: a one-column batch's product rounds differently
        proj = data.T @ dict_mat
    codes = np.zeros((dict_mat.shape[1], data.shape[1]))
    width = max(1, _OMP_BATCH_ENTRIES // _omp_lane_entries(*dict_mat.shape, k))
    for start in range(0, data.shape[1], width):
        block = slice(start, start + width)
        codes[:, block] = _omp_block(dict_mat, gram, data[:, block].T, proj[block], k,
                                     residual_tol).T
    return codes


def _omp_block(dict_mat, gram, y, proj, k, residual_tol):
    """``omp`` on one batch: signals and their projections D^T y
    are the rows of ``y`` and ``proj``.

    Every array carries one lane (signal) per row; a lane leaves the batch
    when it stops, so all remaining lanes hold supports of equal size. Each
    step appends a row to R and an entry to z = R p_S (``_row_update``); the
    codes are R^T z. The buffers are allocated once, at size k; R is
    zero-filled, so its leading s x s block is the factor of a support of
    size s.
    """
    n_atoms = dict_mat.shape[1]
    out = np.zeros((y.shape[0], n_atoms))
    lanes = np.flatnonzero(_col_norms(y.T) > residual_tol)
    y, proj = y[lanes], proj[lanes]
    corr = proj
    codes = np.zeros((lanes.size, n_atoms))
    support = np.empty((lanes.size, k), dtype=np.intp)
    factor = np.zeros((lanes.size, k, k))
    z = np.empty((lanes.size, k))
    for size in range(k):
        if not lanes.size:
            break
        rows = np.arange(lanes.size)[:, None]
        score = np.abs(corr)
        score[rows, support[:, :size]] = -1.0
        top = score[rows, score.argmax(axis=1)[:, None]]  # max() is slow on short rows
        new = (score >= (1.0 - _TIE_RTOL) * top).argmax(axis=1)
        w_r, ww, wz = _row_update(factor[:, :size, :size],
                                  gram[support[:, :size], new[:, None]], z[:, :size])
        diag = gram[new, new]
        schur = diag - ww
        stalled = schur <= _SCHUR_FLOOR * diag
        schur[stalled] = 1.0  # keeps the arithmetic finite; the lane stops
        root = np.sqrt(schur)
        factor[:, size, :size] = w_r / -root[:, None]
        factor[:, size, size] = 1.0 / root
        z[:, size] = (proj[rows[:, 0], new] - wz) / root
        support[:, size] = new
        picked = support[:, :size + 1]
        coef = (z[:, None, :size + 1] @ factor[:, :size + 1, :size + 1])[:, 0]
        if stalled.any():  # a stalled lane keeps its codes
            coef[stalled] = codes[rows[stalled], picked[stalled]]
        codes[rows, picked] = coef
        resid = y - codes @ dict_mat.T
        done = stalled | (_col_norms(resid.T) <= residual_tol)
        done |= size + 1 == k
        if done.any():
            out[lanes[done]] = codes[done]
            keep = ~done
            lanes, y, proj, codes, support, factor, z, resid = (
                a[keep] for a in (lanes, y, proj, codes, support, factor, z, resid))
        corr = resid @ dict_mat
    return out


def _row_update(factor, g, z):
    """The products of one row append to factors R (L x s x s) with
    R G_S R^T = I, for Batch-OMP and the homotopy alike (Rubinstein,
    Zibulevsky & Elad 2008). With g the new atom a's Gram entries on the
    support S, w = R g and sigma = G_aa - ||w||^2, R gains the row
    [-w^T R, 1] / sqrt(sigma) and z = R p_S the entry (p_a - w.z) /
    sqrt(sigma). Returns w^T R, ||w||^2 and w.z. w is kept as a row, so
    every product is one batched matmul.
    """
    w = g[:, None, :] @ np.swapaxes(factor, 1, 2)
    return ((w @ factor)[:, 0], (w @ np.swapaxes(w, 1, 2))[:, 0, 0],
            (w @ z[:, :, None])[:, 0, 0])


def _col_norms(v):
    return np.sqrt(np.einsum("ij,ij->j", v, v))


def _support_slots(present):
    """The support slots of the m x N boolean ``present``: an N x w index
    array whose row j lists the True rows of column j in increasing order,
    for the widest support w, and then, in each slot i that a shorter
    support leaves, the padding index m + i, which points into w rows
    appended after the m. The refit and inpainting gather their systems
    through these slots."""
    m = present.shape[0]
    sizes = present.sum(axis=0)
    width = int(sizes.max(initial=0))
    slot = np.arange(width)
    rows = np.argsort(~present, axis=0, kind="stable")[:width].T
    return np.where(slot < sizes[:, None], rows, m + slot)


def _refit_supports(gram, proj, codes, slots=None):
    """Least-squares codes of every column on the support of ``codes``.

    Column j solves gram[S_j, S_j] x = proj[S_j, j], where S_j holds the
    nonzero rows of codes[:, j]: with gram = D^T D and proj = D^T Y, the
    least-squares fit of y_j by the atoms of S_j. ``slots`` lists the
    supports as ``_support_slots`` builds them, padded with the indices m
    and up; a caller whose supports do not change between calls builds
    them once and passes them in, and they are built here from ``codes``
    otherwise. The systems are gathered from the Gram padded with a w x w
    identity block, for the slot width w, and from the projections padded
    with w zero rows: a padding slot gathers an identity row and a zero
    projection, and its code, 0, falls in a padding row of the solution,
    which is dropped. An atom whose diagonal entry of ``gram`` is not
    positive (a zero atom) keeps its code: it gets an identity row and
    column of the padded Gram too, and its value in ``codes`` as its
    projection. Columns are solved in batched calls whose support systems
    hold at most ``_REFIT_BATCH_ENTRIES`` entries. Raises
    ``SingularCoefficientGram``, naming the column, when a support system
    is singular.
    """
    m, n_cols = codes.shape
    if slots is None:
        slots = _support_slots(codes != 0)
    width = slots.shape[1]
    zero = np.flatnonzero(~(np.diag(gram) > 0))
    padded = np.eye(m + width)
    padded[:m, :m] = gram
    padded[zero] = 0.0
    padded[:, zero] = 0.0
    padded[zero, zero] = 1.0
    target = np.zeros((m + width, n_cols))
    target[:m] = proj
    target[zero] = codes[zero]
    batch = max(1, _REFIT_BATCH_ENTRIES // max(width, 1) ** 2)
    for start in range(0, n_cols, batch):
        block = slice(start, start + batch)
        cols = np.arange(n_cols)[block, None]
        support = slots[block]
        system = padded[support[:, :, None], support[:, None, :]]
        rhs = target[support, cols]
        target[:, block] = 0.0  # the batch's columns now take its codes
        try:
            target[support, cols] = np.linalg.solve(system, rhs[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            column = cols[np.linalg.slogdet(system)[0] == 0.0, 0][0]
            raise SingularCoefficientGram(
                f"the support Gram of code column {column} is singular"
            ) from None
        del system  # before the next batch's system is gathered
    return target[:m]


def bpdn(system, data, radii, rank=None):
    """min ||w||_1 s.t. ||b - A w||_2 <= eps for every column b of ``data``
    and every radius eps of the descending grid ``radii``.

    The LASSO homotopy, LARS with drops (Osborne, Presnell & Turlach
    2000; Efron et al. 2004). ``system`` is one shared p x m matrix A or
    a stack of N per-column matrices shaped (N, p, m); zero rows pad
    per-column systems to a common height. ``rank`` holds the systems'
    ranks when the caller knows them (``inpaint``); by default
    ``np.linalg.matrix_rank`` gives them. A column's factor width is its
    rank padded to a multiple of ``_GRAM_PAD``; the columns run width by
    width, in batches of one width. Each column follows the path
    of argmin 1/2 ||b - A w||^2 + lam ||w||_1 from lam = ||A^T b||_inf
    down to 0. The path is piecewise linear and its residual norm falls
    monotonically, so one path crosses every radius in turn: on the
    segment that crosses eps, with residual r at its start and residual
    r - gamma u along it, the code is at the smaller root of
    ||r - gamma u||^2 = eps^2. A column with ||b|| <= eps gets the zero
    code, and a radius below the residual at the end of the path gets
    the code at the end; the radius 0 is basis pursuit, min ||w||_1 s.t.
    A w = b.

    Returns the codes as a (K, m, N) array, one m x N block per radius.
    Raises ``ValueError`` for an empty grid or a radius that is NaN,
    negative or out of order, and ``SolverDidNotConverge`` when a code is
    not finite or misses its radius by more than ``_RADIUS_RTOL * ||b||``,
    or a path takes more than ``_PATH_MAX_STEPS`` steps.
    """
    radii = np.asarray(radii, dtype=float).reshape(-1)
    if radii.size == 0:
        raise ValueError("the radius grid is empty")
    if np.isnan(radii).any() or (radii < 0).any():
        raise ValueError(f"radii must be nonnegative numbers, got {radii.tolist()}")
    if (np.diff(radii) > 0).any():
        raise ValueError("radii must be in descending order")
    system = np.asarray(system, dtype=float)
    data = np.asarray(data, dtype=float)
    stacked = system.ndim == 3
    if system.ndim not in (2, 3) or data.ndim != 2 or system.shape[-2] != data.shape[0] or (
        stacked and system.shape[0] != data.shape[1]
    ):
        raise ValueError(f"system shape {system.shape} does not match data {data.shape}")
    # Lanes are rows from here on; a shared system is a stack of one,
    # which broadcasts. Stacked products compute every lane on its own,
    # so a lane's arithmetic does not depend on its batch-mates.
    mats = system if stacked else system[None]
    lanes_b = data.T
    rank = np.linalg.matrix_rank(mats) if rank is None else np.asarray(rank)
    width = -(-rank // _GRAM_PAD) * _GRAM_PAD
    atoms = np.swapaxes(mats, 1, 2)  # np.take of a batch is one C-order copy
    p, m = system.shape[-2:]
    codes = np.zeros((radii.size, data.shape[1], m))
    for wide in sorted(set(width.tolist())):  # np.unique would load numpy.ma
        cols = np.flatnonzero(width == wide) if stacked else np.arange(data.shape[1])
        per = max(1, _PATH_BATCH_ENTRIES // (wide * (p + wide) + 4 * m))
        for start in range(0, cols.size, per):
            block = cols[start:start + per]
            codes[:, block] = _homotopy_block(
                np.take(atoms, block, axis=0) if stacked else system.T,
                lanes_b[block], radii, rank[block] if stacked else rank, wide,
            )
    resid = lanes_b - (mats @ codes[..., None])[..., 0]
    norms = np.sqrt(np.einsum("knp,knp->kn", resid, resid))
    excess = norms - radii[:, None] - _RADIUS_RTOL * _col_norms(data)
    k, j = np.unravel_index(np.argmax(excess), excess.shape)
    if not excess[k, j] <= 0:  # NaN codes fail too
        raise SolverDidNotConverge(
            f"block {j}: constraint residual {norms[k, j]:.6g} exceeds "
            f"eps {radii[k]:g}"
        )
    return codes.transpose(0, 2, 1)


def _first_tied_min(times, rows):
    """Per row of ``times``, the lowest index whose time is within a
    relative ``_TIE_RTOL`` of the row's smallest."""
    top = times[rows, times.argmin(axis=1)]
    return (times <= (1.0 + _TIE_RTOL) * top[:, None]).argmax(axis=1)


def _homotopy_block(atoms, b, radii, rank, width):
    """``bpdn`` on one batch with the data as the rows of ``b``.

    ``atoms`` holds the transposed systems, (N, m, p), or one m x p matrix
    for a shared system, so that the atoms are rows; ``rank`` holds their
    ranks, and ``width``, every lane's rank padded to a multiple of
    ``_GRAM_PAD``, the width of the lanes' factors. Each step moves
    w <- w + gamma d and lam <- lam - gamma along the direction
    d_S = G_S^-1 sign(w_S), with G_S = A_S^T A_S the support Gram, until
    the first event: an atom joins (its correlation reaches +-lam), an
    atom drops (its code reaches zero), or the path ends (lam = 0). Join
    times, and drop times, within a relative ``_TIE_RTOL`` of the smallest
    count as tied, and the lowest index wins. Join steps are clamped at
    gamma >= 0; an atom dropped on the previous step may not rejoin on the
    side it left; joins stop once a lane's support reaches the rank of its
    system. A lane leaves the batch once it has a code for every radius.
    The direction comes from factors of G_S that each lane keeps from step
    to step (``_LaneFactors``). Returns (K, N, m) codes.
    """
    n_lanes, p = b.shape
    m = atoms.shape[-2]
    n_radii = radii.size
    out = np.zeros((n_radii, n_lanes, m))
    with np.errstate(over="ignore"):  # an inf square keeps the zero code too
        eps2 = radii ** 2
    # Radii at or above the data norm keep the zero code.
    nxt = np.count_nonzero(eps2 >= np.einsum("lp,lp->l", b, b)[:, None], axis=1)
    lanes = np.flatnonzero(nxt < n_radii)
    shared = atoms.ndim == 2
    if shared:
        # Row and column m hold the zero entries of unused support slots.
        gram = np.zeros((m + 1, m + 1))
        gram[:m, :m] = atoms @ atoms.T
    elif lanes.size < n_lanes:  # the caller's stack is already a copy
        atoms, rank = atoms[lanes], rank[lanes]
    b, nxt = b[lanes], nxt[lanes]
    atoms = np.ascontiguousarray(atoms)
    factors = _LaneFactors(lanes.size, width, m)
    w = np.zeros((lanes.size, m))
    sign = np.zeros_like(w)  # nonzero exactly on the support
    left = np.zeros_like(w)  # the side an atom dropped from last step
    r = b.copy()
    c = (atoms @ r[:, :, None])[:, :, 0]
    lam = np.abs(c).max(axis=1)
    # An event this close to lam = 0 is the end of the path: in exact
    # arithmetic every atom the support already spans "joins" there.
    floor = _PATH_END_RTOL * lam
    steps = 0
    while lanes.size:
        if steps == _PATH_MAX_STEPS:
            raise SolverDidNotConverge(
                f"homotopy path did not end within {_PATH_MAX_STEPS} steps"
            )
        steps += 1
        rows = np.arange(lanes.size)
        d = factors.direction()
        u = (d[:, None, :] @ atoms)[:, 0, :]
        v = (atoms @ u[:, :, None])[:, :, 0]

        # Join steps: the correlation c - gamma v reaches +(lam - gamma)
        # or -(lam - gamma).
        lam_col = lam[:, None]
        up, up_rate = lam_col - c, 1.0 - v
        down, down_rate = lam_col + c, 1.0 + v
        np.maximum(up, 0.0, out=up)
        np.maximum(down, 0.0, out=down)
        with np.errstate(divide="ignore", invalid="ignore"):
            up /= up_rate
            down /= down_rate
        np.putmask(up, ~(up_rate > _JOIN_FLOOR) | (left > 0), np.inf)
        np.putmask(down, ~(down_rate > _JOIN_FLOOR) | (left < 0), np.inf)
        join = np.minimum(up, down)
        np.putmask(join, (sign != 0) | (factors.size >= rank)[:, None], np.inf)
        new = _first_tied_min(join, rows)
        g_join = join[rows, new]
        new_sign = np.where(up[rows, new] <= down[rows, new], 1.0, -1.0)
        # Drop steps: an active code moving against its sign reaches 0.
        # They reuse the buffers of the join steps.
        rate = np.multiply(sign, d, out=up_rate)
        np.negative(rate, out=rate)
        gap = np.multiply(sign, w, out=down_rate)
        np.maximum(gap, 0.0, out=gap)
        up.fill(np.inf)
        drop = np.divide(gap, rate, out=up, where=rate > 0)
        old = _first_tied_min(drop, rows)
        g_drop = drop[rows, old]
        gamma = np.minimum(np.minimum(g_join, g_drop), lam)
        ends = lam - gamma <= floor
        gamma[ends] = lam[ends]
        dropping = ~ends & (g_drop <= g_join)
        joining = ~ends & ~dropping

        # Radii crossed on this segment, where ||r - gamma u||^2 falls to
        # end2: a lane crosses its next radii down to the last one at or
        # above end2, or all that are left when its path ends.
        tail = r - gamma[:, None] * u
        end2 = np.einsum("lp,lp->l", tail, tail)
        crossed = np.where(ends, n_radii, np.searchsorted(-eps2, -end2, side="right"))
        crossed = np.maximum(crossed - nxt, 0)
        if crossed.any():
            # The roots of ||r - gamma u||^2 = eps^2 are
            # (ru -+ sqrt(uu (eps^2 - dist2))) / uu, with dist the distance
            # from r to the line through u; dist2 is formed from vectors,
            # so a radius near the segment's closest point keeps its
            # accuracy.
            rr = np.einsum("lp,lp->l", r, r)
            ru = np.einsum("lp,lp->l", r, u)
            uu = np.einsum("lp,lp->l", u, u)
            foot = np.divide(ru, uu, out=np.zeros_like(ru), where=uu > 0)
            tail = r - foot[:, None] * u
            dist2 = np.einsum("lp,lp->l", tail, tail)
            hit = np.repeat(rows, crossed)
            k = np.arange(hit.size) + np.repeat(nxt - np.cumsum(crossed) + crossed, crossed)
            inside = end2[hit] <= eps2[k]
            over = rr[hit] - eps2[k]
            disc = uu[hit] * np.maximum(eps2[k] - dist2[hit], 0.0)
            denom = ru[hit] + np.sqrt(disc)
            root = np.divide(over, denom, out=np.zeros_like(over), where=denom > 0)
            g = np.where(inside, np.clip(root, 0.0, gamma[hit]), gamma[hit])
            out[k, lanes[hit]] = w[hit] + g[:, None] * d[hit]
            nxt += crossed

        w += gamma[:, None] * d
        lam -= gamma
        keep = nxt < n_radii
        if not keep.all():
            lanes, b, nxt, w, sign, lam, floor = (
                a[keep] for a in (lanes, b, nxt, w, sign, lam, floor))
            dropping, joining, old, new, new_sign = (
                a[keep] for a in (dropping, joining, old, new, new_sign))
            factors.keep(keep)
            if not shared:
                atoms, rank = atoms[keep], rank[keep]
        i = np.flatnonzero(joining)
        if i.size:
            factors.append(gram if shared else atoms, i, new, new_sign)
            sign[i, new[i]] = new_sign[i]
        i = np.flatnonzero(dropping)
        j = old[i]
        left = np.zeros_like(w)
        left[i, j] = sign[i, j]
        if i.size:
            factors.remove(i, j)
        w[i, j] = 0.0
        sign[i, j] = 0.0

        r = b - (w[:, None, :] @ atoms)[:, 0, :]
        c = (atoms @ r[:, :, None])[:, :, 0]
    return out


class _LaneFactors:
    """The homotopy direction of each lane, kept from step to step.

    A lane holds its support S, a factor R of the support Gram G_S with
    R G_S R^T = I (so G_S^-1 = R^T R), z = R sign_S and the direction
    d_S = R^T z, all zero-filled beyond the support. While atoms only join,
    R is the inverse Cholesky factor L^-1 of G_S.

    A join appends a row to R and an entry to z (``_row_update``, with
    p = sign), and d_S gains that entry times the row.
    A drop moves the last slot's atom into the dropped slot and re-factors
    the lane: with c the dropped atom's column of R and R' the other
    columns, the smaller Gram's inverse is R'^T (I - c c^T / ||c||^2) R'.
    The Householder reflection H that maps c onto the last slot turns
    that projector into I - e e^T, so the new R is H R' without its last
    row, z = H z without its last entry (H c sign_c falls on the last
    slot), and d_S = R^T z.

    Every product on R has the batch's width: its lanes' ranks padded to a
    multiple of ``_GRAM_PAD``, which ``bpdn`` makes equal for
    every lane of a batch. The width depends on the lane alone, so its
    codes do not depend on its batch-mates.
    """

    def __init__(self, n, width, m):
        self.m = m
        self.size = np.zeros(n, dtype=np.intp)
        # Unused slots hold the index m, past the last atom: Gram entries
        # read there meet zero columns of R, and d drops what lands there.
        self.support = np.full((n, width), m)
        self.factor = np.zeros((n, width, width))
        self.z = np.zeros((n, width))
        self.d_s = np.zeros((n, width))

    def keep(self, mask):
        for name in ("size", "support", "factor", "z", "d_s"):
            setattr(self, name, getattr(self, name)[mask])

    def direction(self):
        """The m-long direction d of every lane."""
        n = self.size.size
        d = np.zeros((n, self.m + 1))
        d[np.arange(n)[:, None], self.support] = self.d_s
        return d[:, :self.m]

    def append(self, system, lanes, new, sign):
        """Append atom ``new[l]`` of sign ``sign[l]`` to each lane l in
        ``lanes``. ``system`` is the (m+1) x (m+1) Gram of a shared system,
        padded with zeros, or every lane's own atoms, (N, m, p)."""
        n = np.arange(self.size.size)
        if system.ndim == 2:
            g_s = system.take(self.support * system.shape[1] + new[:, None])
            diag = system[new, new]
        else:
            atom = system[n, new]
            g_s = (system[n[:, None], np.minimum(self.support, self.m - 1)]
                   @ atom[:, :, None])[:, :, 0]
            diag = np.einsum("lp,lp->l", atom, atom)
        # The products run on every lane; only ``lanes`` are updated.
        row, ww, wz = _row_update(self.factor, g_s, self.z)
        part = slice(None) if lanes.size == n.size else lanes
        at = self.size[part]
        root = np.sqrt(diag[part] - ww[part])
        row = row[part]
        row /= -root[:, None]
        row[n[:lanes.size], at] = 1.0 / root
        entry = (sign[part] - wz[part]) / root
        self.factor[lanes, at] = row
        self.z[lanes, at] = entry
        self.d_s[part] += entry[:, None] * row
        self.support[lanes, at] = new[part]
        self.size[part] += 1

    def remove(self, lanes, old):
        """Remove atom ``old[i]`` from lane ``lanes[i]``, for every i."""
        n = np.arange(lanes.size)
        last = self.size[lanes] - 1
        slot = np.argmax(self.support[lanes] == old[:, None], axis=1)
        self.support[lanes, slot] = self.support[lanes, last]
        self.support[lanes, last] = self.m
        factor = self.factor[lanes]
        c = factor[n, :, slot]
        factor[n, :, slot] = factor[n, :, last]
        factor[n, :, last] = 0.0
        top = c[n, last]
        c[n, last] = top + np.copysign(np.sqrt(np.einsum("lk,lk->l", c, c)), top)
        scale = 2.0 / np.einsum("lk,lk->l", c, c)
        factor -= (scale[:, None] * c)[:, :, None] * (c[:, None, :] @ factor)
        factor[n, last] = 0.0
        z = self.z[lanes]
        z -= (scale * np.einsum("lk,lk->l", c, z))[:, None] * c
        z[n, last] = 0.0
        self.factor[lanes] = factor
        self.z[lanes] = z
        self.d_s[lanes] = (z[:, None, :] @ factor)[:, 0]
        self.size[lanes] = last

"""Dense linear-algebra substrate.

Factorization-backed pseudo-inverse, the eigenpairs of a
symmetric-definite pencil, a symmetric Sylvester solver working from
eigenpairs (the Parseval dictionary updates run on it), and a general
Sylvester solver by vec/Kronecker least squares, the reference the eigen
route is checked against.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BadShape, NearSingularSylvester, SingularMetric, TooLarge

# Singular values below RCOND * sigma_max are treated as zero.
RCOND = 1e-12

# Relative residual allowed for a successful Sylvester solve.
SYLVESTER_RESIDUAL_TOL = 1e-9

# Condition estimate above which the Sylvester operator counts as singular.
SYLVESTER_COND_LIMIT = 1e12

# Unknowns n*m above which ``solve_sylvester`` raises ``TooLarge``: its
# vec form is an (n*m) x (n*m) operator, 8 MiB at this limit.
SYLVESTER_MAX_UNKNOWNS = 1024


def as_matrix(a, name="matrix"):
    """Validate and return ``a`` as a 2-D float64 array.

    Requires at least one row and one column and all entries finite.
    """
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise BadShape(f"{name} must be 2-D and non-empty, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise BadShape(f"{name} contains non-finite entries")
    return m


def pseudo_inverse(mat):
    """Moore-Penrose pseudo-inverse with singular values below
    ``RCOND * sigma_max`` truncated."""
    m = as_matrix(mat)
    return np.linalg.pinv(m, rcond=RCOND)


def _spectral_condition(eva, evb):
    """Condition estimate of I (x) A + B^T (x) I from the spectra of A and B.

    The operator's eigenvalues are all pairwise sums of the eigenvalues of
    A and B; their max/min modulus ratio estimates the condition number
    without forming the nm x nm system.
    """
    sums = np.abs(eva[:, None] + evb[None, :])
    smallest = sums.min()
    if smallest == 0.0:
        return np.inf
    return sums.max() / smallest


def _sylvester_condition_estimate(a, b):
    """``_spectral_condition`` of the eigenvalues of the matrices ``a`` and ``b``."""
    return _spectral_condition(np.linalg.eigvals(a), np.linalg.eigvals(b))


def _check_condition(cond):
    if not np.isfinite(cond) or cond > SYLVESTER_COND_LIMIT:
        raise NearSingularSylvester(
            f"spectra of A and -B nearly overlap (condition estimate {cond:.3e})"
        )


def _frobenius(x):
    """Frobenius norm of ``x``, scaled by its largest entry so that the
    squares cannot overflow; inf or NaN when ``x`` holds one. A plain norm
    between 1e-100 and inf is kept: its squares neither overflowed nor
    lost more than rounding to underflow. The plain norm overflows on huge
    entries, so callers run this with overflow warnings off."""
    norm = math.sqrt(np.vdot(x, x))  # np.linalg.norm's sum, at less call cost
    if 1e-100 < norm < np.inf:
        return norm
    scale = np.abs(x).max()
    if not 0.0 < scale < np.inf:
        return scale
    return scale * np.linalg.norm(x / scale)


def check_sylvester_residual(residual, c, *terms):
    """Raise ``NearSingularSylvester`` unless ``residual``, the matrix left
    over by a Sylvester solve, is finite and the solve's normwise backward
    error (Higham 2002, "Accuracy and Stability of Numerical Algorithms",
    16.2) is at most ``SYLVESTER_RESIDUAL_TOL``.

    ``c`` is the solved form's right-hand side and each of ``terms`` the
    factors of one term on its left: (A, beta) and (beta, B) for
    A @ beta + beta @ B = C, (A, beta, G) and (beta, M) for
    A @ beta @ G + beta @ M = K. The bound, the tolerance times ||C|| plus
    each term's product of norms (Frobenius, formed without overflow),
    scales with the system: a zero solution of a nonzero C fails at any
    scale.
    """
    with np.errstate(over="ignore"):
        scale = _frobenius(c) + sum(math.prod(map(_frobenius, term)) for term in terms)
        residual = _frobenius(residual)
    if not (np.isfinite(residual) and residual <= SYLVESTER_RESIDUAL_TOL * scale):
        raise NearSingularSylvester(
            f"solution residual {residual:.3e} exceeds tolerance; "
            "spectra of A and -B likely overlap"
        )


def generalized_eigh(m, g):
    """Eigenpairs (lam, V) of the pencil (M, G): M V = G V diag(lam) with
    V^T G V = I, for symmetric positive definite M and G.

    With M = L L^T, one ``eigh`` of L^-1 G L^-T gives nu = 1/lam;
    factoring M, not G, keeps the result accurate for an ill-conditioned G
    such as a ridged code Gram with an unused atom. M and G positive
    definite give every nu > 0; when one is not, or a factorization fails,
    ``np.linalg.LinAlgError`` names G if G's own Cholesky fails, and
    ``SingularMetric`` names M otherwise.
    """
    try:
        chol_inv = np.linalg.inv(np.linalg.cholesky(m))
        nu, w = np.linalg.eigh(chol_inv @ g @ chol_inv.T)
    except np.linalg.LinAlgError:
        nu = np.zeros(1)
    if not nu[0] > 0.0:
        np.linalg.cholesky(g)  # raises when G is not positive definite
        raise SingularMetric("M is numerically singular while G is positive definite")
    return 1.0 / nu, (chol_inv.T @ w) / np.sqrt(nu)


def solve_sylvester_eig(a_eig, b_eig, k):
    """Solve A @ beta @ G + beta @ M = K from eigenpairs.

    ``a_eig = (sigma, U)`` is ``np.linalg.eigh(A)`` of a symmetric A.
    ``b_eig = (lam, V)`` is ``generalized_eigh(M, G)``, or
    ``np.linalg.eigh(M)`` when G = I. This is the Sylvester equation with
    B = M G^-1 (spectrum lam) and C = K G^-1, and
    beta = U [(U^T K V) / (sigma_i + lam_j)] V^T.

    Raises ``NearSingularSylvester`` when the condition estimate from
    sigma and lam exceeds ``SYLVESTER_COND_LIMIT``; the residual check of
    the stated system is the caller's (``check_sylvester_residual``).
    """
    sigma, u = a_eig
    lam, v = b_eig
    _check_condition(_spectral_condition(sigma, lam))
    return u @ (((u.T @ k) @ v) / (sigma[:, None] + lam)) @ v.T


def solve_sylvester(a, b, c):
    """Solve A @ beta + beta @ B = C for beta.

    Assembles (I (x) A + B^T (x) I) vec(beta) = vec(C) and solves it by
    least squares. Raises ``TooLarge`` when n*m exceeds
    ``SYLVESTER_MAX_UNKNOWNS``, before forming anything, and
    ``NearSingularSylvester`` when the operator's condition estimate
    exceeds ``SYLVESTER_COND_LIMIT`` or the solution fails
    ``check_sylvester_residual`` with the terms (A, beta) and (beta, B).
    """
    a = as_matrix(a, "A")
    b = as_matrix(b, "B")
    c = as_matrix(c, "C")
    n = a.shape[0]
    m = b.shape[0]
    if a.shape != (n, n) or b.shape != (m, m):
        raise BadShape("A and B must be square")
    if c.shape != (n, m):
        raise BadShape(f"C must be {n}x{m}, got {c.shape}")
    if n * m > SYLVESTER_MAX_UNKNOWNS:
        raise TooLarge(f"Sylvester solve limited to n*m <= {SYLVESTER_MAX_UNKNOWNS}, "
                       f"got {n}*{m}")

    _check_condition(_sylvester_condition_estimate(a, b))
    op = np.kron(np.eye(m), a) + np.kron(b.T, np.eye(n))
    sol, *_ = np.linalg.lstsq(op, c.reshape(-1, order="F"), rcond=None)
    beta = sol.reshape((n, m), order="F")
    check_sylvester_residual(a @ beta + beta @ b - c, c, (a, beta), (beta, b))
    return beta

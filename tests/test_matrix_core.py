import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pksvd.errors import BadShape, NearSingularSylvester, TooLarge
from pksvd.matrix_core import (
    SYLVESTER_MAX_UNKNOWNS,
    check_sylvester_residual,
    generalized_eigh,
    kron,
    pseudo_inverse,
    solve_sylvester,
    solve_sylvester_eig,
)

# Few, reproducible examples: each draws a seed and small sizes.
PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)
SEEDS = st.integers(0, 2**32 - 1)
SIZES = st.integers(1, 6)


def random_spd(rng, n, shift=0.5):
    a = rng.standard_normal((n, n))
    return a @ a.T + shift * np.eye(n)


class TestPseudoInverse:
    def test_identity(self):
        assert np.allclose(pseudo_inverse(np.eye(3)), np.eye(3), atol=1e-12)

    def test_diagonal(self):
        got = pseudo_inverse(np.diag([2.0, 4.0]))
        assert np.allclose(got, np.diag([0.5, 0.25]), atol=1e-12)

    def test_moore_penrose_identities_full_rank(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((3, 5))
        p = pseudo_inverse(m)
        scale = np.linalg.norm(m)
        assert np.linalg.norm(m @ p @ m - m) <= 1e-10 * scale
        assert np.linalg.norm(p @ m @ p - p) <= 1e-10 * scale
        assert np.linalg.norm((m @ p).T - m @ p) <= 1e-10
        assert np.linalg.norm((p @ m).T - p @ m) <= 1e-10

    def test_moore_penrose_identities_rank_deficient(self):
        rng = np.random.default_rng(1)
        base = rng.standard_normal((4, 2))
        m = base @ rng.standard_normal((2, 6))
        p = pseudo_inverse(m)
        scale = max(1.0, np.linalg.norm(m))
        assert np.linalg.norm(m @ p @ m - m) <= 1e-10 * scale
        assert np.linalg.norm(p @ m @ p - p) <= 1e-10 * scale

    def test_rejects_nonfinite(self):
        with pytest.raises(BadShape):
            pseudo_inverse(np.array([[np.nan, 1.0]]))


class TestKron:
    def test_identity(self):
        assert np.array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_hand_expansion(self):
        got = kron(np.array([[1.0, 2.0]]), np.array([[3.0], [4.0]]))
        assert np.array_equal(got, np.array([[3.0, 6.0], [4.0, 8.0]]))

    def test_vec_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            a = rng.standard_normal((2, 2))
            b = rng.standard_normal((2, 2))
            beta = rng.standard_normal((2, 2))
            lhs = kron(a, b) @ beta.reshape(-1, order="F")
            rhs = (b @ beta @ a.T).reshape(-1, order="F")
            assert np.allclose(lhs, rhs, atol=1e-12)

    def test_mixed_product(self):
        rng = np.random.default_rng(3)
        a, c = rng.standard_normal((2, 3)), rng.standard_normal((3, 2))
        b, d = rng.standard_normal((3, 2)), rng.standard_normal((2, 3))
        assert np.allclose(
            kron(a, b) @ kron(c, d), kron(a @ c, b @ d), atol=1e-12
        )

    def test_matches_numpy(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((2, 5))
        assert np.allclose(kron(a, b), np.kron(a, b), atol=1e-14)


class TestSolveSylvester:
    def test_scalar_multiple_case(self):
        beta = solve_sylvester(np.eye(2), np.eye(2), 2.0 * np.eye(2))
        assert np.allclose(beta, np.eye(2), atol=1e-12)

    def test_diagonal_closed_form(self):
        a = np.diag([1.0, 2.0])
        b = np.diag([3.0, 4.0])
        c = np.ones((2, 2))
        expected = np.array([[1 / 4, 1 / 5], [1 / 5, 1 / 6]])
        assert np.allclose(solve_sylvester(a, b, c), expected, atol=1e-12)

    def test_residual_bound(self):
        rng = np.random.default_rng(7)
        for trial in range(20):
            n, m = rng.integers(2, 6), rng.integers(2, 6)
            a = random_spd(rng, n)
            b = random_spd(rng, m)
            c = rng.standard_normal((n, m))
            beta = solve_sylvester(a, b, c)
            resid = np.linalg.norm(a @ beta + beta @ b - c)
            assert resid <= 1e-9 * max(1.0, np.linalg.norm(c))

    def test_overlapping_spectra_rejected(self):
        a = np.diag([1.0, 2.0])
        b = np.diag([-1.0, 5.0])  # a_1 + b_1 = 0
        with pytest.raises(NearSingularSylvester):
            solve_sylvester(a, b, np.ones((2, 2)))

    def test_shape_validation(self):
        with pytest.raises(BadShape):
            solve_sylvester(np.eye(2), np.eye(3), np.ones((3, 2)))

    @pytest.mark.parametrize("n,m", [(33, 32), (32, 33)])
    def test_too_large_fails_before_allocating(self, n, m):
        # The operator would hold (n m)^2 doubles, 8.5 MiB; the inputs are small.
        assert n * m > SYLVESTER_MAX_UNKNOWNS
        a, b, c = np.eye(n), np.eye(m), np.ones((n, m))
        tracemalloc.start()
        try:
            with pytest.raises(TooLarge, match=f"n\\*m <= {SYLVESTER_MAX_UNKNOWNS}"):
                solve_sylvester(a, b, c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024


class TestCheckSylvesterResidual:
    def test_huge_entries_are_checked_without_overflow(self):
        # ||C||^2 overflows from about 1e154 per entry; the check still
        # tells a small relative residual from a large one.
        c = np.full((4, 4), 1e200)
        check_sylvester_residual(1e-12 * c, c)
        with pytest.raises(NearSingularSylvester):
            check_sylvester_residual(1e-6 * c, c)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_residual_fails(self, bad):
        residual = np.zeros((2, 3))
        residual[1, 2] = bad
        for c in (np.ones((2, 3)), np.full((2, 3), np.inf)):
            with pytest.raises(NearSingularSylvester):
                check_sylvester_residual(residual, c)

    def test_zero_residual_passes(self):
        check_sylvester_residual(np.zeros((2, 2)), np.zeros((2, 2)))


class TestSylvesterProperties:
    """Seeded, well-conditioned systems: the eigen route gives the
    Kronecker reference's answer."""

    @PROPERTY
    @given(SEEDS, SIZES, SIZES)
    def test_eig_matches_kron_on_symmetric_systems(self, seed, n, m):
        rng = np.random.default_rng(seed)
        a = random_spd(rng, n)
        b = random_spd(rng, m)
        c = rng.standard_normal((n, m))
        got = solve_sylvester_eig(np.linalg.eigh(a), np.linalg.eigh(b), c)
        ref = solve_sylvester(a, b, c)
        assert np.linalg.norm(got - ref) <= 1e-9 * np.linalg.norm(ref)

    @PROPERTY
    @given(SEEDS, SIZES, SIZES)
    def test_eig_matches_kron_on_pencil_systems(self, seed, n, m):
        # A beta G + beta M = K is A beta + beta (M G^-1) = K G^-1.
        rng = np.random.default_rng(seed)
        a = random_spd(rng, n)
        metric = random_spd(rng, m)
        gram = random_spd(rng, m)
        k = rng.standard_normal((n, m))
        got = solve_sylvester_eig(np.linalg.eigh(a), generalized_eigh(metric, gram), k)
        gram_inv = np.linalg.inv(gram)
        ref = solve_sylvester(a, metric @ gram_inv, k @ gram_inv)
        assert np.linalg.norm(got - ref) <= 1e-8 * np.linalg.norm(ref)


class TestGeneralizedEigh:
    @pytest.mark.parametrize("m", [1, 3, 8])
    def test_pencil_identities(self, m):
        rng = np.random.default_rng(m)
        metric = random_spd(rng, m)
        gram = random_spd(rng, m, shift=1e-6)
        lam, v = generalized_eigh(metric, gram)
        assert np.allclose(v.T @ gram @ v, np.eye(m), atol=1e-9)
        assert np.allclose(metric @ v, gram @ v * lam, rtol=1e-9, atol=1e-9 * lam.max())

    def test_identity_gram_is_eigh(self):
        rng = np.random.default_rng(5)
        metric = random_spd(rng, 4)
        lam, v = generalized_eigh(metric, np.eye(4))
        assert np.allclose(np.sort(lam), np.linalg.eigvalsh(metric), rtol=1e-12)
        assert np.allclose(v @ v.T, np.eye(4), atol=1e-12)

    @pytest.mark.parametrize("gram", [np.zeros((3, 3)), -np.eye(3),
                                      np.diag([1.0, 0.0, 1.0])])
    def test_rejects_gram_that_is_not_definite(self, gram):
        with pytest.raises(np.linalg.LinAlgError):
            generalized_eigh(np.eye(3), gram)


class TestSolveSylvesterEig:
    def test_overlapping_spectra_rejected(self):
        a_eig = (np.array([1.0, 2.0]), np.eye(2))
        b_eig = (np.array([-1.0, 5.0]), np.eye(2))  # sigma_1 + lam_1 = 0
        with pytest.raises(NearSingularSylvester, match="condition estimate"):
            solve_sylvester_eig(a_eig, b_eig, np.ones((2, 2)))

    def test_diagonal_closed_form(self):
        a_eig = (np.array([1.0, 2.0]), np.eye(2))
        b_eig = (np.array([3.0, 4.0]), np.eye(2))
        expected = np.array([[1 / 4, 1 / 5], [1 / 5, 1 / 6]])
        got = solve_sylvester_eig(a_eig, b_eig, np.ones((2, 2)))
        assert np.allclose(got, expected, atol=1e-15)

import numpy as np
import pytest
from workloads import self_dual_pair

from pksvd.errors import BadShape, RankDeficient, UniqueDual
from pksvd.frames import (
    Dictionary,
    atom_distance_histogram,
    canonical_dual,
    dct_dictionary,
    frame_bounds,
    is_parseval,
    parseval_residual,
    random_dual,
)


def random_frame(rng, n, m):
    return Dictionary(rng.standard_normal((n, m)))


def frame_with_singular_values(seed, svals, m):
    """A len(svals) x m frame U diag(svals) V^T with seeded orthonormal U, V."""
    rng = np.random.default_rng(seed)
    n = len(svals)
    u, _ = np.linalg.qr(rng.standard_normal((n, n)))
    v, _ = np.linalg.qr(rng.standard_normal((m, n)))
    return Dictionary(u @ np.diag(svals) @ v.T)


class TestDictionary:
    def test_rejects_wide_constraint(self):
        with pytest.raises(BadShape):
            Dictionary(np.ones((4, 2)))

    def test_rejects_rank_deficient(self):
        mat = np.ones((3, 5))
        with pytest.raises(RankDeficient):
            Dictionary(mat)

    def test_properties(self):
        d = Dictionary(np.eye(3))
        assert d.n == 3 and d.m == 3


class TestFrameBounds:
    def test_identity(self):
        fb = frame_bounds(Dictionary(np.eye(4)))
        assert fb.lower == pytest.approx(1.0) and fb.upper == pytest.approx(1.0)

    def test_two_orthonormal_copies(self):
        d = Dictionary(np.hstack([np.eye(2), np.eye(2)]))
        fb = frame_bounds(d)
        assert fb.lower == pytest.approx(2.0) and fb.upper == pytest.approx(2.0)

    def test_monte_carlo_extremes(self):
        rng = np.random.default_rng(0)
        d = random_frame(rng, 4, 8)
        fb = frame_bounds(d)
        f = rng.standard_normal((4, 10000))
        f /= np.linalg.norm(f, axis=0, keepdims=True)
        vals = np.linalg.norm(d.mat.T @ f, axis=0) ** 2
        assert vals.min() >= fb.lower - 1e-9 and vals.max() <= fb.upper + 1e-9
        assert vals.min() <= fb.lower * 1.02
        assert vals.max() >= fb.upper * 0.98

    def test_parseval_bounds_are_one(self):
        q, _ = np.linalg.qr(np.random.default_rng(1).standard_normal((6, 3)))
        d = Dictionary(q.T)  # 3x6 with orthonormal rows
        fb = frame_bounds(d)
        assert abs(fb.lower - 1.0) <= 1e-9 and abs(fb.upper - 1.0) <= 1e-9

    @pytest.mark.parametrize("seed", range(20))
    def test_ill_conditioned_bounds_are_accurate(self, seed):
        """Singular values [1, 1, 1, 1e-5]: the eigenvalues of mat @ mat.T
        lose the lower bound to about 1e-6 relative, its squared singular
        value keeps it."""
        fb = frame_bounds(frame_with_singular_values(seed, [1.0, 1.0, 1.0, 1e-5], 6))
        assert fb.lower == pytest.approx(1e-10, rel=1e-9, abs=0.0)
        assert fb.upper == pytest.approx(1.0, rel=1e-12)


class TestFactorizationCount:
    """Each dual factors ``mat`` no more often than it needs: the canonical
    dual once for itself and once for its ``Dictionary``'s rank check, the
    random dual once more for its null space and once for its result."""

    @pytest.fixture
    def spy(self, monkeypatch):
        calls = {"svd": 0, "eigvalsh": 0}
        for name in calls:
            real = getattr(np.linalg, name)

            def counted(*args, _name=name, _real=real, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        return calls

    @pytest.mark.parametrize("fn,svds", [
        (canonical_dual, 2),
        (lambda d: random_dual(d, seed=0), 4),
        (frame_bounds, 0),
    ], ids=["canonical_dual", "random_dual", "frame_bounds"])
    def test_calls(self, spy, fn, svds):
        d = random_frame(np.random.default_rng(12), 3, 6)
        spy.update(svd=0, eigvalsh=0)
        fn(d)
        assert spy == {"svd": svds, "eigvalsh": 0}


class TestCanonicalDual:
    def test_parseval_self_dual(self):
        q, _ = np.linalg.qr(np.random.default_rng(2).standard_normal((6, 3)))
        d = Dictionary(q.T)
        assert np.allclose(canonical_dual(d).mat, d.mat, atol=1e-10)

    def test_square_inverse_transpose(self):
        rng = np.random.default_rng(3)
        mat = rng.standard_normal((4, 4)) + 4 * np.eye(4)
        d = Dictionary(mat)
        assert np.allclose(canonical_dual(d).mat, np.linalg.inv(mat).T, atol=1e-10)

    def test_reciprocal_bounds(self):
        rng = np.random.default_rng(4)
        d = random_frame(rng, 3, 6)
        fb = frame_bounds(d)
        fb_dual = frame_bounds(canonical_dual(d))
        assert fb_dual.lower == pytest.approx(1.0 / fb.upper, abs=1e-9)
        assert fb_dual.upper == pytest.approx(1.0 / fb.lower, abs=1e-9)

    def test_perfect_reconstruction(self):
        rng = np.random.default_rng(5)
        d = random_frame(rng, 3, 6)
        dual = canonical_dual(d)
        assert np.linalg.norm(d.mat @ dual.mat.T - np.eye(3)) <= 1e-10

    def test_kernel_is_orthogonal_projection(self):
        rng = np.random.default_rng(6)
        d = random_frame(rng, 3, 6)
        k = canonical_dual(d).mat.T @ d.mat
        assert np.linalg.norm(k @ k - k) <= 1e-10
        assert np.linalg.norm(k.T - k) <= 1e-10

    def test_involution(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            d = random_frame(rng, 3, 7)
            again = canonical_dual(canonical_dual(d))
            assert np.linalg.norm(again.mat - d.mat) <= 1e-8

    def test_ill_conditioned_frame_stays_dual(self):
        """Singular values [1, 1, 1, 1e-5] pass the rank rule; the normal
        equations (mat mat^T)^-1 mat square the condition number to 1e10
        and leave ||mat dual^T - I||_F near 1e-6."""
        rng = np.random.default_rng(7)
        u, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        v, _ = np.linalg.qr(rng.standard_normal((6, 4)))
        d = Dictionary(u @ np.diag([1.0, 1.0, 1.0, 1e-5]) @ v.T)
        dual = canonical_dual(d)
        assert np.linalg.norm(d.mat @ dual.mat.T - np.eye(4)) <= 1e-10


class TestNearSingularFrame:
    """Singular values [1, 1, 1, 1e-8] pass the Dictionary floor (1e-10 of
    sigma_max), but the frame operator's eigenvalue ratio 1e-16 is below
    the 1e-12 rank rule."""

    @pytest.mark.parametrize("fn", [frame_bounds, canonical_dual])
    def test_rank_deficient(self, fn):
        rng = np.random.default_rng(7)
        u, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        v, _ = np.linalg.qr(rng.standard_normal((6, 4)))
        d = Dictionary(u @ np.diag([1.0, 1.0, 1.0, 1e-8]) @ v.T)
        with pytest.raises(RankDeficient, match="numerically zero"):
            fn(d)


class TestRandomDual:
    def test_duality(self):
        rng = np.random.default_rng(8)
        d = random_frame(rng, 3, 6)
        dual = random_dual(d, seed=0)
        assert np.linalg.norm(d.mat @ dual.mat.T - np.eye(3)) <= 1e-10

    def test_convex_combination_is_dual(self):
        rng = np.random.default_rng(9)
        d = random_frame(rng, 3, 6)
        a = random_dual(d, seed=1).mat
        b = random_dual(d, seed=2).mat
        mix = 0.5 * a + 0.5 * b
        assert np.linalg.norm(d.mat @ mix.T - np.eye(3)) <= 1e-10

    def test_seeds_differ(self):
        rng = np.random.default_rng(10)
        d = random_frame(rng, 3, 6)
        a = random_dual(d, seed=1).mat
        b = random_dual(d, seed=2).mat
        assert np.linalg.norm(a - b) > 1e-3

    def test_square_has_unique_dual(self):
        with pytest.raises(UniqueDual):
            random_dual(Dictionary(np.eye(3)), seed=0)

    def test_kernel_idempotent_but_not_symmetric(self):
        rng = np.random.default_rng(11)
        d = random_frame(rng, 3, 6)
        k = random_dual(d, seed=3).mat.T @ d.mat
        assert np.linalg.norm(k @ k - k) <= 1e-8
        assert np.linalg.norm(k.T - k) > 1e-3


class TestIsParseval:
    def test_identity_true(self):
        assert is_parseval(Dictionary(np.eye(4)), tol=1e-10)

    def test_scaled_identity_false(self):
        assert not is_parseval(Dictionary(2.0 * np.eye(4)), tol=1e-10)

    def test_residual_of_random_frames(self):
        rng = np.random.default_rng(13)
        for n, m in ((2, 2), (3, 6), (4, 9), (8, 16)):
            d = random_frame(rng, n, m)
            direct = np.linalg.norm(d.mat @ d.mat.T - np.eye(n))
            assert parseval_residual(d) == pytest.approx(direct, rel=1e-12)

    @pytest.mark.parametrize("n,m", [(16, 32), (64, 256)])
    def test_residual_of_parseval_pair(self, n, m):
        """A Parseval frame's residual is rounding: both forms agree to
        1e-12 of the frame operator's norm, and both are near zero."""
        d = Dictionary(self_dual_pair(dct_dictionary(n, m).mat))
        gram = d.mat @ d.mat.T
        direct = np.linalg.norm(gram - np.eye(n))
        assert abs(parseval_residual(d) - direct) <= 1e-12 * np.linalg.norm(gram)
        assert parseval_residual(d) <= 1e-12 and is_parseval(d, tol=1e-12)

    def test_dct_dictionary_not_parseval(self):
        d = dct_dictionary(64, 256)
        gap = np.linalg.norm(d.mat @ d.mat.T - np.eye(64))
        assert gap > 1e-6
        assert not is_parseval(d, tol=1e-6)


class TestOvercompleteDct:
    def test_complete_case_orthogonal(self):
        d = dct_dictionary(4, 4)
        gram = d.mat.T @ d.mat
        assert np.allclose(np.abs(gram), np.eye(4), atol=1e-10)

    def test_unit_atom_norms(self):
        d = dct_dictionary(64, 256)
        norms = np.linalg.norm(d.mat, axis=0)
        assert np.allclose(norms, 1.0, atol=1e-12)

    def test_dc_atom(self):
        for n, m in ((4, 16), (16, 64), (64, 256)):
            d = dct_dictionary(n, m)
            assert np.allclose(d.mat[:, 0], 1.0 / np.sqrt(n), atol=1e-12)

    def test_rejects_non_squares(self):
        with pytest.raises(BadShape, match="n must be a perfect square, got n=15$"):
            dct_dictionary(15, 64)

    def test_truncated_variant(self):
        d = dct_dictionary(16, 32)
        assert d.mat.shape == (16, 32)
        assert np.allclose(np.linalg.norm(d.mat, axis=0), 1.0, atol=1e-12)
        # The first m atoms of the next square grid, 6 x 6 for m = 32.
        assert np.array_equal(d.mat, dct_dictionary(16, 36).mat[:, :32])

    @pytest.mark.parametrize("m", [8, 9, 15])
    def test_too_few_atoms_named_as_requested(self, m):
        with pytest.raises(BadShape, match=f"got n=16, m={m}$"):
            dct_dictionary(16, m)


class TestAtomDistanceHistogram:
    def test_self_match_all_zero(self):
        d = dct_dictionary(16, 64)
        counts, edges = atom_distance_histogram(d, d, bins=10)
        assert counts[0] == 64 and counts[1:].sum() == 0
        assert edges[0] == 0.0 and edges[-1] == 1.0

    def test_permutation_invariance(self):
        d = Dictionary(np.eye(2))
        e = Dictionary(np.eye(2)[:, ::-1])
        counts, _ = atom_distance_histogram(d, e, bins=4)
        assert counts[0] == 2

    def test_rotated_basis_distance(self):
        c = np.cos(np.pi / 4)
        rot = np.array([[c, -c], [c, c]])
        counts, edges = atom_distance_histogram(
            Dictionary(rot), Dictionary(np.eye(2)), bins=100
        )
        expected = 1.0 - c
        bin_idx = np.flatnonzero(counts)
        assert len(bin_idx) == 1
        assert edges[bin_idx[0]] <= expected <= edges[bin_idx[0] + 1]

    def test_rejects_unnormalized(self):
        with pytest.raises(BadShape):
            atom_distance_histogram(
                Dictionary(2 * np.eye(2)), Dictionary(np.eye(2)), bins=4
            )

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(BadShape, match="dimension mismatch: 2 vs 3"):
            atom_distance_histogram(Dictionary(np.eye(2)), Dictionary(np.eye(3)), bins=4)

from itertools import combinations

import numpy as np
import pytest

from pksvd import theory_lab
from pksvd.errors import NoViolationFound, NotGeneralPosition, TooLarge
from pksvd.frames import Dictionary, canonical_dual, random_dual
from pksvd.theory_lab import (
    ProxyTrial,
    bp_bruteforce_oracle,
    cosparsity_floor_check,
    min_norm_codes,
    nonexistence_search,
    projection_identity_check,
    proxy_trial,
    random_general_position_frame,
    spark,
)


class TestSpark:
    def test_identity_full_rank(self):
        assert spark(Dictionary(np.eye(3))) == 4

    def test_dependent_triple(self):
        mat = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
        assert spark(Dictionary(mat)) == 3

    def test_parallel_pair(self):
        mat = np.array([[1.0, 2.0, 0.0], [0.0, 0.0, 1.0]])
        assert spark(Dictionary(mat)) == 2

    def test_too_large(self):
        rng = np.random.default_rng(0)
        with pytest.raises(TooLarge):
            spark(Dictionary(rng.standard_normal((3, 15))))


def split_lp_oracle(d, x):
    """Reference l1 optimum from the split LP min 1.v s.t. [D | -D] v = x,
    v >= 0: every vertex is supported on n independent split columns, so
    the best of all n-subsets of the 2m columns is the optimum."""
    a = d.mat
    n, m = a.shape
    split = np.hstack([a, -a])
    best_u = None
    best_obj = np.inf
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
    return best_u


def l1(u):
    return float(np.abs(u).sum())


class TestBruteforceOracle:
    def test_identity(self):
        u = bp_bruteforce_oracle(Dictionary(np.eye(2)), np.array([1.0, 1.0]))
        assert np.allclose(u, [1.0, 1.0], atol=1e-12)
        assert l1(u) == pytest.approx(2.0)

    def test_prefers_shared_atom(self):
        mat = np.hstack([np.eye(2), np.array([[1.0], [1.0]]) / np.sqrt(2)])
        u = bp_bruteforce_oracle(Dictionary(mat), np.array([1.0, 1.0]))
        assert np.allclose(u, [0.0, 0.0, np.sqrt(2)], atol=1e-12)
        assert l1(u) == pytest.approx(np.sqrt(2))

    def test_zero_signal(self):
        u = bp_bruteforce_oracle(Dictionary(np.eye(3)), np.zeros(3))
        assert np.array_equal(u, np.zeros(3))

    def test_too_large(self):
        rng = np.random.default_rng(3)
        with pytest.raises(TooLarge, match="oracle limited to m <= 12, got m=13"):
            bp_bruteforce_oracle(Dictionary(rng.standard_normal((3, 13))), np.ones(3))

    def test_signal_length_mismatch(self):
        with pytest.raises(ValueError, match="signal length 2 does not match dictionary rows 3"):
            bp_bruteforce_oracle(Dictionary(np.eye(3)), np.ones(2))

    def test_no_independent_basis(self):
        # A frame by Dictionary's relative floor (1e-12 > 1e-10 * 1e-3),
        # but its only basis fails the subset test, whose floor is
        # 1e-10 * max(sigma_max, 1).
        d = Dictionary(np.diag([1e-3, 1e-12]))
        with pytest.raises(ValueError, match="no n atoms form an independent basis"):
            bp_bruteforce_oracle(d, np.ones(2))

    def test_matches_split_lp_reference(self):
        # 100 seeded frames from 2x3 to 4x12: the atom bases give the
        # split LP's codes and l1 to rounding.
        cases = [(n, m, seed) for n, m in ((2, 3), (2, 5), (2, 8), (3, 4), (3, 6),
                                          (3, 9), (4, 5), (4, 8))
                 for seed in range(12)] + [(4, 12, seed) for seed in range(4)]
        for n, m, seed in cases:
            rng = np.random.default_rng([n, m, seed])
            d = Dictionary(rng.standard_normal((n, m)))
            x = rng.standard_normal(n)
            got = bp_bruteforce_oracle(d, x)
            ref = split_lp_oracle(d, x)
            assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref), (n, m, seed)
            assert l1(got) == pytest.approx(l1(ref), rel=1e-12, abs=0), (n, m, seed)


class TestCosparsityFloor:
    def test_square_orthonormal_reaches_one(self):
        # for m = n the floor is 1 and the adversarial signals reach it
        d = Dictionary(np.eye(3))
        got = cosparsity_floor_check(d, trials=50, seed=0)
        assert got >= 1

    def test_floor_on_random_frame(self):
        d = random_general_position_frame(3, 5, np.random.default_rng(1))
        got = cosparsity_floor_check(d, trials=1000, seed=2)
        assert got >= 3  # m - n + 1

    def test_floor_is_attained(self):
        # the adversarial construction should touch the bound exactly
        d = random_general_position_frame(3, 5, np.random.default_rng(3))
        got = cosparsity_floor_check(d, trials=200, seed=4)
        assert got == 3

    def test_not_general_position_rejected(self):
        mat = np.array([[1.0, 0.0, 1.0, 0.5], [0.0, 1.0, 1.0, 0.5],
                        [0.0, 0.0, 0.0, 1.0]])
        # columns 0, 1, 2 are linearly dependent in the first two coords?
        # build an explicit dependency: third column = first + second
        mat[:, 2] = mat[:, 0] + mat[:, 1]
        with pytest.raises(NotGeneralPosition):
            cosparsity_floor_check(Dictionary(mat), trials=10, seed=0)

    def test_failing_spark_computed_once(self, monkeypatch):
        calls = []

        def counted(d):
            calls.append(d)
            return spark(d)

        monkeypatch.setattr(theory_lab, "spark", counted)
        mat = np.array([[1.0, 0.0, 1.0, 0.5], [0.0, 1.0, 1.0, 0.5],
                        [0.0, 0.0, 0.0, 1.0]])
        with pytest.raises(NotGeneralPosition,
                           match=r"spark is 3, need n \+ 1 = 4 for general position"):
            cosparsity_floor_check(Dictionary(mat), trials=10, seed=0)
        assert len(calls) == 1

    def test_spark_passing_frame_below_the_floor_rejected(self):
        # Atoms 0 and 1 are 1e-8 apart: above the spark test's 1e-10, so
        # the frame is in general position by its spark, but a signal
        # orthogonal to one of them meets the other below the zero threshold.
        t = 1e-8
        d = Dictionary(np.array([[1.0, np.cos(t), 0.0], [0.0, np.sin(t), 1.0]]))
        assert spark(d) == 3
        with pytest.raises(NotGeneralPosition, match="support 1 below the floor 2"):
            cosparsity_floor_check(d, trials=10, seed=0)


class TestProxyTrial:
    def test_canonical_never_worse_than_sampled_duals(self):
        rng = np.random.default_rng(5)
        for seed in range(20):
            d = random_general_position_frame(3, 6, np.random.default_rng(100 + seed))
            x = rng.standard_normal(3)
            trial = proxy_trial(d, x, n_alt_duals=10, seed=seed)
            for dist in trial.alt_dual_distances:
                assert trial.canonical_distance <= dist + 1e-9

    def test_canonical_codes_equal_min_norm(self):
        rng = np.random.default_rng(6)
        for seed in range(20):
            d = random_general_position_frame(3, 6, np.random.default_rng(200 + seed))
            x = rng.standard_normal(3)
            trial = proxy_trial(d, x, n_alt_duals=1, seed=seed)
            assert np.linalg.norm(
                trial.canonical_codes - min_norm_codes(d, x)
            ) <= 1e-10

    def test_square_frame_codes_coincide(self):
        rng = np.random.default_rng(7)
        mat = rng.standard_normal((3, 3)) + 3 * np.eye(3)
        d = Dictionary(mat)
        x = rng.standard_normal(3)
        trial = proxy_trial(d, x, n_alt_duals=0, seed=0)
        assert np.linalg.norm(trial.l1_codes - trial.canonical_codes) <= 1e-8

    def test_dual_deviation_lies_in_null_space(self):
        d = random_general_position_frame(3, 6, np.random.default_rng(8))
        rng = np.random.default_rng(9)
        x = rng.standard_normal(3)
        base = canonical_dual(d).mat.T @ x
        for seed in range(5):
            alt = random_dual(d, seed).mat.T @ x
            assert np.linalg.norm(d.mat @ (alt - base)) <= 1e-9 * max(
                1.0, np.linalg.norm(alt)
            )

    def test_min_norm_orthogonal_to_null_deviation(self):
        # the canonical codes are the projection of any synthesis codes
        # onto the row space, hence orthogonal to every null-space shift
        d = random_general_position_frame(3, 6, np.random.default_rng(10))
        rng = np.random.default_rng(11)
        x = rng.standard_normal(3)
        trial = proxy_trial(d, x, n_alt_duals=6, seed=3)
        w = trial.canonical_codes - trial.l1_codes
        assert abs(trial.canonical_codes @ w) <= 1e-9 * max(
            1.0, np.linalg.norm(w)
        )
        # Pythagoras: the l1 codes are never shorter than the l2-minimal ones
        assert np.linalg.norm(trial.l1_codes) >= np.linalg.norm(
            trial.canonical_codes
        ) - 1e-12

    def test_too_large(self):
        rng = np.random.default_rng(12)
        d = Dictionary(rng.standard_normal((3, 13)))
        with pytest.raises(TooLarge):
            proxy_trial(d, np.ones(3), 1, 0)

    @pytest.mark.parametrize("label", ["l1", "l2"])
    def test_codes_that_miss_the_signal_rejected(self, label):
        d = Dictionary(np.eye(2))
        x = np.array([1.0, 2.0])
        codes = {"l1": x, "l2": x}
        codes[label] = x + 1e-6
        with pytest.raises(ValueError, match=f"{label} codes do not synthesize the signal"):
            ProxyTrial(d, x, codes["l1"], codes["l2"], 0.0, [])


class TestNonexistenceSearch:
    def test_hand_built_frame_violation(self):
        mat = np.hstack([np.eye(2), np.array([[1.0], [1.0]]) / np.sqrt(2)])
        d = Dictionary(mat)
        u1 = bp_bruteforce_oracle(d, np.array([1.0, 0.0]))
        u2 = bp_bruteforce_oracle(d, np.array([0.0, 1.0]))
        u12 = bp_bruteforce_oracle(d, np.array([1.0, 1.0]))
        assert np.allclose(u1, [1, 0, 0], atol=1e-10)
        assert np.allclose(u2, [0, 1, 0], atol=1e-10)
        assert np.allclose(u12, [0, 0, np.sqrt(2)], atol=1e-10)
        violation = np.linalg.norm(u12 - u1 - u2)
        assert violation == pytest.approx(2.0, abs=1e-10)

    def test_random_overcomplete_finds_violation(self):
        report = nonexistence_search(3, 5, trials=100, seed=0)
        assert report.violation > 1e-6

    def test_square_case_finds_none(self):
        with pytest.raises(NoViolationFound):
            nonexistence_search(3, 3, trials=30, seed=0)

    def test_too_large(self):
        with pytest.raises(TooLarge):
            nonexistence_search(3, 11, trials=1, seed=0)

    def test_undercomplete_rejected(self):
        with pytest.raises(ValueError, match="need m >= n"):
            nonexistence_search(3, 2, trials=1, seed=0)

    def test_sampler_without_general_position_gives_up(self):
        class DuplicateColumns:
            """Draws a frame whose first and last atoms coincide."""

            def standard_normal(self, shape):
                return np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])

        with pytest.raises(NotGeneralPosition, match="could not sample a general-position frame"):
            random_general_position_frame(2, 3, DuplicateColumns())


class TestProjectionIdentity:
    def test_identity_frame_zero_residuals(self):
        res = projection_identity_check(Dictionary(np.eye(4)))
        assert res.idempotence <= 1e-12
        assert res.symmetry <= 1e-12
        assert res.rank_gap == 0

    def test_random_frames_tiny_residuals(self):
        for seed in range(10):
            d = random_general_position_frame(3, 6, np.random.default_rng(300 + seed))
            res = projection_identity_check(d)
            assert res.idempotence <= 1e-10
            assert res.symmetry <= 1e-10
            assert res.rank_gap == 0

    def test_non_canonical_dual_not_symmetric(self):
        hits = 0
        for seed in range(20):
            d = random_general_position_frame(3, 6, np.random.default_rng(400 + seed))
            k = random_dual(d, seed).mat.T @ d.mat
            if np.linalg.norm(k.T - k) > 1e-3:
                hits += 1
        assert hits >= 19

import numpy as np
import pytest

from pksvd import applications
from pksvd.applications import (
    Mask,
    add_gaussian_noise,
    compress_rd,
    denoise,
    denoise_sweep,
    inpaint,
    random_mask,
    reconstruct_roundtrip,
)
from pksvd.errors import BadShape, EmptyBlockMask
from pksvd.frames import Dictionary, canonical_dual
from pksvd.imaging import from_blocks, psnr, to_blocks
from pksvd.sparse_solvers import bp_bruteforce_oracle, bpdn


def identity_dict(n):
    return Dictionary(np.eye(n))


class TestNoise:
    def test_sigma_zero_identity(self):
        rng = np.random.default_rng(0)
        img = rng.uniform(0, 255, (8, 8))
        assert np.array_equal(add_gaussian_noise(img, 0.0, seed=1), img)

    def test_empirical_std(self):
        img = np.zeros((512, 512))
        noisy = add_gaussian_noise(img, 20.0, seed=2)
        assert abs(noisy.std() - 20.0) <= 0.4  # within 2%

    def test_seeds_differ_and_repeat(self):
        img = np.zeros((16, 16))
        a = add_gaussian_noise(img, 5.0, seed=1)
        b = add_gaussian_noise(img, 5.0, seed=2)
        c = add_gaussian_noise(img, 5.0, seed=1)
        assert not np.array_equal(a, b)
        assert np.array_equal(a, c)


class TestRandomMask:
    def test_fraction_zero_all_observed(self):
        mask = random_mask((16, 16), 0.0, seed=0, block_size=4)
        assert mask.observed.all()

    def test_exact_per_block_count(self):
        mask = random_mask((16, 24), 0.5, seed=1, block_size=8)
        blocks = mask.block_columns(8)
        assert np.all((~blocks).sum(axis=0) == 32)

    def test_seeds_differ(self):
        a = random_mask((16, 16), 0.25, seed=1, block_size=4)
        b = random_mask((16, 16), 0.25, seed=2, block_size=4)
        assert not np.array_equal(a.observed, b.observed)

    def test_fraction_bounds(self):
        with pytest.raises(ValueError):
            random_mask((8, 8), 1.0, seed=0, block_size=4)

    def test_all_missing_mask_rejected(self):
        with pytest.raises(BadShape):
            Mask(np.zeros((4, 4), dtype=bool))


class TestDenoise:
    def test_identity_system_noiseless(self):
        rng = np.random.default_rng(3)
        img = rng.uniform(50, 200, (8, 8))
        blocked = to_blocks(img, 2)
        d = identity_dict(4)
        out = denoise(blocked, d, d, eps=1e-4)
        assert np.allclose(from_blocks(out), img, atol=1e-3)

    def test_huge_eps_gives_mean_image(self):
        rng = np.random.default_rng(4)
        img = rng.uniform(50, 200, (8, 8))
        blocked = to_blocks(img, 2, subtract_mean=True)
        d = identity_dict(4)
        out = denoise(blocked, d, d, eps=1e6)
        assert np.allclose(from_blocks(out), img.mean(), atol=1e-9)

    def test_matches_per_column_bpdn(self):
        rng = np.random.default_rng(5)
        img = rng.uniform(0, 255, (8, 8))
        blocked = to_blocks(img, 4, subtract_mean=True)
        synth = Dictionary(rng.standard_normal((16, 24)))
        analysis = canonical_dual(synth)
        eps = 10.0
        out = denoise(blocked, synth, analysis, eps)
        system = analysis.mat.T @ synth.mat
        for j in range(blocked.n_blocks):
            z = analysis.mat.T @ blocked.blocks[:, j]
            ref = bpdn(system, z, eps, tol=1e-8, max_iter=100000)
            # same per-block problem: the synthesized blocks agree
            assert np.linalg.norm(
                out.blocks[:, j] - synth.mat @ ref.entries
            ) <= 2e-2 * max(1.0, np.linalg.norm(out.blocks[:, j]))

    def test_sweep_matches_single_calls(self):
        rng = np.random.default_rng(6)
        img = rng.uniform(0, 255, (8, 8))
        blocked = to_blocks(img, 4, subtract_mean=True)
        synth = Dictionary(rng.standard_normal((16, 24)))
        analysis = canonical_dual(synth)
        grid = [4.0, 8.0, 16.0]
        swept = denoise_sweep(blocked, synth, analysis, grid)
        for eps, blk in zip(grid, swept):
            single = denoise(blocked, synth, analysis, eps)
            assert np.array_equal(blk.blocks, single.blocks)

    def test_block_locality(self):
        # editing one block's pixels changes only that output block
        rng = np.random.default_rng(7)
        img = rng.uniform(0, 255, (8, 8))
        d = identity_dict(4)
        base = denoise(to_blocks(img, 2), d, d, eps=5.0)
        bumped = img.copy()
        bumped[:2, :2] += 40.0
        out = denoise(to_blocks(bumped, 2), d, d, eps=5.0)
        assert not np.allclose(out.blocks[:, 0], base.blocks[:, 0])
        assert np.allclose(out.blocks[:, 1:], base.blocks[:, 1:], atol=1e-9)

    def test_eps_must_be_positive(self):
        with pytest.raises(ValueError):
            denoise(to_blocks(np.zeros((4, 4)), 2), identity_dict(4),
                    identity_dict(4), eps=0.0)


class TestFeasibilityAfterOneIteration:
    """With the ADMM cut to one iteration, the pseudo-inverse step alone
    must bring every block inside its ball, on random frames whose atoms
    are not unit norm, for the shared (denoise) and the stacked (inpaint)
    system."""

    @pytest.fixture(autouse=True)
    def one_iteration(self, monkeypatch):
        monkeypatch.setattr(applications, "_APP_MAX_ITER", 1)

    @staticmethod
    def frame(rng):
        return Dictionary(rng.standard_normal((16, 24)) * rng.uniform(0.2, 5.0, 24))

    @staticmethod
    def limit(eps, data):
        slack = eps * applications._FEAS_SLACK + 1e-6 * max(1.0, np.abs(data).max())
        return eps + slack

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("dual", [True, False])
    def test_denoise_shared_system(self, seed, dual):
        rng = np.random.default_rng(seed)
        blocked = to_blocks(rng.uniform(0, 255, (8, 8)), 4, subtract_mean=True)
        synth = self.frame(rng)
        analysis = canonical_dual(synth) if dual else self.frame(rng)
        coeffs = analysis.mat.T @ blocked.blocks
        for eps in (4.0, 10.0):
            out = denoise(blocked, synth, analysis, eps)
            resid = np.linalg.norm(coeffs - analysis.mat.T @ out.blocks, axis=0)
            assert np.all(resid <= self.limit(eps, coeffs))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("eps", [0.0, 0.01])
    def test_inpaint_stacked_systems(self, seed, eps):
        rng = np.random.default_rng(seed)
        blocked = to_blocks(rng.uniform(0, 255, (8, 8)), 4, subtract_mean=True)
        mask = random_mask((8, 8), 0.5, seed=seed, block_size=4)
        seen = mask.block_columns(4)
        out = inpaint(blocked, mask, self.frame(rng), eps)
        resid = np.linalg.norm(np.where(seen, blocked.blocks - out.blocks, 0.0), axis=0)
        assert np.all(resid <= self.limit(eps, blocked.blocks[seen]))


class TestInpaint:
    def test_all_observed_identity(self):
        rng = np.random.default_rng(8)
        img = rng.uniform(50, 200, (8, 8))
        blocked = to_blocks(img, 2)
        mask = random_mask((8, 8), 0.0, seed=0, block_size=2)
        out = inpaint(blocked, mask, identity_dict(4), eps=1e-4)
        assert np.allclose(from_blocks(out), img, atol=1e-3)

    def test_one_sparse_recovery_matches_oracle(self):
        # compressed-sensing sanity: a single-atom signal is recovered
        # exactly from half its pixels; the reduced-system optimum is
        # first validated by enumeration, then matched by the solver
        rng = np.random.default_rng(9)
        from pksvd.theory_lab import spark

        keep = np.array([True, False, True, True, False, True, False, True])
        while True:
            mat = rng.standard_normal((8, 12))
            mat /= np.linalg.norm(mat, axis=0, keepdims=True)
            d = Dictionary(mat)
            truth = 3.0 * d.mat[:, 5]
            if spark(d) <= 2:
                continue
            oracle = bp_bruteforce_oracle(Dictionary(d.mat[keep]), truth[keep])
            if np.allclose(oracle.entries, np.eye(12)[5] * 3.0, atol=1e-8):
                break
        solver = bpdn(d.mat[keep], truth[keep], eps=1e-6, tol=1e-8,
                      max_iter=100000)
        assert np.allclose(d.mat @ solver.entries, truth, atol=1e-4)

    def test_pipeline_one_sparse_block(self):
        rng = np.random.default_rng(10)
        from pksvd.theory_lab import spark

        observed = np.ones((4, 4), dtype=bool)
        observed[0, 0] = False
        observed[2, 3] = False
        while True:
            mat = rng.standard_normal((4, 8))
            mat /= np.linalg.norm(mat, axis=0, keepdims=True)
            d = Dictionary(mat)
            if spark(d) <= 2:
                continue
            codes = np.zeros((8, 4))
            codes[2, :] = [3.0, -2.0, 5.0, 1.5]
            blocks = d.mat @ codes
            img = from_blocks(to_blocks(np.zeros((4, 4)), 2).with_blocks(blocks))
            blocked = to_blocks(img, 2)
            masks = Mask(observed).block_columns(2)
            # keep only instances where enumeration proves the reduced
            # problems still recover the planted one-sparse codes
            good = True
            for j in range(4):
                rows = np.flatnonzero(masks[:, j])
                reduced = Dictionary(d.mat[rows])
                oracle = bp_bruteforce_oracle(reduced, blocks[rows, j])
                if not np.allclose(oracle.entries, codes[:, j], atol=1e-8):
                    good = False
                    break
            if good:
                break
        out = inpaint(blocked, Mask(observed), d, eps=1e-6)
        assert np.allclose(from_blocks(out), img, atol=1e-4)

    def test_empty_block_mask_rejected(self):
        rng = np.random.default_rng(11)
        img = rng.uniform(0, 255, (4, 4))
        observed = np.ones((4, 4), dtype=bool)
        observed[:2, :2] = False
        with pytest.raises(EmptyBlockMask):
            inpaint(to_blocks(img, 2), Mask(observed), identity_dict(4), 0.01)


class TestCompressRd:
    def test_small_step_approaches_exact(self):
        rng = np.random.default_rng(12)
        img = rng.uniform(0, 255, (8, 8))
        blocked = to_blocks(img, 2, subtract_mean=True)
        d = identity_dict(4)
        points = compress_rd(blocked, d, d, steps=[1e-4])
        assert points[0].psnr_db > 100.0

    def test_all_zero_image_costs_nothing(self):
        blocked = to_blocks(np.zeros((8, 8)), 2)
        d = identity_dict(4)
        points = compress_rd(blocked, d, d, steps=[1.0, 4.0])
        assert all(p.bits_per_pixel == 0.0 for p in points)

    def test_rate_and_psnr_nonincreasing_in_step(self, test_image,
                                                 app_dictionaries):
        synth, analysis = app_dictionaries["parseval"]
        blocked = to_blocks(test_image, 4, subtract_mean=True)
        steps = [0.5, 1, 2, 4, 8, 16, 32, 64, 128]
        points = compress_rd(blocked, synth, analysis, steps)
        rates = [p.bits_per_pixel for p in points]
        psnrs = [p.psnr_db for p in points]
        assert all(a >= b - 1e-12 for a, b in zip(rates, rates[1:]))
        assert all(a >= b - 1e-9 for a, b in zip(psnrs, psnrs[1:]))

    def test_rejects_bad_steps(self):
        blocked = to_blocks(np.zeros((4, 4)), 2)
        with pytest.raises(ValueError):
            compress_rd(blocked, identity_dict(4), identity_dict(4), [0.0])


class TestReconstructRoundtrip:
    def test_exact_dual_pair(self):
        rng = np.random.default_rng(13)
        img = rng.uniform(0, 255, (16, 16))
        d = Dictionary(rng.standard_normal((16, 32)))
        recon, value = reconstruct_roundtrip(img, d, canonical_dual(d), 4)
        rel = np.linalg.norm(recon - img) / np.linalg.norm(img)
        assert rel <= 1e-10
        assert value > 100.0 or value == float("inf")

    def test_perturbed_dual_degrades_monotonically(self):
        rng = np.random.default_rng(14)
        img = rng.uniform(0, 255, (16, 16))
        d = Dictionary(rng.standard_normal((16, 32)))
        dual = canonical_dual(d)
        bump = rng.standard_normal(dual.mat.shape)
        values = []
        for delta in (1e-6, 1e-4, 1e-2):
            perturbed = Dictionary(dual.mat + delta * bump)
            _, value = reconstruct_roundtrip(img, d, perturbed, 4)
            values.append(value)
        assert values[0] > values[1] > values[2]

    def test_deterministic(self):
        rng = np.random.default_rng(15)
        img = rng.uniform(0, 255, (8, 8))
        d = Dictionary(rng.standard_normal((4, 8)))
        dual = canonical_dual(d)
        a, _ = reconstruct_roundtrip(img, d, dual, 2)
        b, _ = reconstruct_roundtrip(img, d, dual, 2)
        assert np.array_equal(a, b)

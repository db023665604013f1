import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from pksvd import applications
from pksvd.applications import (
    Mask,
    add_gaussian_noise,
    compress_rd,
    denoise,
    inpaint,
    random_mask,
    reconstruct_roundtrip,
)
from pksvd.errors import BadShape, EmptyBlockMask
from pksvd.frames import Dictionary, canonical_dual
from pksvd.imaging import from_blocks, psnr, to_blocks
from pksvd.sparse_solvers import bpdn
from pksvd.theory_lab import bp_bruteforce_oracle


def identity_dict(n):
    return Dictionary(np.eye(n))


def random_frame(rng):
    """16 x 24 frame whose atoms are not unit norm."""
    return Dictionary(rng.standard_normal((16, 24)) * rng.uniform(0.2, 5.0, 24))


def ball_limit(eps, data):
    """Largest residual norm the recovery solve may return for ``eps``."""
    return eps + 1e-9 * max(1.0, np.linalg.norm(data))


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

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf"), -float("inf"), -1.0])
    def test_rejects_bad_sigma(self, sigma):
        with pytest.raises(ValueError, match="sigma"):
            add_gaussian_noise(np.zeros((4, 4)), sigma, seed=0)


def block_loop_mask(dims, missing_fraction, seed, block_size):
    """``random_mask`` built one block at a time: one draw and one slice
    assignment per block."""
    h, w = dims
    b = block_size
    n_missing = int(round(missing_fraction * b * b))
    rng = np.random.default_rng(seed)
    observed = np.ones((h, w), dtype=bool)
    for bi in range(h // b):
        for bj in range(w // b):
            flat = rng.choice(b * b, size=n_missing, replace=False)
            block = np.ones(b * b, dtype=bool)
            block[flat] = False
            observed[bi * b:(bi + 1) * b, bj * b:(bj + 1) * b] = block.reshape(b, b)
    return observed


class TestRandomMask:
    @pytest.mark.parametrize("block_size", [2, 4, 8])
    @pytest.mark.parametrize("fraction", [0.0, 0.2, 0.5, 0.99])
    def test_matches_block_loop(self, fraction, block_size):
        # Non-square dims, so that the order of the blocks shows. At 0.99
        # blocks of 2x2 and 4x4 would lose every pixel, which random_mask
        # rejects before it draws.
        for seed in range(6):
            loop = block_loop_mask((16, 24), fraction, seed, block_size)
            if not loop.any():
                with pytest.raises(EmptyBlockMask, match="removes all"):
                    random_mask((16, 24), fraction, seed, block_size)
                continue
            mask = random_mask((16, 24), fraction, seed, block_size)
            assert mask.observed.tobytes() == loop.tobytes()

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

    def test_blocks_must_tile_the_image(self, monkeypatch):
        def no_draw(seed):
            raise AssertionError("random generator created")

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        with pytest.raises(BadShape, match="image 8x12 not divisible into 8x8 blocks"):
            random_mask((8, 12), 0.5, seed=0, block_size=8)

    def test_fraction_that_empties_every_block_fails_before_the_draw(self, monkeypatch):
        def no_draw(seed):
            raise AssertionError("random generator created")

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        with pytest.raises(EmptyBlockMask,
                           match="missing fraction 0.99 removes all 16 pixels of every 4x4 block"):
            random_mask((8, 8), 0.99, seed=0, block_size=4)

    def test_all_missing_mask_rejected(self):
        with pytest.raises(BadShape):
            Mask(np.zeros((4, 4), dtype=bool))

    @pytest.mark.parametrize("observed", [np.ones(4, dtype=bool), np.ones((0, 4), dtype=bool)])
    def test_mask_must_be_a_non_empty_image(self, observed):
        with pytest.raises(BadShape, match="mask must be a non-empty 2-D boolean array"):
            Mask(observed)


class TestDenoise:
    def test_identity_system_noiseless(self):
        rng = np.random.default_rng(3)
        img = rng.uniform(50, 200, (8, 8))
        blocked = to_blocks(img, 2)
        d = identity_dict(4)
        out = denoise(blocked, d, d, [1e-4])[0]
        assert np.allclose(from_blocks(out), img, atol=1e-3)

    def test_huge_eps_gives_mean_image(self):
        rng = np.random.default_rng(4)
        img = rng.uniform(50, 200, (8, 8))
        blocked = to_blocks(img, 2, subtract_mean=True)
        d = identity_dict(4)
        out = denoise(blocked, d, d, [1e6])[0]
        assert np.allclose(from_blocks(out), img.mean(), atol=1e-9)

    def test_matches_per_column_bpdn(self):
        rng = np.random.default_rng(5)
        img = rng.uniform(0, 255, (8, 8))
        blocked = to_blocks(img, 4, subtract_mean=True)
        synth = Dictionary(rng.standard_normal((16, 24)))
        analysis = canonical_dual(synth)
        eps = 10.0
        out = denoise(blocked, synth, analysis, [eps])[0]
        system = analysis.mat.T @ synth.mat
        for j in range(blocked.n_blocks):
            z = analysis.mat.T @ blocked.blocks[:, j]
            ref = bpdn(system, z[:, None], [eps])[0, :, 0]
            # the same problem in m rows (A^T S) and in n rows (R S)
            assert np.linalg.norm(
                out.blocks[:, j] - synth.mat @ ref
            ) <= 1e-9 * max(1.0, np.linalg.norm(out.blocks[:, j]))

    def test_sweep_matches_single_calls(self):
        rng = np.random.default_rng(6)
        img = rng.uniform(0, 255, (8, 8))
        blocked = to_blocks(img, 4, subtract_mean=True)
        synth = Dictionary(rng.standard_normal((16, 24)))
        analysis = canonical_dual(synth)
        grid = [4.0, 8.0, 16.0]
        swept = denoise(blocked, synth, analysis, grid)
        for eps, blk in zip(grid, swept):
            single = denoise(blocked, synth, analysis, [eps])[0]
            assert np.array_equal(blk.blocks, single.blocks)

    def test_block_locality(self):
        # editing one block's pixels changes only that output block
        rng = np.random.default_rng(7)
        img = rng.uniform(0, 255, (8, 8))
        d = identity_dict(4)
        base = denoise(to_blocks(img, 2), d, d, [5.0])[0]
        bumped = img.copy()
        bumped[:2, :2] += 40.0
        out = denoise(to_blocks(bumped, 2), d, d, [5.0])[0]
        assert not np.allclose(out.blocks[:, 0], base.blocks[:, 0])
        assert np.allclose(out.blocks[:, 1:], base.blocks[:, 1:], atol=1e-9)

    def test_eps_must_be_positive(self):
        with pytest.raises(ValueError):
            denoise(to_blocks(np.zeros((4, 4)), 2), identity_dict(4),
                    identity_dict(4), [0.0])


class TestRadiusValidation:
    """NaN, negative and empty radii fail before any solve; an infinite
    radius gives the zero code."""

    @pytest.fixture
    def solves(self, monkeypatch):
        calls = []
        solve = applications.bpdn

        def spy(*args):
            calls.append(args)
            return solve(*args)

        monkeypatch.setattr(applications, "bpdn", spy)
        return calls

    @pytest.fixture
    def blocked(self):
        rng = np.random.default_rng(16)
        return to_blocks(rng.uniform(0, 255, (8, 8)), 2, subtract_mean=True)

    @pytest.mark.parametrize("grid", [[], [float("nan")], [-1.0], [4.0, float("nan")]])
    def test_denoise_rejects_grid(self, blocked, solves, grid):
        d = identity_dict(4)
        with pytest.raises(ValueError):
            denoise(blocked, d, d, grid)
        assert solves == []

    @pytest.mark.parametrize("eps", [float("nan"), -1.0])
    def test_denoise_and_inpaint_reject(self, blocked, solves, eps):
        d = identity_dict(4)
        mask = random_mask((8, 8), 0.25, seed=0, block_size=2)
        with pytest.raises(ValueError):
            denoise(blocked, d, d, [eps])
        with pytest.raises(ValueError):
            inpaint(blocked, mask, d, eps)
        assert solves == []

    def test_infinite_radius_gives_mean_image(self, blocked):
        d = identity_dict(4)
        mask = random_mask((8, 8), 0.25, seed=0, block_size=2)
        mean = from_blocks(blocked.with_blocks(np.zeros_like(blocked.blocks)))
        for out in (denoise(blocked, d, d, [float("inf")])[0],
                    inpaint(blocked, mask, d, float("inf"))):
            assert np.array_equal(from_blocks(out), mean)


class TestFeasibilityAfterOneIteration:
    """Every block comes back inside its ball, on random frames whose
    atoms are not unit norm, for the shared (denoise) and the stacked
    (inpaint) system."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("dual", [True, False])
    def test_denoise_shared_system(self, seed, dual):
        rng = np.random.default_rng(seed)
        blocked = to_blocks(rng.uniform(0, 255, (8, 8)), 4, subtract_mean=True)
        synth = random_frame(rng)
        analysis = canonical_dual(synth) if dual else random_frame(rng)
        coeffs = analysis.mat.T @ blocked.blocks
        for eps in (4.0, 10.0):
            out = denoise(blocked, synth, analysis, [eps])[0]
            resid = np.linalg.norm(coeffs - analysis.mat.T @ out.blocks, axis=0)
            assert np.all(resid <= ball_limit(eps, coeffs))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("eps", [0.0, 0.01])
    def test_inpaint_stacked_systems(self, seed, eps):
        rng = np.random.default_rng(seed)
        blocked = to_blocks(rng.uniform(0, 255, (8, 8)), 4, subtract_mean=True)
        mask = random_mask((8, 8), 0.5, seed=seed, block_size=4)
        seen = mask.block_columns(4)
        out = inpaint(blocked, mask, random_frame(rng), eps)
        resid = np.linalg.norm(np.where(seen, blocked.blocks - out.blocks, 0.0), axis=0)
        assert np.all(resid <= ball_limit(eps, blocked.blocks[seen]))


class TestInpaint:
    def test_mask_must_match_the_image(self):
        blocked = to_blocks(np.ones((8, 8)), 2)
        mask = random_mask((8, 4), 0.0, seed=0, block_size=2)
        with pytest.raises(BadShape, match="mask dimensions do not match the blocked image"):
            inpaint(blocked, mask, identity_dict(4), eps=1e-4)

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
            if np.allclose(oracle, np.eye(12)[5] * 3.0, atol=1e-8):
                break
        solver = bpdn(d.mat[keep], truth[keep][:, None], [1e-6])[0, :, 0]
        assert np.allclose(d.mat @ solver, truth, atol=1e-4)

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
                if not np.allclose(oracle, codes[:, j], atol=1e-8):
                    good = False
                    break
            if good:
                break
        out = inpaint(blocked, Mask(observed), d, eps=1e-6)
        assert np.allclose(from_blocks(out), img, atol=1e-4)

    def test_observed_systems_match_block_loop(self):
        # Blocks observe different numbers of rows; the padding is +0.0.
        rng = np.random.default_rng(12)
        masks = rng.random((16, 40)) < 0.5
        masks[rng.integers(0, 16, 40), np.arange(40)] = True
        blocks = rng.standard_normal((16, 40))
        mat = rng.standard_normal((16, 24))
        height = int(masks.sum(axis=0).max())
        systems = np.zeros((40, height, 24))
        data = np.zeros((height, 40))
        for j in range(40):
            rows = np.flatnonzero(masks[:, j])
            systems[j, : rows.size] = mat[rows]
            data[: rows.size, j] = blocks[rows, j]
        got_systems, got_data, counts = applications._observed_systems(masks, blocks, mat)
        assert got_systems.shape == systems.shape and got_data.shape == data.shape
        assert got_systems.tobytes() == systems.tobytes()
        assert got_data.tobytes() == data.tobytes()
        assert counts.tolist() == masks.sum(axis=0).tolist()

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

    @pytest.mark.parametrize("steps", [[], [float("nan")], [1.0, float("inf")]],
                             ids=["empty", "nan", "inf"])
    def test_rejects_empty_or_non_finite_steps(self, steps):
        blocked = to_blocks(np.zeros((4, 4)), 2)
        with pytest.raises(ValueError, match="quantizer step"):
            compress_rd(blocked, identity_dict(4), identity_dict(4), steps)

    def test_rejects_steps_past_the_int64_range(self):
        # The bit-plane counts cast the quantized magnitudes to int64; a
        # step that puts the largest coefficient 2^63 or more steps out
        # would wrap there and give wrong rates.
        img = np.random.default_rng(16).integers(0, 256, (8, 8)).astype(float)
        blocked = to_blocks(img, 2, subtract_mean=True)
        peak = np.abs(blocked.blocks).max()
        for step in (1e-18, peak / 2.0 ** 63):
            with pytest.raises(BadShape, match=f"quantizer step {step:g} is too fine"):
                compress_rd(blocked, identity_dict(4), identity_dict(4), [1.0, step])
        # The next step up keeps every magnitude below 2^63.
        step = np.nextafter(peak / 2.0 ** 63, np.inf)
        (point,) = compress_rd(blocked, identity_dict(4), identity_dict(4), [step])
        quantized = np.round(blocked.blocks / step)
        assert point.bits_per_pixel * 64 == plane_by_plane_rate_bits(quantized)


def plane_by_plane_rate_bits(quantized):
    """The bit-plane code length priced one plane at a time."""
    count = quantized.size
    magnitudes = np.abs(quantized).astype(np.int64)
    total = count * applications._binary_entropy(float(np.mean(quantized < 0)))
    max_mag = int(magnitudes.max())
    plane = 0
    while (max_mag >> plane) > 0:
        bits = (magnitudes >> plane) & 1
        total += count * applications._binary_entropy(float(bits.mean()))
        plane += 1
    return total


class TestBitplaneRate:
    @settings(max_examples=200, deadline=None)
    @given(hnp.arrays(np.int64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=40),
                      elements=st.integers(-(2 ** 20), 2 ** 20)
                      | st.sampled_from([0, 0, 1, -1])))
    def test_matches_plane_by_plane(self, quantized):
        quantized = quantized.astype(float)
        assert (applications._bitplane_rate_bits(quantized)
                == plane_by_plane_rate_bits(quantized))

    @pytest.mark.parametrize("fill", [0.0, -3.0, 2.0 ** 20])
    def test_constant_arrays(self, fill):
        quantized = np.full((5, 7), fill)
        assert (applications._bitplane_rate_bits(quantized)
                == plane_by_plane_rate_bits(quantized))


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

    def test_rejects_block_size_mismatch(self):
        d = identity_dict(16)
        with pytest.raises(BadShape, match="block size 8"):
            reconstruct_roundtrip(np.zeros((16, 16)), d, d, 8)

    # Every pipeline that takes a pair checks it alike; the round trip
    # failed inside its matmul.
    @pytest.mark.parametrize("run", [
        lambda img, synth, analysis: reconstruct_roundtrip(img, synth, analysis, 4),
        lambda img, synth, analysis: denoise(to_blocks(img, 4), synth, analysis, [1.0]),
        lambda img, synth, analysis: compress_rd(to_blocks(img, 4), synth, analysis, [1.0]),
    ], ids=["reconstruct", "denoise", "compress"])
    def test_mismatched_analysis_dictionary_names_both_shapes(self, run):
        rng = np.random.default_rng(16)
        synth = Dictionary(rng.standard_normal((16, 32)))
        analysis = Dictionary(rng.standard_normal((16, 24)))
        with pytest.raises(BadShape, match=r"synthesis \(16, 32\), analysis \(16, 24\)$"):
            run(rng.uniform(0, 255, (16, 16)), synth, analysis)

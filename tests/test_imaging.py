import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pksvd.errors import BadShape, MalformedFile
from pksvd.imaging import (
    BlockedImage,
    from_blocks,
    psnr,
    read_pgm,
    ssim,
    to_blocks,
    write_pgm,
)


class TestBlocks:
    def test_column_major_vectorization(self):
        img = np.array([[1.0, 2.0], [3.0, 4.0]])
        blk = to_blocks(img, 2)
        assert np.array_equal(blk.blocks[:, 0], [1.0, 3.0, 2.0, 4.0])

    def test_raster_block_order(self):
        img = np.arange(16.0).reshape(4, 4)
        blk = to_blocks(img, 2)
        # second block is the top-right 2x2 tile
        assert np.array_equal(blk.blocks[:, 1], [2.0, 6.0, 3.0, 7.0])

    def test_roundtrip_exact(self):
        rng = np.random.default_rng(0)
        img = rng.uniform(0, 255, (24, 40))
        assert np.array_equal(from_blocks(to_blocks(img, 8)), img)

    def test_roundtrip_with_mean(self):
        rng = np.random.default_rng(1)
        img = rng.uniform(0, 255, (16, 16))
        blk = to_blocks(img, 4, subtract_mean=True)
        assert blk.removed_mean == pytest.approx(img.mean())
        assert np.allclose(from_blocks(blk), img, atol=1e-12)

    def test_constant_image_mean_removal(self):
        img = np.full((8, 8), 42.0)
        blk = to_blocks(img, 4, subtract_mean=True)
        assert np.all(blk.blocks == 0.0)
        assert blk.removed_mean == 42.0
        assert np.array_equal(from_blocks(blk), img)

    def test_mean_override(self):
        img = np.full((8, 8), 10.0)
        blk = to_blocks(img, 4, subtract_mean=True, mean_value=4.0)
        assert np.all(blk.blocks == 6.0)
        assert blk.removed_mean == 4.0

    def test_indivisible_rejected(self):
        with pytest.raises(BadShape):
            to_blocks(np.zeros((10, 8)), 4)

    def test_block_count_invariant(self):
        blk = to_blocks(np.zeros((16, 24)), 8)
        assert blk.n_blocks == (16 // 8) * (24 // 8)
        assert blk.n == 64

    def test_inconsistent_blocked_image_rejected(self):
        with pytest.raises(BadShape):
            BlockedImage(16, 16, 4, np.zeros((16, 5)))

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), b=st.integers(1, 5), rows=st.integers(1, 4),
           cols=st.integers(1, 4), subtract_mean=st.booleans())
    def test_roundtrip_property(self, seed, b, rows, cols, subtract_mean):
        img = np.random.default_rng(seed).uniform(0, 255, (rows * b, cols * b))
        blk = to_blocks(img, b, subtract_mean=subtract_mean)
        assert blk.blocks.shape == (b * b, rows * cols)
        back = from_blocks(blk)
        if subtract_mean:
            assert np.allclose(back, img, rtol=0, atol=1e-12)
        else:
            assert np.array_equal(back, img)


class TestPsnr:
    def test_equal_images_infinite(self):
        img = np.ones((4, 4))
        assert psnr(img, img) == float("inf")

    def test_uniform_difference_of_one(self):
        a = np.zeros((8, 8))
        assert psnr(a, a + 1.0) == pytest.approx(10 * np.log10(255.0 ** 2))

    def test_full_range_difference(self):
        a = np.zeros((8, 8))
        assert psnr(a, a + 255.0) == pytest.approx(0.0)

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        a = rng.uniform(0, 255, (8, 8))
        b = rng.uniform(0, 255, (8, 8))
        assert psnr(a, b) == psnr(b, a)

    def test_shape_mismatch(self):
        with pytest.raises(BadShape):
            psnr(np.zeros((4, 4)), np.zeros((4, 5)))


class TestSsim:
    def test_self_similarity_is_one(self):
        rng = np.random.default_rng(3)
        img = rng.uniform(0, 255, (16, 16))
        assert ssim(img, img) == 1.0

    def test_inverted_image_less_than_one(self):
        rng = np.random.default_rng(4)
        img = rng.uniform(0, 255, (16, 16))
        assert ssim(img, 255.0 - img) < 1.0

    def test_zero_variance_closed_form(self):
        # constant images: variance terms vanish and SSIM reduces to the
        # luminance factor (2 mu_a mu_b + C1) / (mu_a^2 + mu_b^2 + C1)
        c1 = (0.01 * 255.0) ** 2
        a = np.full((16, 16), 100.0)
        b = np.full((16, 16), 110.0)
        expected = (2 * 100 * 110 + c1) / (100 ** 2 + 110 ** 2 + c1)
        assert ssim(a, b) == pytest.approx(expected, abs=1e-12)

    def test_too_small_rejected(self):
        with pytest.raises(BadShape):
            ssim(np.zeros((4, 4)), np.zeros((4, 4)))

    def test_range(self):
        rng = np.random.default_rng(5)
        a = rng.uniform(0, 255, (12, 12))
        b = rng.uniform(0, 255, (12, 12))
        assert -1.0 <= ssim(a, b) <= 1.0

    def test_huge_pixel_fails_without_overflow(self):
        # One pixel of 1e80 overflowed the product of the window variances.
        rng = np.random.default_rng(6)
        a = rng.uniform(0, 255, (8, 8))
        b = a.copy()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for value in (1e80, -1e80, 1e300):
                b[3, 4] = value
                with pytest.raises(BadShape, match="exceeds 1e\\+76"):
                    ssim(a, b)
                with pytest.raises(BadShape, match="exceeds 1e\\+76"):
                    ssim(b, a)
            b[3, 4] = 1e76  # the largest magnitude accepted
            assert np.isfinite(ssim(a, b))
            assert ssim(b, b) == 1.0


@st.composite
def pgm_blobs(draw):
    """Byte strings near a P5 file, so that valid files, comments, bad or
    missing tokens, wrong maxvals and wrong raster sizes all occur."""
    width, height = draw(st.integers(-1, 3)), draw(st.integers(-1, 3))
    maxval = draw(st.sampled_from([255, 255, 0, 65535]))
    tokens = [str(v).encode("ascii") for v in (width, height, maxval)]
    garbage = draw(st.sampled_from([None] * 6 + [b"x", b"2x"]))
    if garbage is not None:
        tokens[draw(st.integers(0, 2))] = garbage
    tokens = tokens[:draw(st.sampled_from([3, 3, 3, 2, 0]))]
    separators = st.sampled_from([b" ", b"\n", b"\t", b"#c\n", b" # x\n"])
    header = b"".join(draw(separators) + token for token in tokens)
    header += draw(st.sampled_from([b"\n"] * 4 + [b"", b"#"]))
    size = max(width * height, 0) + draw(st.sampled_from([0, 0, -1, 1]))
    raster = draw(st.one_of(st.just(bytes(max(size, 0))), st.binary(max_size=12)))
    magic = draw(st.sampled_from([b"P5"] * 6 + [b"P2", b""]))
    return magic + header + raster


class TestPgm:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(blob=pgm_blobs())
    @example(blob=b"P5 1 1 255")  # header ends at maxval, with no whitespace
    def test_fuzzed_header_fails_only_as_malformed(self, tmp_path_factory, blob):
        path = tmp_path_factory.getbasetemp() / "fuzz.pgm"
        path.write_bytes(blob)
        try:
            img = read_pgm(path)
        except MalformedFile as err:
            assert err.offset is not None and 0 <= err.offset <= len(blob)
        else:
            assert img.ndim == 2 and img.size <= len(blob)
            assert img.min() >= 0 and img.max() <= 255

    def test_roundtrip_integer_image(self, tmp_path):
        rng = np.random.default_rng(6)
        img = np.round(rng.uniform(0, 255, (5, 7)))
        path = tmp_path / "img.pgm"
        write_pgm(img, path)
        assert np.array_equal(read_pgm(path), img)

    def test_single_pixel(self, tmp_path):
        path = tmp_path / "one.pgm"
        write_pgm(np.array([[128.0]]), path)
        assert read_pgm(path)[0, 0] == 128.0

    def test_clamp_and_round_half_away(self, tmp_path):
        path = tmp_path / "c.pgm"
        write_pgm(np.array([[-3.0, 0.5, 254.5, 300.0]]), path)
        assert np.array_equal(read_pgm(path), [[0.0, 1.0, 255.0, 255.0]])

    def test_maxval_rejected(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P5\n2 1\n65535\n\x00\x00\x00\x00")
        with pytest.raises(MalformedFile):
            read_pgm(path)

    def test_comments_skipped(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n# comment line\n2 1\n# another\n255\n\x07\x09")
        assert np.array_equal(read_pgm(path), [[7.0, 9.0]])

    def test_truncated_raster_reports_offset(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n4 4\n255\n\x00\x00")
        with pytest.raises(MalformedFile) as err:
            read_pgm(path)
        assert err.value.offset is not None

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P2\n1 1\n255\n0")
        with pytest.raises(MalformedFile):
            read_pgm(path)

import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from texture import texture
from workloads import self_dual_pair

from pksvd import sparse_solvers
from pksvd.applications import Mask, _observed_systems, add_gaussian_noise, inpaint, random_mask
from pksvd.errors import SingularCoefficientGram, SolverDidNotConverge
from pksvd.frames import Dictionary, canonical_dual, dct_dictionary
from pksvd.imaging import to_blocks
from pksvd.sparse_solvers import (
    ZERO_THRESHOLD,
    _refit_supports,
    _support_slots,
    bpdn,
    omp,
)
from pksvd.theory_lab import bp_bruteforce_oracle


def random_frame(rng, n, m):
    return Dictionary(rng.standard_normal((n, m)))


def support(u):
    """The entries of ``u`` above the zero threshold."""
    return np.flatnonzero(np.abs(u) > ZERO_THRESHOLD)


def omp_one(d, y, k, residual_tol=0.0):
    """``omp`` on the one signal ``y``."""
    return omp(d.mat, np.asarray(y, dtype=float)[:, None], k, residual_tol)[:, 0]


def bpdn_one(a, b, eps):
    """``bpdn`` on the one column ``b`` at the one radius ``eps``."""
    return bpdn(a, np.asarray(b, dtype=float)[:, None], [eps])[0, :, 0]


def l1(u):
    return float(np.abs(u).sum())


def reference_omp(a, y, k, residual_tol=0.0):
    """Per-column OMP with a fresh least-squares solve per step; scores
    within a relative 1e-12 of the largest tie, and the lowest index wins."""
    coeffs = np.zeros(a.shape[1])
    support = []
    residual = y.copy()
    available = np.ones(a.shape[1], dtype=bool)
    while len(support) < k and np.linalg.norm(residual) > residual_tol:
        corr = np.abs(a.T @ residual)
        corr[~available] = -1.0
        best = int(np.argmax(corr >= (1.0 - 1e-12) * corr.max()))
        available[best] = False
        support.append(best)
        sol, *_ = np.linalg.lstsq(a[:, support], y, rcond=None)
        residual = y - a[:, support] @ sol
    if support:
        coeffs[support] = sol
    return coeffs


def reference_omp_batch(a, data, k, residual_tol=0.0):
    return np.column_stack(
        [reference_omp(a, data[:, j], k, residual_tol) for j in range(data.shape[1])]
    )


def nonunit_frame(rng, n=16, m=24):
    """n x m frame whose atoms are not unit norm."""
    return rng.standard_normal((n, m)) * rng.uniform(0.2, 5.0, m)


def recovery_system(rng, kind, n_cols):
    """A ball-constrained problem shaped like the recovery solves: the
    analysis-domain system of denoising (shared) or the observed-row
    systems of inpainting, zero-padded to a common height (stacked)."""
    synth = nonunit_frame(rng)
    signals = rng.standard_normal((synth.shape[0], n_cols)) * 20.0
    if kind == "stacked":
        seen = rng.random(signals.shape) < 0.5
        seen[0] = True  # every column observes some row
        height = int(seen.sum(axis=0).max())
        systems = np.zeros((n_cols, height, synth.shape[1]))
        data = np.zeros((height, n_cols))
        for j in range(n_cols):
            rows = np.flatnonzero(seen[:, j])
            systems[j, : rows.size] = synth[rows]
            data[: rows.size, j] = signals[rows, j]
        return systems, data
    if kind == "canonical":
        analysis = canonical_dual(Dictionary(synth)).mat
    else:
        analysis = nonunit_frame(rng)
    return analysis.T @ synth, analysis.T @ signals


def kkt_system(rng, kind):
    """A recovery problem as the pipelines pose it: the n-row denoise
    system R S from the thin QR A^T = QR (shared kinds), the observed-row
    inpaint systems (stacked), or 300 transpose-symmetric integer-pixel
    blocks against the overcomplete DCT, on which the transposed atom
    pairs tie exactly."""
    if kind == "stacked":
        return recovery_system(rng, kind, 40)
    if kind == "dct-ties":
        pixels = rng.integers(0, 256, (300, 4, 4)).astype(float)
        pixels = np.triu(pixels) + np.swapaxes(np.triu(pixels, 1), 1, 2)
        blocks = to_blocks(np.hstack(list(pixels)), 4, subtract_mean=True).blocks
        return dct_dictionary(16, 32).mat, blocks
    synth = nonunit_frame(rng)
    analysis = canonical_dual(Dictionary(synth)).mat if kind == "canonical" else nonunit_frame(rng)
    tri = np.linalg.qr(analysis.T, mode="r")
    return tri @ synth, tri @ (rng.standard_normal((16, 40)) * 20.0)


def assert_kkt_certificate(a, b):
    """Solve on a grid of radii down to 0 and check each code offline: it
    lies on its radius, and g = A^T r / ||A^T r||_inf equals sign(w) on
    the support and stays within [-1, 1] off it. Below 1e-3 of the data
    scale r is too small to form g beyond rounding, so only the radius is
    checked there. Returns the codes."""
    scale = np.linalg.norm(b, axis=0).max()
    radii = scale * np.array(
        [1.1, 0.5, 0.2, 0.1, 0.05, 0.02, 0.01, 0.001, 1e-9, 0.0])
    codes = bpdn(a, b, radii)
    for eps, block in zip(radii, codes):
        for j in range(b.shape[1]):
            mat = a[j] if a.ndim == 3 else a
            w = block[:, j]
            if np.linalg.norm(b[:, j]) <= eps:
                assert not w.any()
                continue
            r = b[:, j] - mat @ w
            assert abs(np.linalg.norm(r) - eps) <= 1e-9 * np.linalg.norm(b[:, j])
            if eps < 1e-3 * scale:
                continue
            g = mat.T @ r
            g /= np.abs(g).max()
            on = w != 0
            assert np.abs(g[on] - np.sign(w[on])).max() <= 1e-9
            assert np.abs(g[~on]).max() <= 1.0 + 1e-9
    return codes


class TestOmp:
    """One signal at a time, through the batched engine."""

    def test_single_atom_signal(self):
        rng = np.random.default_rng(0)
        d = random_frame(rng, 4, 8)
        y = 3.0 * d.mat[:, 5]
        u = omp_one(d, y, k=1)
        assert list(support(u)) == [5]
        assert np.linalg.norm(d.mat @ u - y) <= 1e-10

    def test_zero_signal(self):
        d = Dictionary(np.eye(4))
        u = omp_one(d, np.zeros(4), k=2)
        assert np.array_equal(u, np.zeros(4))

    def test_greedy_order_on_identity(self):
        d = Dictionary(np.eye(4))
        y = np.array([1.0, -2.0, 0.0, 0.5])
        one = omp_one(d, y, k=1)
        assert np.allclose(one, [0.0, -2.0, 0.0, 0.0])
        two = omp_one(d, y, k=2)
        assert np.allclose(two, [1.0, -2.0, 0.0, 0.0])

    def test_least_squares_on_support(self):
        rng = np.random.default_rng(1)
        d = random_frame(rng, 5, 9)
        y = rng.standard_normal(5)
        u = omp_one(d, y, k=3)
        s = support(u)
        refit, *_ = np.linalg.lstsq(d.mat[:, s], y, rcond=None)
        assert np.allclose(u[s], refit, atol=1e-10)

    def test_residual_nonincreasing_in_budget(self):
        rng = np.random.default_rng(2)
        d = random_frame(rng, 6, 12)
        y = rng.standard_normal(6)
        resids = [
            np.linalg.norm(y - d.mat @ omp_one(d, y, k)) for k in range(7)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(resids, resids[1:]))

    def test_residual_tol_stops_early(self):
        d = Dictionary(np.eye(3))
        u = omp_one(d, np.array([5.0, 1e-9, 0.0]), k=3, residual_tol=1e-6)
        assert list(support(u)) == [0]

    @pytest.mark.parametrize("k", [-1, 4])
    def test_budget_outside_zero_to_n_rejected(self, k):
        with pytest.raises(ValueError, match=f"budget k={k} must be in \\[0, n=3\\]"):
            omp(np.eye(3), np.ones((3, 2)), k)

    @pytest.mark.parametrize("data", [np.ones(3), np.ones((2, 4))])
    def test_data_must_be_columns_of_dictionary_height(self, data):
        with pytest.raises(ValueError, match=re.escape(f"data shape {data.shape} does not "
                                                       "match (3, 3)")):
            omp(np.eye(3), data, 1)

    def test_zero_budget_gives_zero_codes(self):
        assert not omp(np.eye(3), np.ones((3, 2)), 0).any()


class TestOmpColumns:
    """The batched OMP against the per-column least-squares reference."""

    def assert_matches_reference(self, a, data, k, residual_tol=0.0):
        got = omp(a, data, k, residual_tol)
        ref = reference_omp_batch(a, data, k, residual_tol)
        assert np.array_equal(got != 0.0, ref != 0.0)
        assert np.abs(got - ref).max(initial=0.0) <= 1e-10
        return got

    @pytest.mark.parametrize("seed", range(6))
    def test_random_frames_non_unit_atoms(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(4, 10))
        m = int(rng.integers(n + 1, 3 * n))
        a = rng.standard_normal((n, m)) * rng.uniform(0.2, 5.0, size=m)
        data = rng.standard_normal((n, 40)) * 3.0
        for k in (1, 2, n // 2):
            self.assert_matches_reference(a, data, k)

    def test_exact_ties_go_to_lowest_index(self):
        data = np.array([[1.0, -2.0], [-1.0, 2.0], [1.0, 0.0], [1.0, 2.0]])
        got = self.assert_matches_reference(np.eye(4), data, 2)
        assert list(np.flatnonzero(got[:, 0])) == [0, 1]
        assert list(np.flatnonzero(got[:, 1])) == [0, 1]

    def test_rounded_ties_go_to_lowest_index_at_every_step(self):
        # Transposed DCT atoms correlate equally with transpose-symmetric
        # integer blocks, but their computed scores differ in the last bits
        # either way round. The atom added at step s is the difference of
        # the supports at budgets s and s - 1.
        a, data = kkt_system(np.random.default_rng(0), "dct-ties")
        m = a.shape[1]
        partner = np.arange(36).reshape(6, 6).T.ravel()  # the 6 x 6 DCT grid
        prev = np.zeros((m, data.shape[1]))
        rounded_up = 0
        for size in range(1, 5):
            got = self.assert_matches_reference(a, data, size)
            added = (got != 0.0) & (prev == 0.0)
            assert np.all(added.sum(axis=0) == 1)
            score = np.abs(a.T @ (data - a @ prev))
            score[prev != 0.0] = -1.0
            tied = score >= (1.0 - 1e-12) * score.max(axis=0)
            lowest = tied.argmax(axis=0)
            assert np.array_equal(added.argmax(axis=0), lowest)
            twin = partner[lowest]
            cols = np.flatnonzero(twin < m)
            high, low = score[twin[cols], cols], score[lowest[cols], cols]
            rounded_up += np.count_nonzero(tied[twin[cols], cols] & (high > low))
            prev = got
        # A plain argmax takes the higher index at such steps (119 here).
        assert rounded_up > 0

    def test_full_scale_budget_equals_dimension(self):
        # 8 x 8 texture blocks against the 4x overcomplete DCT at k = n = 64.
        a = dct_dictionary(64, 256).mat
        data = to_blocks(texture(0), 8, subtract_mean=True).blocks[:, :24]
        got = self.assert_matches_reference(a, data, 64)
        assert np.all((got != 0.0).sum(axis=0) == 64)
        assert np.abs(data - a @ got).max() <= 1e-12 * np.abs(data).max()

    def test_early_stop_at_residual_tol(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((6, 10)) * rng.uniform(0.5, 2.0, size=10)
        data = rng.standard_normal((6, 12))
        data[:, :4] = a[:, [3, 3, 7, 1]] * [2.0, -1.0, 0.5, 4.0]
        data[:, 4:6] = a[:, [2, 5]] @ np.array([[1.0, 2.0], [-3.0, 1.0]])
        got = self.assert_matches_reference(a, data, 5, residual_tol=1e-8)
        sizes = (got != 0.0).sum(axis=0)
        assert list(sizes[:4]) == [1, 1, 1, 1]
        assert np.all(sizes[6:] == 5)

    def test_zero_columns(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((5, 9))
        data = rng.standard_normal((5, 7))
        data[:, [0, 3, 6]] = 0.0
        got = self.assert_matches_reference(a, data, 3)
        assert np.all(got[:, [0, 3, 6]] == 0.0)

    def test_budget_equals_dimension(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((6, 11)) * rng.uniform(0.5, 2.0, size=11)
        data = rng.standard_normal((6, 25))
        got = self.assert_matches_reference(a, data, 6)
        assert np.all((got != 0.0).sum(axis=0) == 6)
        assert np.linalg.norm(data - a @ got) <= 1e-10

    def test_column_count_not_a_batch_multiple(self, monkeypatch):
        # Batches of 3 columns at k = 4, so 11 columns end in a short batch.
        monkeypatch.setattr(sparse_solvers, "_OMP_BATCH_ENTRIES",
                            3 * sparse_solvers._omp_lane_entries(8, 20, 4))
        rng = np.random.default_rng(10)
        a = rng.standard_normal((8, 20)) * rng.uniform(0.5, 2.0, size=20)
        data = rng.standard_normal((8, 11))
        data[:, 4] = 0.0
        self.assert_matches_reference(a, data, 4)

    @pytest.mark.parametrize("per_batch", [1, 3, 7])
    def test_batches_do_not_change_codes(self, per_batch, monkeypatch):
        # k = n fills every inverse buffer; zero columns never start, and
        # exact one- and two-atom columns stop while their batch-mates go on.
        rng = np.random.default_rng(14)
        n = 6
        a = rng.standard_normal((n, 14)) * rng.uniform(0.5, 2.0, size=14)
        data = rng.standard_normal((n, 23))
        data[:, [0, 9, 17]] = 0.0
        data[:, [2, 5, 11]] = a[:, [4, 4, 13]] * [1.5, -2.0, 0.25]
        data[:, [6, 14, 20]] = a[:, [1, 8]] @ rng.standard_normal((2, 3))
        whole = self.assert_matches_reference(a, data, n, residual_tol=1e-8)
        assert set((whole != 0.0).sum(axis=0)) == {0, 1, 2, n}
        monkeypatch.setattr(sparse_solvers, "_OMP_BATCH_ENTRIES",
                            per_batch * sparse_solvers._omp_lane_entries(n, 14, n))
        assert omp(a, data, n, residual_tol=1e-8).tobytes() == whole.tobytes()

    def test_lanes_do_not_change_codes_at_full_scale(self, monkeypatch):
        # The explicit residual's products round differently by batch
        # height, but the codes must not. One lane also catches projections
        # formed per batch. 1e-12 is K-SVD's stopping tolerance.
        a = dct_dictionary(64, 256).mat
        data = to_blocks(texture(3).astype(float), 8, subtract_mean=True).blocks
        per_lane = sparse_solvers._omp_lane_entries(64, 256, 64)
        codes = []
        for lanes in (1, 16, 32, 64, 256):
            monkeypatch.setattr(sparse_solvers, "_OMP_BATCH_ENTRIES", lanes * per_lane)
            codes.append(omp(a, data, 64, 1e-12).tobytes())
        assert codes[1:] == codes[:1] * 4

    def test_exact_ties_do_not_depend_on_lanes(self, monkeypatch):
        # Transposed DCT atoms tie exactly in exact arithmetic on
        # transpose-symmetric blocks. Their scores come from the residual's
        # products, which round differently at one lane and in a batch of
        # 16 or all 300; a plain argmax then picks by batch height.
        a, data = kkt_system(np.random.default_rng(0), "dct-ties")
        whole = omp(a, data, 4).tobytes()  # one batch of all 300 columns
        per_lane = sparse_solvers._omp_lane_entries(*a.shape, 4)
        for lanes in (1, 16):
            monkeypatch.setattr(sparse_solvers, "_OMP_BATCH_ENTRIES", lanes * per_lane)
            assert omp(a, data, 4).tobytes() == whole

    def test_full_scale_memory(self):
        a = dct_dictionary(64, 256).mat
        data = np.random.default_rng(13).standard_normal((64, 256))
        # K-SVD passes in the projections it shares with its refit, so the
        # peak counts the Gram, the codes and one batch's buffers.
        proj = data.T @ a
        omp(a, data, 64, 0.0, proj)
        tracemalloc.start()
        try:
            omp(a, data, 64, 0.0, proj)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Deterministic: 3.95 MiB at 64 lanes. The Gram and the codes take
        # 0.5 MiB each, and the batch's lane buffers, as the budget counts
        # them, 2.56 MiB. The batch's output rows, the previous step's
        # correlations, the supports and the product temporaries take the
        # other 0.39 MiB, of the 0.5 MiB the pin allows them.
        budget = sparse_solvers._OMP_BATCH_ENTRIES
        assert budget // sparse_solvers._omp_lane_entries(64, 256, 64) == 64
        assert peak <= 2 ** 20 + 8 * budget + 0.5 * 2 ** 20

    def test_dependent_atom_stops_the_column(self):
        # Three atoms in a plane: once two are in use the residual is at
        # rounding level and the third adds nothing but noise.
        rng = np.random.default_rng(3)
        plane = rng.standard_normal((3, 2))
        a = plane @ np.array([[1.0, 0.0, 0.6], [0.0, 1.0, 0.8]])
        data = plane @ rng.standard_normal((2, 6))
        got = omp(a, data, 3)
        assert np.all((got != 0.0).sum(axis=0) == 2)
        assert np.abs(data - a @ got).max() <= 1e-12


class TestSupportSlots:
    @settings(max_examples=200, deadline=None)
    @given(hnp.arrays(bool, hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=40)),
           st.integers(0, 39))
    @example(np.zeros((5, 0), dtype=bool), 0)  # no columns
    @example(np.zeros((0, 3), dtype=bool), 0)  # no rows
    @example(np.zeros((4, 3), dtype=bool), 0)  # width 0
    def test_matches_per_column_reference(self, present, empty):
        m, n_cols = present.shape
        if n_cols:
            present[:, empty % n_cols] = False
        supports = [np.flatnonzero(present[:, j]) for j in range(n_cols)]
        width = max((s.size for s in supports), default=0)
        want = np.zeros((n_cols, width), dtype=np.intp)
        for j, support in enumerate(supports):
            want[j] = np.concatenate((support, m + np.arange(support.size, width)))
        got = _support_slots(present)
        assert got.dtype == np.intp and got.shape == want.shape
        assert np.array_equal(got, want)


class TestRefitSupports:
    def test_slots_list_supports_then_padding(self):
        present = np.zeros((5, 4), dtype=bool)
        present[[0, 3, 4], 0] = True
        present[[2], 1] = True
        present[[1, 4], 3] = True
        assert np.array_equal(_support_slots(present),
                              [[0, 3, 4], [2, 6, 7], [5, 6, 7], [1, 4, 7]])

    def test_kept_slots_give_the_same_codes(self, monkeypatch):
        monkeypatch.setattr(sparse_solvers, "_REFIT_BATCH_ENTRIES", 2 * 3 ** 2)
        rng = np.random.default_rng(12)
        dict_mat = rng.standard_normal((6, 10))
        data = rng.standard_normal((6, 7))
        codes = np.where(rng.random((10, 7)) < 0.3, rng.standard_normal((10, 7)), 0.0)
        gram, proj = dict_mat.T @ dict_mat, dict_mat.T @ data
        slots = _support_slots(codes != 0)
        got = _refit_supports(gram, proj, codes, slots)
        assert got.tobytes() == _refit_supports(gram, proj, codes).tobytes()
        assert np.array_equal(got != 0, codes != 0)

    def test_matches_per_column_lstsq_across_batches(self, monkeypatch):
        # Batches of 2 columns at support width 3; 7 columns end short.
        monkeypatch.setattr(sparse_solvers, "_REFIT_BATCH_ENTRIES", 2 * 3 ** 2)
        rng = np.random.default_rng(9)
        dict_mat = rng.standard_normal((6, 10))
        data = rng.standard_normal((6, 7))
        codes = np.zeros((10, 7))
        supports = ([0, 4, 9], [2], [], [1, 3, 5], [7, 8], [6], [0, 9])
        for j, support in enumerate(supports):
            codes[support, j] = 1.0
        got = _refit_supports(dict_mat.T @ dict_mat, dict_mat.T @ data, codes)
        for j in range(7):
            support = np.flatnonzero(codes[:, j])
            want = np.zeros(10)
            if support.size:
                want[support] = np.linalg.lstsq(dict_mat[:, support], data[:, j],
                                                rcond=None)[0]
            assert np.allclose(got[:, j], want, atol=1e-12)

    def test_zero_atom_keeps_its_code(self):
        rng = np.random.default_rng(10)
        dict_mat = rng.standard_normal((6, 8))
        dict_mat[:, 3] = 0.0
        data = rng.standard_normal((6, 4))
        codes = np.zeros((8, 4))
        supports = ([3], [0, 3, 5], [1, 2], [3, 7, 6])
        for j, support in enumerate(supports):
            codes[support, j] = 2.0 + j
        got = _refit_supports(dict_mat.T @ dict_mat, dict_mat.T @ data, codes)
        assert np.array_equal(got[3], codes[3])
        for j, support in enumerate(supports):
            live = [i for i in support if i != 3]
            want = np.zeros(8)
            want[3] = codes[3, j]
            if live:
                want[live] = np.linalg.lstsq(dict_mat[:, live], data[:, j],
                                             rcond=None)[0]
            assert np.allclose(got[:, j], want, atol=1e-12)

    def test_singular_support_names_its_column_in_a_later_batch(self, monkeypatch):
        # Batches of 2 columns at support width 2; column 5 is in the third.
        monkeypatch.setattr(sparse_solvers, "_REFIT_BATCH_ENTRIES", 2 * 2 ** 2)
        # Integer entries keep the Gram exact: atoms 1 and 2 are equal.
        dict_mat = np.array([[1.0, 2.0, 2.0, 0.0],
                             [0.0, 1.0, 1.0, 1.0],
                             [1.0, 0.0, 0.0, 1.0]])
        data = np.arange(18.0).reshape(3, 6)
        codes = np.zeros((4, 6))
        supports = ([0, 1], [2, 3], [0], [1, 3], [0, 2], [1, 2])
        for j, support in enumerate(supports):
            codes[support, j] = 1.0
        gram = dict_mat.T @ dict_mat
        with pytest.raises(SingularCoefficientGram, match="code column 5 is singular"):
            _refit_supports(gram, dict_mat.T @ data, codes)


class TestBasisPursuit:
    """min ||u||_1 s.t. D u = x: ``bpdn`` at the radius 0."""

    def test_square_invertible_unique(self):
        rng = np.random.default_rng(4)
        mat = rng.standard_normal((4, 4)) + 4 * np.eye(4)
        x = rng.standard_normal(4)
        u = bpdn_one(mat, x, 0.0)
        assert np.allclose(u, np.linalg.solve(mat, x), atol=1e-7)

    def test_recovers_single_atom(self):
        rng = np.random.default_rng(5)
        d = random_frame(rng, 3, 6)
        x = d.mat[:, 2].copy()
        u = bpdn_one(d.mat, x, 0.0)
        oracle = bp_bruteforce_oracle(d, x)
        assert l1(u) == pytest.approx(l1(oracle), rel=1e-6)

    def test_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            d = random_frame(rng, 3, 6)
            x = rng.standard_normal(3)
            u = bpdn_one(d.mat, x, 0.0)
            oracle = l1(bp_bruteforce_oracle(d, x))
            assert abs(l1(u) - oracle) <= 1e-6 * max(1.0, oracle)
            assert np.linalg.norm(d.mat @ u - x) <= 1e-9 * max(
                1.0, np.linalg.norm(x)
            )

    def test_never_beaten_by_least_squares_point(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            d = random_frame(rng, 3, 6)
            x = rng.standard_normal(3)
            u = bpdn_one(d.mat, x, 0.0)
            pinv_point = np.linalg.pinv(d.mat) @ x
            assert l1(u) <= np.abs(pinv_point).sum() + 1e-8


class TestBpdn:
    def test_zero_when_ball_contains_origin(self):
        w = bpdn_one(np.eye(2), np.array([0.3, 0.1]), 1.0)
        assert np.array_equal(w, np.zeros(2))

    def test_identity_kkt_closed_form(self):
        # min ||w||_1 s.t. ||b - w|| <= eps has the soft-threshold solution
        # w = soft(b, t) with t chosen so the residual norm equals eps.
        b = np.array([3.0, 0.1])
        eps = 0.1
        t = eps / np.sqrt(2.0)
        expected = np.array([3.0 - t, 0.1 - t])
        w = bpdn_one(np.eye(2), b, eps)
        assert np.allclose(w, expected, atol=1e-6)
        assert np.linalg.norm(b - w) <= eps * (1 + 1e-6)

    def test_eps_zero_ends_every_grid(self):
        # The radius 0 is the end of the path, whichever radii come first.
        rng = np.random.default_rng(8)
        for _ in range(10):
            d = random_frame(rng, 3, 6)
            x = rng.standard_normal(3)
            scale = np.linalg.norm(x)
            grid = bpdn(d.mat, x[:, None], [scale / 2, scale / 10, 0.0])[-1, :, 0]
            assert grid.tobytes() == bpdn_one(d.mat, x, 0.0).tobytes()

    def test_feasibility_contract(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            a = rng.standard_normal((5, 8))
            b = rng.standard_normal(5) * 3
            eps = 0.5
            w = bpdn_one(a, b, eps)
            assert np.linalg.norm(b - a @ w) <= eps * (1 + 1e-3)

    def test_matches_cvxpy_reference(self):
        cvxpy = pytest.importorskip("cvxpy")
        rng = np.random.default_rng(10)
        for _ in range(10):
            a = rng.standard_normal((4, 7))
            b = rng.standard_normal(4) * 2
            eps = 0.7
            got = bpdn_one(a, b, eps)
            w = cvxpy.Variable(7)
            prob = cvxpy.Problem(
                cvxpy.Minimize(cvxpy.norm1(w)),
                [cvxpy.norm2(b - a @ w) <= eps],
            )
            prob.solve(solver="CLARABEL")
            ref = float(prob.value)
            assert l1(got) <= ref * (1 + 1e-4) + 1e-6
            assert l1(got) >= ref * (1 - 1e-4) - 1e-6

    @pytest.mark.parametrize("kind", ["canonical", "non-dual", "stacked", "dct-ties"])
    def test_kkt_certificate(self, kind):
        # An offline optimality certificate at every radius of a grid.
        a, b = kkt_system(np.random.default_rng(30), kind)
        assert_kkt_certificate(a, b)

    def test_rejects_bad_radius(self):
        a, b = np.eye(2), np.ones(2)
        for eps in (float("nan"), -1.0):
            with pytest.raises(ValueError):
                bpdn_one(a, b, eps)

    def test_infinite_radius_gives_zero_code(self):
        w = bpdn_one(np.eye(2), np.array([3.0, -4.0]), float("inf"))
        assert np.array_equal(w, np.zeros(2))

    @pytest.mark.parametrize("kind", ["canonical", "stacked"])
    def test_huge_radius_is_an_infinite_one(self, kind):
        # 1e308 squares to inf, which like any radius above the data norm
        # keeps the zero code; the overflow raises no warning, and the
        # other radii's codes do not move.
        a, b = recovery_system(np.random.default_rng(27), kind, 6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            huge = bpdn(a, b, [1e308, 10.0, 0.0])
            inf = bpdn(a, b, [np.inf, 10.0, 0.0])
        assert huge.tobytes() == inf.tobytes()
        assert not huge[0].any() and huge[1:].any()

    def test_eps_zero_agrees_with_oracle_on_twenty_instances(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            d = random_frame(rng, 4, 7)
            x = rng.standard_normal(4)
            w = bpdn_one(d.mat, x, 0.0)
            oracle = l1(bp_bruteforce_oracle(d, x))
            assert abs(l1(w) - oracle) <= 1e-5 * max(1.0, oracle)


class TestBpdnColumns:
    """The lane-batched homotopy behind every ball-constrained solve."""

    @pytest.mark.parametrize("kind", ["non-dual", "stacked"])
    def test_batch_equals_single_column_solves(self, kind):
        # Paths end after different numbers of steps; the ones still
        # running must evolve as if they were solved alone, to the byte.
        rng = np.random.default_rng(20)
        a, b = recovery_system(rng, kind, 40)
        radii = [10.0, 2.0, 0.1]
        got = bpdn(a, b, radii)
        for j in range(b.shape[1]):
            one = bpdn(a[j : j + 1] if kind == "stacked" else a,
                                    b[:, j : j + 1], radii)
            assert got[:, :, j].tobytes() == one[:, :, 0].tobytes()

    def test_batches_hold_one_factor_width(self, monkeypatch):
        # The stacked systems observe different counts of rows, so their
        # ranks pad to factor widths 8 and 16. Every column runs once, in a
        # batch whose lanes all have the batch's width.
        a, b = recovery_system(np.random.default_rng(20), "stacked", 40)
        ranks = np.linalg.matrix_rank(a)
        widths = -(-ranks // sparse_solvers._GRAM_PAD) * sparse_solvers._GRAM_PAD
        assert sorted(set(widths.tolist())) == [8, 16]
        calls = []
        block = sparse_solvers._homotopy_block

        def spy(atoms, data, radii, rank, width):
            cols = [int(np.flatnonzero((b.T == row).all(axis=1))[0]) for row in data]
            calls.append((cols, rank.tolist(), width))
            return block(atoms, data, radii, rank, width)

        monkeypatch.setattr(sparse_solvers, "_homotopy_block", spy)
        bpdn(a, b, [10.0, 2.0, 0.1])
        assert sorted(width for _, _, width in calls) == [8, 16]
        for cols, rank, width in calls:
            assert rank == ranks[cols].tolist()
            assert (widths[cols] == width).all()
        assert sorted(j for cols, _, _ in calls for j in cols) == list(range(40))

    def test_eps_zero_matches_oracle(self):
        rng = np.random.default_rng(21)
        a = nonunit_frame(rng, 4, 8)
        b = rng.standard_normal((4, 10))
        codes = bpdn(a, b, [0.0])[0]
        for j in range(b.shape[1]):
            oracle = bp_bruteforce_oracle(Dictionary(a), b[:, j])
            assert abs(np.abs(codes[:, j]).sum() - l1(oracle)) <= 1e-9 * l1(oracle)
            assert np.linalg.norm(a @ codes[:, j] - b[:, j]) <= 1e-9 * np.linalg.norm(b[:, j])

    @pytest.mark.parametrize("stacked", [False, True])
    def test_duplicate_and_zero_atoms(self, stacked):
        # Atoms the support already spans "join" only through rounding;
        # such steps must not be taken.
        rng = np.random.default_rng(22)
        a = rng.standard_normal((6, 10))
        a[:, 7] = a[:, 2]
        a[:, 9] = -a[:, 4]
        a[:, 8] = 0.0
        b = rng.standard_normal((6, 200))
        system = np.broadcast_to(a, (200, 6, 10)) if stacked else a
        radii = [2.0, 1.0, 0.3, 0.0]
        codes = bpdn(system, b, radii)
        for eps, block in zip(radii, codes):
            resid = np.linalg.norm(b - a @ block, axis=0)
            inside = np.linalg.norm(b, axis=0) <= eps
            assert np.all(np.abs(resid[~inside] - eps) <= 1e-9 * np.linalg.norm(b, axis=0)[~inside])
            assert not block[:, inside].any()

    @pytest.mark.parametrize("stacked", [False, True])
    def test_path_that_drops_an_atom(self, stacked):
        # On this instance atom 6 joins the path and later leaves it: it
        # is active at a larger radius and inactive at a smaller one.
        rng = np.random.default_rng(1)
        a = rng.standard_normal((4, 8))
        b = rng.standard_normal((4, 1))
        norm_b = np.linalg.norm(b)
        radii = norm_b * np.linspace(1.0, 0.0, 41)
        codes = bpdn(a[None] if stacked else a, b, radii)[:, :, 0]
        active = codes[:, 6] != 0
        assert active.any() and not active[np.argmax(active):].all()
        oracle = bp_bruteforce_oracle(Dictionary(a), b[:, 0])
        assert abs(np.abs(codes[-1]).sum() - l1(oracle)) <= 1e-9 * l1(oracle)
        assert np.linalg.norm(a @ codes[-1] - b[:, 0]) <= 1e-9 * norm_b
        for eps, w in zip(radii[:-1], codes[:-1]):
            r = b[:, 0] - a @ w
            assert abs(np.linalg.norm(r) - eps) <= 1e-9 * norm_b
            g = a.T @ r
            g /= np.abs(g).max()
            on = w != 0
            if on.any():
                assert np.abs(g[on] - np.sign(w[on])).max() <= 1e-9
            assert np.abs(g[~on]).max() <= 1.0 + 1e-9

    @pytest.mark.parametrize("stacked", [False, True])
    def test_lane_factors_invert_the_support_gram(self, stacked):
        # After joins and drops from the first, a middle and the last slot,
        # each lane's R whitens its support Gram and d_S = G_S^-1 sign_S.
        rng = np.random.default_rng(25)
        m = 10
        atoms = rng.standard_normal((3, m, 6))
        if not stacked:
            atoms[:] = atoms[0]
        gram = np.zeros((m + 1, m + 1))
        gram[:m, :m] = atoms[0] @ atoms[0].T
        signs = rng.choice([-1.0, 1.0], (3, m))
        factors = sparse_solvers._LaneFactors(3, 8, m)

        def append(lanes, new):
            new = np.asarray(new)
            factors.append(atoms if stacked else gram, np.asarray(lanes), new,
                           signs[np.arange(3), new])

        for new in ([0, 1, 2], [3, 4, 5], [6, 7, 8]):
            append([0, 1, 2], new)
        factors.remove(np.array([0, 2]), np.array([0, 8]))
        append([0, 1, 2], [9, 9, 9])
        factors.remove(np.array([1]), np.array([4]))
        assert sorted(factors.support[1, : factors.size[1]]) == [1, 7, 9]
        for lane in range(3):
            size = factors.size[lane]
            slots = factors.support[lane, :size]
            support_gram = atoms[lane, slots] @ atoms[lane, slots].T
            fac = factors.factor[lane]
            assert np.abs(fac[:size, :size] @ support_gram @ fac[:size, :size].T
                          - np.eye(size)).max() <= 1e-12
            expect = np.linalg.solve(support_gram, signs[lane, slots])
            assert np.abs(factors.d_s[lane, :size] - expect).max() <= 1e-12 * np.abs(expect).max()
            assert not fac[size:].any() and not fac[:, size:].any()
            assert not factors.z[lane, size:].any() and not factors.d_s[lane, size:].any()

    @pytest.mark.parametrize("mask_kind", ["random_mask", "bernoulli"])
    @pytest.mark.parametrize("pair", [False, True], ids=["dct", "self-dual"])
    @pytest.mark.parametrize("block,m", [(4, 32), (8, 256)], ids=["desk", "full"])
    def test_inpaint_ranks_are_observed_row_counts(self, block, m, pair, mask_kind,
                                                   monkeypatch):
        # Row subsets of a frame have full row rank, so each inpaint system's
        # rank is its count of observed rows. ``inpaint`` passes the counts:
        # it takes no SVD, and its codes are the SVD route's byte for byte.
        # ``random_mask`` observes as many pixels in every block; a Bernoulli
        # mask does not, so its systems carry zero rows.
        side = 16 * block
        img = texture(3)[:side, :side].astype(float)
        if mask_kind == "random_mask":
            mask = random_mask(img.shape, 0.5, 0, block)
        else:
            observed = np.random.default_rng(0).random(img.shape) < 0.5
            observed[::block, ::block] = True
            mask = Mask(observed)
        blocked = to_blocks(np.where(mask.observed, img, 0.0), block, subtract_mean=True)
        mat = dct_dictionary(block * block, m).mat
        synth = Dictionary(self_dual_pair(mat)) if pair else Dictionary(mat)
        systems, data, counts = _observed_systems(mask.block_columns(block), blocked.blocks,
                                                  synth.mat)
        assert np.array_equal(np.linalg.matrix_rank(systems), counts)
        expect = synth.mat @ bpdn(systems, data, [0.01])[0]

        def no_svd(*args, **kwargs):
            raise AssertionError("matrix_rank called")

        monkeypatch.setattr(np.linalg, "matrix_rank", no_svd)
        assert inpaint(blocked, mask, synth, 0.01).blocks.tobytes() == expect.tobytes()

    def test_dependent_rows_keep_their_rank(self, monkeypatch):
        # Lanes 0-5 have a nonzero row that is the sum of two others, and
        # lanes 0, 2 and 4 also one that doubles another, so their ranks are
        # below their counts of nonzero rows. Alone or stacked, their paths
        # run with the SVD's ranks, and no support grows past them.
        rng = np.random.default_rng(26)
        a = rng.standard_normal((8, 5, 10))
        a[:, 4] = 0.0
        a[:6, 3] = a[:6, 0] + a[:6, 1]
        a[:6:2, 2] = 2.0 * a[:6:2, 1]
        expect = [2, 3, 2, 3, 2, 3, 4, 4]
        assert np.linalg.matrix_rank(a).tolist() == expect
        b = (a @ rng.standard_normal((8, 10, 1)))[:, :, 0].T * 5.0
        ranks = []
        block = sparse_solvers._homotopy_block

        def spy(atoms, data, radii, rank, width):
            ranks.append(np.broadcast_to(rank, data.shape[:1]).tolist())
            return block(atoms, data, radii, rank, width)

        monkeypatch.setattr(sparse_solvers, "_homotopy_block", spy)
        for j in range(8):
            alone = bpdn(a[j : j + 1], b[:, j : j + 1], [0.0])[0]
            assert np.count_nonzero(alone) <= expect[j]
        assert ranks == [[rank] for rank in expect]
        codes = assert_kkt_certificate(a, b)
        assert ranks[-1] == expect
        assert (np.count_nonzero(codes, axis=1) <= expect).all()

    def test_ties_go_to_lowest_index(self):
        # Atoms 1 and 2 are equal, so they tie at every step; the code
        # goes to atom 1 alone.
        a = np.array([[2.0, 1.0, 1.0], [0.0, 1.0, 1.0]])
        w = bpdn(a, np.array([[0.0], [3.0]]), [1.0, 0.0])
        assert np.all(w[:, 1, 0] > 0) and not w[:, 2, 0].any()

    @pytest.mark.parametrize("swap", [False, True])
    def test_rounded_join_ties_go_to_lowest_index(self, swap, monkeypatch):
        # Column 86 of the desk denoise system of texture(5) (the self-dual
        # DCT pair, sigma 20, noise seed 0): atoms 19 and 31 reach +-lam at
        # the same gamma, 0.46934376157..., and their computed join times
        # differ by 3.8e-13 relative, 31's the smaller. Whichever atom
        # sits at the lower index joins first, in either order.
        pair = self_dual_pair(dct_dictionary(16, 32).mat)
        img = texture(5)[:64, :64]
        blocks = to_blocks(add_gaussian_noise(img, 20.0, 0), 4, subtract_mean=True,
                           mean_value=float(img.mean())).blocks
        order = np.arange(32)
        if swap:
            order[[19, 31]] = [31, 19]
        tri = np.linalg.qr(pair.T, mode="r")
        joins = []
        append = sparse_solvers._LaneFactors.append

        def record(factors, system, lanes, new, sign):
            joins.extend(new[lanes].tolist())
            return append(factors, system, lanes, new, sign)

        monkeypatch.setattr(sparse_solvers._LaneFactors, "append", record)
        bpdn((tri @ pair)[:, order], tri @ blocks[:, [86]],
                          np.arange(24.0, 0.0, -2.0))
        assert [j for j in joins if j in (19, 31)] == [19, 31]

    def test_integer_blocks_reach_eps_zero(self):
        # At the end of the path every atom the support spans "joins"
        # through rounding; on integer pixels against the DCT such steps
        # would make the support Gram singular.
        rng = np.random.default_rng(24)
        pixels = rng.integers(0, 256, (3000, 4, 4)).astype(float)
        blocks = to_blocks(np.hstack(list(pixels)), 4, subtract_mean=True).blocks
        a = dct_dictionary(16, 32).mat
        codes = bpdn(a, blocks, [0.0])[0]
        resid = np.linalg.norm(blocks - a @ codes, axis=0)
        assert np.all(resid <= 1e-9 * np.linalg.norm(blocks, axis=0))

    def test_unreachable_radius_raises(self):
        a = np.array([[1.0, 2.0], [0.0, 0.0]])
        with pytest.raises(SolverDidNotConverge, match="exceeds eps 0.5"):
            bpdn(a, np.array([[1.0], [1.0]]), [0.5])

    def test_step_cap_raises(self, monkeypatch):
        monkeypatch.setattr(sparse_solvers, "_PATH_MAX_STEPS", 2)
        a, b = recovery_system(np.random.default_rng(23), "stacked", 5)
        with pytest.raises(SolverDidNotConverge, match="within 2 steps"):
            bpdn(a, b, [0.0])

    def test_nan_codes_fail_the_radius_check(self, monkeypatch):
        def nan_block(atoms, b, radii, rank, width):
            return np.full((radii.size, b.shape[0], atoms.shape[-2]), np.nan)

        monkeypatch.setattr(sparse_solvers, "_homotopy_block", nan_block)
        with pytest.raises(SolverDidNotConverge, match="exceeds eps"):
            bpdn(np.eye(2), np.ones((2, 1)), [0.5])

    @pytest.mark.parametrize("radii", [[], [float("nan")], [-1.0], [1.0, 2.0]])
    def test_rejects_bad_grid(self, radii):
        with pytest.raises(ValueError):
            bpdn(np.eye(2), np.ones((2, 1)), radii)

    @pytest.mark.parametrize("system,data", [
        (np.eye(2), np.ones((3, 1))),        # rows differ from the data's
        (np.ones((3, 2, 2)), np.ones((2, 1))),  # one stacked system per column
        (np.ones(2), np.ones((2, 1))),       # neither one system nor a stack
        (np.eye(2), np.ones(2)),             # data not a matrix of columns
    ])
    def test_rejects_mismatched_system(self, system, data):
        with pytest.raises(ValueError, match=re.escape(f"system shape {system.shape} does "
                                                       f"not match data {data.shape}")):
            bpdn(system, data, [0.0])

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from texture import texture
from workloads import self_dual_pair

from pksvd import sparse_solvers
from pksvd.applications import Mask, _observed_systems, add_gaussian_noise, inpaint, random_mask
from pksvd.errors import SolverDidNotConverge, TooLarge
from pksvd.frames import Dictionary, canonical_dual, dct_dictionary
from pksvd.imaging import to_blocks
from pksvd.sparse_solvers import (
    ZERO_THRESHOLD,
    SparseVec,
    _homotopy_columns,
    _omp_columns,
    _support_slots,
    basis_pursuit,
    bp_bruteforce_oracle,
    bpdn,
    omp,
)


def random_frame(rng, n, m):
    return Dictionary(rng.standard_normal((n, m)))


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


def reference_omp_columns(a, data, k, residual_tol=0.0):
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
    codes = _homotopy_columns(a, b, radii)
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


class TestSparseVec:
    def test_support_threshold_is_exact(self):
        v = SparseVec(np.array([0.0, 2e-6, 1e-6, -5.0]))
        # strictly greater than the threshold counts as support
        assert list(v.support) == [1, 3]
        assert v.length == 4
        assert v.l1 == pytest.approx(5.0 + 3e-6)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            SparseVec(np.array([np.inf, 0.0]))


class TestOmp:
    def test_single_atom_signal(self):
        rng = np.random.default_rng(0)
        d = random_frame(rng, 4, 8)
        y = 3.0 * d.mat[:, 5]
        u = omp(d, y, k=1)
        expected = np.zeros(8)
        expected[5] = 3.0 * np.linalg.norm(d.mat[:, 5]) ** 0 * 1.0
        # coefficient equals 3 only for unit atoms; check reconstruction
        assert list(u.support) == [5]
        assert np.linalg.norm(d.mat @ u.entries - y) <= 1e-10

    def test_zero_signal(self):
        d = Dictionary(np.eye(4))
        u = omp(d, np.zeros(4), k=2)
        assert np.array_equal(u.entries, np.zeros(4))

    def test_greedy_order_on_identity(self):
        d = Dictionary(np.eye(4))
        y = np.array([1.0, -2.0, 0.0, 0.5])
        one = omp(d, y, k=1)
        assert np.allclose(one.entries, [0.0, -2.0, 0.0, 0.0])
        two = omp(d, y, k=2)
        assert np.allclose(two.entries, [1.0, -2.0, 0.0, 0.0])

    def test_least_squares_on_support(self):
        rng = np.random.default_rng(1)
        d = random_frame(rng, 5, 9)
        y = rng.standard_normal(5)
        u = omp(d, y, k=3)
        s = u.support
        refit, *_ = np.linalg.lstsq(d.mat[:, s], y, rcond=None)
        assert np.allclose(u.entries[s], refit, atol=1e-10)

    def test_residual_nonincreasing_in_budget(self):
        rng = np.random.default_rng(2)
        d = random_frame(rng, 6, 12)
        y = rng.standard_normal(6)
        resids = [
            np.linalg.norm(y - d.mat @ omp(d, y, k).entries) for k in range(7)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(resids, resids[1:]))

    def test_residual_tol_stops_early(self):
        d = Dictionary(np.eye(3))
        u = omp(d, np.array([5.0, 1e-9, 0.0]), k=3, residual_tol=1e-6)
        assert list(u.support) == [0]


class TestOmpColumns:
    """The batched OMP against the per-column least-squares reference."""

    def assert_matches_reference(self, a, data, k, residual_tol=0.0):
        got = _omp_columns(a, data, k, residual_tol)
        ref = reference_omp_columns(a, data, k, residual_tol)
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
        monkeypatch.setattr(sparse_solvers, "_OMP_BATCH_ENTRIES", 3 * 4 ** 2)
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
        monkeypatch.setattr(sparse_solvers, "_OMP_BATCH_ENTRIES", per_batch * n ** 2)
        assert _omp_columns(a, data, n, residual_tol=1e-8).tobytes() == whole.tobytes()

    def test_full_scale_memory(self):
        a = dct_dictionary(64, 256).mat
        data = np.random.default_rng(13).standard_normal((64, 256))
        # K-SVD passes in the projections it shares with its refit, so the
        # peak counts the Gram, the codes and one batch's buffers.
        proj = data.T @ a
        _omp_columns(a, data, 64, 0.0, proj)
        tracemalloc.start()
        try:
            _omp_columns(a, data, 64, 0.0, proj)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Deterministic: 1.74 MiB, of which the Gram, the codes and the
        # batch's inverse Cholesky factors take 0.5 MiB each. Support-Gram
        # inverses grown in place by a rank-1 update, which needs a
        # temporary the size of the inverses, peak at 2.33 MiB.
        assert peak <= 2.0 * 2 ** 20

    def test_dependent_atom_stops_the_column(self):
        # Three atoms in a plane: once two are in use the residual is at
        # rounding level and the third adds nothing but noise.
        rng = np.random.default_rng(3)
        plane = rng.standard_normal((3, 2))
        a = plane @ np.array([[1.0, 0.0, 0.6], [0.0, 1.0, 0.8]])
        data = plane @ rng.standard_normal((2, 6))
        got = _omp_columns(a, data, 3)
        assert np.all((got != 0.0).sum(axis=0) == 2)
        assert np.abs(data - a @ got).max() <= 1e-12

    def test_single_column_wrapper(self):
        rng = np.random.default_rng(11)
        d = random_frame(rng, 5, 9)
        y = rng.standard_normal(5)
        u = omp(d, y, 3)
        assert np.array_equal(u.entries, _omp_columns(d.mat, y[:, None], 3)[:, 0])


class TestSupportSlots:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_stable_argsort(self, data):
        mask = data.draw(hnp.arrays(bool, hnp.array_shapes(min_dims=2, max_dims=2,
                                                           min_side=0, max_side=40)))
        if mask.shape[1]:
            mask[:, data.draw(st.integers(0, mask.shape[1] - 1))] = False
        count = data.draw(st.integers(0, mask.shape[0]))
        got = _support_slots(mask, count)
        want = np.argsort(~mask, axis=0, kind="stable")[:count]
        assert got.dtype == want.dtype and got.flags.c_contiguous
        assert np.array_equal(got, want)


class TestBruteforceOracle:
    def test_identity(self):
        u = bp_bruteforce_oracle(Dictionary(np.eye(2)), np.array([1.0, 1.0]))
        assert np.allclose(u.entries, [1.0, 1.0], atol=1e-12)
        assert u.l1 == pytest.approx(2.0)

    def test_prefers_shared_atom(self):
        mat = np.hstack([np.eye(2), np.array([[1.0], [1.0]]) / np.sqrt(2)])
        u = bp_bruteforce_oracle(Dictionary(mat), np.array([1.0, 1.0]))
        assert np.allclose(u.entries, [0.0, 0.0, np.sqrt(2)], atol=1e-12)
        assert u.l1 == pytest.approx(np.sqrt(2))

    def test_zero_signal(self):
        u = bp_bruteforce_oracle(Dictionary(np.eye(3)), np.zeros(3))
        assert np.array_equal(u.entries, np.zeros(3))

    def test_too_large(self):
        rng = np.random.default_rng(3)
        with pytest.raises(TooLarge):
            bp_bruteforce_oracle(random_frame(rng, 3, 13), np.ones(3))


class TestBasisPursuit:
    def test_square_invertible_unique(self):
        rng = np.random.default_rng(4)
        mat = rng.standard_normal((4, 4)) + 4 * np.eye(4)
        d = Dictionary(mat)
        x = rng.standard_normal(4)
        u = basis_pursuit(d, x)
        assert np.allclose(u.entries, np.linalg.solve(mat, x), atol=1e-7)

    def test_recovers_single_atom(self):
        rng = np.random.default_rng(5)
        d = random_frame(rng, 3, 6)
        x = d.mat[:, 2].copy()
        u = basis_pursuit(d, x)
        oracle = bp_bruteforce_oracle(d, x)
        assert u.l1 == pytest.approx(oracle.l1, rel=1e-6)

    def test_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            d = random_frame(rng, 3, 6)
            x = rng.standard_normal(3)
            u = basis_pursuit(d, x)
            oracle = bp_bruteforce_oracle(d, x)
            assert abs(u.l1 - oracle.l1) <= 1e-6 * max(1.0, oracle.l1)
            assert np.linalg.norm(d.mat @ u.entries - x) <= 1e-9 * max(
                1.0, np.linalg.norm(x)
            )

    def test_never_beaten_by_least_squares_point(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            d = random_frame(rng, 3, 6)
            x = rng.standard_normal(3)
            u = basis_pursuit(d, x)
            pinv_point = np.linalg.pinv(d.mat) @ x
            assert u.l1 <= np.abs(pinv_point).sum() + 1e-8


class TestBpdn:
    def test_zero_when_ball_contains_origin(self):
        w = bpdn(np.eye(2), np.array([0.3, 0.1]), eps=1.0)
        assert np.array_equal(w.entries, np.zeros(2))

    def test_identity_kkt_closed_form(self):
        # min ||w||_1 s.t. ||b - w|| <= eps has the soft-threshold solution
        # w = soft(b, t) with t chosen so the residual norm equals eps.
        b = np.array([3.0, 0.1])
        eps = 0.1
        t = eps / np.sqrt(2.0)
        expected = np.array([3.0 - t, 0.1 - t])
        w = bpdn(np.eye(2), b, eps=eps)
        assert np.allclose(w.entries, expected, atol=1e-6)
        assert np.linalg.norm(b - w.entries) <= eps * (1 + 1e-6)

    def test_eps_zero_reduces_to_basis_pursuit(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            d = random_frame(rng, 3, 6)
            x = rng.standard_normal(3)
            w = bpdn(d.mat, x, eps=0.0)
            u = basis_pursuit(d, x)
            assert abs(w.l1 - u.l1) <= 1e-5 * max(1.0, u.l1)

    def test_feasibility_contract(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            a = rng.standard_normal((5, 8))
            b = rng.standard_normal(5) * 3
            eps = 0.5
            w = bpdn(a, b, eps=eps)
            assert np.linalg.norm(b - a @ w.entries) <= eps * (1 + 1e-3)

    def test_matches_cvxpy_reference(self):
        cvxpy = pytest.importorskip("cvxpy")
        rng = np.random.default_rng(10)
        for _ in range(10):
            a = rng.standard_normal((4, 7))
            b = rng.standard_normal(4) * 2
            eps = 0.7
            got = bpdn(a, b, eps=eps)
            w = cvxpy.Variable(7)
            prob = cvxpy.Problem(
                cvxpy.Minimize(cvxpy.norm1(w)),
                [cvxpy.norm2(b - a @ w) <= eps],
            )
            prob.solve(solver="CLARABEL")
            ref = float(prob.value)
            assert got.l1 <= ref * (1 + 1e-4) + 1e-6
            assert got.l1 >= ref * (1 - 1e-4) - 1e-6

    @pytest.mark.parametrize("kind", ["canonical", "non-dual", "stacked", "dct-ties"])
    def test_kkt_certificate(self, kind):
        # An offline optimality certificate at every radius of a grid.
        a, b = kkt_system(np.random.default_rng(30), kind)
        assert_kkt_certificate(a, b)

    def test_rejects_bad_radius(self):
        a, b = np.eye(2), np.ones(2)
        for eps in (float("nan"), -1.0):
            with pytest.raises(ValueError):
                bpdn(a, b, eps)

    def test_infinite_radius_gives_zero_code(self):
        w = bpdn(np.eye(2), np.array([3.0, -4.0]), eps=float("inf"))
        assert np.array_equal(w.entries, np.zeros(2))

    @pytest.mark.parametrize("kind", ["canonical", "stacked"])
    def test_huge_radius_is_an_infinite_one(self, kind):
        # 1e308 squares to inf, which like any radius above the data norm
        # keeps the zero code; the overflow raises no warning, and the
        # other radii's codes do not move.
        a, b = recovery_system(np.random.default_rng(27), kind, 6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            huge = _homotopy_columns(a, b, [1e308, 10.0, 0.0])
            inf = _homotopy_columns(a, b, [np.inf, 10.0, 0.0])
        assert huge.tobytes() == inf.tobytes()
        assert not huge[0].any() and huge[1:].any()

    def test_agrees_with_basis_pursuit_on_twenty_instances(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            d = random_frame(rng, 4, 7)
            x = rng.standard_normal(4)
            w = bpdn(d.mat, x, eps=0.0)
            u = basis_pursuit(d, x)
            assert abs(w.l1 - u.l1) <= 1e-5 * max(1.0, u.l1)

    def test_outputs_finite_and_threshold_support(self):
        rng = np.random.default_rng(12)
        a = rng.standard_normal((4, 9))
        b = rng.standard_normal(4)
        w = bpdn(a, b, eps=0.2)
        assert np.all(np.isfinite(w.entries))
        assert set(w.support) == {
            i for i, v in enumerate(w.entries) if abs(v) > ZERO_THRESHOLD
        }


class TestBpdnColumns:
    """The lane-batched homotopy behind every ball-constrained solve."""

    @pytest.mark.parametrize("kind", ["non-dual", "stacked"])
    def test_batch_equals_single_column_solves(self, kind):
        # Paths end after different numbers of steps; the ones still
        # running must evolve as if they were solved alone, to the byte.
        rng = np.random.default_rng(20)
        a, b = recovery_system(rng, kind, 40)
        radii = [10.0, 2.0, 0.1]
        got = _homotopy_columns(a, b, radii)
        for j in range(b.shape[1]):
            one = _homotopy_columns(a[j : j + 1] if kind == "stacked" else a,
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
        _homotopy_columns(a, b, [10.0, 2.0, 0.1])
        assert sorted(width for _, _, width in calls) == [8, 16]
        for cols, rank, width in calls:
            assert rank == ranks[cols].tolist()
            assert (widths[cols] == width).all()
        assert sorted(j for cols, _, _ in calls for j in cols) == list(range(40))

    def test_eps_zero_matches_oracle(self):
        rng = np.random.default_rng(21)
        a = nonunit_frame(rng, 4, 8)
        b = rng.standard_normal((4, 10))
        codes = _homotopy_columns(a, b, [0.0])[0]
        for j in range(b.shape[1]):
            oracle = bp_bruteforce_oracle(Dictionary(a), b[:, j])
            assert abs(np.abs(codes[:, j]).sum() - oracle.l1) <= 1e-9 * oracle.l1
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
        codes = _homotopy_columns(system, b, radii)
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
        codes = _homotopy_columns(a[None] if stacked else a, b, radii)[:, :, 0]
        active = codes[:, 6] != 0
        assert active.any() and not active[np.argmax(active):].all()
        oracle = bp_bruteforce_oracle(Dictionary(a), b[:, 0])
        assert abs(np.abs(codes[-1]).sum() - oracle.l1) <= 1e-9 * oracle.l1
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
        expect = synth.mat @ _homotopy_columns(systems, data, [0.01])[0]

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
            alone = _homotopy_columns(a[j : j + 1], b[:, j : j + 1], [0.0])[0]
            assert np.count_nonzero(alone) <= expect[j]
        assert ranks == [[rank] for rank in expect]
        codes = assert_kkt_certificate(a, b)
        assert ranks[-1] == expect
        assert (np.count_nonzero(codes, axis=1) <= expect).all()

    def test_ties_go_to_lowest_index(self):
        # Atoms 1 and 2 are equal, so they tie at every step; the code
        # goes to atom 1 alone.
        a = np.array([[2.0, 1.0, 1.0], [0.0, 1.0, 1.0]])
        w = _homotopy_columns(a, np.array([[0.0], [3.0]]), [1.0, 0.0])
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
        _homotopy_columns((tri @ pair)[:, order], tri @ blocks[:, [86]],
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
        codes = _homotopy_columns(a, blocks, [0.0])[0]
        resid = np.linalg.norm(blocks - a @ codes, axis=0)
        assert np.all(resid <= 1e-9 * np.linalg.norm(blocks, axis=0))

    def test_unreachable_radius_raises(self):
        a = np.array([[1.0, 2.0], [0.0, 0.0]])
        with pytest.raises(SolverDidNotConverge, match="exceeds eps 0.5"):
            _homotopy_columns(a, np.array([[1.0], [1.0]]), [0.5])

    def test_step_cap_raises(self, monkeypatch):
        monkeypatch.setattr(sparse_solvers, "_PATH_MAX_STEPS", 2)
        a, b = recovery_system(np.random.default_rng(23), "stacked", 5)
        with pytest.raises(SolverDidNotConverge, match="within 2 steps"):
            _homotopy_columns(a, b, [0.0])

    def test_nan_codes_fail_the_radius_check(self, monkeypatch):
        def nan_block(atoms, b, radii, rank, width):
            return np.full((radii.size, b.shape[0], atoms.shape[-2]), np.nan)

        monkeypatch.setattr(sparse_solvers, "_homotopy_block", nan_block)
        with pytest.raises(SolverDidNotConverge, match="exceeds eps"):
            _homotopy_columns(np.eye(2), np.ones((2, 1)), [0.5])

    @pytest.mark.parametrize("radii", [[], [float("nan")], [-1.0], [1.0, 2.0]])
    def test_rejects_bad_grid(self, radii):
        with pytest.raises(ValueError):
            _homotopy_columns(np.eye(2), np.ones((2, 1)), radii)

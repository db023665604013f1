import numpy as np
import pytest

from pksvd import sparse_solvers
from pksvd.errors import TooLarge
from pksvd.frames import Dictionary, canonical_dual
from pksvd.sparse_solvers import (
    ZERO_THRESHOLD,
    SparseVec,
    _apply,
    _apply_t,
    _bpdn_columns,
    _col_norms,
    _omp_columns,
    basis_pursuit,
    bp_bruteforce_oracle,
    bpdn,
    omp,
)


def random_frame(rng, n, m):
    return Dictionary(rng.standard_normal((n, m)))


def reference_omp(a, y, k, residual_tol=0.0):
    """Per-column OMP with a fresh least-squares solve per step."""
    coeffs = np.zeros(a.shape[1])
    support = []
    residual = y.copy()
    available = np.ones(a.shape[1], dtype=bool)
    while len(support) < k and np.linalg.norm(residual) > residual_tol:
        corr = np.abs(a.T @ residual)
        corr[~available] = -1.0
        best = int(np.argmax(corr))
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


def reference_bpdn_columns(a, b, eps, tol=1e-6, max_iter=2000):
    """The batched ball-constrained ADMM with every step written out: a
    soft-threshold z step, explicit scaled multiplier updates and
    ``einsum`` applies for a system stack."""
    stacked = a.ndim == 3

    def apply(mats, cols):
        return np.einsum("nqm,mn->qn", mats, cols) if stacked else mats @ cols

    def apply_t(mats, cols):
        return np.einsum("nqm,qn->mn", mats, cols) if stacked else mats.T @ cols

    def soft(v, t):
        return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)

    n_cols = b.shape[1]
    m = a.shape[-1]
    eps_all = np.broadcast_to(np.asarray(eps, dtype=float), (n_cols,))
    out = np.zeros((m, n_cols))
    active_idx = np.flatnonzero(_col_norms(b) > eps_all)
    scale = np.maximum(_col_norms(b[:, active_idx]), 1e-300)
    b = b[:, active_idx] / scale
    eps_act = eps_all[active_idx] / scale
    target = tol * np.maximum(1.0, _col_norms(b))
    sys_act = a[active_idx] if stacked else a
    inv = np.linalg.inv(np.swapaxes(sys_act, -1, -2) @ sys_act + np.eye(m))
    w = np.zeros((m, active_idx.size))
    z = np.zeros_like(w)
    uz = np.zeros_like(w)
    r = b.copy()
    ur = np.zeros_like(b)
    rho = np.ones(active_idx.size)
    relax = 1.7
    it = 0
    while active_idx.size and it < max_iter:
        it += 1
        w = apply(inv, (z - uz) + apply_t(sys_act, b - r - ur))
        aw = apply(sys_act, w)
        z_old, r_old = z, r
        w_h = relax * w + (1.0 - relax) * z
        aw_h = relax * aw + (1.0 - relax) * (b - r)
        z = soft(w_h + uz, 1.0 / rho)
        v = b - aw_h - ur
        norms = _col_norms(v)
        shrink = np.ones(norms.size)
        np.divide(eps_act, norms, out=shrink, where=norms > eps_act)
        r = v * shrink
        uz = uz + w_h - z
        ur = ur + aw_h + r - b
        if it % 8 == 0 or it == max_iter:
            feas_norm = _col_norms(aw + r - b)
            split_norm = _col_norms(w - z)
            dual = rho * np.sqrt(_col_norms(z - z_old) ** 2
                                 + _col_norms(apply_t(sys_act, r - r_old)) ** 2)
            done = (feas_norm <= target) & (split_norm <= target) & (dual <= target)
            if done.any():
                out[:, active_idx[done]] = w[:, done] * scale[done]
                keep = ~done
                active_idx, scale, target = active_idx[keep], scale[keep], target[keep]
                b, eps_act, rho = b[:, keep], eps_act[keep], rho[keep]
                w, z, r, uz, ur = w[:, keep], z[:, keep], r[:, keep], uz[:, keep], ur[:, keep]
                if stacked:
                    sys_act, inv = sys_act[keep], inv[keep]
                feas_norm, split_norm, dual = feas_norm[keep], split_norm[keep], dual[keep]
            primal = np.sqrt(split_norm ** 2 + feas_norm ** 2)
            grow = primal > 10 * dual
            shrink_rho = dual > 10 * primal
            rho[grow] *= 2.0
            uz[:, grow] /= 2.0
            ur[:, grow] /= 2.0
            rho[shrink_rho] /= 2.0
            uz[:, shrink_rho] *= 2.0
            ur[:, shrink_rho] *= 2.0
    out[:, active_idx] = w * scale
    return out, active_idx.size == 0


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
        w = bpdn(np.eye(2), b, eps=eps, tol=1e-10, max_iter=50000)
        assert np.allclose(w.entries, expected, atol=1e-6)
        assert np.linalg.norm(b - w.entries) <= eps * (1 + 1e-6)

    def test_eps_zero_reduces_to_basis_pursuit(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            d = random_frame(rng, 3, 6)
            x = rng.standard_normal(3)
            w = bpdn(d.mat, x, eps=0.0, tol=1e-9, max_iter=50000)
            u = basis_pursuit(d, x)
            assert abs(w.l1 - u.l1) <= 1e-5 * max(1.0, u.l1)

    def test_feasibility_contract(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            a = rng.standard_normal((5, 8))
            b = rng.standard_normal(5) * 3
            eps = 0.5
            w = bpdn(a, b, eps=eps, tol=1e-8, max_iter=50000)
            assert np.linalg.norm(b - a @ w.entries) <= eps * (1 + 1e-3)

    def test_matches_cvxpy_reference(self):
        cvxpy = pytest.importorskip("cvxpy")
        rng = np.random.default_rng(10)
        for _ in range(10):
            a = rng.standard_normal((4, 7))
            b = rng.standard_normal(4) * 2
            eps = 0.7
            got = bpdn(a, b, eps=eps, tol=1e-9, max_iter=100000)
            w = cvxpy.Variable(7)
            prob = cvxpy.Problem(
                cvxpy.Minimize(cvxpy.norm1(w)),
                [cvxpy.norm2(b - a @ w) <= eps],
            )
            prob.solve(solver="CLARABEL")
            ref = float(prob.value)
            assert got.l1 <= ref * (1 + 1e-4) + 1e-6
            assert got.l1 >= ref * (1 - 1e-4) - 1e-6

    def test_agrees_with_basis_pursuit_on_twenty_instances(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            d = random_frame(rng, 4, 7)
            x = rng.standard_normal(4)
            w = bpdn(d.mat, x, eps=0.0, tol=1e-9, max_iter=50000)
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
    """The Moreau-form iteration against the step-by-step reference."""

    @pytest.mark.parametrize("kind", ["canonical", "non-dual", "stacked"])
    @pytest.mark.parametrize("settings", [dict(tol=1e-3, max_iter=1200), dict()],
                             ids=["recovery", "bpdn-defaults"])
    def test_matches_reference(self, kind, settings):
        a, b = recovery_system(np.random.default_rng(0), kind, 24)
        for eps in (0.0, 1e-6, 0.1, 2.0, 10.0):
            got, converged = _bpdn_columns(a, b, eps, **settings)
            ref, ref_converged = reference_bpdn_columns(a, b, eps, **settings)
            assert converged == ref_converged
            assert np.abs(got - ref).max() <= 1e-9 * np.abs(ref).max()

    @pytest.mark.parametrize("kind", ["non-dual", "stacked"])
    def test_batch_equals_single_column_solves(self, kind):
        # Columns converge at different checks; the ones still running
        # must evolve as if they were solved alone.
        rng = np.random.default_rng(20)
        a, b = recovery_system(rng, kind, 40)
        got, _ = _bpdn_columns(a, b, 2.0, tol=1e-3, max_iter=1200)
        for j in range(b.shape[1]):
            one, _ = _bpdn_columns(a[j : j + 1] if kind == "stacked" else a,
                                   b[:, j : j + 1], 2.0, tol=1e-3, max_iter=1200)
            assert np.abs(got[:, j] - one[:, 0]).max() <= 1e-9 * np.abs(one).max()

    def test_stacked_applies_match_einsum(self):
        rng = np.random.default_rng(5)
        mats = rng.standard_normal((7, 4, 6))
        cols = rng.standard_normal((6, 7))
        back = rng.standard_normal((4, 7))
        assert np.allclose(_apply(mats, cols), np.einsum("nqm,mn->qn", mats, cols),
                           rtol=0.0, atol=1e-12)
        assert np.allclose(_apply_t(mats, back), np.einsum("nqm,qn->mn", mats, back),
                           rtol=0.0, atol=1e-12)

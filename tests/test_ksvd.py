import numpy as np
import pytest

from pksvd import ksvd
from pksvd.frames import Dictionary, dct_dictionary
from pksvd.ksvd import KsvdConfig, ksvd_train


def normalized_columns(rng, n, m):
    mat = rng.standard_normal((n, m))
    return mat / np.linalg.norm(mat, axis=0, keepdims=True)


def fit_error(data, d, codes):
    return np.linalg.norm(data - d.mat @ codes) ** 2


class TestRefitSupports:
    def test_matches_per_column_lstsq_across_batches(self, monkeypatch):
        # Batches of 2 columns at support width 3; 7 columns end short.
        monkeypatch.setattr(ksvd, "_OMP_BATCH_ENTRIES", 2 * 3 ** 2)
        rng = np.random.default_rng(9)
        dict_mat = rng.standard_normal((6, 10))
        data = rng.standard_normal((6, 7))
        codes = np.zeros((10, 7))
        supports = ([0, 4, 9], [2], [], [1, 3, 5], [7, 8], [6], [0, 9])
        for j, support in enumerate(supports):
            codes[support, j] = 1.0
        got = ksvd._refit_supports(dict_mat, data, codes)
        for j in range(7):
            support = np.flatnonzero(codes[:, j])
            want = np.zeros(10)
            if support.size:
                want[support] = np.linalg.lstsq(dict_mat[:, support], data[:, j],
                                                rcond=None)[0]
            assert np.allclose(got[:, j], want, atol=1e-12)


class TestKsvdTrain:
    def test_perfect_one_sparse_model(self):
        rng = np.random.default_rng(0)
        init = Dictionary(normalized_columns(rng, 6, 8))
        scales = rng.uniform(1.0, 3.0, size=32)
        atoms = rng.integers(0, 8, size=32)
        data = init.mat[:, atoms] * scales
        d, codes = ksvd_train(data, KsvdConfig(m=8, k=1, iters=1), init)
        assert fit_error(data, d, codes) <= 1e-18
        # learned atoms match the originals up to sign and permutation
        corr = np.abs(d.mat.T @ init.mat)
        assert np.allclose(corr.max(axis=1), 1.0, atol=1e-8)

    def test_single_column_full_budget(self):
        rng = np.random.default_rng(1)
        init = Dictionary(normalized_columns(rng, 4, 4))
        data = rng.standard_normal((4, 1))
        d, codes = ksvd_train(data, KsvdConfig(m=4, k=4, iters=1), init)
        assert fit_error(data, d, codes) <= 1e-18

    def test_objective_nonincreasing_per_sweep(self):
        # Training is deterministic, so the run with i sweeps is a prefix
        # of the run with i+1; comparing final objectives over increasing
        # sweep counts checks per-sweep monotonicity.
        rng = np.random.default_rng(2)
        data = rng.standard_normal((8, 40)) * 3
        init = Dictionary(normalized_columns(rng, 8, 16))
        objs = []
        for sweeps in range(1, 11):
            d, codes = ksvd_train(data, KsvdConfig(m=16, k=3, iters=sweeps), init)
            objs.append(fit_error(data, d, codes))
        assert all(a >= b - 1e-9 for a, b in zip(objs, objs[1:]))
        assert objs[-1] <= objs[0]

    def test_dct_init_desk_shapes(self):
        rng = np.random.default_rng(8)
        data = rng.standard_normal((16, 64))
        d, codes = ksvd_train(data, KsvdConfig(m=32, k=4, iters=3),
                              dct_dictionary(16, 32))
        assert d.mat.shape == (16, 32)
        assert codes.shape == (32, 64)

    def test_unit_atom_norms(self):
        rng = np.random.default_rng(3)
        data = rng.standard_normal((6, 30))
        init = Dictionary(normalized_columns(rng, 6, 12))
        d, _ = ksvd_train(data, KsvdConfig(m=12, k=2, iters=5), init)
        assert np.allclose(np.linalg.norm(d.mat, axis=0), 1.0, atol=1e-12)

    def test_budget_respected(self):
        rng = np.random.default_rng(4)
        data = rng.standard_normal((6, 30))
        init = Dictionary(normalized_columns(rng, 6, 12))
        _, codes = ksvd_train(data, KsvdConfig(m=12, k=3, iters=4), init)
        assert (np.abs(codes) > 0).sum(axis=0).max() <= 3

    def test_rejects_unnormalized_init(self):
        rng = np.random.default_rng(5)
        data = rng.standard_normal((4, 10))
        bad = Dictionary(2.0 * np.eye(4))
        with pytest.raises(ValueError):
            ksvd_train(data, KsvdConfig(m=4, k=2, iters=1), bad)

    def test_rejects_shape_mismatch(self):
        rng = np.random.default_rng(6)
        data = rng.standard_normal((4, 10))
        init = Dictionary(normalized_columns(rng, 4, 8))
        with pytest.raises(ValueError):
            ksvd_train(data, KsvdConfig(m=6, k=2, iters=1), init)

    def test_budget_cannot_exceed_dimension(self):
        rng = np.random.default_rng(7)
        data = rng.standard_normal((4, 10))
        init = Dictionary(normalized_columns(rng, 4, 8))
        with pytest.raises(ValueError):
            ksvd_train(data, KsvdConfig(m=8, k=5, iters=1), init)

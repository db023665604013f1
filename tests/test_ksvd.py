import numpy as np
import pytest
from texture import texture

from pksvd import ksvd
from pksvd.frames import Dictionary, dct_dictionary
from pksvd.imaging import to_blocks
from pksvd.ksvd import KsvdConfig, ksvd_train


def normalized_columns(rng, n, m):
    mat = rng.standard_normal((n, m))
    return mat / np.linalg.norm(mat, axis=0, keepdims=True)


def fit_error(data, d, codes):
    return np.linalg.norm(data - d.mat @ codes) ** 2


def svd_top_pair(restricted):
    """The top left singular vector of E and its code row, by thin SVD."""
    u, s, vt = np.linalg.svd(restricted, full_matrices=False)
    return u[:, 0], s[0] * vt[0, :]


def eigh_top_pair(restricted):
    """The same from an eigensolver of the smaller Gram, as every atom
    took it before atoms whose columns already fit took a power step."""
    if restricted.shape[1] < restricted.shape[0]:
        top = restricted @ np.linalg.eigh(restricted.T @ restricted)[1][:, -1]
        top /= np.linalg.norm(top)
    else:
        top = np.linalg.eigh(restricted @ restricted.T)[1][:, -1]
    return top, top @ restricted


def reference_update_atoms(dict_mat, data, codes, top_pair=svd_top_pair):
    """The atom pass with ``top_pair`` of each restricted residual."""
    dict_mat = dict_mat.copy()
    codes = codes.copy()
    resid = data - dict_mat @ codes
    taken = set()
    for j in range(dict_mat.shape[1]):
        used = np.flatnonzero(codes[j, :])
        if used.size == 0:
            errs = np.linalg.norm(resid, axis=0)
            for worst in np.argsort(errs)[::-1]:
                if int(worst) not in taken:
                    break
            taken.add(int(worst))
            col = data[:, int(worst)]
            nrm = np.linalg.norm(col)
            if nrm > 0:
                dict_mat[:, j] = col / nrm
            continue
        restricted = resid[:, used] + np.outer(dict_mat[:, j], codes[j, used])
        atom, row = ksvd._canonical_sign(*top_pair(restricted))
        dict_mat[:, j] = atom
        codes[j, used] = row
        resid[:, used] = restricted - np.outer(atom, row)
    return dict_mat, codes


class TestCanonicalSign:
    def test_lowest_index_of_tied_entries_decides(self):
        # The two largest magnitudes differ by rounding only.
        atom = np.array([-0.5, 0.1, 0.5 * (1 + 4e-16), 0.2])
        flipped, row = ksvd._canonical_sign(atom, np.array([2.0, -3.0]))
        assert np.array_equal(flipped, -atom)
        assert np.array_equal(row, [-2.0, 3.0])

    def test_clear_maximum_decides(self):
        atom = np.array([-0.5, 0.1, 0.5 * (1 + 1e-9), 0.2])
        kept, row = ksvd._canonical_sign(atom, np.array([2.0]))
        assert kept is atom and row[0] == 2.0


class TestUpdateAtoms:
    """The eigen route against the thin-SVD reference."""

    @staticmethod
    def coded_texture(seed, block, m, k):
        data = to_blocks(texture(seed).astype(float), block, subtract_mean=True).blocks
        init = dct_dictionary(block * block, m).mat
        return init, data, ksvd._code_columns(init, data, k, None)

    # At full scale many updated atoms are still DCT-like, with tied
    # largest magnitudes, so the two routes agree only under the tie rule.
    @pytest.mark.parametrize("block,m,k,seed,unused", [
        (4, 32, 4, 0, False), (4, 32, 4, 1, True), (8, 256, 64, 3, False),
        (8, 256, 64, 4, True),
    ])
    def test_matches_svd_reference(self, block, m, k, seed, unused):
        init, data, codes = self.coded_texture(seed, block, m, k)
        # Atoms used by fewer columns than rows take the E^T E route.
        used = np.count_nonzero(codes, axis=1)
        assert 0 < np.count_nonzero(used < block * block) < m
        if unused:
            codes[5] = 0.0  # replaced by a training column
        got_dict, got_codes = ksvd._update_atoms(init, data, codes)
        ref_dict, ref_codes = reference_update_atoms(init, data, codes)
        assert np.abs(got_dict - ref_dict).max() <= 1e-10
        assert np.abs(got_codes - ref_codes).max() <= 1e-10 * np.abs(ref_codes).max()
        assert np.array_equal(got_codes != 0.0, codes != 0.0)
        if unused:
            cosines = got_dict[:, 5] @ data / np.linalg.norm(data, axis=0)
            assert np.isclose(cosines.max(), 1.0, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("seed,unused", [(0, False), (1, True)])
    def test_desk_matches_eigh_loop_bytewise(self, seed, unused):
        # At k=4 of n=16 no atom's columns fit, so every atom takes the
        # eigensolver exactly as before.
        init, data, codes = self.coded_texture(seed, 4, 32, 4)
        if unused:
            codes[5] = 0.0
        got = ksvd._update_atoms(init, data, codes)
        want = reference_update_atoms(init, data, codes, eigh_top_pair)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    @pytest.mark.parametrize("seed", [3, 4])
    def test_exact_fit_takes_power_steps(self, seed, monkeypatch):
        # k = n: the first coding fits every column exactly, so every atom
        # takes the power step and no eigensolver runs.
        init, data, codes = self.coded_texture(seed, 8, 256, 64)
        assert np.count_nonzero(codes, axis=1).min() > 0

        def no_eigh(*args, **kwargs):
            raise AssertionError("eigh called")

        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "eigh", no_eigh)
            got_dict, got_codes = ksvd._update_atoms(init, data, codes)
        ref_dict, ref_codes = reference_update_atoms(init, data, codes)
        assert np.abs(got_dict - ref_dict).max() <= 1e-12
        assert np.abs(got_codes - ref_codes).max() <= 1e-12 * np.abs(ref_codes).max()
        assert np.array_equal(got_codes != 0.0, codes != 0.0)

    def test_power_step_threshold(self, monkeypatch):
        # Atoms 0 and 1 code disjoint columns, E_j = d_j x_j^T + R_j, with
        # ||R_0|| just below tau ||x_0|| and ||R_1|| just above tau ||x_1||:
        # only atom 1 takes the eigensolver.
        rng = np.random.default_rng(13)
        tau = ksvd._POWER_STEP_TOL
        init = normalized_columns(rng, 6, 2)
        codes = np.zeros((2, 20))
        codes[0, :10] = rng.uniform(0.5, 1.5, 10)
        codes[1, 10:] = rng.uniform(0.5, 1.5, 10)
        noise = rng.standard_normal((6, 20))
        for j, cols, factor in ((0, slice(0, 10), 1 - 1e-6), (1, slice(10, 20), 1 + 1e-6)):
            noise[:, cols] *= factor * tau * np.linalg.norm(codes[j]) / np.linalg.norm(
                noise[:, cols])
        data = init @ codes + noise
        solved = []
        eigh = np.linalg.eigh

        def counted(gram):
            solved.append(gram.shape)
            return eigh(gram)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        got_dict, got_codes = ksvd._update_atoms(init, data, codes)
        monkeypatch.undo()
        assert solved == [(6, 6)]
        ref_dict, ref_codes = reference_update_atoms(init, data, codes)
        assert np.abs(got_dict - ref_dict).max() <= 1e-12
        assert np.abs(got_codes - ref_codes).max() <= 1e-12

    @pytest.mark.parametrize("cols", [5, 9])
    def test_tied_top_singular_values(self, cols):
        # Atom 0 alone codes every column and its restricted residual E has
        # singular values (3, 3, 1): any unit vector in the top plane is a
        # best atom, and the fit must reach ||E||^2 - 9. E is 6 x cols, so
        # both Gram routes are taken.
        rng = np.random.default_rng(12)
        left = np.linalg.qr(rng.standard_normal((6, 3)))[0]
        right = np.linalg.qr(rng.standard_normal((cols, 3)))[0]
        data = left @ np.diag([3.0, 3.0, 1.0]) @ right.T
        init = normalized_columns(rng, 6, 8)
        codes = np.zeros((8, cols))
        codes[0] = rng.uniform(0.5, 1.5, cols)
        new_dict, new_codes = ksvd._update_atoms(init, data, codes)
        obj = np.linalg.norm(data - new_dict @ new_codes) ** 2
        assert abs(obj - (np.linalg.norm(data) ** 2 - 9.0)) <= 1e-12
        assert abs(np.linalg.norm(new_dict[:, 0]) - 1.0) <= 1e-12


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
        got = ksvd._refit_supports(dict_mat, dict_mat.T @ data, codes)
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

    def test_zero_iterations_return_init(self):
        rng = np.random.default_rng(8)
        init = Dictionary(normalized_columns(rng, 6, 10))
        data = rng.standard_normal((6, 40))
        d, codes = ksvd_train(data, KsvdConfig(m=10, k=2, iters=0), init)
        assert np.array_equal(d.mat, init.mat)
        assert np.array_equal(codes, ksvd._code_columns(init.mat, data, 2, None))
        assert np.all(np.count_nonzero(codes, axis=0) <= 2)

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

    def test_objective_nonincreasing_at_exact_fit(self):
        # k = n: every sweep fits exactly and its atoms take power steps.
        # The objective sits at rounding level, so it may not rise by more
        # than one rounding error per entry of the data.
        data = to_blocks(texture(0)[:64, :64].astype(float), 4, subtract_mean=True).blocks
        slack = data.size * (np.finfo(float).eps * np.abs(data).max()) ** 2
        objs = []
        for sweeps in range(1, 6):
            d, codes = ksvd_train(data, KsvdConfig(m=32, k=16, iters=sweeps),
                                  dct_dictionary(16, 32))
            objs.append(fit_error(data, d, codes))
        assert all(b <= a + slack for a, b in zip(objs, objs[1:]))
        assert max(objs) <= slack

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

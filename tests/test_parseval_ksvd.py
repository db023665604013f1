import tracemalloc

import numpy as np
import pytest

from pksvd import matrix_core, parseval_ksvd
from pksvd.errors import NearSingularSylvester
from pksvd.frames import Dictionary, canonical_dual, dct_dictionary, frame_bounds
from pksvd.ksvd import KsvdConfig, ksvd_train
from pksvd.matrix_core import _sylvester_condition_estimate, solve_sylvester
from pksvd.parseval_ksvd import (
    AdmmState,
    PkvConfig,
    objective_value,
    pksvd_train,
    support_histogram,
    update_analysis,
    update_codes,
    update_multipliers,
    update_synthesis,
)
from pksvd.sparse_solvers import ZERO_THRESHOLD


def small_problem(seed=0, n=4, m=6, n_cols=12, k=2):
    rng = np.random.default_rng(seed)
    synth = rng.standard_normal((n, m))
    synth /= np.linalg.norm(synth, axis=0, keepdims=True)
    analysis = synth + 0.1 * rng.standard_normal((n, m))
    codes = np.zeros((m, n_cols))
    for i in range(n_cols):
        idx = rng.choice(m, k, replace=False)
        codes[idx, i] = rng.standard_normal(k) * 2
    data = synth @ codes + 0.05 * rng.standard_normal((n, n_cols))
    state = AdmmState(
        mult_id=rng.standard_normal((n, n)),
        mult_eq=rng.standard_normal((n, m)),
    )
    cfg = PkvConfig(k=k, rho1=0.1, rho2=7.0, rho3=5.0, max_iters=3, x_sweeps=4)
    return data, codes, synth, analysis, state, cfg


def reference_update_codes(data, codes, synth, analysis, cfg, obj_log=None):
    """Row-at-a-time Gauss-Seidel refresh with an explicit dual residual."""
    codes = codes.copy()
    codes[np.abs(codes) <= ZERO_THRESHOLD] = 0.0
    resid = data - synth @ codes
    dual_resid = analysis.T @ resid
    kernel = analysis.T @ synth
    atom_sq = np.einsum("ij,ij->j", synth, synth)
    kernel_sq = np.einsum("ij,ij->j", kernel, kernel)
    for _ in range(cfg.x_sweeps):
        for k in range(synth.shape[1]):
            support = np.flatnonzero(codes[k, :])
            if support.size == 0:
                continue
            denom = cfg.rho1 * atom_sq[k] + kernel_sq[k]
            if denom <= 0.0:
                continue
            numer = (
                cfg.rho1 * (synth[:, k] @ resid[:, support])
                + kernel[:, k] @ dual_resid[:, support]
            )
            new_vals = codes[k, support] + numer / denom
            new_vals[np.abs(new_vals) <= ZERO_THRESHOLD] = 0.0
            delta = new_vals - codes[k, support]
            codes[k, support] = new_vals
            resid[:, support] -= np.outer(synth[:, k], delta)
            dual_resid[:, support] -= np.outer(kernel[:, k], delta)
            if obj_log is not None:
                obj_log.append(
                    float(
                        np.linalg.norm(dual_resid) ** 2
                        + cfg.rho1 * np.linalg.norm(resid) ** 2
                    )
                )
    return codes


def stepwise_update_codes(data, codes, synth, analysis, cfg, obj_log=None):
    """``update_codes`` as it stood with the zero threshold applied at
    every step, kept verbatim as the byte-identity reference."""
    codes = codes.copy()
    # Entries at or below the zero threshold count as zero support-wise;
    # clamping them up front keeps supports monotone under that rule.
    codes[np.abs(codes) <= ZERO_THRESHOLD] = 0.0
    m, n_cols = codes.shape
    kernel = analysis.T @ synth
    hess = cfg.rho1 * (synth.T @ synth) + kernel.T @ kernel  # synth^T W synth
    target = (cfg.rho1 * synth + analysis @ kernel).T @ data  # synth^T W data
    del kernel
    denom = np.diag(hess)
    scale = np.divide(1.0, denom, out=np.zeros(m), where=denom > 0.0)
    # slots[s, j] is the s-th support atom of column j, in increasing
    # index order; past the end of a support it names a zero entry.
    present = codes != 0.0
    width = int(present.sum(axis=0).max(initial=0))
    slots = np.argsort(~present, axis=0, kind="stable")[:width].copy()
    lanes = np.arange(n_cols)
    rhs = target[slots, lanes]
    del target, present
    batch = max(1, min(n_cols, parseval_ksvd._CODE_BATCH_ENTRIES
                       // max(width, 1) ** 2))
    grams = np.empty((width, width, batch))
    # The work buffers of one step, allocated once per call.
    buffers = (*np.empty((3, batch)), np.empty(batch, dtype=bool))
    if obj_log is not None:
        # The codes at the start of each sweep and each entry's objective
        # change, kept per column and summed once at the end, so that the
        # log does not depend on how the columns were batched.
        snaps = np.zeros((cfg.x_sweeps, width, n_cols))
        change = np.zeros((cfg.x_sweeps, width, n_cols))

    for lo in range(0, n_cols, batch):
        hi = min(lo + batch, n_cols)
        size = hi - lo
        atoms = slots[:, lo:hi]
        gram = grams[:, :, :size]
        for s in range(width):
            # gram[s, t, j] = hess[atoms[s, j], atoms[t, j]]
            gram[s] = hess[atoms[s], atoms]
        batch_rhs = rhs[:, lo:hi]
        x = codes[atoms, lanes[lo:hi]]
        # Zero entries (padding, frozen) and unusable atoms take no step.
        step = np.where(x != 0.0, scale[atoms], 0.0)
        numer, move, mag, dead = (buf[:size] for buf in buffers)
        for sweep in range(cfg.x_sweeps):
            if obj_log is not None:
                snaps[sweep, :, lo:hi] = x
            for s in range(width):
                row, row_step = x[s], step[s]
                np.einsum("tj,tj->j", gram[s], x, out=numer)
                np.subtract(batch_rhs[s], numer, out=numer)
                np.multiply(numer, row_step, out=move)
                if obj_log is not None:
                    old = row.copy()
                row += move
                # An entry that reaches the zero threshold is frozen at zero.
                np.less_equal(np.abs(row, out=mag), ZERO_THRESHOLD, out=dead)
                np.putmask(row, dead, 0.0)
                np.putmask(row_step, dead, 0.0)
                if obj_log is not None:
                    # Each update changes its column's objective by this much.
                    delta = row - old
                    change[sweep, s, lo:hi] = delta * (
                        delta * denom[atoms[s]] - 2.0 * numer
                    )
        codes[atoms, lanes[lo:hi]] = x

    if obj_log is not None:
        rows = slots.ravel()
        usable = scale[slots] > 0.0
        for snap, entry_change in zip(snaps, change):
            start = np.zeros_like(codes)
            start[slots, lanes] = snap
            start_value = objective_value(data, start, synth, analysis, cfg.rho1)
            per_row = np.bincount(rows, weights=entry_change.ravel(), minlength=m)
            seen = np.zeros(m, dtype=bool)
            seen[slots[(snap != 0.0) & usable]] = True
            obj_log.extend((start_value + np.cumsum(per_row)[seen]).tolist())
    return codes


def lagrangian(data, codes, synth, analysis, state, cfg):
    n = synth.shape[0]
    resid = data - synth @ codes
    gram_gap = synth @ analysis.T - np.eye(n)
    match_gap = synth - analysis
    return (
        cfg.rho1 * np.linalg.norm(resid) ** 2
        + np.linalg.norm(analysis.T @ resid) ** 2
        + np.trace(state.mult_id.T @ gram_gap)
        + 0.5 * cfg.rho2 * np.linalg.norm(gram_gap) ** 2
        + np.trace(state.mult_eq.T @ match_gap)
        + 0.5 * cfg.rho3 * np.linalg.norm(match_gap) ** 2
    )


def numeric_gradient(func, point, h=1e-6):
    grad = np.zeros_like(point)
    for idx in np.ndindex(point.shape):
        plus = point.copy()
        plus[idx] += h
        minus = point.copy()
        minus[idx] -= h
        grad[idx] = (func(plus) - func(minus)) / (2 * h)
    return grad


def stated_analysis_system(data, codes, synth, state, cfg):
    """(A1, B1, C1) of the analysis update's Sylvester equation."""
    resid = data - synth @ codes
    a1 = 2 * resid @ resid.T
    b1 = cfg.rho2 * synth.T @ synth + cfg.rho3 * np.eye(synth.shape[1])
    c1 = -state.mult_id.T @ synth + cfg.rho2 * synth + state.mult_eq + cfg.rho3 * synth
    return a1, b1, c1


def synthesis_terms(data, codes, analysis, state, cfg):
    """(G, A1, M, K) of the synthesis update: the ridged code Gram G and
    the stationarity condition A1 @ S @ G + S @ M = K."""
    m = analysis.shape[1]
    gram = codes @ codes.T
    gram_reg = gram + (1e-8 * np.trace(gram) / m) * np.eye(m)
    a1 = 2.0 * (analysis @ analysis.T)
    metric = (2.0 * cfg.rho1 * gram + cfg.rho2 * (analysis.T @ analysis)
              + cfg.rho3 * np.eye(m))
    data_codes = data @ codes.T
    rhs = (
        2.0 * cfg.rho1 * data_codes
        - state.mult_id @ analysis
        + cfg.rho2 * analysis
        - state.mult_eq
        + cfg.rho3 * analysis
        + 2.0 * analysis @ (analysis.T @ data_codes)
    )
    return gram_reg, a1, metric, rhs


def stated_synthesis_system(data, codes, analysis, state, cfg):
    """(A1, B1, C1) of the synthesis update's Sylvester equation."""
    gram_reg, a1, metric, rhs = synthesis_terms(data, codes, analysis, state, cfg)
    inv = np.linalg.inv(gram_reg)
    return a1, metric @ inv, rhs @ inv


def reference_update_analysis(data, codes, synth, state, cfg):
    """The analysis update as a general Sylvester solve."""
    return solve_sylvester(*stated_analysis_system(data, codes, synth, state, cfg))


def reference_update_synthesis(data, codes, analysis, state, cfg):
    """The synthesis update as a general Sylvester solve on the stated
    system, B1 and C1 right-divided by the ridged code Gram."""
    gram_reg, a1, metric, rhs = synthesis_terms(data, codes, analysis, state, cfg)

    def right_divide(mat):
        return np.linalg.solve(gram_reg, mat.T).T

    return solve_sylvester(a1, right_divide(metric), right_divide(rhs))


def stationarity_solution(data, codes, analysis, state, cfg):
    """The synthesis update from the vec form of A1 @ S @ G + S @ M = K,
    which stays well conditioned when the ridged code Gram G is not."""
    gram_reg, a1, metric, rhs = synthesis_terms(data, codes, analysis, state, cfg)
    n, m = rhs.shape
    op = np.kron(gram_reg, a1) + np.kron(metric, np.eye(n))
    vec = np.linalg.solve(op, rhs.reshape(-1, order="F"))
    return vec.reshape((n, m), order="F")


def rel_diff(got, ref):
    return np.linalg.norm(got - ref) / np.linalg.norm(ref)


class TestMatchesReferenceUpdates:
    """The eigen-route updates against the general Sylvester solves."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("shape", [(4, 6, 12, 2), (8, 20, 40, 3), (16, 32, 256, 4)])
    @pytest.mark.parametrize("unused_atom", [False, True])
    def test_single_updates(self, seed, shape, unused_atom):
        n, m, n_cols, k = shape
        data, codes, synth, analysis, state, cfg = small_problem(
            30 + seed, n=n, m=m, n_cols=n_cols, k=k
        )
        if unused_atom:
            # the code Gram is ridge-only in this row and column
            codes[m // 2, :] = 0.0
        got = update_analysis(data, codes, synth, state, cfg)
        ref = reference_update_analysis(data, codes, synth, state, cfg)
        assert rel_diff(got, ref) <= 1e-8
        got = update_synthesis(data, codes, analysis, state, cfg)
        ref = reference_update_synthesis(data, codes, analysis, state, cfg)
        assert rel_diff(got, ref) <= 1e-8

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("shape", [(2, 3, 8, 1), (4, 6, 12, 2), (16, 32, 256, 4)])
    def test_synthesis_solves_stationarity_with_unused_atom(self, seed, shape):
        # The right-divided reference loses about cond(G) * eps here (up
        # to 3e-8 relative on the 2 x 3 frames); the eigen route does not.
        n, m, n_cols, k = shape
        data, codes, _, analysis, state, cfg = small_problem(
            30 + seed, n=n, m=m, n_cols=n_cols, k=k
        )
        codes[m // 2, :] = 0.0
        got = update_synthesis(data, codes, analysis, state, cfg)
        exact = stationarity_solution(data, codes, analysis, state, cfg)
        assert rel_diff(got, exact) <= 1e-12

    def test_desk_train_matches_reference_run(self, monkeypatch):
        _, _, (_, _, _, got) = desk_training(iters=20)
        monkeypatch.setattr(parseval_ksvd, "update_analysis", reference_update_analysis)
        monkeypatch.setattr(parseval_ksvd, "update_synthesis", reference_update_synthesis)
        _, _, (_, _, _, ref) = desk_training(iters=20)
        assert len(got) == len(ref) == 20
        assert np.allclose(got.objective, ref.objective, rtol=1e-9, atol=0.0)
        assert np.allclose(got.log10_trace_gap, ref.log10_trace_gap, rtol=0.0, atol=1e-3)
        for column in ("log10_identity_residual", "log10_match_residual"):
            got_log = np.array(getattr(got, column))
            ref_log = np.array(getattr(ref, column))
            # Squared residuals below 1e-20 are rounding (the runs reach
            # about 1e-28); there both runs only have to stay below it.
            above = ref_log > -20.0
            assert np.all(got_log[~above] <= -20.0), column
            assert np.allclose(got_log[above], ref_log[above], rtol=0.0, atol=1e-3), column
            assert above.sum() >= 5


def spy_condition(monkeypatch):
    """Record every condition estimate the eigen route computes."""
    seen = []
    original = matrix_core._spectral_condition

    def spy(eva, evb):
        seen.append(original(eva, evb))
        return seen[-1]

    monkeypatch.setattr(matrix_core, "_spectral_condition", spy)
    return seen


class TestConditionParity:
    """The eigen route's condition estimate and errors match the general
    solver's on the stated systems."""

    @pytest.mark.parametrize("seed", range(4))
    def test_estimate_matches_general_solver(self, seed, monkeypatch):
        data, codes, synth, analysis, state, cfg = small_problem(
            40 + seed, n=6, m=10, n_cols=30, k=2
        )
        seen = spy_condition(monkeypatch)
        update_analysis(data, codes, synth, state, cfg)
        update_synthesis(data, codes, analysis, state, cfg)
        got = list(seen)
        a1, b1, _ = stated_analysis_system(data, codes, synth, state, cfg)
        a2, b2, _ = stated_synthesis_system(data, codes, analysis, state, cfg)
        expected = [_sylvester_condition_estimate(a1, b1),
                    _sylvester_condition_estimate(a2, b2)]
        assert len(got) == 2
        assert np.allclose(got, expected, rtol=1e-9, atol=0.0)

    def test_both_updates_raise_above_limit(self, monkeypatch):
        data, codes, synth, analysis, state, cfg = small_problem(44)
        a1, b1, _ = stated_analysis_system(data, codes, synth, state, cfg)
        a2, b2, _ = stated_synthesis_system(data, codes, analysis, state, cfg)
        limit = 0.5 * min(_sylvester_condition_estimate(a1, b1),
                          _sylvester_condition_estimate(a2, b2))
        monkeypatch.setattr(matrix_core, "SYLVESTER_COND_LIMIT", limit)
        with pytest.raises(NearSingularSylvester, match="condition estimate"):
            update_analysis(data, codes, synth, state, cfg)
        with pytest.raises(NearSingularSylvester, match="condition estimate"):
            update_synthesis(data, codes, analysis, state, cfg)


class TestPkvConfig:
    @pytest.mark.parametrize("name", ["rho1", "rho2", "rho3"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 0.0, -1.0, 1e251])
    def test_penalties_must_be_finite_and_positive(self, name, value):
        with pytest.raises(ValueError, match=f"penalty {name} must be finite"):
            PkvConfig(k=2, **{name: value})

    def test_defaults_accepted(self):
        cfg = PkvConfig(k=2)
        assert (cfg.rho1, cfg.rho2, cfg.rho3) == (0.1, 1e11, 1e11)


class TestUpdateAnalysis:
    def test_cross_solver_agreement(self):
        data, codes, synth, _, state, cfg = small_problem(1, n=2, m=3, n_cols=8)
        new = update_analysis(data, codes, synth, state, cfg)
        a1, b1, c1 = stated_analysis_system(data, codes, synth, state, cfg)
        assert np.linalg.norm(new - solve_sylvester(a1, b1, c1)) <= 1e-8

    def test_finite_difference_gradient(self):
        data, codes, synth, analysis, state, cfg = small_problem(2, n=3, m=4, n_cols=6)
        new = update_analysis(data, codes, synth, state, cfg)
        grad = numeric_gradient(
            lambda a: lagrangian(data, codes, synth, a, state, cfg), new
        )
        scale = 1.0 + abs(lagrangian(data, codes, synth, new, state, cfg))
        assert np.linalg.norm(grad) <= 1e-5 * scale


class TestUpdateSynthesis:
    def test_cross_solver_agreement(self):
        data, codes, _, analysis, state, cfg = small_problem(4, n=2, m=3, n_cols=8)
        new = update_synthesis(data, codes, analysis, state, cfg)
        a1, b1, c1 = stated_synthesis_system(data, codes, analysis, state, cfg)
        assert np.linalg.norm(new - solve_sylvester(a1, b1, c1)) <= 1e-8

    def test_finite_difference_gradient(self):
        data, codes, synth, analysis, state, cfg = small_problem(5, n=3, m=4, n_cols=6)
        new = update_synthesis(data, codes, analysis, state, cfg)
        grad = numeric_gradient(
            lambda s: lagrangian(data, codes, s, analysis, state, cfg), new
        )
        scale = 1.0 + abs(lagrangian(data, codes, new, analysis, state, cfg))
        assert np.linalg.norm(grad) <= 1e-5 * scale

    def test_perturbed_solution_trips_residual_check(self, monkeypatch):
        data, codes, _, analysis, state, cfg = small_problem(6)
        solve = matrix_core.solve_sylvester_eig
        monkeypatch.setattr(parseval_ksvd, "solve_sylvester_eig",
                            lambda *args: solve(*args) * (1.0 + 1e-6))
        with pytest.raises(NearSingularSylvester, match="solution residual"):
            update_synthesis(data, codes, analysis, state, cfg)

    def test_solves_stated_sylvester_system(self):
        data, codes, _, analysis, state, cfg = small_problem(6)
        new = update_synthesis(data, codes, analysis, state, cfg)
        a1, b1, c1 = stated_synthesis_system(data, codes, analysis, state, cfg)
        resid = np.linalg.norm(a1 @ new + new @ b1 - c1)
        assert resid <= 1e-8 * max(1.0, np.linalg.norm(c1))


class TestUpdateMultipliers:
    def test_feasible_point_unchanged(self):
        rng = np.random.default_rng(7)
        q, _ = np.linalg.qr(rng.standard_normal((6, 3)))
        synth = q.T
        state = AdmmState.zeros(3, 6)
        cfg = PkvConfig(k=2, rho2=100.0, rho3=50.0)
        new = update_multipliers(synth, synth.copy(), state, cfg)
        assert np.allclose(new.mult_id, 0.0, atol=1e-12)
        assert np.allclose(new.mult_eq, 0.0, atol=1e-12)
        assert new.iteration == 1

    def test_single_step_formula(self):
        rng = np.random.default_rng(8)
        synth = rng.standard_normal((3, 5))
        analysis = rng.standard_normal((3, 5))
        cfg = PkvConfig(k=2, rho2=7.0, rho3=3.0)
        new = update_multipliers(synth, analysis, AdmmState.zeros(3, 5), cfg)
        assert np.allclose(
            new.mult_id, 7.0 * (synth @ analysis.T - np.eye(3)), atol=1e-12
        )
        assert np.allclose(new.mult_eq, 3.0 * (synth - analysis), atol=1e-12)

    def test_two_steps_accumulate(self):
        rng = np.random.default_rng(9)
        cfg = PkvConfig(k=2, rho2=2.0, rho3=4.0)
        s1, a1 = rng.standard_normal((2, 4)), rng.standard_normal((2, 4))
        s2, a2 = rng.standard_normal((2, 4)), rng.standard_normal((2, 4))
        state = update_multipliers(s1, a1, AdmmState.zeros(2, 4), cfg)
        state = update_multipliers(s2, a2, state, cfg)
        expect_id = 2.0 * ((s1 @ a1.T - np.eye(2)) + (s2 @ a2.T - np.eye(2)))
        assert np.allclose(state.mult_id, expect_id, atol=1e-12)
        assert state.iteration == 2


class TestUpdateCodes:
    def test_identity_dictionaries_one_sweep(self):
        rng = np.random.default_rng(10)
        data = rng.uniform(1.0, 2.0, size=(4, 6))
        synth = np.eye(4)
        cfg = PkvConfig(k=4, rho1=0.1, x_sweeps=1)
        codes = update_codes(data, np.ones((4, 6)), synth, synth, cfg)
        assert np.allclose(codes, data, atol=1e-12)

    def test_gather_semantics(self):
        row = np.array([0.0, 0.0, 0.0, 2.0, 0.0, 0.0, 1.0])
        support = np.flatnonzero(row)
        assert list(support) == [3, 6]
        assert list(row[support]) == [2.0, 1.0]

    def test_zeros_stay_zero(self):
        data, codes, synth, analysis, _, cfg = small_problem(11)
        zero_mask = codes == 0.0
        new = update_codes(data, codes, synth, analysis, cfg)
        assert np.all(new[zero_mask] == 0.0)

    def test_supports_never_grow(self):
        data, codes, synth, analysis, _, cfg = small_problem(12, n_cols=20)
        new = update_codes(data, codes, synth, analysis, cfg)
        old_support = np.abs(codes) > ZERO_THRESHOLD
        new_support = np.abs(new) > ZERO_THRESHOLD
        assert not np.any(new_support & ~old_support)

    def test_objective_nonincreasing_per_row(self):
        data, codes, synth, analysis, _, cfg = small_problem(13, n_cols=16)
        log = []
        update_codes(data, codes, synth, analysis, cfg, obj_log=log)
        start = objective_value(data, codes, synth, analysis, cfg.rho1)
        seq = [start] + log
        for a, b in zip(seq, seq[1:]):
            assert b <= a + 1e-9 * max(1.0, a)

    @staticmethod
    def row_order_problem(seed):
        data, codes, synth, analysis, _, cfg = small_problem(
            20 + seed, n=5, m=9, n_cols=30, k=3
        )
        codes[4, :] = 0.0  # a row with empty support
        codes[1, :4] = 4e-7  # below the zero threshold
        codes[6, :] = np.where(codes[6, :] != 0.0, 1.0, 0.0)
        # a zero atom in both dictionaries: its weighted norm is zero
        synth[:, 6] = 0.0
        analysis[:, 6] = 0.0
        # tiny data drive some entries through the threshold mid-sweep
        data[:, 20:] *= 1e-7
        return data, codes, synth, analysis, cfg

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_row_order_reference(self, seed):
        data, codes, synth, analysis, cfg = self.row_order_problem(seed)
        got_log, ref_log = [], []
        got = update_codes(data, codes, synth, analysis, cfg, obj_log=got_log)
        ref = reference_update_codes(data, codes, synth, analysis, cfg, obj_log=ref_log)
        assert np.array_equal(got != 0.0, ref != 0.0)
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
        assert np.array_equal(got[6], np.where(codes[6] != 0.0, 1.0, 0.0))
        assert len(got_log) == len(ref_log) > 0
        assert np.allclose(got_log, ref_log, rtol=1e-12, atol=0.0)
        assert np.array_equal(
            got, update_codes(data, codes, synth, analysis, cfg)
        )

    @staticmethod
    def wide_problem(seed):
        """Supports of width 10 with a zero atom in a middle slot, and small
        codes on tiny data in the last columns, which the refresh drives
        through the zero threshold."""
        data, codes, synth, analysis, _, cfg = small_problem(
            seed, n=12, m=24, n_cols=30, k=10
        )
        codes[11, :] = np.where(codes[11, :] != 0.0, 1.5, 0.0)
        synth[:, 11] = 0.0
        analysis[:, 11] = 0.0
        data[:, 24:] *= 1e-7
        codes[:, 24:] *= 1e-5
        return data, codes, synth, analysis, cfg

    @pytest.mark.parametrize("seed", range(3))
    def test_wide_supports_match_reference(self, seed):
        data, codes, synth, analysis, cfg = self.wide_problem(60 + seed)
        present = codes != 0.0
        assert present.sum(axis=0).max() == 10
        # atom 11 sits between the first and the last support atom
        middle = present[11] & present[:11].any(axis=0) & present[12:].any(axis=0)
        assert middle.any()
        got_log, ref_log = [], []
        got = update_codes(data, codes, synth, analysis, cfg, obj_log=got_log)
        ref = reference_update_codes(data, codes, synth, analysis, cfg, obj_log=ref_log)
        assert np.array_equal(got != 0.0, ref != 0.0)
        assert np.count_nonzero(got) < np.count_nonzero(codes)
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
        assert np.array_equal(got[11], codes[11])
        assert len(got_log) == len(ref_log) > 0
        assert np.allclose(got_log, ref_log, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("per_batch", [1, 2, 7, 13])
    def test_batches_do_not_change_results(self, per_batch, monkeypatch):
        data, codes, synth, analysis, cfg = self.wide_problem(63)
        one_log, split_log = [], []
        one = update_codes(data, codes, synth, analysis, cfg, obj_log=one_log)
        monkeypatch.setattr(parseval_ksvd, "_CODE_BATCH_ENTRIES", per_batch * 10 ** 2)
        split = update_codes(data, codes, synth, analysis, cfg, obj_log=split_log)
        assert -(-codes.shape[1] // per_batch) >= 3
        assert one.tobytes() == split.tobytes()
        assert np.array(one_log).tobytes() == np.array(split_log).tobytes()

    def test_batches_do_not_change_results_at_full_width(self, monkeypatch):
        data, codes, synth, analysis, _, cfg = small_problem(
            70, n=64, m=256, n_cols=256, k=64
        )
        assert (np.count_nonzero(codes, axis=0) == 64).all()
        assert parseval_ksvd._CODE_BATCH_ENTRIES // 64 ** 2 == 64
        wide_log, narrow_log = [], []
        wide = update_codes(data, codes, synth, analysis, cfg, obj_log=wide_log)
        # 32 columns per batch
        monkeypatch.setattr(parseval_ksvd, "_CODE_BATCH_ENTRIES", 2 ** 17)
        narrow = update_codes(data, codes, synth, analysis, cfg, obj_log=narrow_log)
        assert wide.tobytes() == narrow.tobytes()
        assert len(wide_log) > 0
        assert np.array(wide_log).tobytes() == np.array(narrow_log).tobytes()

    @staticmethod
    def assert_matches_stepwise(data, codes, synth, analysis, cfg):
        got_log, ref_log = [], []
        got = update_codes(data, codes, synth, analysis, cfg, obj_log=got_log)
        ref = stepwise_update_codes(data, codes, synth, analysis, cfg, obj_log=ref_log)
        assert got.tobytes() == ref.tobytes()
        assert len(got_log) > 0
        assert np.array(got_log).tobytes() == np.array(ref_log).tobytes()
        # without a log, sweeps run unfrozen and are replayed on a freeze
        assert update_codes(data, codes, synth, analysis, cfg).tobytes() == ref.tobytes()

    @pytest.mark.parametrize("seed", range(60, 64))
    def test_wide_problems_match_stepwise(self, seed):
        self.assert_matches_stepwise(*self.wide_problem(seed))

    @pytest.mark.parametrize("seed", range(4))
    def test_row_order_problems_match_stepwise(self, seed):
        self.assert_matches_stepwise(*self.row_order_problem(seed))

    def test_full_width_matches_stepwise(self):
        data, codes, synth, analysis, _, cfg = small_problem(
            70, n=64, m=256, n_cols=256, k=64
        )
        self.assert_matches_stepwise(data, codes, synth, analysis, cfg)

    def test_replay_freezes_an_entry_that_would_climb_back(self):
        """Column 0's first entry reaches the zero threshold in the first
        sweep and, left free, climbs back above it in the next ones; the
        sweep is replayed with the freeze, which keeps it at zero."""
        rng = np.random.default_rng(5)
        synth = np.array([[1.0, 0.6], [0.0, 0.8]])
        cfg = PkvConfig(k=2, rho1=0.1, x_sweeps=4)
        # with analysis = synth, the Hessian and the map from data to targets
        hess = cfg.rho1 * synth.T @ synth + (synth.T @ synth) @ (synth.T @ synth)
        weight = cfg.rho1 * synth + synth @ synth.T @ synth
        codes = rng.uniform(1.0, 2.0, size=(2, 6))
        codes[:, 0] = [1.0, 2.0]
        data = rng.standard_normal((2, 6))
        # the first step of column 0 lands on zero, the second on 1.0
        target = np.array([hess[0, 1] * 2.0, hess[1, 1]])
        data[:, 0] = np.linalg.solve(weight.T, target)
        free, path = codes[:, 0].copy(), []
        for _ in range(cfg.x_sweeps):
            for s in range(2):
                free[s] += (target[s] - hess[s] @ free) / hess[s, s]
            path.append(free[0])
        assert abs(path[0]) <= ZERO_THRESHOLD < abs(path[-1])
        got = update_codes(data, codes, synth, synth, cfg)
        assert got[0, 0] == 0.0 and abs(got[1, 0]) > ZERO_THRESHOLD
        assert np.count_nonzero(got[:, 1:]) == codes[:, 1:].size
        ref = stepwise_update_codes(data, codes, synth, synth, cfg)
        assert got.tobytes() == ref.tobytes()

    def test_full_scale_memory(self):
        data, codes, synth, analysis, _, cfg = small_problem(
            70, n=64, m=256, n_cols=256, k=64
        )
        update_codes(data, codes, synth, analysis, cfg)
        tracemalloc.start()
        try:
            update_codes(data, codes, synth, analysis, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # all 256 support Grams at once would be 8 MiB
        assert peak <= 4 * 2 ** 20

    def test_empty_support_rows_skipped(self):
        data, codes, synth, analysis, _, cfg = small_problem(14)
        codes[0, :] = 0.0
        new = update_codes(data, codes, synth, analysis, cfg)
        assert np.all(new[0, :] == 0.0)


def desk_training(seed=0, n=16, m=32, n_cols=256, k=4, iters=50, rho=1e11,
                  track=False):
    rng = np.random.default_rng(seed)
    hidden = rng.standard_normal((n, m))
    hidden /= np.linalg.norm(hidden, axis=0, keepdims=True)
    codes = np.zeros((m, n_cols))
    for i in range(n_cols):
        idx = rng.choice(m, k, replace=False)
        codes[idx, i] = rng.standard_normal(k) * 5
    data = hidden @ codes + 0.05 * rng.standard_normal((n, n_cols))
    init = ksvd_train(data, KsvdConfig(m=m, k=k, iters=10), dct_dictionary(n, m))
    cfg = PkvConfig(k=k, rho1=0.1, rho2=rho, rho3=rho, max_iters=iters, x_sweeps=20)
    return data, cfg, pksvd_train(data, cfg, init, track_updates=track)


class TestPksvdTrain:
    def test_constraints_reached_at_large_rho(self):
        _, _, (synth, analysis, codes, trace) = desk_training(iters=40)
        ident = 10.0 ** trace.log10_identity_residual[-1]
        match = 10.0 ** trace.log10_match_residual[-1]
        assert ident <= 1e-8
        assert match <= 1e-6

    def test_feasibility_improves_with_rho(self):
        finals = []
        for rho in (1e1, 1e5, 1e11):
            _, _, (_, _, _, trace) = desk_training(iters=25, rho=rho)
            finals.append(trace.log10_identity_residual[-1])
        assert finals[0] > finals[1] > finals[2]

    def test_parseval_self_duality_after_convergence(self):
        _, _, (synth, analysis, _, _) = desk_training(iters=40)
        fb = frame_bounds(synth)
        assert abs(fb.lower - 1.0) <= 1e-4 and abs(fb.upper - 1.0) <= 1e-4
        assert np.linalg.norm(canonical_dual(synth).mat - synth.mat) <= 1e-4
        assert np.linalg.norm(synth.mat - analysis.mat) <= 1e-4

    def test_trace_has_one_record_per_iteration(self):
        _, cfg, (_, _, _, trace) = desk_training(iters=7)
        assert len(trace) == 7
        assert len(trace.log10_trace_gap) == 7

    def test_support_monotone_across_iterations(self):
        data, cfg, (_, _, codes, _) = desk_training(iters=6)
        # rerun shorter; supports of the longer run are subsets
        _, _, (_, _, codes_short, _) = desk_training(iters=3)
        long_support = np.abs(codes) > ZERO_THRESHOLD
        short_support = np.abs(codes_short) > ZERO_THRESHOLD
        assert not np.any(long_support & ~short_support)

    def test_code_row_updates_monotone_in_full_run(self):
        _, _, (_, _, _, trace) = desk_training(iters=10, track=True)
        rows = [
            (prev[1], cur[1])
            for prev, cur in zip(trace.update_objectives, trace.update_objectives[1:])
            if cur[0] == "codes_row"
        ]
        assert rows, "expected row-level objective records"
        for before, after in rows:
            assert after <= before + 1e-9 * max(1.0, before)

    def test_support_size_histogram(self):
        hist = support_histogram(np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 1e-9]]))
        assert hist[2] == 1  # first column has two active entries
        assert hist[0] == 1  # second column is empty under the threshold

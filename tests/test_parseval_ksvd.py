import tracemalloc
import warnings

import numpy as np
import pytest
from texture import texture
from workloads import self_dual_pair

from pksvd import matrix_core, parseval_ksvd, sparse_solvers
from pksvd.errors import (NearSingularSylvester, RankDeficient, SingularCoefficientGram,
                          SingularMetric)
from pksvd.frames import Dictionary, canonical_dual, dct_dictionary, frame_bounds
from pksvd.imaging import to_blocks
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
    cfg = PkvConfig(rho1=0.1, rho2=7.0, rho3=5.0, max_iters=3)
    return data, codes, synth, analysis, state, cfg


def reference_update_codes(data, codes, synth, analysis, cfg):
    """Per-column least squares of the weighted system on each column's
    support: ||analysis.T r||^2 + rho1 ||r||^2 = ||B r||^2 for the stacked
    B = [analysis.T; sqrt(rho1) I], solved by ``lstsq``. Atoms of zero
    weighted norm keep their codes."""
    weight = np.vstack([analysis.T, np.sqrt(cfg.rho1) * np.eye(synth.shape[0])])
    design = weight @ synth
    live = np.linalg.norm(design, axis=0) > 0.0
    refit = codes.copy()
    for j in range(codes.shape[1]):
        support = np.flatnonzero((codes[:, j] != 0.0) & live)
        if support.size:
            refit[support, j] = np.linalg.lstsq(
                design[:, support], weight @ data[:, j], rcond=None)[0]
    return refit


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
            PkvConfig(**{name: value})

    def test_max_iters_must_be_positive(self):
        with pytest.raises(ValueError, match="max_iters must be >= 1"):
            PkvConfig(max_iters=0)

    def test_defaults_accepted(self):
        cfg = PkvConfig()
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

    def test_rank_deficient_synthesis(self):
        # S S^T has a zero eigenvalue, so S^T S has n - 1 = 2 nonzero ones.
        data, codes, synth, _, state, cfg = small_problem(3, n=3, m=5, n_cols=10)
        synth[2] = synth[0] - 2.0 * synth[1]
        new = update_analysis(data, codes, synth, state, cfg)
        a1, b1, c1 = stated_analysis_system(data, codes, synth, state, cfg)
        assert np.linalg.norm(new - solve_sylvester(a1, b1, c1)) <= 1e-8 * np.linalg.norm(new)

    def test_penalty_ratio_far_above_residual_energies(self):
        # rho2 / rho3 = 1e10: B1's eigenvalues rho2 lam + rho3 on the span
        # of synth^T sit far above A1's and above the m - n of rho3; the
        # three solves still pass the residual check.
        data = to_blocks(texture(0)[:32, :32], 4, subtract_mean=True).blocks
        init = ksvd_train(data, KsvdConfig(k=4, iters=2), dct_dictionary(16, 32))
        synth, _, _, trace = pksvd_train(data, PkvConfig(rho1=1e3, rho2=1e10, rho3=1.0,
                                                         max_iters=3), init)
        assert len(trace) == 3 and np.isfinite(synth.mat).all()

    def test_accurate_ill_conditioned_solve_trains(self, monkeypatch):
        # The third analysis solve has condition estimate 1.1e7, a residual
        # of 6.1e-9 (rounding times the condition, above 1e-9 ||C1||) and
        # a backward error of 1.3e-16; the vec-form reference agrees to 4.4e-10.
        data = to_blocks(texture(0)[:32, :32], 4, subtract_mean=True).blocks
        init = ksvd_train(data, KsvdConfig(k=4, iters=2), dct_dictionary(16, 32))
        solves = []

        def spy(*args):
            solves.append((args, update_analysis(*args)))
            return solves[-1][1]

        monkeypatch.setattr(parseval_ksvd, "update_analysis", spy)
        # Every solve is accepted; the trained synthesis dictionary is not a
        # frame (sigma_min / sigma_max 1.3e-8), which Dictionary refuses last.
        with warnings.catch_warnings(), pytest.raises(RankDeficient, match="not a frame"):
            warnings.simplefilter("error")
            pksvd_train(data, PkvConfig(rho1=1e-20, rho2=1e-3, rho3=1.0, max_iters=3), init)
        assert len(solves) == 3
        args, analysis = solves[-1]
        assert rel_diff(analysis, solve_sylvester(*stated_analysis_system(*args))) <= 1e-8

    def test_residual_check_states_the_solved_form(self, monkeypatch):
        # A1 phi + phi B1 = C1, with B1 formed: the check's terms are
        # (A1, phi) and (phi, B1).
        data, codes, synth, _, state, cfg = small_problem(6)
        seen = []
        monkeypatch.setattr(parseval_ksvd, "check_sylvester_residual",
                            lambda residual, c, *terms: seen.append((c, terms)))
        new = update_analysis(data, codes, synth, state, cfg)
        a1, b1, c1 = stated_analysis_system(data, codes, synth, state, cfg)
        [(c, ((a, left), (right, b)))] = seen
        assert np.allclose(c, c1, rtol=1e-14, atol=0.0)
        assert np.allclose(a, a1, rtol=1e-14, atol=0.0)
        assert left is new and right is new
        assert np.linalg.norm(b - b1) <= 1e-14 * np.linalg.norm(b1)

    def test_tiny_penalties_solve_backward_stably(self, monkeypatch):
        # rho3 = 1e-300 leaves B1 = rho2 S^T S + rho3 I nearly singular.
        # Solved from the eigenpairs of the formed B1, each analysis solve
        # has a normwise backward error at rounding level; the third
        # iteration's synthesis update then fails on its condition.
        data = to_blocks(texture(0)[:32, :32], 4, subtract_mean=True).blocks
        init = ksvd_train(data, KsvdConfig(k=4, iters=2), dct_dictionary(16, 32))
        solves = []

        def spy(*args):
            solves.append((args, update_analysis(*args)))
            return solves[-1][1]

        monkeypatch.setattr(parseval_ksvd, "update_analysis", spy)
        with pytest.raises(NearSingularSylvester) as failure:
            pksvd_train(data, PkvConfig(1e-20, 1e-3, 1e-300, max_iters=3), init)
        assert failure.value.update == "synthesis"
        assert len(solves) == 3
        norm = np.linalg.norm
        for args, analysis in solves:
            a1, b1, c1 = stated_analysis_system(*args)
            error = norm(a1 @ analysis + analysis @ b1 - c1) / (
                norm(a1) * norm(analysis) + norm(analysis) * norm(b1) + norm(c1))
            assert error <= 1e-14

    def test_zero_solution_at_tiny_penalties_fails(self, monkeypatch):
        # With zero multipliers C1 = (rho2 + rho3) synth, about 1e-19 here:
        # a bound of 1e-9 max(1, ||C1||) would accept phi = 0.
        data, codes, synth, _, _, _ = small_problem(5)
        state = AdmmState.zeros(*synth.shape)
        cfg = PkvConfig(rho2=1e-20, rho3=1e-20)
        monkeypatch.setattr(parseval_ksvd, "solve_sylvester_eig",
                            lambda a_eig, b_eig, k: np.zeros_like(k))
        with pytest.raises(NearSingularSylvester, match="solution residual"):
            update_analysis(data, codes, synth, state, cfg)


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

    def test_tiny_penalties_name_the_metric_not_the_code_gram(self):
        # K-SVD leaves one atom of 32 unused on this crop, so its row of
        # M = 2 rho1 G + rho2 A^T A + rho3 I holds about 1e-300 only. The
        # ridged code Gram is positive definite all the same.
        data = to_blocks(texture(0)[:32, :32], 4, subtract_mean=True).blocks
        init = ksvd_train(data, KsvdConfig(k=4, iters=2), dct_dictionary(16, 32))
        gram = init[1] @ init[1].T
        assert np.count_nonzero(~init[1].any(axis=1)) == 1
        ridged = gram + 1e-8 * np.trace(gram) / 32 * np.eye(32)
        assert np.linalg.eigvalsh(ridged)[0] > 1e-4
        cfg = PkvConfig(rho2=1e-300, rho3=1e-300, max_iters=3)
        with pytest.raises(SingularMetric, match="M is numerically singular"):
            pksvd_train(data, cfg, init)

    def test_ill_conditioned_code_gram_trains(self):
        # By iteration 595 of this train the ridged code Gram has condition
        # about 1.8e8. The solve's backward error stays near 1e-17, but the
        # residual right-divided by G read 5.6e-6 there and failed it.
        data = to_blocks(texture(0)[:64, :64], 4, subtract_mean=True).blocks
        init = ksvd_train(data, KsvdConfig(k=4, iters=20), dct_dictionary(16, 32))
        synth, _, _, trace = pksvd_train(data, PkvConfig(rho2=10.0, rho3=10.0,
                                                         max_iters=600), init)
        assert len(trace) == 600 and np.isfinite(synth.mat).all()

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
        cfg = PkvConfig(rho2=100.0, rho3=50.0)
        new = update_multipliers(synth, synth.copy(), state, cfg)
        assert np.allclose(new.mult_id, 0.0, atol=1e-12)
        assert np.allclose(new.mult_eq, 0.0, atol=1e-12)

    def test_single_step_formula(self):
        rng = np.random.default_rng(8)
        synth = rng.standard_normal((3, 5))
        analysis = rng.standard_normal((3, 5))
        cfg = PkvConfig(rho2=7.0, rho3=3.0)
        new = update_multipliers(synth, analysis, AdmmState.zeros(3, 5), cfg)
        assert np.allclose(
            new.mult_id, 7.0 * (synth @ analysis.T - np.eye(3)), atol=1e-12
        )
        assert np.allclose(new.mult_eq, 3.0 * (synth - analysis), atol=1e-12)

    def test_two_steps_accumulate(self):
        rng = np.random.default_rng(9)
        cfg = PkvConfig(rho2=2.0, rho3=4.0)
        s1, a1 = rng.standard_normal((2, 4)), rng.standard_normal((2, 4))
        s2, a2 = rng.standard_normal((2, 4)), rng.standard_normal((2, 4))
        state = update_multipliers(s1, a1, AdmmState.zeros(2, 4), cfg)
        state = update_multipliers(s2, a2, state, cfg)
        expect_id = 2.0 * ((s1 @ a1.T - np.eye(2)) + (s2 @ a2.T - np.eye(2)))
        assert np.allclose(state.mult_id, expect_id, atol=1e-12)


class TestUpdateCodes:
    def test_identity_dictionaries_fit_data(self):
        rng = np.random.default_rng(10)
        data = rng.uniform(1.0, 2.0, size=(4, 6))
        synth = np.eye(4)
        cfg = PkvConfig(rho1=0.1)
        codes = update_codes(data, np.ones((4, 6)), synth, synth, cfg)
        assert np.allclose(codes, data, atol=1e-12)

    @pytest.mark.parametrize("rho1", [1e-3, 0.1, 10.0])
    @pytest.mark.parametrize("n,m", [(16, 32), (64, 256)])
    def test_parseval_pair_refit_is_plain_least_squares(self, n, m, rho1):
        """At a Parseval pair P the weight P P^T + rho1 I is (1 + rho1) I,
        so the refresh is the unweighted refit on each support."""
        pair = self_dual_pair(dct_dictionary(n, m).mat)
        rng = np.random.default_rng(m)
        codes = np.zeros((m, 3 * m))
        for col in codes.T:
            col[rng.choice(m, 4, replace=False)] = rng.standard_normal(4)
        data = pair @ codes + 0.1 * rng.standard_normal((n, 3 * m))
        got = update_codes(data, codes, pair, pair, PkvConfig(rho1=rho1))
        ref = sparse_solvers._refit_supports(pair.T @ pair, pair.T @ data, codes)
        assert np.array_equal(got != 0.0, codes != 0.0)
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

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

    @pytest.mark.parametrize("seed", [13, 14, 15])
    def test_objective_does_not_rise(self, seed):
        data, codes, synth, analysis, _, cfg = small_problem(seed, n_cols=16)
        before = objective_value(data, codes, synth, analysis, cfg.rho1)
        new = update_codes(data, codes, synth, analysis, cfg)
        after = objective_value(data, new, synth, analysis, cfg.rho1)
        assert after <= before
        # a second refresh starts at the minimum: it stays within rounding
        again = update_codes(data, new, synth, analysis, cfg)
        again_value = objective_value(data, again, synth, analysis, cfg.rho1)
        assert abs(again_value - after) <= 1e-12 * before

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
        # tiny data drive some entries below the threshold
        data[:, 20:] *= 1e-7
        return data, codes, synth, analysis, cfg

    @staticmethod
    def assert_matches_reference(data, codes, synth, analysis, cfg):
        got = update_codes(data, codes, synth, analysis, cfg)
        ref = reference_update_codes(data, codes, synth, analysis, cfg)
        assert np.array_equal(got != 0.0, ref != 0.0)
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
        return got

    @pytest.mark.parametrize("seed", range(4))
    def test_row_order_problems_match_reference(self, seed):
        data, codes, synth, analysis, cfg = self.row_order_problem(seed)
        got = self.assert_matches_reference(data, codes, synth, analysis, cfg)
        # the zero atom keeps its codes, and every support entry stays nonzero
        assert np.array_equal(got[6], np.where(codes[6] != 0.0, 1.0, 0.0))
        assert np.count_nonzero(got) == np.count_nonzero(codes)

    @staticmethod
    def wide_problem(seed):
        """Supports of width 10 with a zero atom in a middle slot, and small
        codes on tiny data in the last columns, which the refresh drives
        below the zero threshold."""
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
        got = self.assert_matches_reference(data, codes, synth, analysis, cfg)
        assert np.count_nonzero(got) == np.count_nonzero(codes)
        assert np.array_equal(got[11], codes[11])

    def test_full_width_fits_like_reference(self):
        # Supports of width n = 64 fit every column exactly. The normal
        # equations square the support conditioning (up to 7.7e3 here),
        # so the fits are compared, not the codes.
        data, codes, synth, analysis, _, cfg = small_problem(
            70, n=64, m=256, n_cols=256, k=64
        )
        got = update_codes(data, codes, synth, analysis, cfg)
        ref = reference_update_codes(data, codes, synth, analysis, cfg)
        assert np.array_equal(got != 0.0, ref != 0.0)
        assert np.linalg.norm(synth @ (got - ref)) <= 1e-10 * np.linalg.norm(data)
        start = objective_value(data, codes, synth, analysis, cfg.rho1)
        assert objective_value(data, got, synth, analysis, cfg.rho1) <= 1e-18 * start

    def test_two_equal_atoms_on_one_support_raise(self):
        # Dyadic entries keep every product exact, so the support Gram of
        # atoms 1 and 2 in column 3 is exactly singular.
        synth = np.array([[1.0, 0.5, 0.5], [0.0, 0.5, 0.5]])
        data = np.array([[1.0, 2.0, 0.5, 1.0], [1.0, 0.0, 0.5, 0.5]])
        codes = np.array([[1.0, 1.0, 1.0, 0.0],
                          [1.0, 0.0, 0.0, 1.0],
                          [0.0, 0.0, 1.0, 1.0]])
        cfg = PkvConfig(rho1=0.25)
        with pytest.raises(SingularCoefficientGram, match="code column 3 is singular"):
            update_codes(data, codes, synth, synth, cfg)

    @pytest.mark.parametrize("per_batch", [1, 2, 7, 13])
    def test_batches_do_not_change_results(self, per_batch, monkeypatch):
        data, codes, synth, analysis, cfg = self.wide_problem(63)
        one = update_codes(data, codes, synth, analysis, cfg)
        monkeypatch.setattr(sparse_solvers, "_REFIT_BATCH_ENTRIES", per_batch * 10 ** 2)
        split = update_codes(data, codes, synth, analysis, cfg)
        assert -(-codes.shape[1] // per_batch) >= 3
        assert one.tobytes() == split.tobytes()

    def test_batches_do_not_change_results_at_full_width(self, monkeypatch):
        data, codes, synth, analysis, _, cfg = small_problem(
            70, n=64, m=256, n_cols=256, k=64
        )
        assert (np.count_nonzero(codes, axis=0) == 64).all()
        assert sparse_solvers._REFIT_BATCH_ENTRIES // 64 ** 2 == 16
        wide = update_codes(data, codes, synth, analysis, cfg)
        # 5 columns per batch, the last batch short
        monkeypatch.setattr(sparse_solvers, "_REFIT_BATCH_ENTRIES", 5 * 64 ** 2)
        narrow = update_codes(data, codes, synth, analysis, cfg)
        assert wide.tobytes() == narrow.tobytes()

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
    init = ksvd_train(data, KsvdConfig(k=k, iters=10), dct_dictionary(n, m))
    cfg = PkvConfig(rho1=0.1, rho2=rho, rho3=rho, max_iters=iters)
    return data, cfg, pksvd_train(data, cfg, init, track_updates=track)


def count_slot_builds(monkeypatch):
    builds = []
    build = parseval_ksvd._support_slots

    def counted(present):
        builds.append(present.sum())
        return build(present)

    monkeypatch.setattr(parseval_ksvd, "_support_slots", counted)
    return builds


class TestPksvdTrain:
    def test_codes_must_match_dictionary_and_data(self):
        data, codes, synth, _, _, cfg = small_problem(0)
        with pytest.raises(ValueError, match=r"codes must be 6x12, got \(6, 11\)"):
            pksvd_train(data, cfg, (Dictionary(synth), codes[:, :11]))

    def test_fixed_supports_build_slots_once(self, monkeypatch):
        data, codes, synth, _, _, _ = small_problem(1)
        cfg = PkvConfig(rho1=0.1, rho2=7.0, rho3=5.0, max_iters=6)
        builds = count_slot_builds(monkeypatch)
        _, _, got, _ = pksvd_train(data, cfg, (Dictionary(synth), codes))
        assert builds == [np.count_nonzero(codes)] == [np.count_nonzero(got)]

    def test_small_ksvd_codes_stay_on_their_supports(self):
        # texture(202) at full scale: K-SVD leaves code -4.26e-7 at row 169
        # of column 181, below the zero threshold. It stays on the refresh
        # support, so that column's 64 atoms fit it to rounding.
        data = to_blocks(texture(202).astype(float), 8, subtract_mean=True).blocks
        init = ksvd_train(data, KsvdConfig(k=64, iters=1), dct_dictionary(64, 256))
        small = (init[1] != 0.0) & (np.abs(init[1]) <= ZERO_THRESHOLD)
        assert small[169, 181]
        synth, _, codes, _ = pksvd_train(data, PkvConfig(max_iters=1), init)
        assert np.array_equal(codes != 0.0, init[1] != 0.0)
        assert np.count_nonzero(codes) == 16384
        column = data[:, 181]
        fit = np.linalg.norm(column - synth.mat @ codes[:, 181])
        assert fit <= 1e-12 * np.linalg.norm(column)

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
            if cur[0] == "codes"
        ]
        assert len(rows) == 10
        for before, after in rows:
            assert after <= before + 1e-9 * max(1.0, before)

    def test_support_size_histogram(self):
        hist = support_histogram(np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 1e-9]]))
        assert hist[2] == 1  # first column has two active entries
        assert hist[0] == 1  # second column is empty under the threshold

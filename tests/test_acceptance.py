"""Acceptance suite: one test per criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Criterion 4 documents a known analytical failure of the quoted
monotonicity claim for the dictionary updates; see the assertion message
and README for the analysis.
"""

import time

import numpy as np
import pytest

from pksvd.applications import (
    add_gaussian_noise,
    compress_rd,
    denoise,
    inpaint,
    random_mask,
)
from pksvd.errors import NoViolationFound
from pksvd.frames import Dictionary, canonical_dual, frame_bounds, random_dual
from pksvd.imaging import from_blocks, psnr, to_blocks, write_pgm
from pksvd.matrix_core import pseudo_inverse, solve_sylvester, solve_sylvester_eig
from pksvd.theory_lab import (
    cosparsity_floor_check,
    nonexistence_search,
    projection_identity_check,
    proxy_trial,
    random_general_position_frame,
)

BLOCK = 4
EPS_GRID = list(range(2, 25, 2))
RD_STEPS = [0.5 * 2 ** (k / 2) for k in range(17)]
SEEDS = range(5)


def report(criterion, passed, detail):
    flag = "PASS" if passed else "FAIL"
    print(f"[acceptance] criterion {criterion}: {flag} — {detail}")
    return passed


def test_criterion_01_parseval_feasibility(desk_run):
    trace = desk_run["trace"]
    ident = 10.0 ** trace.log10_identity_residual[-1]
    match = 10.0 ** trace.log10_match_residual[-1]
    detail = (
        f"||SA^T - I||_F^2 = {ident:.3e} (<= 1e-8), "
        f"||S - A||_F^2 = {match:.3e} (<= 1e-6), 200 iterations"
    )
    ok = ident <= 1e-8 and match <= 1e-6
    assert report(1, ok, detail)


def test_criterion_01_runtime(test_image):
    # A fresh 200-iteration desk run, timed end to end.
    from pksvd.frames import dct_dictionary
    from pksvd.ksvd import KsvdConfig, ksvd_train
    from pksvd.parseval_ksvd import PkvConfig, pksvd_train

    data = to_blocks(test_image[:64, :64], BLOCK, subtract_mean=True).blocks
    t0 = time.time()
    base = ksvd_train(data, KsvdConfig(k=4, iters=20),
                      dct_dictionary(16, 32))
    cfg = PkvConfig(rho2=1e11, rho3=1e11, max_iters=200)
    pksvd_train(data, cfg, base)
    elapsed = time.time() - t0
    ok = elapsed <= 300.0
    assert report(1, ok, f"desk training runtime {elapsed:.1f} s (<= 300 s)")


def test_criterion_02_frame_bound_gap(desk_run):
    parseval_ratio = frame_bounds(desk_run["synth"]).ratio
    ksvd_ratio = frame_bounds(desk_run["ksvd_dict"]).ratio
    ok = parseval_ratio <= 1 + 1e-4 and ksvd_ratio > 1.1
    assert report(
        2, ok,
        f"B/A parseval = 1 + {parseval_ratio - 1:.2e} (<= 1+1e-4), "
        f"B/A ksvd = {ksvd_ratio:.2f} (> 1.1)",
    )


def test_criterion_03_reconstruction_flow(desk_run):
    data = desk_run["data"]
    synth, analysis = desk_run["synth"], desk_run["analysis"]
    recon = synth.mat @ (analysis.mat.T @ data)
    rel = np.linalg.norm(recon - data) / np.linalg.norm(data)
    ok = rel <= 1e-8
    assert report(3, ok, f"round-trip relative error {rel:.3e} (<= 1e-8)")


def test_criterion_04_objective_monotonicity(desk_run):
    # Checked exactly as stated: the weighted objective must be
    # non-increasing across every primal update (analysis, synthesis, and
    # the code refresh) of the first 50 iterations, within 1e-9 relative
    # slack. The code refresh satisfies this by construction: it minimizes
    # the objective over the codes on their supports. The dictionary
    # updates minimize the penalized Lagrangian rather than the objective
    # itself, so the constraint-enforcement transient raises the objective
    # and the criterion fails there. This is inherent to the update
    # equations, not a solver artifact (see README).
    updates = desk_run["trace"].update_objectives[: 50 * 3]
    assert [label for label, _ in updates] == ["analysis", "synthesis", "codes"] * 50
    violations = []
    for i in range(1, len(updates)):
        prev, cur = updates[i - 1][1], updates[i][1]
        if cur > prev + 1e-9 * max(1.0, prev):
            violations.append((i, updates[i][0], (cur - prev) / max(1.0, prev)))
    code_violations = [v for v in violations if v[1] == "codes"]
    dict_violations = [v for v in violations if v[1] != "codes"]
    ok = not violations
    detail = (
        f"{len(updates)} primal updates over 50 iterations: "
        f"{len(code_violations)} code-update violations, "
        f"{len(dict_violations)} dictionary-update violations"
    )
    if dict_violations:
        worst = max(dict_violations, key=lambda v: v[2])
        detail += (
            f"; worst at update {worst[0]} ({worst[1]}), relative rise "
            f"{worst[2]:.2e} — dictionary updates minimize the augmented "
            f"Lagrangian, which provably permits objective increases while "
            f"the constraints engage"
        )
    assert report(4, ok, detail), detail


def test_criterion_05_optimal_proxy(desk_run):
    rng = np.random.default_rng(5050)
    worst_margin = np.inf
    comparisons = 0
    for trial in range(100):
        frame = random_general_position_frame(3, 6, rng)
        x = rng.standard_normal(3)
        result = proxy_trial(frame, x, n_alt_duals=20,
                             seed=int(rng.integers(0, 2 ** 62)))
        for dist in result.alt_dual_distances:
            comparisons += 1
            margin = dist - result.canonical_distance
            worst_margin = min(worst_margin, margin)
    ok = worst_margin >= -1e-9
    assert report(
        5, ok,
        f"canonical dual within tolerance in {comparisons} comparisons "
        f"(worst margin {worst_margin:+.3e} >= -1e-9)",
    )


def test_criterion_06_canonical_codes_are_min_norm():
    rng = np.random.default_rng(6060)
    worst = 0.0
    for _ in range(100):
        d = Dictionary(rng.standard_normal((3, 6)))
        x = rng.standard_normal(3)
        analysis_codes = canonical_dual(d).mat.T @ x
        pinv_codes = pseudo_inverse(d.mat) @ x
        lstsq_codes, *_ = np.linalg.lstsq(d.mat, x, rcond=None)
        worst = max(
            worst,
            float(np.linalg.norm(analysis_codes - pinv_codes)),
            float(np.linalg.norm(analysis_codes - lstsq_codes)),
        )
    ok = worst <= 1e-10
    assert report(6, ok, f"worst deviation from min-norm codes {worst:.3e} (<= 1e-10)")


def test_criterion_07_projection_identity():
    rng = np.random.default_rng(7070)
    worst_idem = worst_sym = 0.0
    asym_hits = 0
    for seed in range(100):
        d = Dictionary(rng.standard_normal((3, 6)))
        res = projection_identity_check(d)
        worst_idem = max(worst_idem, res.idempotence)
        worst_sym = max(worst_sym, res.symmetry)
        assert res.rank_gap == 0
        kernel = random_dual(d, seed).mat.T @ d.mat
        if np.linalg.norm(kernel.T - kernel) > 1e-3:
            asym_hits += 1
    ok = worst_idem <= 1e-10 and worst_sym <= 1e-10 and asym_hits >= 95
    assert report(
        7, ok,
        f"canonical kernel residuals <= {max(worst_idem, worst_sym):.2e} "
        f"(<= 1e-10); non-canonical asymmetric in {asym_hits}/100 (>= 95)",
    )


def test_criterion_08_no_universal_sparse_dual():
    overcomplete = nonexistence_search(3, 5, trials=100, seed=88)
    square_clean = False
    try:
        nonexistence_search(3, 3, trials=50, seed=88)
    except NoViolationFound:
        square_clean = True
    ok = overcomplete.violation > 1e-6 and square_clean
    assert report(
        8, ok,
        f"linearity violation {overcomplete.violation:.3f} > 1e-6 at trial "
        f"{overcomplete.trial} for 3x5; none found for square frames",
    )


def test_criterion_09_cosparsity_floor():
    rng = np.random.default_rng(9090)
    frame = random_general_position_frame(3, 5, rng)
    observed = cosparsity_floor_check(frame, trials=1000, seed=99)
    ok = observed >= 3
    assert report(
        9, ok, f"min analysis support {observed} >= m - n + 1 = 3 over 1000 trials"
    )


def test_criterion_10_sylvester_cross_method():
    rng = np.random.default_rng(1010)
    worst_gap = worst_resid = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(2, 11))
        a = rng.standard_normal((n, n))
        a = a @ a.T + 0.5 * np.eye(n)
        b = rng.standard_normal((m, m))
        b = b @ b.T + 0.5 * np.eye(m)
        c = rng.standard_normal((n, m))
        eig = solve_sylvester_eig(np.linalg.eigh(a), np.linalg.eigh(b), c)
        kron_sol = solve_sylvester(a, b, c)
        worst_gap = max(worst_gap, float(np.linalg.norm(eig - kron_sol)))
        for beta in (eig, kron_sol):
            resid = np.linalg.norm(a @ beta + beta @ b - c)
            worst_resid = max(
                worst_resid, float(resid / max(1.0, np.linalg.norm(c)))
            )
    ok = worst_gap <= 1e-8 and worst_resid <= 1e-9
    assert report(
        10, ok,
        f"50 instances: max method gap {worst_gap:.2e} (<= 1e-8), "
        f"max relative residual {worst_resid:.2e} (<= 1e-9)",
    )


def best_denoise_psnr(image, noisy, pair):
    synth, analysis = pair
    blocked = to_blocks(noisy, BLOCK, subtract_mean=True,
                        mean_value=float(image.mean()))
    results = denoise(blocked, synth, analysis, EPS_GRID)
    return max(psnr(image, from_blocks(blk)) for blk in results)


def test_criterion_11_denoising_direction(test_image, app_dictionaries):
    gaps = {}
    for sigma in (10, 20):
        diffs = []
        for seed in SEEDS:
            noisy = add_gaussian_noise(test_image, sigma, seed)
            p = best_denoise_psnr(test_image, noisy, app_dictionaries["parseval"])
            k = best_denoise_psnr(test_image, noisy, app_dictionaries["ksvd"])
            diffs.append(p - k)
        gaps[sigma] = float(np.mean(diffs))
    ok = all(g >= 0 for g in gaps.values())
    assert report(
        11, ok,
        "denoising: avg PSNR(parseval) - PSNR(ksvd) = "
        f"{gaps[10]:+.3f} dB at sigma=10, {gaps[20]:+.3f} dB at sigma=20 "
        "(both >= 0, 5 seeds)",
    )


def test_criterion_11_inpainting_direction(test_image, app_dictionaries):
    synth_p, _ = app_dictionaries["parseval"]
    synth_k, _ = app_dictionaries["ksvd"]
    gaps = {}
    for fraction in (0.2, 0.5):
        diffs = []
        for seed in SEEDS:
            mask = random_mask(test_image.shape, fraction, seed, BLOCK)
            corrupted = np.where(mask.observed, test_image, 0.0)
            blocked = to_blocks(corrupted, BLOCK, subtract_mean=True,
                                mean_value=float(test_image.mean()))
            k = psnr(test_image, from_blocks(inpaint(blocked, mask, synth_k, 0.01)))
            p = psnr(test_image, from_blocks(inpaint(blocked, mask, synth_p, 0.01)))
            diffs.append(k - p)
        gaps[fraction] = float(np.mean(diffs))
    ok = all(g >= 0 for g in gaps.values())
    assert report(
        11, ok,
        "inpainting: avg PSNR(ksvd) - PSNR(parseval) = "
        f"{gaps[0.2]:+.3f} dB at 20% missing, {gaps[0.5]:+.3f} dB at 50% "
        "(both >= 0, 5 seeds)",
    )


def test_criterion_11_rate_distortion_dominance(test_image, app_dictionaries):
    blocked = to_blocks(test_image, BLOCK, subtract_mean=True)
    curves = {}
    for name, (synth, analysis) in app_dictionaries.items():
        pts = compress_rd(blocked, synth, analysis, RD_STEPS)
        xs = [p.bits_per_pixel for p in pts][::-1]
        ys = [p.psnr_db for p in pts][::-1]
        curves[name] = (xs, ys)
    grid = np.linspace(0.8, 2.0, 25)
    diffs = [
        float(np.interp(b, *curves["parseval"]) - np.interp(b, *curves["ksvd"]))
        for b in grid
    ]
    ok = min(diffs) >= 0.0
    assert report(
        11, ok,
        f"rate-distortion: PSNR(parseval) - PSNR(ksvd) in [0.8, 2.0] bpp "
        f"ranges {min(diffs):+.3f} .. {max(diffs):+.3f} dB (all >= 0)",
    )


def test_criterion_12_cli_determinism(test_image, tmp_path):
    from pksvd.cli import main

    img_path = tmp_path / "in.pgm"
    write_pgm(test_image[:64, :64], img_path)
    cfg = ["--block_size", "4", "--m", "24", "--k", "3", "--ksvd_iters", "4",
           "--max_iters", "4", "--seed", "11"]
    snapshots = []
    # Both runs use the same file names, in two directories: the denoise
    # table records the dictionary's file name.
    for tag in ("one", "two"):
        run = tmp_path / tag
        run.mkdir()
        out = run / "dict.pk"
        trace = run / "trace.csv"
        assert main(["train", str(img_path), "--method", "parseval",
                     "--out", str(out), "--trace", str(trace), *cfg]) == 0
        assert main(["denoise", str(img_path), "--dict", str(out),
                     "--dual", str(run / "dict.dual.pk"),
                     "--sigma", "10", "--eps", "8,16", "--seed", "11",
                     "--out-prefix", str(run / "dn"), "--block_size", "4"]) == 0
        assert main(["compress", str(img_path), "--dict", str(out),
                     "--steps", "2,8,32", "--out-prefix", str(run / "rd"),
                     "--block_size", "4"]) == 0
        snapshots.append(b"".join(
            p.read_bytes()
            for p in (out, run / "dict.dual.pk", trace, run / "dn.pgm",
                      run / "dn.csv", run / "rd.csv")
        ))
    ok = snapshots[0] == snapshots[1]
    assert report(
        12, ok,
        "train + denoise + compress reruns with identical config and seed "
        "produce byte-identical dictionaries, traces, images, and tables",
    )

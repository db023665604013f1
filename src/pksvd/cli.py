"""Batch command-line front-end.

Subcommands: train, verify, reconstruct, denoise, inpaint, compress,
theory. Numeric parameters come from an optional key=value config file,
which every command accepts and validates whole; a command takes override
flags only for the keys it reads. All outputs are written atomically and
identical (config, seed, inputs) produce byte-identical files.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import applications, formats, frames, imaging, parseval_ksvd, theory_lab
from .errors import (BadShape, ConfigError, EmptyBlockMask, NearSingularSylvester, PksvdError,
                     RankDeficient, SingularCoefficientGram, SingularMetric)
from .ksvd import KsvdConfig, ksvd_train
from .parseval_ksvd import PkvConfig, pksvd_train, support_histogram

_INT_KEYS = ("block_size", "m", "k", "max_iters", "seed", "ksvd_iters")
_FLOAT_KEYS = ("rho1", "rho2", "rho3")
KNOWN_KEYS = _INT_KEYS + _FLOAT_KEYS

DEFAULTS = {
    "block_size": 8,
    "m": 256,
    "k": 64,
    "rho1": PkvConfig.rho1,
    "rho2": PkvConfig.rho2,
    "rho3": PkvConfig.rho3,
    "max_iters": PkvConfig.max_iters,
    "seed": 0,
    "ksvd_iters": KsvdConfig.iters,
}

DENOISE_EPS_GRID = "2,4,6,8,10,12,14,16,18,20,22,24"
COMPRESS_STEP_GRID = "0.5,1,2,4,8,16,32,64,128"
# A noise level whose noisy blocks' sum of squares exceeds this is
# rejected: SSIM forms fourth powers of the restored pixels, whose sum of
# squares is about as large, and 1e150 squared stays 1e8 below overflow.
NOISY_ENERGY_MAX = 1e150
METRIC_COLUMNS = ("image", "sigma_or_fraction", "dictionary", "psnr", "ssim", "eps_used")


def _parse_config_file(path):
    values = {}
    # Undecodable bytes decode to lone surrogates, so a non-ASCII line fails by its number.
    with open(path, "r", encoding="ascii", errors="surrogateescape") as handle:
        for lineno, raw in enumerate(handle, start=1):
            if not raw.isascii():
                raise ConfigError(f"{path}:{lineno}: config file is not ASCII text")
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
            key, _, value = (part.strip() for part in line.partition("="))
            if key not in KNOWN_KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
            values[key] = value
    return values


def _coerce(key, value):
    try:
        if key in _INT_KEYS:
            return int(value)
        return float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"config key {key!r} has non-numeric value {value!r}") from None


def resolve_config(args):
    """Merge defaults, config file, and flags (flags win)."""
    merged = dict(DEFAULTS)
    if getattr(args, "config", None):
        for key, value in _parse_config_file(args.config).items():
            merged[key] = _coerce(key, value)
    for key in KNOWN_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = _coerce(key, flag)
    for key in _INT_KEYS:
        low = 0 if key == "seed" else 1
        if merged[key] < low:
            raise ConfigError(f"config key {key!r} must be >= {low}")
    return merged


def _float_list(flag, text):
    """The numbers in ``flag``'s comma-separated ``text``; empty entries are skipped."""
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"{flag} must be comma-separated numbers, got {text!r}") from None


def _add_config_flags(parser, keys):
    """Add ``--config`` and one override flag for each key the command reads."""
    parser.add_argument("--config", help="key=value config file")
    for key in keys:
        parser.add_argument(f"--{key}", type=int if key in _INT_KEYS else float,
                            help=f"override config key {key}")


def _read_image(path, block_size):
    """The PGM image at ``path``; fails naming --block_size unless its
    blocks tile the image."""
    img = imaging.read_pgm(path)
    try:
        imaging.check_tiling(img.shape, block_size)
    except BadShape:
        h, w = img.shape
        raise ConfigError(
            f"--block_size {block_size} does not divide the {h}x{w} image {path}"
        ) from None
    return img


def _load_training_blocks(paths, block_size):
    columns = []
    for path in paths:
        img = _read_image(path, block_size)
        blocked = imaging.to_blocks(img, block_size, subtract_mean=True)
        columns.append(blocked.blocks)
    return np.hstack(columns)


def _dual_path(out_path):
    root, ext = os.path.splitext(out_path)
    return f"{root}.dual{ext or '.pk'}"


def _print_dictionary_summary(label, dictionary, codes=None):
    bounds = frames.frame_bounds(dictionary)
    gram_gap = frames.parseval_residual(dictionary)
    print(f"{label}: {dictionary.n}x{dictionary.m}")
    print(f"  frame bounds A={bounds.lower:.6g} B={bounds.upper:.6g} "
          f"B/A={bounds.ratio:.6g}")
    print(f"  parseval residual ||GG^T - I||_F = {gram_gap:.3e}")
    if codes is not None:
        hist = support_histogram(codes)
        used = np.flatnonzero(hist)
        compact = ", ".join(f"{size}:{int(hist[size])}" for size in used)
        print(f"  column support histogram (size:count): {compact}")


def cmd_train(args):
    cfg = resolve_config(args)
    if args.method == "ksvd":
        for flag, path in (("--out-dual", args.out_dual), ("--trace", args.trace)):
            if path:  # only a Parseval train writes these
                raise ConfigError(f"{flag} needs --method parseval")
    n = cfg["block_size"] ** 2
    if cfg["m"] < n:
        raise ConfigError(f"--m {cfg['m']} is below the signal dimension of a --block_size "
                          f"{cfg['block_size']} block: need m >= n, got n={n}, m={cfg['m']}")
    if cfg["k"] > n:
        raise ConfigError(f"--k {cfg['k']} exceeds the signal dimension of a --block_size "
                          f"{cfg['block_size']} block: need k <= n, got n={n}, k={cfg['k']}")
    for path in (args.out, args.out_dual, args.out_codes, args.trace):
        if path:  # fail before the run, not after it
            formats.check_output_dir(path)
    if args.method == "parseval":
        # Built before any data is read, so that bad penalties fail at once.
        pkv_cfg = PkvConfig(rho1=cfg["rho1"], rho2=cfg["rho2"], rho3=cfg["rho3"],
                            max_iters=cfg["max_iters"])
    data = _load_training_blocks(args.images, cfg["block_size"])
    if data.shape[1] < cfg["m"]:
        raise ConfigError(
            f"{data.shape[1]} training blocks < m={cfg['m']}; provide more data"
        )
    init = frames.dct_dictionary(n, cfg["m"])
    ksvd_cfg = KsvdConfig(k=cfg["k"], iters=cfg["ksvd_iters"])
    synth, codes = ksvd_train(data, ksvd_cfg, init)
    penalties = ", ".join(f"--{key} {cfg[key]:g}" for key in _FLOAT_KEYS)
    if args.method == "parseval":
        try:
            synth, analysis, codes, trace = pksvd_train(data, pkv_cfg, (synth, codes))
        except NearSingularSylvester as exc:
            if exc.update == "analysis":
                # The analysis update's eigenvalue sums lie between rho3 and about
                # rho2 ||S||^2 plus the data terms, so rho2 / rho3 sets its condition.
                raise ConfigError(
                    f"--rho2 {cfg['rho2']:g} is too large against --rho3 {cfg['rho3']:g}: the "
                    f"analysis update's Sylvester system is near-singular ({exc}); "
                    "lower --rho2 or raise --rho3"
                ) from None
            raise ConfigError(
                f"the synthesis update's Sylvester system is near-singular ({exc}), with "
                f"{penalties}; raise --rho1 or --rho3"
            ) from None
        except SingularCoefficientGram as exc:
            if exc.update != "codes":
                raise  # the synthesis update's code Gram: singular for a flat image
            # rho1 S^T S is the term of the refresh's Gram that keeps the
            # Gram of independent support atoms definite.
            raise ConfigError(
                f"the code refresh failed ({exc}), with {penalties}; raise --rho1"
            ) from None
        except SingularMetric as exc:
            raise ConfigError(
                f"--rho3 {cfg['rho3']:g} is too small for --rho1 {cfg['rho1']:g} and --rho2 "
                f"{cfg['rho2']:g}: the synthesis update's metric 2 rho1 G + rho2 A^T A + "
                f"rho3 I, which only its rho3 I term keeps definite, fails ({exc}); raise --rho3"
            ) from None
    try:  # before the first write: the frame bounds fail on a rank-deficient dictionary
        _print_dictionary_summary(f"{args.method} dictionary", synth, codes)
    except RankDeficient as exc:
        with_penalties = f", with {penalties}" if args.method == "parseval" else ""
        raise RankDeficient(f"the trained dictionary is not a frame ({exc}){with_penalties}") from None
    formats.save_dictionary(synth, args.out)
    written = [args.out]
    if args.method == "parseval":
        print(f"  final constraint residuals: "
              f"log10 ||SA^T - I||_F^2 = {trace.log10_identity_residual[-1]:.2f}, "
              f"log10 ||S - A||_F^2 = {trace.log10_match_residual[-1]:.2f}")
        written.append(args.out_dual or _dual_path(args.out))
        formats.save_dictionary(analysis, written[1])
        if args.trace:
            formats.write_trace_csv(trace, args.trace)
    if args.out_codes:
        formats.save_codes(codes, args.out_codes)
    print(f"wrote {' and '.join(written)}")
    return 0


def cmd_verify(args):
    d = formats.load_dictionary(args.dictionary)
    _print_dictionary_summary("dictionary", d)
    print(f"  parseval (tol 1e-6): {frames.is_parseval(d, 1e-6)}")
    res = theory_lab.projection_identity_check(d)
    print(f"  canonical kernel: idempotence {res.idempotence:.3e}, "
          f"symmetry {res.symmetry:.3e}, rank gap {res.rank_gap}")
    if args.dual:
        dual = formats.load_dictionary(args.dual)
        applications._check_pair(None, d, dual)
        ident, trace_gap, match = parseval_ksvd.pair_residuals(d.mat, dual.mat)
        print(f"  pair residuals: ||SA^T - I||_F^2 = {ident:.3e}, "
              f"trace gap {trace_gap:.3e}, ||S - A||_F^2 = {match:.3e}")
    return 0


def _load_pair(args):
    synth = formats.load_dictionary(args.dictionary)
    if args.dual:
        return synth, formats.load_dictionary(args.dual)
    return synth, frames.canonical_dual(synth)


def cmd_reconstruct(args):
    cfg = resolve_config(args)
    synth, analysis = _load_pair(args)
    img = _read_image(args.image, cfg["block_size"])
    recon, value = applications.reconstruct_roundtrip(
        img, synth, analysis, cfg["block_size"]
    )
    imaging.write_pgm(recon, args.out)
    rel = np.linalg.norm(recon - img) / max(np.linalg.norm(img), 1e-300)
    print(f"reconstruction psnr: {value:.2f} dB (relative error {rel:.3e})")
    print(f"wrote {args.out}")
    return 0


def _write_metrics_row(args, sigma_or_fraction, img, restored, psnr_db, eps_used):
    """Write a recovery's one ``METRIC_COLUMNS`` row to ``<out-prefix>.csv``
    and return that path."""
    out_csv = f"{args.out_prefix}.csv"
    formats.write_csv(
        METRIC_COLUMNS,
        [(
            os.path.basename(args.image), float(sigma_or_fraction),
            os.path.basename(args.dictionary), float(psnr_db),
            imaging.ssim(img, restored), float(eps_used),
        )],
        out_csv,
    )
    return out_csv


def cmd_denoise(args):
    cfg = resolve_config(args)
    eps_grid = _float_list("--eps", args.eps)
    synth, analysis = _load_pair(args)
    img = _read_image(args.image, cfg["block_size"])
    noisy = applications.add_gaussian_noise(img, args.sigma, cfg["seed"])
    blocked = imaging.to_blocks(
        noisy, cfg["block_size"], subtract_mean=True, mean_value=float(img.mean())
    )
    with np.errstate(over="ignore"):
        energy = np.einsum("ij,ij->", blocked.blocks, blocked.blocks)
    if not energy <= NOISY_ENERGY_MAX:
        raise ConfigError(f"--sigma {args.sigma:g} is too large: the noisy blocks' "
                          f"sum of squares exceeds {NOISY_ENERGY_MAX:g}")
    restorations = [imaging.from_blocks(out)
                    for out in applications.denoise(blocked, synth, analysis, eps_grid)]
    scores = [imaging.psnr(img, restored) for restored in restorations]
    best = int(np.argmax(scores))
    restored, value, eps_used = restorations[best], scores[best], eps_grid[best]
    out_img = f"{args.out_prefix}.pgm"
    imaging.write_pgm(restored, out_img)
    out_csv = _write_metrics_row(args, args.sigma, img, restored, value, eps_used)
    print(f"noisy psnr {imaging.psnr(img, noisy):.2f} dB -> denoised "
          f"{value:.2f} dB (eps {eps_used:g})")
    print(f"wrote {out_img} and {out_csv}")
    # A best radius on the edge of the grid may have a better one beyond it.
    low, high = min(eps_grid), max(eps_grid)
    if low < high and eps_used in (low, high):
        edge, side = ("largest", "above") if eps_used == high else ("smallest", "below")
        print(f"warning: eps {eps_used:g} is the {edge} radius of the grid; "
              f"consider widening --eps {side} it", file=sys.stderr)
    return 0


def cmd_inpaint(args):
    cfg = resolve_config(args)
    synth = formats.load_dictionary(args.dictionary)
    img = _read_image(args.image, cfg["block_size"])
    try:
        mask = applications.random_mask(img.shape, args.fraction, cfg["seed"], cfg["block_size"])
    except EmptyBlockMask as exc:
        raise ConfigError(f"--fraction {args.fraction:g} is too large for --block_size "
                          f"{cfg['block_size']}: {exc}") from None
    except ValueError as exc:  # _read_image has checked the block size
        raise ConfigError(f"--fraction {args.fraction:g} is out of range: {exc}") from None
    corrupted = np.where(mask.observed, img, 0.0)
    blocked = imaging.to_blocks(
        corrupted, cfg["block_size"], subtract_mean=True,
        mean_value=float(img.mean()),
    )
    restored = imaging.from_blocks(
        applications.inpaint(blocked, mask, synth, args.eps)
    )
    value = imaging.psnr(img, restored)
    out_img = f"{args.out_prefix}.pgm"
    out_corrupt = f"{args.out_prefix}.corrupted.pgm"
    imaging.write_pgm(restored, out_img)
    imaging.write_pgm(corrupted, out_corrupt)
    out_csv = _write_metrics_row(args, args.fraction, img, restored, value, args.eps)
    print(f"corrupted psnr {imaging.psnr(img, corrupted):.2f} dB -> restored "
          f"{value:.2f} dB")
    print(f"wrote {out_img}, {out_corrupt} and {out_csv}")
    return 0


def cmd_compress(args):
    cfg = resolve_config(args)
    steps = _float_list("--steps", args.steps)
    synth, analysis = _load_pair(args)
    img = _read_image(args.image, cfg["block_size"])
    blocked = imaging.to_blocks(img, cfg["block_size"], subtract_mean=True)
    points = applications.compress_rd(blocked, synth, analysis, steps)
    out_csv = f"{args.out_prefix}.csv"
    formats.write_csv(
        ("quant_step", "bpp", "psnr"),
        [(p.quant_step, p.bits_per_pixel, p.psnr_db) for p in points],
        out_csv,
    )
    for p in points:
        print(f"  step {p.quant_step:8.3f}  {p.bits_per_pixel:7.4f} bpp  "
              f"{p.psnr_db:8.3f} dB")
    print(f"wrote {out_csv}")
    return 0


def cmd_theory(args):
    cfg = resolve_config(args)
    if args.trials < 1:
        raise ConfigError(f"--trials must be >= 1, got {args.trials}")
    seed = cfg["seed"]
    rng = np.random.default_rng(seed)
    rows = []

    frame = theory_lab.random_general_position_frame(3, 6, rng)
    worst_gap = np.inf
    for trial in range(args.trials):
        x = rng.standard_normal(3)
        result = theory_lab.proxy_trial(frame, x, n_alt_duals=5,
                                        seed=int(rng.integers(0, 2 ** 62)))
        margin = min(result.alt_dual_distances) - result.canonical_distance
        worst_gap = min(worst_gap, margin)
        rows.append((trial, "proxy_margin", float(margin)))
        mn = theory_lab.min_norm_codes(frame, x)
        rows.append(
            (trial, "min_norm_gap",
             float(np.linalg.norm(mn - result.canonical_codes)))
        )
    print(f"optimal proxy: canonical dual never worse than sampled duals "
          f"(worst margin {worst_gap:.3e})")

    floor = theory_lab.cosparsity_floor_check(
        theory_lab.random_general_position_frame(3, 5, rng),
        trials=max(100, args.trials), seed=seed + 1,
    )
    rows.append(("-", "cosparsity_min_support", float(floor)))
    print(f"analysis-support floor: min observed {floor} (bound 3)")

    try:
        report = theory_lab.nonexistence_search(3, 5, trials=args.trials,
                                                seed=seed + 2)
        rows.append(("-", "linearity_violation", float(report.violation)))
        print(f"sparse-producing dual ruled out: additivity violated by "
              f"{report.violation:.3f} (trial {report.trial})")
    except theory_lab.NoViolationFound as exc:
        rows.append(("-", "linearity_violation", 0.0))
        print(f"warning: {exc}", file=sys.stderr)

    if args.out:
        formats.write_csv(("trial", "quantity", "value"), rows, args.out)
        print(f"wrote {args.out}")
    return 0


def _add_train_args(p):
    p.add_argument("images", nargs="+", help="training images (PGM)")
    p.add_argument("--method", choices=("ksvd", "parseval"), required=True)
    p.add_argument("--out", required=True, help="output dictionary path")
    p.add_argument("--out-dual", help="output path for the analysis dual (parseval only)")
    p.add_argument("--out-codes", help="optional output path for the codes")
    p.add_argument("--trace", help="optional convergence trace CSV (parseval only)")
    # Every key, seed too, so that one run's flag list can be passed whole.
    _add_config_flags(p, KNOWN_KEYS)


def _add_verify_args(p):
    p.add_argument("dictionary")
    p.add_argument("dual", nargs="?", help="optional analysis dual")


def _add_reconstruct_args(p):
    p.add_argument("image")
    p.add_argument("--dict", dest="dictionary", required=True)
    p.add_argument("--dual")
    p.add_argument("--out", required=True)
    _add_config_flags(p, ("block_size",))


def _add_denoise_args(p):
    p.add_argument("image")
    p.add_argument("--dict", dest="dictionary", required=True)
    p.add_argument("--dual")
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--eps", default=DENOISE_EPS_GRID,
                   help="comma-separated candidate ball radii")
    p.add_argument("--out-prefix", required=True)
    _add_config_flags(p, ("block_size", "seed"))


def _add_inpaint_args(p):
    p.add_argument("image")
    p.add_argument("--dict", dest="dictionary", required=True)
    p.add_argument("--fraction", type=float, required=True,
                   help="fraction of pixels removed per block")
    p.add_argument("--eps", type=float, default=0.01)
    p.add_argument("--out-prefix", required=True)
    _add_config_flags(p, ("block_size", "seed"))


def _add_compress_args(p):
    p.add_argument("image")
    p.add_argument("--dict", dest="dictionary", required=True)
    p.add_argument("--dual")
    p.add_argument("--steps", default=COMPRESS_STEP_GRID)
    p.add_argument("--out-prefix", required=True)
    _add_config_flags(p, ("block_size",))


def _add_theory_args(p):
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--out", help="optional CSV report path")
    _add_config_flags(p, ("seed",))


# (name, help, argument adder) of every command, in the order usage lists
# them. The handler of a command is ``cmd_<name>``, looked up when the
# parser is built, so that a wrapper set on the module attribute (a
# profiler's, a test's) is the one that runs.
_COMMANDS = (
    ("train", "learn a dictionary from PGM images", _add_train_args),
    ("verify", "report frame diagnostics of a dictionary", _add_verify_args),
    ("reconstruct", "decompose and reconstruct an image", _add_reconstruct_args),
    ("denoise", "noise + denoise an image, report metrics", _add_denoise_args),
    ("inpaint", "drop pixels and recover them", _add_inpaint_args),
    ("compress", "rate-distortion sweep", _add_compress_args),
    ("theory", "run the theory-check suites", _add_theory_args),
)
COMMAND_NAMES = tuple(name for name, _, _ in _COMMANDS)


def build_parser(command=None):
    """The ``pksvd`` parser with the subparser of every command, or of
    ``command`` alone. ``main`` builds only the command it runs: building
    all seven costs several times what parsing does."""
    if command is not None and command not in COMMAND_NAMES:
        raise ValueError(f"unknown command {command!r}")
    parser = argparse.ArgumentParser(
        prog="pksvd",
        description="Frame-based sparse representation toolbox",
    )
    # The usage line lists every command: the full build from its choices,
    # a one-command build from the metavar. The full build takes none, as
    # argparse would name the action by it in its required and
    # invalid-choice errors, in place of "command".
    every = "{" + ",".join(COMMAND_NAMES) + "}"
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar=None if command is None else every)
    for name, help_text, add_arguments in _COMMANDS:
        if command in (None, name):
            p = sub.add_parser(name, help=help_text)
            add_arguments(p)
            p.set_defaults(func=globals()[f"cmd_{name}"])
    return parser


def _join_float_values(argv):
    """Write ``--rho1 -inf`` as ``--rho1=-inf``: after a space, argparse
    reads a value that starts with '-', such as -inf or -nan, as an option."""
    flags = [f"--{key}" for key in _FLOAT_KEYS]
    out = []
    for token in argv:
        if out and out[-1] in flags and token.startswith("-") and not token.startswith("--"):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv=None):
    argv = _join_float_values(sys.argv[1:] if argv is None else argv)
    # No arguments, -h or an unknown command get the full parser, whose
    # help and errors list every command.
    command = argv[0] if argv and argv[0] in COMMAND_NAMES else None
    args = build_parser(command).parse_args(argv)
    try:
        return args.func(args)
    except (PksvdError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

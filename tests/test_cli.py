import argparse
import os
import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest
from texture import texture

from pksvd import cli
from pksvd.cli import main, resolve_config
from pksvd.errors import ConfigError
from pksvd.formats import load_codes, load_dictionary, save_dictionary
from pksvd.frames import Dictionary, canonical_dual, frame_bounds
from pksvd.imaging import read_pgm, write_pgm


@pytest.fixture(scope="module")
def train_image(tmp_path_factory):
    rng = np.random.default_rng(0)
    yy, xx = np.mgrid[0:64, 0:64].astype(float)
    img = 120 + 50 * np.sin(0.5 * xx) * np.cos(0.3 * yy) + 25 * (xx > 32)
    img = np.clip(np.round(img + rng.normal(0, 2, img.shape)), 0, 255)
    path = tmp_path_factory.mktemp("data") / "train.pgm"
    write_pgm(img, path)
    return path


CFG = ["--block_size", "4", "--m", "24", "--k", "3", "--ksvd_iters", "4",
       "--max_iters", "4", "--x_sweeps", "4"]


class TestConfig:
    def test_defaults(self):
        import argparse
        cfg = resolve_config(argparse.Namespace(config=None))
        assert cfg["block_size"] == 8
        assert cfg["rho2"] == pytest.approx(1e11)

    def test_file_and_flag_merge(self, tmp_path):
        import argparse
        cfile = tmp_path / "run.cfg"
        cfile.write_text("block_size = 4\nm = 20  # inline comment\nseed = 7\n")
        args = argparse.Namespace(config=str(cfile), m=24)
        cfg = resolve_config(args)
        assert cfg["block_size"] == 4
        assert cfg["m"] == 24  # flag beats file
        assert cfg["seed"] == 7

    def test_unknown_key_rejected(self, tmp_path):
        import argparse
        cfile = tmp_path / "run.cfg"
        cfile.write_text("sparsity = 3\n")
        with pytest.raises(ConfigError):
            resolve_config(argparse.Namespace(config=str(cfile)))

    def test_n_key_rejected(self, tmp_path):
        import argparse
        cfile = tmp_path / "run.cfg"
        cfile.write_text("block_size = 4\nn = 16\n")
        with pytest.raises(ConfigError, match="'n'"):
            resolve_config(argparse.Namespace(config=str(cfile)))


class TestTrain:
    def test_ksvd_writes_only_synthesis(self, train_image, tmp_path):
        out = tmp_path / "k.pk"
        code = main(["train", str(train_image), "--method", "ksvd",
                     "--out", str(out), *CFG])
        assert code == 0
        d = load_dictionary(out)
        assert d.mat.shape == (16, 24)
        assert not (tmp_path / "k.dual.pk").exists()

    def test_parseval_writes_pair_trace_codes(self, train_image, tmp_path):
        out = tmp_path / "p.pk"
        trace = tmp_path / "trace.csv"
        codes = tmp_path / "x.pkx"
        code = main(["train", str(train_image), "--method", "parseval",
                     "--out", str(out), "--trace", str(trace),
                     "--out-codes", str(codes), *CFG])
        assert code == 0
        synth = load_dictionary(out)
        dual = load_dictionary(tmp_path / "p.dual.pk")
        assert synth.mat.shape == dual.mat.shape == (16, 24)
        lines = trace.read_text().strip().split("\n")
        assert len(lines) == 1 + 4  # header + max_iters rows
        assert load_codes(codes).shape[0] == 24

    def test_deterministic_outputs(self, train_image, tmp_path):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{tag}.pk"
            trace = tmp_path / f"{tag}.csv"
            assert main(["train", str(train_image), "--method", "parseval",
                         "--out", str(out), "--trace", str(trace), *CFG]) == 0
            outs.append((out.read_bytes(),
                         (tmp_path / f"{tag}.dual.pk").read_bytes(),
                         trace.read_bytes()))
        assert outs[0] == outs[1]

    def test_missing_image_fails(self, tmp_path):
        code = main(["train", str(tmp_path / "none.pgm"), "--method", "ksvd",
                     "--out", str(tmp_path / "o.pk"), *CFG])
        assert code != 0


class TestBadPenalties:
    """A penalty that is not finite fails before any data is read."""

    @pytest.mark.parametrize("key,value", [("rho1", "nan"), ("rho2", "nan"),
                                           ("rho3", "inf"), ("rho1", "-inf")])
    def test_fails_before_ksvd(self, train_image, tmp_path, capsys, monkeypatch,
                               key, value):
        self.check_fails_before_ksvd(train_image, tmp_path, capsys, monkeypatch,
                                     key, [f"--{key}={value}"])

    # argparse reads "-inf" after a space as an option unless the CLI
    # joins it to its flag.
    @pytest.mark.parametrize("key,value", [("rho1", "-inf"), ("rho2", "-inf"),
                                           ("rho3", "-inf"), ("rho1", "-nan"),
                                           ("rho2", "-nan"), ("rho3", "-nan")])
    def test_space_form_fails_before_ksvd(self, train_image, tmp_path, capsys,
                                          monkeypatch, key, value):
        self.check_fails_before_ksvd(train_image, tmp_path, capsys, monkeypatch,
                                     key, [f"--{key}", value])

    @staticmethod
    def check_fails_before_ksvd(train_image, tmp_path, capsys, monkeypatch, key, flag):
        calls = []
        monkeypatch.setattr(cli, "ksvd_train", lambda *a, **kw: calls.append(a))
        out = tmp_path / "p.pk"
        code = main(["train", str(train_image), "--method", "parseval",
                     "--out", str(out), *CFG, *flag])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and key in err
        assert "Traceback" not in err
        assert not out.exists() and not (tmp_path / "p.dual.pk").exists()
        assert calls == []


class TestTooFewAtoms:
    def test_error_names_requested_atom_count(self, train_image, tmp_path, capsys):
        out = tmp_path / "k.pk"
        code = main(["train", str(train_image), "--method", "ksvd",
                     "--out", str(out), "--block_size", "4", "--m", "8"])
        err = capsys.readouterr().err
        assert code == 1
        assert "got n=16, m=8" in err
        assert not out.exists()


class TestFlatImage:
    """A constant image has all-zero blocks once block means are removed."""

    @pytest.fixture
    def flat_image(self, tmp_path):
        path = tmp_path / "flat.pgm"
        write_pgm(np.full((32, 32), 100.0), path)
        return path

    def test_parseval_reports_singular_code_gram(self, flat_image, tmp_path, capsys):
        code = main(["train", str(flat_image), "--method", "parseval",
                     "--out", str(tmp_path / "p.pk"), *CFG])
        err = capsys.readouterr().err
        assert code == 1
        assert "code Gram matrix is singular" in err
        assert "Traceback" not in err
        assert not (tmp_path / "p.pk").exists()

    def test_ksvd_codes_have_empty_supports(self, flat_image, tmp_path):
        codes = tmp_path / "k.pkx"
        assert main(["train", str(flat_image), "--method", "ksvd",
                     "--out", str(tmp_path / "k.pk"), "--out-codes", str(codes),
                     *CFG]) == 0
        loaded = load_codes(codes)
        assert loaded.shape == (24, 64)
        assert not np.any(loaded)


@pytest.fixture(scope="module")
def trained(train_image, tmp_path_factory):
    # converged pair: enough iterations for the constraints to bind tightly
    base = tmp_path_factory.mktemp("dicts")
    out = base / "p.pk"
    args = CFG.copy()
    args[args.index("--max_iters") + 1] = "40"
    assert main(["train", str(train_image), "--method", "parseval",
                 "--out", str(out), *args]) == 0
    return {"synth": out, "dual": base / "p.dual.pk", "image": train_image}


class TestVerify:
    def test_identity_dictionary(self, tmp_path, capsys):
        from pksvd.formats import save_dictionary
        from pksvd.frames import Dictionary

        path = tmp_path / "i.pk"
        save_dictionary(Dictionary(np.eye(4)), path)
        assert main(["verify", str(path)]) == 0
        text = capsys.readouterr().out
        assert "A=1" in text and "B=1" in text

    def test_trained_pair(self, trained, capsys):
        assert main(["verify", str(trained["synth"]), str(trained["dual"])]) == 0
        text = capsys.readouterr().out
        assert "pair residuals" in text

    def test_mismatched_shapes_rejected(self, trained, tmp_path, capsys):
        from pksvd.formats import save_dictionary
        from pksvd.frames import Dictionary

        other = tmp_path / "o.pk"
        save_dictionary(Dictionary(np.eye(4)), other)
        assert main(["verify", str(trained["synth"]), str(other)]) != 0

    def test_malformed_file(self, tmp_path):
        bad = tmp_path / "bad.pk"
        bad.write_bytes(b"garbage")
        assert main(["verify", str(bad)]) != 0


class TestReconstruct:
    def test_roundtrip_high_psnr(self, trained, tmp_path, capsys):
        out = tmp_path / "rec.pgm"
        code = main(["reconstruct", str(trained["image"]),
                     "--dict", str(trained["synth"]),
                     "--dual", str(trained["dual"]),
                     "--out", str(out), "--block_size", "4"])
        assert code == 0
        text = capsys.readouterr().out
        psnr_value = float(text.split("psnr:")[1].split("dB")[0])
        assert psnr_value > 80.0
        assert out.exists()

    def test_block_size_mismatch_fails(self, trained, tmp_path, capsys):
        # The pair has 16 rows, so 8x8 blocks do not fit it.
        out = tmp_path / "rec.pgm"
        code = main(["reconstruct", str(trained["image"]),
                     "--dict", str(trained["synth"]),
                     "--dual", str(trained["dual"]),
                     "--out", str(out), "--block_size", "8"])
        assert code == 1
        assert capsys.readouterr().err.startswith(
            "error: dictionary rows 16 do not match block size 8")
        assert list(tmp_path.iterdir()) == []


class TestDenoise:
    def test_sigma_zero_tiny_eps(self, trained, tmp_path, capsys):
        prefix = tmp_path / "dn"
        code = main(["denoise", str(trained["image"]),
                     "--dict", str(trained["synth"]),
                     "--dual", str(trained["dual"]),
                     "--sigma", "0", "--eps", "0.01",
                     "--out-prefix", str(prefix), "--block_size", "4"])
        assert code == 0
        assert float(capsys.readouterr().out.split("denoised")[1].split("dB")[0]) >= 100.0
        csv_lines = (tmp_path / "dn.csv").read_text().strip().split("\n")
        assert csv_lines[0] == "image,sigma_or_fraction,dictionary,psnr,ssim,eps_used"
        assert len(csv_lines) == 2

    @pytest.mark.parametrize("sigma", ["nan", "inf"])
    def test_non_finite_sigma_fails(self, trained, tmp_path, capsys, sigma):
        code = main(["denoise", str(trained["image"]),
                     "--dict", str(trained["synth"]),
                     "--dual", str(trained["dual"]),
                     "--sigma", sigma,
                     "--out-prefix", str(tmp_path / "dn"), "--block_size", "4"])
        assert code == 1
        assert capsys.readouterr().err.startswith(
            f"error: sigma must be finite and nonnegative, got {sigma}")
        assert list(tmp_path.iterdir()) == []

    def test_denoise_improves_noisy_image(self, trained, tmp_path):
        prefix = tmp_path / "dn2"
        code = main(["denoise", str(trained["image"]),
                     "--dict", str(trained["synth"]),
                     "--dual", str(trained["dual"]),
                     "--sigma", "15", "--eps", "8,16,24",
                     "--out-prefix", str(prefix), "--block_size", "4"])
        assert code == 0
        row = (tmp_path / "dn2.csv").read_text().strip().split("\n")[1].split(",")
        original = read_pgm(trained["image"])
        from pksvd.applications import add_gaussian_noise
        from pksvd.imaging import psnr

        noisy_psnr = psnr(original, add_gaussian_noise(original, 15, 0))
        assert float(row[3]) > noisy_psnr

    def test_byte_identical_reruns(self, trained, tmp_path):
        blobs = []
        for tag in ("x", "y"):
            prefix = tmp_path / tag
            assert main(["denoise", str(trained["image"]),
                         "--dict", str(trained["synth"]),
                         "--dual", str(trained["dual"]),
                         "--sigma", "10", "--eps", "8,16",
                         "--seed", "3",
                         "--out-prefix", str(prefix), "--block_size", "4"]) == 0
            blobs.append((tmp_path / f"{tag}.pgm").read_bytes()
                         + (tmp_path / f"{tag}.csv").read_bytes())
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize("grid,chosen,warning", [
        ("8,16,24", "24", "warning: eps 24 is the largest radius of the grid; "
                          "consider widening --eps above it\n"),
        ("64,32,200", "32", "warning: eps 32 is the smallest radius of the grid; "
                            "consider widening --eps below it\n"),
        ("16,24,32,200", "32", ""),
    ], ids=["top", "bottom", "interior"])
    def test_edge_of_grid_flag(self, trained, tmp_path, capsys, grid, chosen, warning):
        """A best radius on either edge of the grid is flagged on stderr
        alone: the outputs equal those of a one-radius grid, which is never
        flagged."""
        runs = []
        for tag, eps in (("grid", grid), ("single", chosen)):
            prefix = tmp_path / tag / "dn"
            prefix.parent.mkdir()
            assert main(["denoise", str(trained["image"]),
                         "--dict", str(trained["synth"]),
                         "--dual", str(trained["dual"]),
                         "--sigma", "15", "--eps", eps,
                         "--out-prefix", str(prefix), "--block_size", "4"]) == 0
            captured = capsys.readouterr()
            runs.append((captured.out.replace(str(prefix), "dn"), captured.err,
                         (tmp_path / tag / "dn.pgm").read_bytes(),
                         (tmp_path / tag / "dn.csv").read_bytes()))
        (out, err, pgm, csv), single = runs
        assert f"(eps {chosen})" in out
        assert err == warning
        assert single[1] == ""
        assert (out, pgm, csv) == (single[0], single[2], single[3])


class TestInpaint:
    def test_fraction_zero_identity(self, trained, tmp_path):
        prefix = tmp_path / "ip"
        code = main(["inpaint", str(trained["image"]),
                     "--dict", str(trained["synth"]),
                     "--fraction", "0", "--eps", "0.01",
                     "--out-prefix", str(prefix), "--block_size", "4"])
        assert code == 0
        original = read_pgm(trained["image"])
        restored = read_pgm(tmp_path / "ip.pgm")
        assert np.abs(restored - original).max() <= 1.0

    def test_metrics_row(self, trained, tmp_path):
        prefix = tmp_path / "ip2"
        code = main(["inpaint", str(trained["image"]),
                     "--dict", str(trained["synth"]),
                     "--fraction", "0.3",
                     "--out-prefix", str(prefix), "--block_size", "4"])
        assert code == 0
        lines = (tmp_path / "ip2.csv").read_text().strip().split("\n")
        row = lines[1].split(",")
        assert row[1] == "0.3"
        assert float(row[3]) > 15.0
        assert (tmp_path / "ip2.corrupted.pgm").exists()


class TestBadRadius:
    """A NaN, negative or empty radius fails with an error line and writes
    nothing."""

    @pytest.mark.parametrize("cmd,eps", [("denoise", "nan"), ("denoise", "-4"),
                                         ("denoise", ","), ("denoise", "8,nan"),
                                         ("inpaint", "nan"), ("inpaint", "-0.5")])
    def test_exits_with_error(self, trained, tmp_path, capsys, cmd, eps):
        prefix = tmp_path / "bad"
        extra = (["--dual", str(trained["dual"]), "--sigma", "10"] if cmd == "denoise"
                 else ["--fraction", "0.3"])
        code = main([cmd, str(trained["image"]), "--dict", str(trained["synth"]),
                     *extra, f"--eps={eps}", "--out-prefix", str(prefix),
                     "--block_size", "4"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert list(tmp_path.iterdir()) == []


class TestCompress:
    def test_one_point_per_step(self, trained, tmp_path):
        prefix = tmp_path / "rd"
        code = main(["compress", str(trained["image"]),
                     "--dict", str(trained["synth"]),
                     "--dual", str(trained["dual"]),
                     "--steps", "1,4,16",
                     "--out-prefix", str(prefix), "--block_size", "4"])
        assert code == 0
        lines = (tmp_path / "rd.csv").read_text().strip().split("\n")
        assert lines[0] == "quant_step,bpp,psnr"
        assert len(lines) == 4

    @pytest.mark.parametrize("steps,message", [
        ("nan", "quantizer steps must be finite and positive"),
        ("1,inf", "quantizer steps must be finite and positive"),
        (",", "the quantizer step list is empty"),
    ], ids=["nan", "inf", "empty"])
    def test_bad_steps_fail(self, trained, tmp_path, capsys, steps, message):
        code = main(["compress", str(trained["image"]),
                     "--dict", str(trained["synth"]),
                     "--dual", str(trained["dual"]),
                     f"--steps={steps}",
                     "--out-prefix", str(tmp_path / "rd"), "--block_size", "4"])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert list(tmp_path.iterdir()) == []


class TestKeyFlags:
    """Each subcommand takes --config plus a flag for each key it reads."""

    TRAIN_KEYS = {"block_size", "m", "k", "rho1", "rho2", "rho3", "max_iters",
                  "x_sweeps", "seed", "ksvd_iters"}
    EXPECTED = {
        "train": TRAIN_KEYS,
        "verify": set(),
        "reconstruct": {"block_size"},
        "denoise": {"block_size", "seed"},
        "inpaint": {"block_size", "seed"},
        "compress": {"block_size"},
        "theory": {"seed"},
    }

    def test_flag_sets(self):
        assert set(cli.KNOWN_KEYS) == self.TRAIN_KEYS
        (subparsers,) = (a for a in cli.build_parser()._actions
                         if isinstance(a, argparse._SubParsersAction))
        found = {}
        for name, sub in subparsers.choices.items():
            dests = {a.dest for a in sub._actions if a.option_strings}
            found[name] = dests & (self.TRAIN_KEYS | {"n"})
            assert ("config" in dests) == bool(self.EXPECTED[name])
        assert found == self.EXPECTED

    @pytest.mark.parametrize("cmd,flag,value", [("denoise", "--m", "32"),
                                                ("train", "--n", "16")])
    def test_unread_key_flag_exits_2(self, trained, tmp_path, capsys, cmd, flag, value):
        args = (["denoise", str(trained["image"]), "--dict", str(trained["synth"]),
                 "--sigma", "10", "--out-prefix", str(tmp_path / "dn")]
                if cmd == "denoise" else
                ["train", str(trained["image"]), "--method", "ksvd",
                 "--out", str(tmp_path / "k.pk")])
        with pytest.raises(SystemExit) as exc:
            main([*args, "--block_size", "4", flag, value])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_denoise_accepts_a_train_config_file(self, trained, tmp_path):
        cfile = tmp_path / "run.cfg"
        cfile.write_text("block_size = 4\nm = 24\nk = 3\nrho1 = 0.5\n"
                         "max_iters = 4\nseed = 3\n")
        common = ["denoise", str(trained["image"]), "--dict", str(trained["synth"]),
                  "--dual", str(trained["dual"]), "--sigma", "10", "--eps", "8,16"]
        assert main([*common, "--config", str(cfile),
                     "--out-prefix", str(tmp_path / "file")]) == 0
        assert main([*common, "--block_size", "4", "--seed", "3",
                     "--out-prefix", str(tmp_path / "flags")]) == 0
        for ext in ("pgm", "csv"):
            assert ((tmp_path / f"file.{ext}").read_bytes()
                    == (tmp_path / f"flags.{ext}").read_bytes())


class TestOneCommandParser:
    """``main`` builds the subparser of the command it runs, and nothing in
    its help or error text tells that parser from the full one."""

    @staticmethod
    def commands(parser):
        (subparsers,) = (a for a in parser._actions
                         if isinstance(a, argparse._SubParsersAction))
        return tuple(subparsers.choices)

    def test_builds_only_the_named_command(self):
        assert self.commands(cli.build_parser("denoise")) == ("denoise",)
        assert self.commands(cli.build_parser()) == (
            "train", "verify", "reconstruct", "denoise", "inpaint", "compress",
            "theory")

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown command 'denoize'"):
            cli.build_parser("denoize")

    @pytest.mark.parametrize("argv", [
        [], ["-h"], ["denoise", "-h"], ["theory", "--help"],
        ["denoise", "in.pgm", "--dict", "d.pk", "--sigma", "10",
         "--out-prefix", "dn", "--m", "32"],
        ["inpaint", "in.pgm", "--dict", "d.pk", "--out-prefix", "ip"],
        ["denoize", "in.pgm"],
    ], ids=["bare", "help", "denoise-help", "theory-help", "unrecognized-flag",
            "missing-flag", "unknown-command"])
    def test_text_matches_full_parser(self, capsys, argv):
        outcomes = []
        for run in (main, cli.build_parser().parse_args):
            with pytest.raises(SystemExit) as exc:
                run(list(argv))
            outcomes.append((*capsys.readouterr(), exc.value.code))
        assert outcomes[0] == outcomes[1]
        assert "usage: pksvd" in outcomes[0][0] + outcomes[0][1]

    @pytest.mark.parametrize("argv,message", [
        ([], "the following arguments are required: command"),
        (["denoize"], "argument command: invalid choice: 'denoize' (choose from "
                      "'train', 'verify', 'reconstruct', 'denoise', 'inpaint', "
                      "'compress', 'theory')"),
    ], ids=["bare", "unknown-command"])
    def test_errors_name_the_command_argument(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(f"pksvd: error: {message}\n")


class TestSelfDualPair:
    def test_pair_loaded_once(self, tmp_path, monkeypatch):
        path = tmp_path / "pair.pk"
        save_dictionary(Dictionary(np.eye(4)), path)
        loads = []
        load = cli.formats.load_dictionary
        monkeypatch.setattr(cli.formats, "load_dictionary",
                            lambda p: loads.append(p) or load(p))
        args = argparse.Namespace(dictionary=str(path),
                                  dual=os.path.join(str(tmp_path), ".", "pair.pk"))
        synth, analysis = cli._load_pair(args)
        assert analysis is synth
        assert loads == [str(path)]


class TestCanonicalDualFallback:
    """Without --dual, reconstruct, denoise and compress use the canonical
    dual of the dictionary."""

    @pytest.fixture(scope="class")
    def ksvd_run(self, tmp_path_factory):
        base = tmp_path_factory.mktemp("ksvd")
        image = base / "texture.pgm"
        write_pgm(texture(0)[:64, :64].astype(float), image)
        out = base / "k.pk"
        assert main(["train", str(image), "--method", "ksvd",
                     "--out", str(out), *CFG]) == 0
        dual = base / "k.canonical.pk"
        save_dictionary(canonical_dual(load_dictionary(out)), dual)
        return {"image": image, "dict": out, "dual": dual}

    def test_reconstruct_roundtrips(self, ksvd_run, tmp_path, capsys):
        assert frame_bounds(load_dictionary(ksvd_run["dict"])).ratio > 10.0
        out = tmp_path / "rec.pgm"
        assert main(["reconstruct", str(ksvd_run["image"]),
                     "--dict", str(ksvd_run["dict"]), "--out", str(out),
                     "--block_size", "4"]) == 0
        text = capsys.readouterr().out
        assert float(text.split("relative error")[1].split(")")[0]) <= 1e-10
        assert out.read_bytes() == ksvd_run["image"].read_bytes()

    def test_denoise_matches_saved_canonical_dual(self, ksvd_run, tmp_path):
        common = ["denoise", str(ksvd_run["image"]), "--dict", str(ksvd_run["dict"]),
                  "--sigma", "10", "--eps", "8,16", "--block_size", "4"]
        assert main([*common, "--out-prefix", str(tmp_path / "implicit")]) == 0
        assert main([*common, "--dual", str(ksvd_run["dual"]),
                     "--out-prefix", str(tmp_path / "explicit")]) == 0
        for ext in ("pgm", "csv"):
            assert ((tmp_path / f"implicit.{ext}").read_bytes()
                    == (tmp_path / f"explicit.{ext}").read_bytes())


class TestTheory:
    def test_runs_and_reports(self, tmp_path, capsys):
        out = tmp_path / "theory.csv"
        code = main(["theory", "--trials", "10", "--seed", "1",
                     "--out", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert "optimal proxy" in text
        assert "ruled out" in text
        assert out.exists()


class TestInputLimits:
    """Inputs at the edges of their range: a seed below 0, no trials, a
    step so fine that the quantized magnitudes leave int64, a radius
    whose square overflows, a noise level whose restoration's SSIM terms
    would overflow, a penalty above the cap, huge penalties under it, a
    rho2 too large against rho3, and Parseval-only outputs asked of a K-SVD
    train. A failure exits 1 naming
    the input, prints no warning and writes nothing; a success prints no
    warning and writes finite outputs."""

    @pytest.fixture
    def small(self, tmp_path):
        inputs = tmp_path / "in"
        inputs.mkdir()
        image, eye = inputs / "img.pgm", inputs / "eye.pk"
        write_pgm(np.random.default_rng(0).integers(0, 256, (8, 8)).astype(float), image)
        save_dictionary(Dictionary(np.eye(4)), eye)
        out = tmp_path / "out"
        out.mkdir()
        return str(image), str(eye), out

    @pytest.mark.parametrize("argv,message", [
        (["compress", "{image}", "--dict", "{eye}", "--dual", "{eye}", "--steps=1e-18",
          "--block_size", "2", "--out-prefix", "{out}/rd"],
         "quantizer step 1e-18 is too fine"),
        (["denoise", "{image}", "--dict", "{eye}", "--sigma", "5", "--seed", "-1",
          "--block_size", "2", "--out-prefix", "{out}/dn"],
         "config key 'seed' must be >= 0"),
        (["train", "{image}", "--method", "ksvd", "--out", "{out}/d.pk", "--seed", "-3",
          "--block_size", "2", "--m", "4", "--k", "1"],
         "config key 'seed' must be >= 0"),
        (["theory", "--trials", "0", "--out", "{out}/t.csv"],
         "--trials must be >= 1, got 0"),
        (["denoise", "{image}", "--dict", "{eye}", "--sigma", "5", "--block_size", "2",
          "--out-prefix", "{out}/nodir/dn"],
         "[Errno 2] No such file or directory: '{out}/nodir/dn.pgm'"),
        (["train", "{image}", "--method", "ksvd", "--out", "{out}/nodir/d.pk",
          "--block_size", "2", "--m", "4", "--k", "1"],
         "[Errno 2] No such file or directory: '{out}/nodir/d.pk'"),
        (["train", "{image}", "--method", "parseval", "--out", "{out}/d.pk",
          "--trace", "{out}/nodir/t.csv", "--block_size", "2", "--m", "4", "--k", "1",
          "--ksvd_iters", "1", "--max_iters", "1"],
         "[Errno 2] No such file or directory: '{out}/nodir/t.csv'"),
        (["denoise", "{image}", "--dict", "{eye}", "--sigma", "5", "--eps", "1,x",
          "--block_size", "2", "--out-prefix", "{out}/dn"],
         "--eps must be comma-separated numbers, got '1,x'"),
        (["compress", "{image}", "--dict", "{eye}", "--dual", "{eye}", "--steps", "1,x",
          "--block_size", "2", "--out-prefix", "{out}/rd"],
         "--steps must be comma-separated numbers, got '1,x'"),
        (["train", "{image}", "--method", "ksvd", "--out", "{out}/d.pk",
          "--trace", "{out}/t.csv", "--block_size", "2", "--m", "4", "--k", "1"],
         "--trace needs --method parseval"),
        (["train", "{image}", "--method", "ksvd", "--out", "{out}/d.pk",
          "--out-dual", "{out}/a.pk", "--block_size", "2", "--m", "4", "--k", "1"],
         "--out-dual needs --method parseval"),
        (["denoise", "{image}", "--dict", "{eye}", "--sigma", "1e300",
          "--block_size", "2", "--out-prefix", "{out}/dn"],
         "--sigma 1e+300 is too large"),
        (["denoise", "{image}", "--dict", "{eye}", "--sigma", "1e100",
          "--block_size", "2", "--out-prefix", "{out}/dn"],
         "--sigma 1e+100 is too large"),
        (["train", "{image}", "--method", "parseval", "--out", "{out}/d.pk",
          "--rho1", "1e308", "--block_size", "2", "--m", "4", "--k", "1"],
         "penalty rho1 must be finite and positive, at most 1e+250, got 1e+308"),
    ], ids=["compress-steps", "denoise-seed", "train-seed", "theory-trials",
            "denoise-out-dir", "train-out-dir", "train-trace-dir", "denoise-eps-list",
            "compress-steps-list", "ksvd-trace", "ksvd-out-dual", "denoise-sigma-huge",
            "denoise-sigma-ssim", "train-rho1-huge"])
    def test_fails_naming_the_input(self, small, capsys, argv, message):
        image, eye, out = small
        argv = [arg.format(image=image, eye=eye, out=out) for arg in argv]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 1
        assert capsys.readouterr().err.startswith(f"error: {message.format(out=out)}")
        assert list(out.iterdir()) == []

    def test_huge_radius_keeps_the_zero_code(self, small, capsys):
        image, eye, out = small
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["denoise", image, "--dict", eye, "--sigma", "5", "--eps", "1e308",
                         "--block_size", "2", "--out-prefix", str(out / "dn")])
        assert code == 0
        assert "eps 1e+308" in capsys.readouterr().out
        restored = read_pgm(out / "dn.pgm")
        assert (restored == restored.flat[0]).all()  # every block at the image mean

    def test_large_sigma_denoises_cleanly(self, small):
        image, eye, out = small
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["denoise", image, "--dict", eye, "--sigma", "1e60",
                         "--block_size", "2", "--out-prefix", str(out / "dn")])
        assert code == 0
        row = (out / "dn.csv").read_text().strip().split("\n")[1].split(",")
        assert np.isfinite([float(v) for v in row[1:2] + row[3:]]).all()

    @pytest.mark.parametrize("flag,value", [("--rho1", "1e160"), ("--rho3", "1e200")])
    def test_huge_penalty_trains_cleanly(self, tmp_path, flag, value):
        # The Sylvester residual check's norms overflowed here, and it
        # passed without checking.
        image = tmp_path / "img.pgm"
        write_pgm(np.random.default_rng(0).integers(0, 256, (32, 32)).astype(float), image)
        out = tmp_path / "d.pk"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["train", str(image), "--method", "parseval", "--block_size", "4",
                         "--m", "32", "--k", "4", "--ksvd_iters", "1", "--max_iters", "2",
                         flag, value, "--out", str(out), "--trace", str(tmp_path / "t.csv")])
        assert code == 0
        for path in (out, tmp_path / "d.dual.pk"):
            assert np.isfinite(load_dictionary(path).mat).all()
        trace = (tmp_path / "t.csv").read_text().strip().split("\n")[1:]
        assert np.isfinite([[float(v) for v in row.split(",")] for row in trace]).all()

    @pytest.mark.parametrize("value", ["1e25", "1e250"])
    def test_huge_rho2_fails_naming_the_penalties(self, tmp_path, capsys, value):
        # rho2 / rho3 beyond about 1e12 made the analysis update's Sylvester
        # solve fail with a message that named only the solver.
        image = tmp_path / "img.pgm"
        write_pgm(np.random.default_rng(0).integers(0, 256, (32, 32)).astype(float), image)
        out = tmp_path / "out"
        out.mkdir()
        argv = ["train", str(image), "--method", "parseval", "--block_size", "4",
                "--m", "32", "--k", "4", "--ksvd_iters", "1", "--max_iters", "2",
                "--rho2", value, "--out", str(out / "d.pk"), "--trace", str(out / "t.csv")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 1
            assert capsys.readouterr().err.startswith(
                f"error: --rho2 {float(value):g} is too large against --rho3 1e+11")
            assert list(out.iterdir()) == []
            # The remedy the message names: a larger rho3.
            assert main(argv + ["--rho3", value]) == 0
        assert np.isfinite(load_dictionary(out / "d.pk").mat).all()


class TestScipyStaysUnloaded:
    """pksvd imports, and every command runs, with every scipy import
    blocked, and without ``numpy.ma`` (whose import costs memory and
    time)."""

    SCRIPT = textwrap.dedent("""
        import sys

        class BlockScipy:
            def find_spec(self, name, path=None, target=None):
                if name.split(".")[0] == "scipy":
                    raise ImportError(f"{name} is blocked")

        sys.meta_path.insert(0, BlockScipy())
        import numpy as np
        import pksvd.cli
        from pksvd.imaging import write_pgm

        out = sys.argv[1]
        img, pk, dual = out + "/img.pgm", out + "/dict.pk", out + "/dict.dual.pk"
        rng = np.random.default_rng(0)
        write_pgm(rng.integers(0, 256, (32, 32)).astype(float), img)
        desk = ["--block_size", "4", "--m", "32", "--k", "4", "--ksvd_iters", "1"]
        for argv in (
            ["train", img, "--method", "ksvd", *desk, "--out", out + "/base.pk"],
            ["train", img, "--method", "parseval", *desk, "--max_iters", "1", "--out", pk],
            ["verify", pk, dual],
            ["reconstruct", img, "--dict", pk, "--dual", dual, "--block_size", "4",
             "--out", out + "/rc.pgm"],
            ["denoise", img, "--dict", pk, "--dual", dual, "--sigma", "20",
             "--block_size", "4", "--out-prefix", out + "/dn"],
            ["inpaint", img, "--dict", pk, "--fraction", "0.5", "--block_size", "4",
             "--out-prefix", out + "/ip"],
            ["compress", img, "--dict", pk, "--dual", dual, "--block_size", "4",
             "--out-prefix", out + "/rd"],
            ["theory", "--trials", "3", "--out", out + "/th.csv"],
        ):
            assert pksvd.cli.main(argv) == 0, argv
        assert not [m for m in sys.modules if m.split(".")[0] == "scipy"]
        assert "numpy.ma" not in sys.modules
        try:
            import scipy  # noqa: F401
        except ImportError:
            print("ok")
    """)

    def test_train_runs_without_scipy(self, tmp_path):
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, str(tmp_path)],
            env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "ok"
        written = ("base.pk", "dict.pk", "dict.dual.pk", "rc.pgm", "dn.pgm", "ip.pgm",
                   "rd.csv", "th.csv")
        assert all((tmp_path / name).exists() for name in written)

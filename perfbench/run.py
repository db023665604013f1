"""Outside-in benchmark of the pksvd command line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload train-desk --seed 1 --seconds 27 --trace 0

It drives ``pksvd.cli.main`` in-process on a seeded procedural image.
After one untimed warm-up pass over every command on small inputs, it
repeats rounds of the workload's commands (a train and the four recovery
commands; see workloads.py) until ``--seconds`` have passed and at least
three rounds are done, checks every command's outputs, and prints one JSON
object as the last line of standard output. With ``--trace 0`` it reports
the end-to-end metrics of BENCHMARK.json, untraced. A command's time is its
mean over the rounds of its wall time divided by the host slowdown that
host.py sampled while it ran. With ``--trace 1``
even rounds run untraced and odd rounds traced, and it reports the
per-layer metrics of the traced rounds. The line before the result holds
informational fields, the wall times among them.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

# One BLAS thread, set before numpy is first imported (by load_program).
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

sys.dont_write_bytecode = True

import host  # noqa: E402  (these import numpy, after the thread setup)
import spans  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
SETUP_REPEATS = 3
MIN_ROUNDS = 3


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_program():
    """Import pksvd from this checkout's src/, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "pksvd", "cli.py")):
        fail(f"no program source under {SRC}")
    sys.path.insert(0, SRC)
    import pksvd
    import pksvd.cli

    if os.path.dirname(os.path.dirname(os.path.abspath(pksvd.__file__))) != SRC:
        fail(f"pksvd imported from {pksvd.__file__}, not from {SRC}")
    return pksvd


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def time_import():
    """Load the program in a fresh interpreter, as a user's run does."""
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONDONTWRITEBYTECODE="1")
    subprocess.run([sys.executable, "-c", "import pksvd.cli"], env=env,
                   check=True, cwd=ROOT)


def setup(seed, workdir, pksvd, probe):
    """Set up SETUP_REPEATS times (program load plus inputs); return the
    input paths of the last repeat and the median set-up time, as wall
    seconds and normalised by the host slowdown."""
    walls, norms = [], []
    for rep in range(SETUP_REPEATS):
        mark = probe.mark()
        start = time.perf_counter()
        time_import()
        inputs = os.path.join(workdir, f"inputs{rep}")
        os.mkdir(inputs)
        paths = workloads.make_inputs(seed, inputs, pksvd)
        walls.append(time.perf_counter() - start)
        norms.append(walls[-1] / probe.slowdown(mark))
    return paths, statistics.median(walls), statistics.median(norms)


def run_command(pksvd, cmd):
    """Run one CLI command in-process; return (wall seconds, problem or None)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = pksvd.cli.main(list(cmd.argv))
    except Exception:  # a crash is a failed operation, not a benchmark error
        return time.perf_counter() - start, traceback.format_exc()
    wall = time.perf_counter() - start
    if code != 0:
        return wall, f"exit code {code}: {err.getvalue().strip()}"
    return wall, None


def versions():
    import numpy
    import scipy

    def blas(module):
        try:
            return module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        except (AttributeError, KeyError, TypeError):
            return None

    numpy_blas, scipy_blas = blas(numpy), blas(scipy)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": numpy_blas and f"{numpy_blas.get('name')} {numpy_blas.get('version')}",
        "scipy_blas": scipy_blas and f"{scipy_blas.get('name')} {scipy_blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def src_lines():
    total = 0
    package = os.path.join(SRC, "pksvd")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as handle:
                total += handle.read().count(b"\n")
    return total


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = load_spec()
    pksvd = load_program()
    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}")
    w = workloads.WORKLOADS[args.workload]

    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{w.name}-", dir=WORK)
    try:
        with host.SpeedProbe() as probe:
            return measure(args, spec, pksvd, w, workdir, probe)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, spec, pksvd, w, workdir, probe):
    paths, setup_wall, setup_norm = setup(args.seed, workdir, pksvd, probe)
    outdir = os.path.join(workdir, "out")
    os.mkdir(outdir)
    cmds = workloads.commands(w, paths, outdir)

    walls = {cmd.kind: [] for cmd in cmds}
    norms = {cmd.kind: [] for cmd in cmds}  # wall over host slowdown
    round_walls = {False: [], True: []}
    reference = {}
    quality = {}
    problems = []
    tracers = []
    attempted = failed = 0
    warm = os.path.join(workdir, "warm")
    os.mkdir(warm)
    for cmd in workloads.commands(workloads.WARMUP, paths, warm):
        _, problem = run_command(pksvd, cmd)
        attempted += 1
        if problem:
            failed += 1
            problems.append({"round": "warm-up", "command": cmd.kind,
                             "problems": [problem]})
            print(f"FAILED warm-up {cmd.kind}: {problem}", file=sys.stderr)
    start = time.perf_counter()
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() - start < args.seconds:
        traced = bool(args.trace) and rounds % 2 == 1
        tracer = spans.Tracer() if traced else None
        round_wall = 0.0
        for op, cmd in enumerate(cmds):
            mark = probe.mark()
            if tracer is not None:
                tracer.op = op
                tracer.install()
            try:
                wall, problem = run_command(pksvd, cmd)
            finally:
                if tracer is not None:
                    tracer.uninstall()
            attempted += 1
            walls[cmd.kind].append(wall)
            norms[cmd.kind].append(wall / probe.slowdown(mark))
            round_wall += wall
            found = [problem] if problem else []
            if not found:
                try:
                    found, values = workloads.check(cmd, w, paths, pksvd)
                    quality.update(values)
                    fingerprint = workloads.digest(cmd.outputs)
                except Exception:  # unreadable outputs fail the operation
                    found = [traceback.format_exc()]
                else:
                    if reference.setdefault(cmd.kind, fingerprint) != fingerprint:
                        found.append("outputs differ from the first round's")
            if found:
                failed += 1
                problems.append({"round": rounds, "command": cmd.kind,
                                 "problems": found})
                print(f"FAILED round {rounds} {cmd.kind}: {found}", file=sys.stderr)
        round_walls[traced].append(round_wall)
        if tracer is not None:
            tracers.append(tracer)
        rounds += 1

    info = {
        "workload": w.name, "seed": args.seed, "rounds": rounds,
        "ops": attempted, "failed": failed, "problems": problems,
        "command_walls_s": walls, "denoise_eps_used": quality.get("denoise_eps_used"),
        "train_fit_rel_err": quality.get("train_fit_rel_err"),
        "src_pksvd_lines": src_lines(), **versions(),
        "host_slowdown": probe.slowdown(0), "host_samples": probe.mark(),
    }
    if args.trace:
        info["tracing_overhead_s"] = (statistics.median(round_walls[True])
                                      - statistics.median(round_walls[False]))
        info["untraced_round_s"] = statistics.median(round_walls[False])
        info["missing_spans"] = tracers[0].missing
        info["split"] = {cmd.kind: tracers[-1].top_self_s(op)
                         for op, cmd in enumerate(cmds)}
        tracers[-1].write_spans(os.path.join(WORK, f"spans-{w.name}.csv"))
        metrics = {
            m["name"]: {"value": statistics.median(t.metric(m["name"]) for t in tracers),
                        "unit": m["unit"]}
            for m in spec["per_layer"]
        }
    else:
        def means(table, setup_s):
            mean = {kind: statistics.fmean(v) for kind, v in table.items()}
            mean["recover"] = statistics.fmean(
                sum(parts) for parts in zip(*(table[k] for k in workloads.RECOVERY)))
            mean["setup"] = setup_s
            return mean

        info["wall_s"] = means(walls, setup_wall)
        mean = means(norms, setup_norm)
        values = {
            "setup_s": mean["setup"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "train_s": mean["train"],
            "train_fit_snr_db": quality.get("train_fit_snr_db", float("nan")),
            "denoise_s": mean["denoise"],
            "inpaint_s": mean["inpaint"],
            "recover_s": mean["recover"],
            "denoise_psnr_db": quality.get("denoise_psnr_db", float("nan")),
            "inpaint_psnr_db": quality.get("inpaint_psnr_db", float("nan")),
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}

    with open(os.path.join(WORK, f"report-{w.name}-trace{args.trace}.json"),
              "w", encoding="utf-8") as handle:
        json.dump({"info": info, "metrics": metrics}, handle, indent=1)
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

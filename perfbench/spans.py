"""Spans and counters recorded from outside the program.

``Tracer.install`` replaces each traced function with a timing wrapper in
every ``pksvd`` module that holds a reference to it, so calls made through
``from .x import f`` aliases are caught as well as module-qualified ones.
A function that no longer exists is skipped: its metrics read as zero.
``Tracer.uninstall`` puts the originals back.

A span's self time is its duration minus the time covered by the spans it
directly caused. Names are ``<defining module>.<qualified name>``.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import time
from collections import defaultdict

import numpy as np

# (module, attribute) of every traced boundary, grouped by layer.
TARGETS = (
    ("cli", "cmd_train"),
    ("cli", "cmd_denoise"),
    ("cli", "cmd_inpaint"),
    ("cli", "cmd_compress"),
    ("cli", "cmd_reconstruct"),
    ("ksvd", "ksvd_train"),
    ("ksvd", "_code_columns"),
    ("ksvd", "_update_atoms"),
    ("parseval_ksvd", "pksvd_train"),
    ("parseval_ksvd", "update_analysis"),
    ("parseval_ksvd", "update_synthesis"),
    ("parseval_ksvd", "update_multipliers"),
    ("parseval_ksvd", "update_codes"),
    ("matrix_core", "solve_sylvester"),
    ("frames", "Dictionary"),
    ("sparse_solvers", "omp"),
    ("sparse_solvers", "_bpdn_columns"),
    ("applications", "denoise"),
    ("applications", "inpaint"),
    ("applications", "compress_rd"),
    ("applications", "reconstruct_roundtrip"),
    ("applications", "_solve_columns_strict"),
    ("applications", "_polish_columns"),
    ("applications", "_grow_fit"),
    ("imaging", "read_pgm"),
    ("imaging", "write_pgm"),
    ("imaging", "to_blocks"),
    ("imaging", "from_blocks"),
    ("imaging", "psnr"),
    ("imaging", "ssim"),
    ("formats", "save_dictionary"),
    ("formats", "load_dictionary"),
    ("formats", "save_codes"),
    ("formats", "write_trace_csv"),
    ("formats", "write_csv"),
)

def _after_bpdn(counts, args, result):
    """Columns passed in, and calls that returned ``converged=False``."""
    counts["sparse_solvers._bpdn_columns.cols"] += np.shape(args["b"])[1]
    if not result[1]:
        counts["sparse_solvers._bpdn_columns.unconverged_calls"] += 1


def _after_polish(counts, args, result):
    """Columns still outside their ball after the polish (the trigger of
    the pseudo-inverse repair), from the polish's own inputs and output."""
    system, blocks, limits = args["system"], args["blocks"], args["limits"]
    if system.ndim == 3:
        fitted = np.einsum("nqm,mn->qn", system, result)
    else:
        fitted = system @ result
    outside = np.linalg.norm(blocks - fitted, axis=0) > limits
    counts["applications.repair.outside"] += int(outside.sum())
    counts["applications.repair.cols"] += outside.size


COUNTERS = (
    "sparse_solvers._bpdn_columns.cols",
    "sparse_solvers._bpdn_columns.unconverged_calls",
)

# Counters computed after a call from its arguments (by parameter name) and
# result. A counter whose function changed shape is skipped, never fatal.
AFTER = {
    "sparse_solvers._bpdn_columns": _after_bpdn,
    "applications._polish_columns": _after_polish,
}


class Tracer:
    """Collects spans, per-name aggregates and counters for one round.

    ``op`` is set by the caller to the index of the command being run; it
    is the identifier shared by the spans of one command.
    """

    def __init__(self):
        self.spans = []  # (span id, parent id, op, name, start, end)
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)  # keyed by (op, name)
        self.counts = defaultdict(int)
        self.op = 0
        self.missing = []
        self._ids = itertools.count()
        self._stack = []
        self._restore = []

    def _wrap(self, func, name):
        after = AFTER.get(name)
        signature = inspect.signature(func) if after is not None else None
        stack = self._stack

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            frame = [span_id, 0.0]  # id, time covered by child spans
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                self.calls[name] += 1
                self.total_s[name] += duration
                self.self_s[self.op, name] += duration - frame[1]
                if parent is not None:
                    parent[1] += duration
                self.spans.append((span_id, parent[0] if parent else -1,
                                   self.op, name, start, end))
            if after is not None:
                try:
                    bound = signature.bind(*args, **kwargs).arguments
                    after(self.counts, bound, result)
                except (KeyError, TypeError, IndexError, AttributeError, ValueError):
                    self._missing(f"{name}:counters")
            return result

        return traced

    def _missing(self, what):
        if what not in self.missing:
            self.missing.append(what)

    def install(self):
        modules = [mod for key, mod in sys.modules.items()
                   if key == "pksvd" or key.startswith("pksvd.")]
        for module_name, attr in TARGETS:
            name = f"{module_name}.{attr}"
            home = sys.modules.get(f"pksvd.{module_name}")
            original = getattr(home, attr, None)
            if original is None:
                self._missing(name)
                continue
            if isinstance(original, type):
                # Time construction of a class through its __post_init__.
                hook = original.__dict__.get("__post_init__")
                if hook is None:
                    self._missing(name)
                    continue
                self._restore.append((original, "__post_init__", hook))
                setattr(original, "__post_init__", self._wrap(hook, name))
                continue
            wrapper = self._wrap(original, name)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, value))
                        setattr(module, key, wrapper)

    def uninstall(self):
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    def repair_frac(self):
        cols = self.counts["applications.repair.cols"]
        return self.counts["applications.repair.outside"] / cols if cols else 0.0

    def metric(self, name):
        """Value of one per-layer metric name; unknown spans read as 0."""
        if name == "applications.repair_frac":
            return self.repair_frac()
        if name in COUNTERS:
            return float(self.counts.get(name, 0))
        span, _, kind = name.rpartition(".")
        if kind == "self_s":
            if span.startswith("layer."):
                prefix = span[len("layer."):] + "."
                return sum(v for (_, n), v in self.self_s.items()
                           if n.startswith(prefix))
            return sum(v for (_, n), v in self.self_s.items() if n == span)
        table = {"calls": self.calls, "total_s": self.total_s}[kind]
        return float(table.get(span, 0))

    def top_self_s(self, op, count=4):
        """The ``count`` largest self times within one command."""
        own = sorted(((v, n) for (o, n), v in self.self_s.items() if o == op),
                     reverse=True)
        return {n: v for v, n in own[:count]}

    def write_spans(self, path):
        with open(path, "w", encoding="ascii") as handle:
            handle.write("span,parent,op,name,start_s,end_s\n")
            for span_id, parent, op, name, start, end in self.spans:
                handle.write(f"{span_id},{parent},{op},{name},{start!r},{end!r}\n")

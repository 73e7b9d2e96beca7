"""Benchmark worker: one process per workload, calling ``pcftube.cli`` in-process.

``run.py`` starts this file twice over: as a cold-start probe
(``probe PRESET``), timed from outside to give ``setup_s``, and as the
measuring worker (``measure``), which writes its samples to ``--result`` as
JSON.  The BLAS thread cap is set by ``run.py`` in the environment before
numpy loads.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

import spans
from workloads import ROOT, WORKLOADS

SRC = os.path.join(ROOT, "src")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PROBE_LEVEL = 3


def cold_start(preset: str) -> None:
    """What every CLI user pays: import, load the structure, first dense eigh."""
    sys.path.insert(0, SRC)
    import pcftube
    from pcftube import core, spectral

    if not os.path.abspath(pcftube.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"pcftube imported from {pcftube.__file__}, not from {SRC}")
    structure = core.load_structure(preset)
    spectral.eigensystem(spectral.energy_matrix(core.build_level(structure, PROBE_LEVEL)), "neumann")


def run_op(cli, argvs, workdir, tracer=None):
    """Run the op's commands into fresh output dirs; returns (wall, ok, outdirs)."""
    shutil.rmtree(workdir, ignore_errors=True)
    outdirs = [os.path.join(workdir, f"cmd{i}") for i in range(len(argvs))]
    ok = True
    gc.collect()  # every op starts from a collected heap
    traced = spans.instrument(tracer) if tracer is not None else contextlib.nullcontext()
    with traced, contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        try:
            for argv, out in zip(argvs, outdirs):
                ok = cli.main(argv + ["--out", out]) == 0 and ok
        except Exception:
            traceback.print_exc()
            ok = False
        wall = time.perf_counter() - start
    return wall, ok, outdirs


def gate(workload, outdirs, seed, ok) -> tuple[int, int]:
    """(attempted, failed) items; an op that raised or exited non-zero fails all."""
    try:
        items = workload.gate(outdirs, seed)
    except (OSError, ValueError, KeyError, TypeError):
        traceback.print_exc()
        items = [False]
    if not ok:
        items = [False] * len(items)
    return len(items), items.count(False)


def bytes_under(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(path) for f in files)


def measure(workload, seed: int, seconds: float, trace: bool, workdir: str) -> dict:
    """Run ops while the next one is expected to end within ``seconds``.

    With ``trace``, ops alternate untraced and traced, starting untraced, and
    at least one of each runs; otherwise at least one op runs.
    """
    from pcftube import cli

    argvs = workload.commands(seed)
    walls, traced_walls, layer_rows, span_log, op_seconds = [], [], [], [], []
    attempted = failed = ops = 0
    begin = time.perf_counter()
    while True:
        op_start = time.perf_counter()
        tracer = spans.Tracer() if trace and ops % 2 == 1 else None
        wall, ok, outdirs = run_op(cli, argvs, workdir, tracer)
        a, f = gate(workload, outdirs, seed, ok)
        attempted, failed, ops = attempted + a, failed + f, ops + 1
        if tracer is None:
            walls.append(wall)
        else:
            row = spans.layer_totals(tracer.spans, wall)
            if abs(sum(row.values()) - wall) > 1e-9:
                raise RuntimeError("layer self times do not sum to the traced wall")
            row.update(tracer.counts)
            inits, bases = row["kernels.evaluator_init.calls"], row["kernels.evaluator_init.bases"]
            row["kernels.evaluator_init.per_basis"] = inits / bases if bases else 0.0
            row["trace.spans"] = len(tracer.spans)
            row["cli.bytes_written"] = bytes_under(workdir)
            row["op.traced_wall_s"] = wall
            traced_walls.append(wall)
            layer_rows.append(row)
            span_log.append(tracer.spans)
        now = time.perf_counter()
        op_seconds.append(now - op_start)
        if ops >= (2 if trace else 1) and now - begin + statistics.median(op_seconds) > seconds:
            break
    shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "walls": walls,
        "traced_walls": traced_walls,
        "ops": ops,
        "attempted": attempted,
        "failed": failed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if trace:
        # Per-op means, so that self times and uncovered time still sum to the wall.
        layers = {k: statistics.fmean(r[k] for r in layer_rows) for k in layer_rows[0]}
        # The difference of traced and untraced walls is lost in run-to-run
        # noise where an op has few spans, so the overhead is estimated as
        # spans per op times the measured cost of one span.
        layers["trace.overhead_s"] = layers.pop("trace.spans") * spans.span_cost()
        result["layers"] = layers
        result["spans"] = span_log
    return result


def context() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    sub = p.add_subparsers(dest="mode", required=True)
    probe = sub.add_parser("probe", help="cold start only")
    probe.add_argument("preset")
    m = sub.add_parser("measure", help="measure one workload")
    m.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    m.add_argument("--seed", type=int, required=True)
    m.add_argument("--seconds", type=float, required=True)
    m.add_argument("--trace", type=int, choices=(0, 1), required=True)
    m.add_argument("--workdir", required=True)
    m.add_argument("--result", required=True)
    args = p.parse_args(argv)
    if args.mode == "probe":
        cold_start(args.preset)
        return 0
    workload = WORKLOADS[args.workload]
    cold_start(workload.preset)
    result = measure(workload, args.seed, args.seconds, bool(args.trace), args.workdir)
    result["context"] = context()
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

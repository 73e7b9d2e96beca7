"""Benchmark workloads: the CLI commands of one op and the gate on their output.

An op is the list of commands a workload runs; the worker appends
``--out <dir>`` to each.  A gate reads only basis-invariant outputs and
returns one bool per item (True = correct).  Gates never read
``supnorm_constant`` or per-mode sup norms: a valid rotation inside a
degenerate eigenspace moves those by up to 82%, so they depend on the BLAS
thread count.
"""

from __future__ import annotations

import csv
import functools
import importlib.util
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ORACLES = os.path.join(ROOT, "tests", "oracles.py")

LAMBDA1_RTOL = 1e-9
KERNEL_ATOL = 1e-6
MASS_TOL = 1e-8
MASS_SUM_TOL = 1e-9

N_MAPS = {"sierpinski": 3, "vicsek": 5}


def n_vertices(preset: str, m: int) -> int:
    if preset == "sierpinski":
        return (3 ** (m + 1) + 3) // 2
    if preset == "vicsek":
        return 3 * 5**m + 1
    raise ValueError(f"no vertex-count formula for {preset!r}")


@functools.cache
def oracles():
    """The repository's independent oracles, ``tests/oracles.py``."""
    spec = importlib.util.spec_from_file_location("pcftube_oracles", ORACLES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


# -- gates -----------------------------------------------------------------------


def gate_verify(outdirs) -> list[bool]:
    """One item per non-skipped check; a check passes when its status is pass."""
    checks = _read_json(os.path.join(outdirs[0], "report_all.json"))["checks"]
    return [c["status"] == "pass" for c in checks if c["status"] != "skip"] or [False]


def gate_spectrum(outdirs, preset: str, levels, lambda1_oracle) -> list[bool]:
    """One item per (level, bc): Dirichlet lambda_1 against the decimation
    oracle, Neumann lambda_1 = 0, and n_modes = n - |V_0| or n."""
    results = _read_json(os.path.join(outdirs[0], "spectrum_report.json"))["results"]
    found = {(r["level"], r["bc"]): r for r in results}
    n_boundary = 3 if preset == "sierpinski" else 4
    items = []
    for m in levels:
        n = n_vertices(preset, m)
        d = found.get((m, "dirichlet"))
        exact = lambda1_oracle(m)
        items.append(
            d is not None
            and abs(d["lambda_1"] - exact) <= LAMBDA1_RTOL * exact
            and d["n_modes"] == n - n_boundary
        )
        nm = found.get((m, "neumann"))
        items.append(nm is not None and abs(nm["lambda_1"]) <= LAMBDA1_RTOL * exact and nm["n_modes"] == n)
    return items


def gate_kernel(outdirs, t_grid) -> list[bool]:
    """One item per kernel-table row, |P_series - P_quadrature| <= 1e-6, plus
    one per t for the Neumann mass at the interior point, 1 +- 1e-8.  The CLI
    tabulates every pair of its 3 sample points, so rows missing from a table
    count as failed."""
    items = []
    expected_rows = len(t_grid) * 3 * 3
    for bc in ("dirichlet", "neumann"):
        with open(os.path.join(outdirs[0], f"kernels_{bc}.csv"), newline="") as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            diff = abs(float(row["P_series"]) - float(row["P_quadrature"]))
            items.append(diff <= KERNEL_ATOL)  # NaN compares False
        items.extend([False] * max(expected_rows - len(rows), 0))
    masses = _read_json(os.path.join(outdirs[0], "kernel_report.json"))["bc"]["neumann"]["mass_at_interior"]
    for t in t_grid:
        value = masses.get(repr(float(t)))
        items.append(value is not None and abs(value - 1.0) <= MASS_TOL)
    return items


def gate_build(outdirs, builds) -> list[bool]:
    """One item per build: vertex and cell counts from the closed forms, the
    vertex table has n rows and its masses sum to 1."""
    items = []
    for out, (preset, m) in zip(outdirs, builds):
        meta = _read_json(os.path.join(out, "build.json"))
        n = n_vertices(preset, m)
        with open(os.path.join(out, "vertices.csv"), newline="") as fh:
            rows = list(csv.DictReader(fh))
        mass = math.fsum(float(r["mass"]) for r in rows)
        items.append(
            meta["n_vertices"] == n
            and meta["n_cells"] == N_MAPS[preset] ** m
            and len(rows) == n
            and abs(mass - 1.0) <= MASS_SUM_TOL
        )
    return items


# -- workloads ---------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str  # structure loaded by the cold-start probe
    commands: Callable[[int], list[list[str]]]  # seed -> argv of each command
    gate: Callable[[list[str], int], list[bool]]  # (outdirs, seed) -> items


SPECTRUM_LEVELS = (5, 6, 7)
BUILDS = (("sierpinski", 9), ("vicsek", 6))
KERNEL_T_COUNT = 48
KERNEL_T_RANGE = (0.02, 1.0)


def kernel_t_grid(seed: int) -> list[float]:
    """KERNEL_T_COUNT times drawn log-uniformly from KERNEL_T_RANGE."""
    rng = random.Random(seed)
    lo, hi = (math.log(t) for t in KERNEL_T_RANGE)
    return sorted(math.exp(rng.uniform(lo, hi)) for _ in range(KERNEL_T_COUNT))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "verify-gasket6",
            "sierpinski",
            lambda seed: [
                ["verify", "--suite", "all", "--preset", "sierpinski", "--level", "6", "--seed", str(seed)]
            ],
            lambda outdirs, seed: gate_verify(outdirs),
        ),
        Workload(
            "spectrum-gasket567",
            "sierpinski",
            lambda seed: [
                ["spectrum", "--preset", "sierpinski", "--levels", ",".join(map(str, SPECTRUM_LEVELS)), "--bc", "both"]
            ],
            lambda outdirs, seed: gate_spectrum(outdirs, "sierpinski", SPECTRUM_LEVELS, oracles().gasket_lambda1),
        ),
        Workload(
            "kernel-vicsek4",
            "vicsek",
            lambda seed: [
                [
                    "kernel", "--preset", "vicsek", "--level", "4", "--bc", "both",
                    "--t-grid", ",".join(repr(t) for t in kernel_t_grid(seed)),
                ]
            ],
            lambda outdirs, seed: gate_kernel(outdirs, kernel_t_grid(seed)),
        ),
        Workload(
            "build-large",
            "sierpinski",
            lambda seed: [["build", "--preset", p, "--level", str(m)] for p, m in BUILDS],
            lambda outdirs, seed: gate_build(outdirs, BUILDS),
        ),
    )
}

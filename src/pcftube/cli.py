"""Command-line front end.

Subcommands: build, spectrum, kernel, verify, fatou, report.  All artifacts
are flat CSV/JSON files under --out.  Exit codes: 0 on success (and all
non-skipped checks passing), 1 on check failures, 2 on bad flags or flag
values, 3 on invalid structure configs, 4 when the size budget is exceeded.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import sys

import numpy as np

from . import kernels as ker
from . import spectral as spec
from . import tube as tb
from .core import DEFAULT_BUDGET, BudgetError, StructureError, build_level, load_structure
from .suites import MIN_LEVEL, SUITE_NAMES, default_level, verify_suite

EXIT_OK = 0
EXIT_CHECK_FAIL = 1
EXIT_USAGE = 2
EXIT_CONFIG = 3
EXIT_BUDGET = 4


def _nonneg_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative: {text!r}")
    return value


def _positive_int(text: str) -> int:
    value = _nonneg_int(text)
    if value == 0:
        raise argparse.ArgumentTypeError(f"must be positive: {text!r}")
    return value


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from exc
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a positive finite number: {text!r}")
    return value


def _comma_list(parse):
    """Argument type for a comma-separated list of values of type ``parse``."""

    def parse_list(text: str) -> list:
        return [parse(tok) for tok in text.split(",") if tok]

    return parse_list


def _structure(args):
    if getattr(args, "config", None):
        with open(args.config) as fh:
            return load_structure(json.load(fh))
    return load_structure(args.preset)


def _write_json(path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _cmd_build(args) -> int:
    S = _structure(args)
    graph = build_level(S, args.level, args.budget)
    os.makedirs(args.out, exist_ok=True)
    graph.export_csv(args.out)
    _write_json(
        os.path.join(args.out, "build.json"),
        {
            "preset": S.name,
            "level": args.level,
            "n_vertices": graph.n_vertices,
            "n_cells": graph.n_cells,
            "dimension": S.dim,
            "boundary_ids": [int(b) for b in graph.boundary_ids],
        },
    )
    print(f"built {S.name} level {args.level}: {graph.n_vertices} vertices, {graph.n_cells} cells")
    return EXIT_OK


def _bcs(bc: str) -> list[str]:
    return ["dirichlet", "neumann"] if bc == "both" else [bc]


def _spectrum_entry(form, bc: str) -> tuple[dict, np.ndarray]:
    """Solve one boundary condition, without eigenvectors, and summarize it:
    the report entry and the eigenvalues."""
    basis = spec.eigensystem(form, bc, vectors=False)
    entry = {
        "level": form.graph.level,
        "bc": bc,
        "n_modes": basis.n_modes,
        "lambda_1": float(basis.eigenvalues[0]),
        "max_residual": basis.max_residual,
        "blocks": list(basis.blocks),
        "supnorm_constant": spec.supnorm_ratio(basis),
    }
    try:
        fit = spec.weyl_exponent(basis)
        c1, c2 = spec.eigen_growth_constants(basis)
        entry.update(
            weyl_slope=fit.slope,
            weyl_target=basis.dim / (basis.dim + 1.0),
            growth_c1=c1,
            growth_c2=c2,
        )
    except ValueError as exc:
        entry["fit_skipped"] = str(exc)
    return entry, basis.eigenvalues


def _cmd_spectrum(args) -> int:
    S = _structure(args)
    levels = args.levels if args.levels else [default_level(S, args.level)]
    # every level is built and checked before the first solve, so a bad
    # level leaves no output behind
    forms = [spec.energy_matrix(build_level(S, lvl, args.budget)) for lvl in levels]
    if "dirichlet" in _bcs(args.bc):
        for form in forms:
            spec.require_interior(form.graph, "Dirichlet spectrum")
    summary = []
    for lvl, form in zip(levels, forms):
        spectra = []
        for bc in _bcs(args.bc):
            entry, eigenvalues = _spectrum_entry(form, bc)
            summary.append(entry)
            spectra.append((bc, eigenvalues))
        os.makedirs(args.out, exist_ok=True)
        spec.export_spectrum_csv(os.path.join(args.out, f"spectrum_m{lvl}.csv"), spectra)
    _write_json(os.path.join(args.out, "spectrum_report.json"), {"preset": S.name, "results": summary})
    for row in summary:
        slope = row.get("weyl_slope")
        slope_txt = f" weyl={slope:.4f}" if slope is not None else ""
        print(f"m={row['level']} {row['bc']}: lambda1={row['lambda_1']:.6g}{slope_txt}")
    return EXIT_OK


def _kernel_tables(out: str, form, bc: str, ids: list[int], t_grid, tol: float) -> dict:
    """Write one boundary condition's kernel table and return its report
    entry.  The basis and its evaluator die on return, before the next bc is
    solved."""
    ev = ker.KernelEvaluator(spec.eigensystem(form, bc), tol)
    points = [(x, y) for x in ids for y in ids]
    ker.export_kernel_csv(os.path.join(out, f"kernels_{bc}.csv"), ev, t_grid, points)
    return {
        "t_min": ev.t_min(),
        "achievable_tau": {repr(t): ev.tail_estimate(t) for t in t_grid},
        "mass_at_interior": {repr(t): ev.kernel_mass(t, ids[-1]) for t in t_grid},
    }


def _cmd_kernel(args) -> int:
    S = _structure(args)
    lvl = default_level(S, args.level)
    if lvl == 0:
        print("bad level: kernel samples a corner of cell 0, so it needs --level >= 1", file=sys.stderr)
        return EXIT_USAGE
    graph = build_level(S, lvl, args.budget)
    form = spec.energy_matrix(graph)
    os.makedirs(args.out, exist_ok=True)
    t_grid = args.t_grid or [0.1, 0.3, 1.0]
    ids = sorted({int(graph.boundary_ids[0]), graph.vertex_id((0,), S.n_boundary - 1), graph.n_vertices // 2})
    info = {bc: _kernel_tables(args.out, form, bc, ids, t_grid, args.tol) for bc in _bcs(args.bc)}
    _write_json(os.path.join(args.out, "kernel_report.json"), {"preset": S.name, "level": lvl, "bc": info})
    print(f"kernel tables written for {S.name} m={lvl}, t in {t_grid}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    if args.level is not None and args.level < MIN_LEVEL:
        print(f"bad level: verify addresses level-{MIN_LEVEL} words, so it needs --level >= {MIN_LEVEL}",
              file=sys.stderr)
        return EXIT_USAGE
    config = None
    if args.config:
        with open(args.config) as fh:
            config = json.load(fh)
    report = verify_suite(
        args.suite,
        preset=args.preset,
        level=args.level,
        tol=args.tol,
        seed=args.seed,
        budget=args.budget,
        config=config,
    )
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, f"report_{args.suite}.json")
    report.write(path)
    counts = report.counts()
    for c in report.checks:
        marker = {"pass": "PASS", "fail": "FAIL", "skip": "SKIP"}[c.status]
        extra = f" ({c.reason})" if c.reason else ""
        val = f" value={c.value:.6g}" if c.value is not None else ""
        print(f"[{marker}] {c.id}: {c.law}{val}{extra}")
    print(f"suite={args.suite} pass={counts['pass']} fail={counts['fail']} skip={counts['skip']} -> {path}")
    return EXIT_OK if report.passed else EXIT_CHECK_FAIL


def _cmd_fatou(args) -> int:
    S = _structure(args)
    lvl = default_level(S, args.level)
    basis = spec.eigensystem(spec.energy_matrix(build_level(S, lvl, args.budget)), "dirichlet")
    ev = ker.KernelEvaluator(basis, args.tol)
    defects, fields = tb.fatou_batch(ev, np.random.default_rng(args.seed), args.batch)
    profiles = [tb.lp_profile(fld, 2).sup for fld in fields]
    os.makedirs(args.out, exist_ok=True)
    payload = {
        "preset": S.name,
        "level": lvl,
        "seed": args.seed,
        "batch": args.batch,
        "max_defect": max(defects),
        "defects": defects,
        "l2_profile_sups": profiles,
    }
    _write_json(os.path.join(args.out, "fatou.json"), payload)
    ok = max(defects) <= 1e-6
    print(f"fatou reconstruction: max defect {max(defects):.3e} over {args.batch} fields -> {'ok' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_CHECK_FAIL


def _cmd_report(args) -> int:
    rows = []
    failed = False
    for name in sorted(os.listdir(args.out)):
        if not (name.startswith("report_") and name.endswith(".json")):
            continue
        with open(os.path.join(args.out, name)) as fh:
            data = json.load(fh)
        counts = data.get("summary", {})
        rows.append(
            {
                "file": name,
                "suite": data.get("suite"),
                "env": data.get("env", {}),
                "summary": counts,
            }
        )
        failed = failed or counts.get("fail", 0) > 0
    if not rows:
        print(f"no suite reports found under {args.out}", file=sys.stderr)
        return EXIT_USAGE
    _write_json(os.path.join(args.out, "summary.json"), {"reports": rows})
    for row in rows:
        s = row["summary"]
        print(f"{row['file']}: pass={s.get('pass', 0)} fail={s.get('fail', 0)} skip={s.get('skip', 0)}")
    return EXIT_CHECK_FAIL if failed else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pcftube", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, level_required=False):
        p.add_argument("--preset", default="interval", help="interval | sierpinski | vicsek")
        p.add_argument("--config", default=None, help="JSON structure config file (overrides --preset)")
        if level_required:
            p.add_argument("--level", type=_nonneg_int, required=True)
        else:
            p.add_argument("--level", type=_nonneg_int, default=None)
        p.add_argument("--budget", type=_positive_int, default=DEFAULT_BUDGET)
        p.add_argument("--out", default="out", help="output directory for artifacts")

    p = sub.add_parser("build", help="build and export a level-m vertex graph")
    common(p, level_required=True)
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("spectrum", help="solve eigenproblems and export spectra")
    common(p)
    p.add_argument("--levels", type=_comma_list(_nonneg_int), default=None, help="comma-separated levels")
    p.add_argument("--bc", choices=["dirichlet", "neumann", "both"], default="both")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("kernel", help="evaluate kernels on a sample grid and export tables")
    common(p)
    p.add_argument("--bc", choices=["dirichlet", "neumann", "both"], default="both")
    p.add_argument("--t-grid", dest="t_grid", type=_comma_list(_positive_float), default=None)
    p.add_argument("--tol", type=_positive_float, default=1e-8, help="tail tolerance tau")
    p.set_defaults(func=_cmd_kernel)

    p = sub.add_parser("verify", help="run a verification suite and write its report")
    common(p)
    p.add_argument("--suite", choices=list(SUITE_NAMES) + ["all"], default="all")
    p.add_argument("--tol", type=_positive_float, default=1e-8)
    p.add_argument("--seed", type=_nonneg_int, default=7)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("fatou", help="run the Fatou reconstruction batch")
    common(p)
    p.add_argument("--tol", type=_positive_float, default=1e-8)
    p.add_argument("--seed", type=_nonneg_int, default=7)
    p.add_argument("--batch", type=_positive_int, default=16)
    p.set_defaults(func=_cmd_fatou)

    p = sub.add_parser("report", help="summarize suite reports in an output directory")
    p.add_argument("--out", default="out")
    p.set_defaults(func=_cmd_report)

    return parser


def _trim_heap() -> None:
    """Hand the heap's free pages back to the system (glibc ``malloc_trim``),
    so what one command freed does not stay resident through the next one run
    in the same process; a no-op where the C library has no such function."""
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):
        return
    trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
    trim(0)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except StructureError as exc:
        print(f"invalid structure config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except spec.NoInteriorError as exc:
        print(f"bad level: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        print(f"missing file: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    finally:
        _trim_heap()


if __name__ == "__main__":
    sys.exit(main())

import copy
import json
import math
import tracemalloc
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

import pcftube.boundary as bnd
import pcftube.cli as cli
import pcftube.spectral as spectral
import pcftube.suites as suites
from pcftube.cli import main
from pcftube.core import build_level, load_structure
from pcftube.kernels import KernelEvaluator, export_kernel_csv
from pcftube.suites import verify_suite
from pcftube.tube import fatou_batch, lp_profile


def _evaluator(preset, level, bc, tol=1e-8):
    form = spectral.energy_matrix(build_level(load_structure(preset), level))
    return KernelEvaluator(spectral.eigensystem(form, bc), tol)


def _strip_runtimes(report_dict):
    out = copy.deepcopy(report_dict)
    for check in out["checks"]:
        check["runtime_s"] = 0.0
    return out


# -- suites --------------------------------------------------------------------------


def test_core_suite_passes_on_interval():
    rep = verify_suite("core", preset="interval", level=6)
    assert rep.passed
    assert all(c.status in ("pass", "fail", "skip") for c in rep.checks)
    assert rep.env["preset"] == "interval" and rep.env["level"] == 6


def test_all_suite_passes_on_small_interval():
    rep = verify_suite("all", preset="interval", level=6)
    failed = [c.id for c in rep.checks if c.status == "fail"]
    assert rep.passed, failed


@pytest.mark.parametrize("preset, level", [("interval", m) for m in (2, 3, 4, 5)] + [("sierpinski", 2), ("vicsek", 2)])
def test_all_suites_have_no_failure_at_the_smallest_levels(preset, level):
    # A check the level cannot resolve skips with its reason: the cells bound
    # no neighbour of the interior sample inside the smallest ball of
    # boundary.ball_mass_lower at interval m <= 4 and sierpinski m = 2, and
    # the Weyl window holds 7 eigenvalues at interval m = 5.
    rep = verify_suite("all", preset=preset, level=level)
    assert [c.id for c in rep.checks if c.status == "fail"] == []
    assert all(c.reason for c in rep.checks if c.status == "skip")
    status = {c.id: c.status for c in rep.checks}
    resolved = (preset, level) in (("interval", 5), ("vicsek", 2))
    assert status["boundary.ball_mass_lower"] == ("pass" if resolved else "skip")
    assert status["spectral.weyl"] == "skip"


def test_suite_reports_are_deterministic():
    a = verify_suite("tube", preset="interval", level=6, seed=11)
    b = verify_suite("tube", preset="interval", level=6, seed=11)
    assert _strip_runtimes(a.to_dict()) == _strip_runtimes(b.to_dict())


def test_suite_seed_changes_values():
    a = verify_suite("tube", preset="interval", level=6, seed=1)
    b = verify_suite("tube", preset="interval", level=6, seed=2)
    # tube.fatou is roundoff (a few ulps whatever the seed); the L^2 profile
    # increments depend on the drawn field.
    va = [c.value for c in a.checks if c.id == "tube.l2_monotone"]
    vb = [c.value for c in b.checks if c.id == "tube.l2_monotone"]
    assert va != vb


def test_energy_trace_fails_off_a_harmonic_structure():
    # with these r the level-1 network does not trace back to D on V_0, so the
    # structure's extension does not carry the boundary energy
    rep = verify_suite("spectral", config={"preset": "sierpinski", "r": [0.6, 0.5, 0.4]}, level=4)
    check = next(c for c in rep.checks if c.id == "spectral.energy_trace")
    assert check.status == "fail" and check.value > 0.5


def test_boundary_suite_builds_the_barrier_once(monkeypatch):
    calls = []
    barrier = bnd.barrier

    def counting_barrier(*args):
        calls.append(args)
        return barrier(*args)

    monkeypatch.setattr(bnd, "barrier", counting_barrier)
    rep = verify_suite("boundary", preset="interval", level=6)
    assert {c.id for c in rep.checks} >= {"boundary.barrier", "boundary.barrier_comparison"}
    assert rep.passed and len(calls) == 1


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        verify_suite("everything")


def test_loose_tolerance_skips_positivity():
    rep = verify_suite("kernels", preset="interval", level=6, tol=1e-2)
    rec = {c.id: c for c in rep.checks}["kernels.positivity"]
    assert rec.status == "skip"
    assert rec.reason


def test_check_ids_unique():
    rep = verify_suite("all", preset="interval", level=6)
    ids = [c.id for c in rep.checks]
    assert len(ids) == len(set(ids))
    assert all(c.law for c in rep.checks)
    skips = [c for c in rep.checks if c.status == "skip"]
    assert all(s.reason for s in skips)


def test_report_schema_versioned():
    rep = verify_suite("core", preset="interval", level=5)
    data = json.loads(rep.to_json())
    assert data["report_version"] == 1
    assert set(data["checks"][0]) == {"id", "law", "status", "value", "tolerance", "runtime_s", "reason"}


def _runner_rule(value, bound) -> bool:
    lo, hi = bound
    return value is not None and math.isfinite(value) and lo <= value <= hi


@pytest.mark.parametrize("preset", sorted(suites.DEFAULT_LEVELS))
def test_every_status_is_the_runner_rule(monkeypatch, preset):
    bounds = {}
    run = suites._Runner.run

    def recording_run(self, cid, law, fn, bound):
        bounds[cid] = bound
        run(self, cid, law, fn, bound)

    monkeypatch.setattr(suites._Runner, "run", recording_run)
    rep = verify_suite("all", preset=preset)
    assert len(rep.checks) == 55
    for c in rep.checks:
        if c.status == "skip":
            assert c.id not in bounds and c.tolerance is None
            continue
        lo, hi = bounds[c.id]
        assert c.status == ("pass" if _runner_rule(c.value, (lo, hi)) else "fail"), c
        assert c.tolerance == (hi if math.isfinite(hi) else lo if math.isfinite(lo) else None), c
        assert (c.value is None) == (c.reason is not None), c


@pytest.mark.parametrize(
    "value, bound, status",
    [
        (math.nan, suites.FINITE, "fail"),
        (math.nan, suites.at_most(1.0), "fail"),
        (math.inf, suites.FINITE, "fail"),
        (-math.inf, suites.at_most(0.0), "fail"),
        (1e-9, suites.at_most(1e-9), "pass"),
        (np.nextafter(1e-9, 1.0), suites.at_most(1e-9), "fail"),
        (-1e-9, suites.at_least(-1e-9), "pass"),
        (2.5, suites.SECOND_ORDER, "pass"),
        (6.0, suites.SECOND_ORDER, "pass"),
        (np.nextafter(6.0, 7.0), suites.SECOND_ORDER, "fail"),
        (0.0, suites.POSITIVE, "fail"),
        (5e-324, suites.POSITIVE, "pass"),
    ],
)
def test_runner_rule_cases(value, bound, status):
    r = suites._Runner()
    r.run("x.check", "a law", lambda: value, bound)
    (rec,) = r.checks
    assert rec.status == status
    assert rec.value == value or (math.isnan(rec.value) and math.isnan(value))
    assert rec.reason is None


def test_runner_fails_a_raising_body_with_its_reason():
    def body():
        raise suites.PreconditionError("cones are not nested")

    r = suites._Runner()
    r.run("x.check", "a law", body, suites.at_most(1e-9))
    (rec,) = r.checks
    assert (rec.status, rec.value, rec.tolerance) == ("fail", None, 1e-9)
    assert rec.reason == "PreconditionError: cones are not nested"


# -- CLI ------------------------------------------------------------------------------


def test_cli_build_artifacts(tmp_path):
    out = tmp_path / "art"
    assert main(["build", "--preset", "interval", "--level", "3", "--out", str(out)]) == 0
    assert (out / "vertices.csv").exists()
    assert (out / "cells.csv").exists()
    meta = json.loads((out / "build.json").read_text())
    assert meta["n_vertices"] == 9 and meta["n_cells"] == 8


@pytest.mark.parametrize(
    "argv",
    [
        ["build", "--level", "-1"],
        ["kernel", "--level", "3", "--t-grid=-0.1,0.3"],
        ["kernel", "--level", "3", "--tol", "-1"],
        ["fatou", "--level", "3", "--batch", "0"],
        ["verify", "--level", "3", "--tol", "0"],
        ["verify", "--level", "3", "--tol", "nan"],
        ["spectrum", "--levels", "3,-1"],
    ],
    ids=["build-level", "kernel-t-grid", "kernel-tol", "fatou-batch", "verify-tol", "verify-tol-nan", "spectrum-levels"],
)
def test_cli_negative_level_exits_2(tmp_path, capsys, argv):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--preset", "interval", "--out", str(out)])
    assert exc.value.code == 2
    assert "error: argument" in capsys.readouterr().err
    assert not out.exists()


def test_cli_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["build", "--wibble"])
    assert exc.value.code == 2


def test_cli_budget_exit_4(tmp_path):
    assert main(["build", "--preset", "sierpinski", "--level", "12", "--out", str(tmp_path)]) == 4


def test_cli_dense_budget_exit_4(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(spectral, "_physical_memory_bytes", lambda: 1 << 20)
    code = main(["spectrum", "--preset", "sierpinski", "--level", "5", "--out", str(tmp_path / "out")])
    assert code == 4
    assert "physical memory" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--levels", "0", "--bc", "both"],
        ["kernel", "--level", "0"],
        ["kernel", "--level", "0", "--bc", "neumann"],
        ["fatou", "--level", "0"],
        ["verify", "--level", "0"],
        ["spectrum", "--levels", "3,0", "--bc", "both"],
        ["verify", "--level", "0", "--suite", "core"],
    ],
    ids=["spectrum", "kernel", "kernel-neumann", "fatou", "verify", "spectrum-levels-3-0", "verify-core"],
)
def test_cli_level_0_exits_2(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert main(argv + ["--preset", "sierpinski", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("bad level: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("preset", ["interval", "sierpinski", "vicsek"])
def test_cli_verify_level_1_exits_2(tmp_path, capsys, preset):
    out = tmp_path / "out"
    assert main(["verify", "--preset", preset, "--level", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("bad level: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("level, status", [(2, "skip"), (3, "pass")])
def test_mesh_cauchy_needs_three_distinct_levels(level, status):
    rep = verify_suite("spectral", preset="sierpinski", level=level)
    rec = {c.id: c for c in rep.checks}["spectral.mesh_cauchy"]
    assert rec.status == status
    assert (rec.reason is not None) == (status == "skip")


def test_verify_suite_refuses_level_1():
    with pytest.raises(ValueError, match="level >= 2"):
        verify_suite("core", preset="sierpinski", level=1)


def test_cli_trims_the_heap_after_every_command(tmp_path, monkeypatch):
    calls = []

    def malloc_trim(pad):
        calls.append(pad)

    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: SimpleNamespace(malloc_trim=malloc_trim))
    assert main(["build", "--preset", "interval", "--level", "2", "--out", str(tmp_path / "a")]) == 0
    assert main(["spectrum", "--preset", "interval", "--levels", "2,0", "--out", str(tmp_path / "b")]) == 2
    assert calls == [0, 0]
    # a C library without malloc_trim: nothing to call, same exit codes
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: SimpleNamespace())
    assert main(["build", "--preset", "interval", "--level", "2", "--out", str(tmp_path / "c")]) == 0


def test_cli_level_0_neumann_spectrum(tmp_path):
    out = tmp_path / "out"
    assert main(["spectrum", "--preset", "sierpinski", "--levels", "0", "--bc", "neumann", "--out", str(out)]) == 0
    (row,) = json.loads((out / "spectrum_report.json").read_text())["results"]
    assert row["n_modes"] == 3 and row["lambda_1"] == 0.0


def test_cli_bad_config_exit_3(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(
        json.dumps(
            {
                "maps": [
                    {"scale": 0.5, "translation": [0.0]},
                    {"scale": 0.5, "translation": [0.5]},
                ],
                "boundary": [[0.0], [1.0]],
                "identifications": [[0, 1, 1, 0]],
                "D": [[1.0, 0.0], [0.0, 1.0]],
                "r": [0.5, 0.5],
            }
        )
    )
    assert main(["build", "--config", str(cfg), "--level", "2", "--out", str(tmp_path / "o")]) == 3


def test_cli_spectrum(tmp_path):
    out = tmp_path / "spectrum_out"
    code = main(["spectrum", "--preset", "interval", "--levels", "3,4", "--bc", "both", "--out", str(out)])
    assert code == 0
    assert (out / "spectrum_m3.csv").exists() and (out / "spectrum_m4.csv").exists()
    header = (out / "spectrum_m3.csv").read_text().splitlines()[0]
    assert header == "n,lambda,bc"
    report = json.loads((out / "spectrum_report.json").read_text())
    assert {row["bc"] for row in report["results"]} == {"dirichlet", "neumann"}
    for row in report["results"]:
        assert 0.0 <= row["max_residual"] <= 1e-8
        # the interval's reflection fixes only the midpoint
        n_even, n_odd = row["blocks"]
        assert n_even + n_odd == row["n_modes"] and n_even - n_odd == 1


def _report_bytes(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_cli_spectrum_matches_a_reference_from_eigensystem(tmp_path):
    # m=3 has too few modes for the fits, m=5 has them
    out = tmp_path / "out"
    assert main(["spectrum", "--preset", "sierpinski", "--levels", "3,5", "--bc", "both", "--out", str(out)]) == 0
    S = load_structure("sierpinski")
    results = []
    for m in (3, 5):
        form = spectral.energy_matrix(build_level(S, m))
        lines = ["n,lambda,bc"]
        for bc in ("dirichlet", "neumann"):
            b = spectral.eigensystem(form, bc)
            lines += [f"{i},{float(lam)!r},{bc}" for i, lam in enumerate(b.eigenvalues, start=1)]
            entry = {
                "level": m,
                "bc": bc,
                "n_modes": b.n_modes,
                "lambda_1": float(b.eigenvalues[0]),
                "max_residual": b.max_residual,
                "blocks": list(b.blocks),
                "supnorm_constant": spectral.supnorm_ratio(b),
            }
            try:
                slope = spectral.weyl_exponent(b).slope
                c1, c2 = spectral.eigen_growth_constants(b)
                entry.update(
                    weyl_slope=slope,
                    weyl_target=S.dim / (S.dim + 1.0),
                    growth_c1=c1,
                    growth_c2=c2,
                )
            except ValueError as exc:
                entry["fit_skipped"] = str(exc)
            results.append(entry)
        assert (out / f"spectrum_m{m}.csv").read_bytes() == ("\r\n".join(lines) + "\r\n").encode()
    assert "fit_skipped" in results[0] and "weyl_slope" in results[2]
    expected = _report_bytes({"preset": "sierpinski", "results": results})
    assert (out / "spectrum_report.json").read_text() == expected


def test_cli_kernel_matches_a_reference_from_eigensystem(tmp_path):
    out = tmp_path / "out"
    t_grid = [0.05, 0.2, 1.0]
    argv = ["kernel", "--preset", "vicsek", "--level", "2", "--bc", "both", "--t-grid", "0.05,0.2,1.0"]
    assert main(argv + ["--out", str(out)]) == 0
    graph = build_level(load_structure("vicsek"), 2)
    form = spectral.energy_matrix(graph)
    ids = sorted({int(graph.boundary_ids[0]), graph.vertex_id((0,), 3), graph.n_vertices // 2})
    info = {}
    for bc in ("dirichlet", "neumann"):
        ev = KernelEvaluator(spectral.eigensystem(form, bc))
        ref = tmp_path / f"ref_{bc}.csv"
        export_kernel_csv(ref, ev, t_grid, [(x, y) for x in ids for y in ids])
        assert (out / f"kernels_{bc}.csv").read_bytes() == ref.read_bytes()
        info[bc] = {
            "t_min": ev.t_min(),
            "achievable_tau": {repr(t): ev.tail_estimate(t) for t in t_grid},
            "mass_at_interior": {repr(t): ev.kernel_mass(t, ids[-1]) for t in t_grid},
        }
    expected = _report_bytes({"preset": "vicsek", "level": 2, "bc": info})
    assert (out / "kernel_report.json").read_text() == expected


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--preset", "sierpinski", "--levels", "3,4", "--bc", "both"],
        ["kernel", "--preset", "sierpinski", "--level", "3", "--bc", "both", "--t-grid", "0.2"],
    ],
    ids=["spectrum", "kernel"],
)
def test_cli_drops_each_basis_before_the_next_solve(tmp_path, monkeypatch, argv):
    solve = spectral.eigensystem
    solved, alive = [], []

    def eigensystem(form, bc, **kwargs):
        alive.append(sum(ref() is not None for ref in solved))
        basis = solve(form, bc, **kwargs)
        solved.append(weakref.ref(basis))
        return basis

    monkeypatch.setattr(spectral, "eigensystem", eigensystem)
    assert main(argv + ["--out", str(tmp_path)]) == 0
    assert len(solved) >= 2 and alive == [0] * len(solved)


def test_cli_spectrum_peak_is_one_basis_and_a_solve(tmp_path):
    # Traced peak over one level's Dirichlet and Neumann solves, in n x n
    # float64 arrays at sierpinski m=6 (n = 1095): 1.83 measured, 2.94 while
    # the Dirichlet basis was held through the Neumann solve.
    n = 1095
    tracemalloc.start()
    try:
        code = main(["spectrum", "--preset", "sierpinski", "--levels", "6", "--bc", "both", "--out", str(tmp_path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak <= 2.2 * 8 * n * n


def test_cli_kernel_table(tmp_path):
    out = tmp_path / "ker"
    code = main(
        ["kernel", "--preset", "interval", "--level", "5", "--bc", "dirichlet", "--t-grid", "0.2,0.5", "--out", str(out)]
    )
    assert code == 0
    rows = (out / "kernels_dirichlet.csv").read_text().splitlines()
    assert rows[0] == "t,x_id,y_id,H,P_series,P_quadrature"
    import csv

    with open(out / "kernels_dirichlet.csv") as fh:
        for row in csv.DictReader(fh):
            assert abs(float(row["P_series"]) - float(row["P_quadrature"])) < 1e-6


def test_cli_kernel_report(tmp_path):
    out = tmp_path / "ker"
    t_grid = [0.05, 0.2, 1.0]
    argv = ["kernel", "--preset", "sierpinski", "--level", "3", "--t-grid", "0.05,0.2,1.0", "--tol", "1e-6"]
    assert main(argv + ["--out", str(out)]) == 0
    report = json.loads((out / "kernel_report.json").read_text())
    assert report["preset"] == "sierpinski" and report["level"] == 3
    assert set(report["bc"]) == {"dirichlet", "neumann"}
    for bc, info in report["bc"].items():
        assert set(info) == {"t_min", "achievable_tau", "mass_at_interior"}
        ev = _evaluator("sierpinski", 3, bc, tol=1e-6)
        assert info["t_min"] == ev.t_min()
        assert info["achievable_tau"] == {repr(t): ev.tail_estimate(t) for t in t_grid}
        assert set(info["mass_at_interior"]) == {repr(t) for t in t_grid}
    for mass in report["bc"]["neumann"]["mass_at_interior"].values():
        assert abs(mass - 1.0) <= 1e-8


def test_cli_verify_pass_and_report(tmp_path):
    out = tmp_path / "ver"
    assert main(["verify", "--preset", "interval", "--level", "6", "--suite", "core", "--out", str(out)]) == 0
    report = json.loads((out / "report_core.json").read_text())
    assert report["report_version"] == 1
    assert report["summary"]["fail"] == 0
    assert main(["report", "--out", str(out)]) == 0
    assert (out / "summary.json").exists()


def test_cli_verify_all_suites(tmp_path):
    out = tmp_path / "verall"
    assert main(["verify", "--preset", "interval", "--level", "6", "--suite", "all", "--out", str(out)]) == 0


def test_cli_fatou(tmp_path):
    out = tmp_path / "fatou"
    assert main(["fatou", "--preset", "interval", "--level", "6", "--out", str(out)]) == 0
    payload = json.loads((out / "fatou.json").read_text())
    assert payload["max_defect"] <= 1e-6
    assert len(payload["defects"]) == payload["batch"]


def test_cli_fatou_reports_the_batch(tmp_path):
    out = tmp_path / "fatou"
    argv = ["fatou", "--preset", "sierpinski", "--level", "3", "--seed", "3", "--batch", "5"]
    assert main(argv + ["--out", str(out)]) == 0
    payload = json.loads((out / "fatou.json").read_text())
    defects, fields = fatou_batch(_evaluator("sierpinski", 3, "dirichlet"), np.random.default_rng(3), 5)
    assert payload["defects"] == defects
    assert payload["max_defect"] == max(defects)
    assert payload["l2_profile_sups"] == [lp_profile(fld, 2).sup for fld in fields]


def test_cli_report_empty_dir(tmp_path):
    assert main(["report", "--out", str(tmp_path)]) == 2


def test_cli_verify_kernels_interval_m8(tmp_path):
    out = tmp_path / "verk"
    code = main(["verify", "--preset", "interval", "--level", "8", "--suite", "kernels", "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report_kernels.json").read_text())
    assert report["summary"]["fail"] == 0
    assert report["env"] == {
        "preset": "interval",
        "level": 8,
        "tol": 1e-8,
        "seed": 7,
        "budget": 200000,
        "n_vertices": 257,
    }


def test_cli_spectrum_sierpinski_level5(tmp_path):
    out = tmp_path / "sg5"
    code = main(["spectrum", "--preset", "sierpinski", "--level", "5", "--bc", "both", "--out", str(out)])
    assert code == 0
    report = json.loads((out / "spectrum_report.json").read_text())
    slopes = {row["bc"]: row.get("weyl_slope") for row in report["results"]}
    assert slopes["dirichlet"] is not None
    assert abs(slopes["dirichlet"] - report["results"][0]["weyl_target"]) <= 0.05
    rows = (out / "spectrum_m5.csv").read_text().strip().splitlines()
    assert len(rows) == 1 + 363 + 366  # header + Dirichlet + Neumann modes


def test_cli_verify_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["verify", "--preset", "interval", "--level", "5", "--suite", "spectral", "--seed", "3", "--out", str(out1)])
    main(["verify", "--preset", "interval", "--level", "5", "--suite", "spectral", "--seed", "3", "--out", str(out2)])
    r1 = json.loads((out1 / "report_spectral.json").read_text())
    r2 = json.loads((out2 / "report_spectral.json").read_text())
    assert _strip_runtimes(r1) == _strip_runtimes(r2)

import copy
import json

import numpy as np
import pytest

import pcftube.boundary as bnd
import pcftube.spectral as spectral
from pcftube.cli import main
from pcftube.core import build_level, load_structure
from pcftube.kernels import KernelEvaluator
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

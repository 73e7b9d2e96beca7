"""Tests of the benchmark itself: span arithmetic, gates and the printed metrics.

    python3 -m pytest -q perfbench
"""

import contextlib
import io
import json
import os
import subprocess
import sys

import pytest

import spans
import workloads
from worker import SRC

sys.path.insert(0, SRC)

from pcftube import cli  # noqa: E402

SIERPINSKI_LAMBDA1 = workloads.oracles().gasket_lambda1


def run_cli(argv, out):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv + ["--out", str(out)]) == 0
    return [str(out)]


def rewrite_json(path, edit):
    with open(path) as fh:
        data = json.load(fh)
    edit(data)
    with open(path, "w") as fh:
        json.dump(data, fh)


# -- span arithmetic ----------------------------------------------------------------


def test_self_times_on_a_synthetic_tree():
    #   cli.main [0, 10]
    #     core.build_level [1, 4]
    #       spectral.eigensystem [2, 3]
    #     core.ResistanceMetric.gram [5, 9]
    tree = [
        ["cli.main", -1, 0.0, 10.0],
        ["core.build_level", 0, 1.0, 4.0],
        ["spectral.eigensystem", 1, 2.0, 3.0],
        ["core.ResistanceMetric.gram", 0, 5.0, 9.0],
    ]
    assert spans.self_times(tree) == [3.0, 2.0, 1.0, 4.0]
    totals = spans.layer_totals(tree, wall=11.0)
    assert totals["cli.self_s"] == 3.0
    assert totals["core.build_level.self_s"] == 2.0
    assert totals["spectral.eigensystem.self_s"] == 1.0
    assert totals["core.metric.self_s"] == 4.0
    assert totals["op.uncovered_s"] == 1.0
    assert sum(totals.values()) == 11.0


def test_layer_names():
    assert spans.layer_of("kernels.adaptive_simpson") == "kernels.subordination"
    assert spans.layer_of("kernels.KernelEvaluator.heat") == "kernels.other"
    assert spans.layer_of("kernels.KernelEvaluator.__init__") == "kernels.evaluator_init"
    assert spans.layer_of("kernels.semigroup_defect") == "kernels.matrix"
    assert spans.layer_of("kernels.KernelEvaluator.coefficients") == "kernels.integral"
    assert spans.layer_of("spectral.weyl_exponent") == "spectral.fits"
    assert spans.layer_of("boundary.barrier") == "boundary.cones"
    assert spans.layer_of("boundary.weak11_check") == "boundary.other"
    assert spans.layer_of("tube.lp_profile") == "tube"
    assert spans.layer_of("suites.verify_suite") == "suites"


def test_instrument_sees_names_imported_by_name_and_restores_them(tmp_path):
    original = cli.build_level
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        assert cli.build_level is not original
        run_cli(["spectrum", "--preset", "sierpinski", "--level", "2", "--bc", "both"], tmp_path)
    assert cli.build_level is original
    names = [s[0] for s in tracer.spans]
    assert names[0] == "cli.main" and tracer.spans[0][1] == -1
    assert "core.build_level" in names
    assert tracer.counts["core.build_level.calls"] == 1
    assert tracer.counts["spectral.eigensystem.calls"] == 2
    # n = 15 at level 2: Dirichlet solves 12 modes, Neumann 15.
    assert tracer.counts["spectral.eigensystem.n3_sum"] == 12**3 + 15**3
    assert all(end >= start for _, _, start, end in tracer.spans)


def test_instrument_counts_evaluators_per_basis(tmp_path):
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        run_cli(["kernel", "--preset", "vicsek", "--level", "1", "--bc", "both", "--t-grid", "0.5"], tmp_path)
    # One KernelEvaluator per boundary condition, each on its own basis.
    assert tracer.counts["kernels.evaluator_init.calls"] == 2
    assert tracer.counts["kernels.evaluator_init.bases"] == 2
    assert tracer.counts["kernels.integral.calls"] >= 1
    assert tracer.counts["kernels.subordination.calls"] == 2 * 9
    assert "spectral.fits.self_s" in spans.layer_totals(tracer.spans, wall=1.0)


def test_span_cost_is_positive_and_small():
    assert 0.0 < spans.span_cost() < 1e-3


# -- gates --------------------------------------------------------------------------


def test_spectrum_gate_fails_a_perturbed_eigenvalue(tmp_path):
    outdirs = run_cli(["spectrum", "--preset", "sierpinski", "--levels", "2,3", "--bc", "both"], tmp_path)
    gate = lambda: workloads.gate_spectrum(outdirs, "sierpinski", (2, 3), SIERPINSKI_LAMBDA1)
    assert gate() == [True] * 4

    def perturb(data):
        entry = next(r for r in data["results"] if r["level"] == 3 and r["bc"] == "dirichlet")
        entry["lambda_1"] *= 1.0 + 1e-7

    rewrite_json(tmp_path / "spectrum_report.json", perturb)
    assert gate() == [True, True, False, True]


def test_build_gate_fails_a_wrong_vertex_count(tmp_path):
    outdirs = run_cli(["build", "--preset", "vicsek", "--level", "2"], tmp_path)
    assert workloads.gate_build(outdirs, [("vicsek", 2)]) == [True]
    rewrite_json(tmp_path / "build.json", lambda d: d.update(n_vertices=d["n_vertices"] + 1))
    assert workloads.gate_build(outdirs, [("vicsek", 2)]) == [False]


def test_kernel_gate_fails_a_corrupted_row(tmp_path):
    t_grid = [0.2, 0.5]
    argv = ["kernel", "--preset", "vicsek", "--level", "1", "--bc", "both", "--t-grid", "0.2,0.5"]
    outdirs = run_cli(argv, tmp_path)
    items = workloads.gate_kernel(outdirs, t_grid)
    assert len(items) == 2 * 2 * 9 + 2 and all(items)
    path = tmp_path / "kernels_neumann.csv"
    lines = path.read_text().splitlines()
    cells = lines[3].split(",")
    cells[-1] = repr(float(cells[-1]) + 1e-3)
    lines[3] = ",".join(cells)
    path.write_text("\n".join(lines[:-1]) + "\n")  # also drop the last row
    items = workloads.gate_kernel(outdirs, t_grid)
    assert len(items) == 2 * 2 * 9 + 2 and items.count(False) == 2


def test_verify_gate_counts_failed_checks_and_skips_skipped(tmp_path):
    checks = [{"status": "pass"}, {"status": "fail"}, {"status": "skip"}]
    (tmp_path / "report_all.json").write_text(json.dumps({"checks": checks}))
    assert workloads.gate_verify([str(tmp_path)]) == [True, False]


def test_kernel_t_grid_depends_only_on_the_seed():
    grid = workloads.kernel_t_grid(5)
    assert grid == workloads.kernel_t_grid(5) != workloads.kernel_t_grid(6)
    assert len(grid) == 48 and all(0.02 <= t <= 1.0 for t in grid)


# -- the command ----------------------------------------------------------------------


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_declared_metric_is_printed_with_its_unit(trace, section):
    root = workloads.ROOT
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)[section]}
    cmd = [sys.executable, "perfbench/run.py", "--workload", "build-large", "--seed", "1", "--seconds", "0"]
    out = subprocess.run(cmd + ["--trace", str(trace)], cwd=root, capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for name in declared:
        assert any(line.split()[:1] == [name] for line in lines[:-1]), name
    assert any(line.split()[:1] == ["fail_ratio"] for line in lines[:-1])

import math

import numpy as np
import pytest

from pcftube.boundary import (
    BoundarySet,
    Cone,
    alpha_scaling_fit,
    ball_mass_lower,
    barrier,
    cone_cover_check,
    cone_sup,
    maximal_function,
    maximal_measure,
    nontangential_error,
    shifted_kernel_constant,
    weak11_check,
)
from pcftube.tube import tube_sample

from oracles import brute_maximal, brute_maximal_measure, brute_shifted_kernel_constant, exact_resistance


# -- maximal function -----------------------------------------------------------------


def test_maximal_of_constant(stacks):
    st = stacks("interval", 6)
    mf = maximal_function(st.metric, np.ones(st.graph.n_vertices))
    assert np.abs(mf - 1.0).max() < 1e-12


def test_maximal_step_function_value(stacks):
    st = stacks("interval", 6)
    f = (st.graph.coords[:, 0] <= 0.5).astype(float)
    mf = maximal_function(st.metric, f)
    x34 = st.graph.vertex_id((1, 1), 0)
    assert abs(mf[x34] - 0.5) < 0.01  # half plus one-vertex lumping


def test_maximal_matches_brute_force(stacks, rng):
    # The oracle sweeps exact rational resistances, whose ties are exact.
    st = stacks("sierpinski", 3)
    R = exact_resistance(st.graph)
    assert np.abs(st.metric.matrix() - R).max() <= 1e-13 * R.max()
    f = rng.standard_normal(st.graph.n_vertices)
    mf = maximal_function(st.metric, f)
    for x in range(st.graph.n_vertices):
        assert mf[x] == pytest.approx(brute_maximal(R, st.graph.vertex_mass, f, x), abs=1e-12)


def test_maximal_dominates_f(stacks, rng):
    st = stacks("interval", 6)
    f = rng.standard_normal(st.graph.n_vertices)
    mf = maximal_function(st.metric, f)
    assert np.all(mf >= np.abs(f) - 1e-12)


def test_maximal_sublinear_and_homogeneous(stacks, rng):
    st = stacks("interval", 5)
    f = rng.standard_normal(st.graph.n_vertices)
    g = rng.standard_normal(st.graph.n_vertices)
    mf, mg = maximal_function(st.metric, f), maximal_function(st.metric, g)
    assert np.all(maximal_function(st.metric, f + g) <= mf + mg + 1e-10)
    assert np.abs(maximal_function(st.metric, -2.0 * f) - 2.0 * mf).max() < 1e-10


def test_maximal_measure_single_atom(stacks):
    st = stacks("interval", 6)
    x = st.graph.vertex_id((0,), 1)
    mv = maximal_measure(st.metric, [(x, 1.0)])
    assert mv[x] == pytest.approx(1.0 / st.graph.vertex_mass[x], abs=1e-10)


def test_maximal_measure_of_mu_is_one(stacks):
    st = stacks("interval", 5)
    atoms = [(v, st.graph.vertex_mass[v]) for v in range(st.graph.n_vertices)]
    mv = maximal_measure(st.metric, atoms)
    assert np.abs(mv - 1.0).max() < 1e-12


def test_maximal_measure_two_atoms_brute(stacks):
    st = stacks("interval", 5)
    a, b = st.graph.vertex_id((0, 0), 1), st.graph.vertex_id((1, 1), 0)
    atoms = [(a, 0.7), (b, 0.3)]
    mv = maximal_measure(st.metric, atoms)
    atom_vec = np.zeros(st.graph.n_vertices)
    atom_vec[a] += 0.7
    atom_vec[b] += 0.3
    R = st.metric.matrix()
    for x in (a, b, st.graph.vertex_id((0,), 1)):
        assert mv[x] == pytest.approx(brute_maximal_measure(R, st.graph.vertex_mass, atom_vec, x), abs=1e-12)


def test_weak11_constant_function(stacks):
    st = stacks("interval", 6)
    rep = weak11_check(st.metric, np.ones(st.graph.n_vertices), [0.5])
    assert rep.per_alpha[0][1] == pytest.approx(0.5, abs=1e-12)
    assert rep.l2_ratio == pytest.approx(1.0, abs=1e-12)


def test_weak11_bump_finite(stacks):
    st = stacks("interval", 6)
    E = BoundarySet(st.graph, [(0, 0, 0)])
    rep = weak11_check(st.metric, E.vertex_indicator.astype(float), np.geomspace(0.05, 1.0, 8))
    assert math.isfinite(rep.constant) and rep.constant > 0.0
    assert math.isfinite(rep.l2_ratio)


def test_weak11_rejects_zero_function(stacks):
    st = stacks("interval", 4)
    with pytest.raises(ValueError):
        weak11_check(st.metric, np.zeros(st.graph.n_vertices), [1.0])


# -- cones ---------------------------------------------------------------------------------


def test_cone_nesting(stacks):
    st = stacks("sierpinski", 4)
    x = st.graph.vertex_id((0, 1), 2)
    row = st.metric.from_vertex(x)
    d = st.structure.dim
    for t in (0.1, 0.4):
        prev: set = set()
        for alpha in (0.25, 1.0, 4.0):
            ids = set(Cone(x, alpha).members(row, d, t).tolist())
            assert prev.issubset(ids)
            prev = ids
    assert Cone(x, 1.0, height=0.2).members(row, d, 0.3).size == 0


def test_cone_contains_classical_cone_when_d_large(stacks):
    st = stacks("sierpinski", 4)
    x = st.graph.vertex_id((0, 1), 2)
    row = st.metric.from_vertex(x)
    d = st.structure.dim
    assert d > 1.0
    for t in (0.05, 0.2, 0.8):
        for alpha in (0.5, 1.0, 2.0):
            classical = set(np.flatnonzero((row < math.sqrt(alpha) * t) & (row < 1.0)).tolist())
            cone = set(Cone(x, alpha).members(row, d, t).tolist())
            assert classical.issubset(cone)


def test_cone_sup_constant_data(stacks):
    st = stacks("interval", 7)
    ev = st.evaluator("neumann")
    x = st.graph.vertex_id((0,), 1)
    fld = tube_sample(ev, np.ones(st.graph.n_vertices), np.geomspace(0.05, 0.8, 6))
    mf = maximal_function(st.metric, np.ones(st.graph.n_vertices))
    rep = cone_sup(fld, Cone(x, 1.0), st.metric, mf_at_apex=float(mf[x]))
    assert rep.ratio == pytest.approx(1.0, abs=1e-10)


def test_cone_sup_degenerate_aperture_is_vertical_ray(stacks):
    st = stacks("interval", 7)
    ev = st.evaluator("neumann")
    x = st.graph.vertex_id((0, 0), 1)
    f = (st.graph.coords[:, 0] <= 0.5).astype(float)
    fld = tube_sample(ev, f, np.geomspace(0.05, 0.8, 6))
    rep = cone_sup(fld, Cone(x, 1e-12), st.metric)
    ray_max = np.abs(fld.values[:, x]).max()
    assert rep.sup == pytest.approx(ray_max, abs=1e-12)


def test_cone_sup_empty_errors(stacks):
    st = stacks("interval", 5)
    ev = st.evaluator("neumann")
    fld = tube_sample(ev, np.ones(st.graph.n_vertices), [0.5, 0.8])
    with pytest.raises(ValueError):
        cone_sup(fld, Cone(int(st.graph.boundary_ids[0]), 1.0, height=1e-6), st.metric)


# -- nontangential limits ---------------------------------------------------------------------


def test_nontangential_step_function(stacks):
    st = stacks("interval", 8)
    ev = st.evaluator("neumann")
    f = (st.graph.coords[:, 0] <= 0.5).astype(float)
    for word, p in (((0, 0), 1), ((0, 0, 0), 1), ((1, 1), 0), ((1, 1, 1), 0)):
        x = st.graph.vertex_id(word, p)
        ts, errs = nontangential_error(ev, f, x, Cone(x, 1.0), np.geomspace(0.02, 0.4, 7), st.metric)
        assert np.all(np.diff(errs) >= -1e-12)
        assert errs[0] <= 0.1


def test_nontangential_single_mode(stacks):
    st = stacks("interval", 8)
    ev = st.evaluator("dirichlet")
    basis = st.basis("dirichlet")
    phi2 = basis.vectors[:, 1]
    x = st.graph.vertex_id((0,), 1)
    ts, errs = nontangential_error(ev, phi2, x, Cone(x, 1.0), np.geomspace(0.01, 0.3, 6), st.metric)
    assert np.all(np.diff(errs) >= -1e-12)
    assert errs[0] < 0.1 * np.abs(phi2).max()


def test_nontangential_rejects_boundary_dirichlet(stacks):
    st = stacks("interval", 6)
    ev = st.evaluator("dirichlet")
    f = np.zeros(st.graph.n_vertices)
    b0 = int(st.graph.boundary_ids[0])
    with pytest.raises(ValueError):
        nontangential_error(ev, f, b0, Cone(b0, 1.0), [0.1, 0.2], st.metric)


def test_shifted_kernel_constant_finite(stacks):
    st = stacks("interval", 7)
    ev = st.evaluator("neumann")
    x = st.graph.vertex_id((0,), 1)
    c = shifted_kernel_constant(ev, st.metric, x, Cone(x, 1.0), [0.1, 0.3])
    assert math.isfinite(c) and c > 0.0


@pytest.mark.parametrize(
    "preset, m, x_word, apex_word, height, t_grid",
    [
        ("sierpinski", 4, ((0, 1), 2), ((0, 1), 2), math.inf, [0.05, 0.1, 0.3]),
        # x off the apex; t = 0.3 and 0.5 are at or above the height, with no members
        ("interval", 7, ((0,), 1), ((0, 0), 1), 0.3, [0.02, 0.1, 0.3, 0.5]),
    ],
)
def test_shifted_kernel_constant_matches_brute(stacks, preset, m, x_word, apex_word, height, t_grid):
    st = stacks(preset, m)
    ev = st.evaluator("neumann")
    x, apex = st.graph.vertex_id(*x_word), st.graph.vertex_id(*apex_word)
    cone = Cone(apex, 1.0, height)
    c = shifted_kernel_constant(ev, st.metric, x, cone, t_grid)
    expect = brute_shifted_kernel_constant(
        [ev.poisson_matrix(t) for t in t_grid], st.metric.matrix(), ev.d, x, apex, 1.0, height, t_grid
    )
    assert expect > 0.0
    assert c == pytest.approx(expect, rel=1e-12)
    assert shifted_kernel_constant(ev, st.metric, x, cone, [t for t in t_grid if t >= height]) == 0.0


# -- ball-mass lower bounds --------------------------------------------------------------------


def test_ball_mass_whole_space(stacks):
    st = stacks("interval", 7)
    ev = st.evaluator("neumann")
    x = st.graph.vertex_id((0,), 1)
    # alpha so large the matched ball swallows everything
    vals = ball_mass_lower(ev, st.metric, x, 1e4, [0.5, 1.0])
    assert np.abs(vals - 1.0).max() <= 1e-8


def test_ball_mass_positive_and_scaling(stacks):
    for preset, m, x_addr in (("interval", 8, ((0,), 1)), ("sierpinski", 5, ((0, 1), 2))):
        st = stacks(preset, m)
        ev = st.evaluator("neumann")
        x = st.graph.vertex_id(*x_addr)
        alphas = [0.25, 0.5, 1.0, 2.0, 4.0]
        minima = [float(ball_mass_lower(ev, st.metric, x, a, [0.4, 0.2, 0.1]).min()) for a in alphas]
        assert min(minima) > 0.0
        _, ratios = alpha_scaling_fit(alphas, minima)
        assert np.all(ratios >= 0.5) and np.all(ratios <= 2.0)


def test_ball_mass_below_resolution_errors(stacks):
    st = stacks("interval", 5)
    ev = st.evaluator("neumann")
    x = st.graph.vertex_id((0,), 1)
    with pytest.raises(ValueError):
        ball_mass_lower(ev, st.metric, x, 1e-6, [1e-3])


# -- barrier ------------------------------------------------------------------------------------


def test_barrier_empty_set_is_one_plus_t(stacks):
    st = stacks("interval", 6)
    ev = st.evaluator("neumann")
    E = BoundarySet(st.graph, [])
    res = barrier(ev, E, 1.0, [0.1, 0.5], st.metric)
    for i, t in enumerate(res.t_grid):
        assert np.abs(res.values[i] - (1.0 + t)).max() < 1e-9
    assert res.proxies == []


def test_barrier_rejects_full_set(stacks):
    st = stacks("interval", 6)
    ev = st.evaluator("neumann")
    E = BoundarySet(st.graph, [(0,), (1,)])
    with pytest.raises(ValueError):
        barrier(ev, E, 1.0, [0.1, 0.5], st.metric)


def test_barrier_rejects_dirichlet(stacks):
    st = stacks("interval", 6)
    ev = st.evaluator("dirichlet")
    with pytest.raises(ValueError):
        barrier(ev, BoundarySet(st.graph, [(0,)]), 1.0, [0.1], st.metric)


def test_barrier_interval(stacks):
    st = stacks("interval", 10)
    ev = st.evaluator("neumann")
    E = BoundarySet(st.graph, [(0,)])
    assert E.measure == pytest.approx(0.5, abs=1e-12)
    res = barrier(ev, E, 1.0, np.geomspace(0.01, 0.9, 10), st.metric)
    assert res.boundary_min > 0.0
    for dec in res.decay.values():
        assert dec[0] <= dec[-1] + 1e-12
        assert dec[0] <= 0.05


def test_barrier_sierpinski(stacks):
    st = stacks("sierpinski", 6)
    ev = st.evaluator("neumann")
    E = BoundarySet(st.graph, [(0,), (1, 0), (2, 0)])
    res = barrier(ev, E, 1.0, np.geomspace(0.02, 0.9, 10), st.metric)
    assert res.boundary_min > 0.0
    for dec in res.decay.values():
        assert dec[0] <= 0.05


def test_boundary_set_measure(stacks):
    st = stacks("sierpinski", 5)
    E = BoundarySet(st.graph, [(0,), (1, 0)])
    assert E.measure == pytest.approx(1.0 / 3.0 + 1.0 / 9.0, abs=1e-12)


# -- cone covering ---------------------------------------------------------------------------------


def test_cover_interval_example(stacks):
    st = stacks("interval", 8)
    E = BoundarySet(st.graph, [(0, 1), (1, 0)])
    x = st.graph.vertex_id((0,), 1)
    rep = cone_cover_check(st.metric, E, x, 4.0, 1)
    assert rep.covered and rep.n_checked > 0
    assert rep.height == pytest.approx((rep.delta / 4.0), rel=1e-12)


def test_cover_whole_space_trivial(stacks):
    st = stacks("interval", 6)
    E = BoundarySet(st.graph, [(0,), (1,)])
    x = st.graph.vertex_id((0,), 1)
    rep = cone_cover_check(st.metric, E, x, 2.0, 1)
    assert rep.covered


def test_cover_violation_reported_not_raised(stacks):
    st = stacks("interval", 8)
    E = BoundarySet(st.graph, [(0,)])
    x = st.graph.vertex_id((0, 1, 1, 1), 0)  # inside E but near its edge
    rep = cone_cover_check(
        st.metric, E, x, 64.0, 1, t_grid=np.geomspace(0.02, 0.35, 8), height_override=0.4
    )
    assert rep.n_violations > 0 and not rep.covered


def test_cover_requires_density_point(stacks):
    st = stacks("interval", 6)
    E = BoundarySet(st.graph, [(0,)])
    outside = st.graph.vertex_id((1, 1), 0)
    with pytest.raises(ValueError):
        cone_cover_check(st.metric, E, outside, 1.0, 1)


def test_cover_sierpinski_corner(stacks):
    st = stacks("sierpinski", 5)
    E = BoundarySet(st.graph, [(0,)])
    rep = cone_cover_check(st.metric, E, int(st.graph.boundary_ids[0]), 4.0, 1)
    assert rep.covered


# -- exports ------------------------------------------------------------------------------------


def test_export_maximal_and_cone_csv(tmp_path, stacks):
    from pcftube.boundary import export_cone_csv, export_maximal_csv

    st = stacks("interval", 4)
    f = np.ones(st.graph.n_vertices)
    export_maximal_csv(tmp_path / "mf.csv", maximal_function(st.metric, f))
    rows = (tmp_path / "mf.csv").read_text().strip().splitlines()
    assert rows[0] == "x_id,Mf" and len(rows) == 1 + st.graph.n_vertices

    x = st.graph.vertex_id((0,), 1)
    fld = tube_sample(st.evaluator("neumann"), f, [0.1, 0.3])
    export_cone_csv(tmp_path / "cone.csv", fld, Cone(x, 1.0), st.metric)
    import csv

    with open(tmp_path / "cone.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2 * st.graph.n_vertices
    flagged = [r for r in rows if r["in_cone"] == "1"]
    assert flagged, "apex must always belong to its own cone"
    d = st.structure.dim
    R = st.metric.from_vertex(x)
    for r in flagged:
        assert R[int(r["y_id"])] ** (d + 1.0) < float(r["t"]) ** 2


def test_barrier_report_schema(stacks):
    from pcftube.boundary import barrier_report

    st = stacks("interval", 6)
    E = BoundarySet(st.graph, [(0,)])
    res = barrier(st.evaluator("neumann"), E, 1.0, np.geomspace(0.05, 0.8, 6), st.metric)
    report = barrier_report(res)
    assert set(report) == {"min_boundary_value", "n_boundary_samples", "decay_ladder", "t_grid", "proxies"}
    assert report["min_boundary_value"] > 0.0
    assert all(len(v) == 6 for v in report["decay_ladder"].values())
    import json

    json.dumps(report)  # JSON-serializable

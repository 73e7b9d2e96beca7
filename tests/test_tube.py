import math

import numpy as np
import pytest

from pcftube.tube import (
    FATOU_GRID,
    TubeField,
    fatou_batch,
    fatou_consistency,
    harmonic_residual,
    lp_profile,
    max_principle_check,
    tube_sample,
)


def _dirichlet_field(st, f, grid):
    f = np.array(f, dtype=float)
    f[st.graph.boundary_ids] = 0.0
    return f, tube_sample(st.evaluator("dirichlet"), f, grid)


# -- sampling ----------------------------------------------------------------------


def test_tube_sample_single_mode(stacks):
    st = stacks("interval", 8)
    basis = st.basis("dirichlet")
    phi2 = basis.vectors[:, 1]
    grid = np.geomspace(0.1, 1.0, 6)
    fld = tube_sample(st.evaluator("dirichlet"), phi2, grid)
    for i, t in enumerate(grid):
        expect = math.exp(-math.sqrt(basis.eigenvalues[1]) * t) * phi2
        assert np.abs(fld.values[i] - expect).max() < 1e-12


def test_tube_sample_constant_neumann(stacks):
    st = stacks("sierpinski", 4)
    fld = tube_sample(st.evaluator("neumann"), np.ones(st.graph.n_vertices), [0.1, 0.5, 2.0])
    assert np.abs(fld.values - 1.0).max() < 1e-10


def test_tube_sample_sine(stacks):
    st = stacks("interval", 8)
    xs = st.graph.coords[:, 0]
    f = np.sin(np.pi * xs)
    fld = tube_sample(st.evaluator("dirichlet"), f, [0.2, 0.4])
    for i, t in enumerate(fld.t_grid):
        assert np.abs(fld.values[i] - math.exp(-math.pi * t) * f).max() < 1e-4


def test_field_validation():
    class FakeGraph:
        n_vertices = 3
        boundary_ids = np.array([0])

    with pytest.raises(ValueError, match="increasing"):
        TubeField(np.array([0.2, 0.1]), np.zeros((2, 3)), "neumann", FakeGraph())
    with pytest.raises(ValueError, match="finite"):
        TubeField(np.array([0.1, 0.2]), np.full((2, 3), np.nan), "neumann", FakeGraph())
    bad = np.ones((2, 3))
    with pytest.raises(ValueError, match="boundary"):
        TubeField(np.array([0.1, 0.2]), bad, "dirichlet", FakeGraph())


def test_dirichlet_columns_exactly_zero(stacks, rng):
    st = stacks("interval", 8)
    _, fld = _dirichlet_field(st, rng.standard_normal(st.graph.n_vertices), np.geomspace(0.1, 1.0, 5))
    assert np.abs(fld.values[:, st.graph.boundary_ids]).max() == 0.0


# -- harmonicity -------------------------------------------------------------------------


def test_residual_single_mode_refines_quadratically(stacks):
    st = stacks("interval", 8)
    phi2 = st.basis("dirichlet").vectors[:, 1]
    resid = []
    for npts in (17, 33, 65):
        fld = tube_sample(st.evaluator("dirichlet"), phi2, np.linspace(0.3, 1.1, npts))
        resid.append(harmonic_residual(fld, st.form).max_residual)
    assert resid[0] > resid[1] > resid[2]
    assert 2.8 <= resid[0] / resid[1] <= 5.2
    assert 2.8 <= resid[1] / resid[2] <= 5.2


def test_residual_constant_field_zero(stacks):
    st = stacks("interval", 6)
    fld = tube_sample(st.evaluator("neumann"), np.ones(st.graph.n_vertices), np.linspace(0.2, 1.0, 9))
    assert harmonic_residual(fld, st.form).max_residual < 1e-10


def test_residual_mixed_modes_geometric_grid(stacks, rng):
    st = stacks("sierpinski", 4)
    f = rng.standard_normal(st.graph.n_vertices)
    resid = []
    for npts in (17, 33):
        _, fld = _dirichlet_field(st, f, np.geomspace(0.3, 1.2, npts))
        resid.append(harmonic_residual(fld, st.form).max_residual)
    assert resid[1] < resid[0]


def test_residual_needs_three_nodes(stacks):
    st = stacks("interval", 5)
    fld = tube_sample(st.evaluator("dirichlet"), st.basis("dirichlet").vectors[:, 0], [0.2, 0.4])
    with pytest.raises(ValueError):
        harmonic_residual(fld, st.form)


# -- maximum principle ----------------------------------------------------------------------


def test_single_mode_max_on_early_face(stacks):
    st = stacks("interval", 8)
    phi2 = st.basis("dirichlet").vectors[:, 1]
    fld = tube_sample(st.evaluator("dirichlet"), phi2, np.geomspace(0.1, 1.0, 9))
    rep = max_principle_check(fld, 0.1, 1.0)
    assert rep.ok
    assert rep.max_location[0] == pytest.approx(0.1)


def test_constant_field_degenerate_extrema(stacks):
    st = stacks("interval", 6)
    fld = tube_sample(st.evaluator("neumann"), np.ones(st.graph.n_vertices), np.geomspace(0.1, 1.0, 5))
    assert max_principle_check(fld, 0.1, 1.0).ok


def test_nonnegative_field_min_on_boundary_columns(stacks, rng):
    st = stacks("interval", 8)
    f = np.abs(rng.standard_normal(st.graph.n_vertices))
    _, fld = _dirichlet_field(st, f, np.geomspace(0.1, 1.0, 9))
    rep = max_principle_check(fld, 0.1, 1.0)
    assert rep.ok
    assert rep.slab_min >= -1e-12
    assert rep.boundary_min == pytest.approx(0.0, abs=1e-15)


def test_max_principle_seeded_batch(stacks):
    st = stacks("interval", 8)
    rng = np.random.default_rng(123)
    grid = np.geomspace(0.1, 1.0, 9)
    for _ in range(16):
        _, fld = _dirichlet_field(st, rng.standard_normal(st.graph.n_vertices), grid)
        assert max_principle_check(fld, 0.1, 1.0).ok


def test_max_principle_needs_two_slices(stacks):
    st = stacks("interval", 5)
    fld = tube_sample(st.evaluator("dirichlet"), st.basis("dirichlet").vectors[:, 0], [0.1, 0.5, 1.0])
    with pytest.raises(ValueError):
        max_principle_check(fld, 0.7, 0.8)


# -- Fatou reconstruction -------------------------------------------------------------------


def test_fatou_single_mode(stacks):
    st = stacks("interval", 8)
    phi3 = st.basis("dirichlet").vectors[:, 2]
    fld = tube_sample(st.evaluator("dirichlet"), phi3, [0.1, 0.2, 0.3, 0.5])
    assert fatou_consistency(st.evaluator("dirichlet"), fld, 0.1, 0.2) <= 1e-10


def test_fatou_sine_mix(stacks):
    st = stacks("interval", 8)
    xs = st.graph.coords[:, 0]
    f = np.sin(np.pi * xs) + 0.3 * np.sin(3 * np.pi * xs)
    fld = tube_sample(st.evaluator("dirichlet"), f, [0.1, 0.2, 0.3, 0.5])
    assert fatou_consistency(st.evaluator("dirichlet"), fld, 0.1, 0.2) <= 1e-6


def test_fatou_rejects_neumann(stacks):
    st = stacks("interval", 6)
    fld = tube_sample(st.evaluator("neumann"), np.ones(st.graph.n_vertices), [0.1, 0.2, 0.3])
    with pytest.raises(ValueError):
        fatou_consistency(st.evaluator("neumann"), fld, 0.1, 0.1)


def test_fatou_needs_grid_times(stacks):
    st = stacks("interval", 6)
    phi = st.basis("dirichlet").vectors[:, 0]
    fld = tube_sample(st.evaluator("dirichlet"), phi, [0.1, 0.3])
    with pytest.raises(KeyError):
        fatou_consistency(st.evaluator("dirichlet"), fld, 0.1, 0.15)


def test_fatou_batch_fields_and_draws(stacks):
    st = stacks("sierpinski", 4)
    ev = st.evaluator("dirichlet")
    rng = np.random.default_rng(5)
    defects, fields = fatou_batch(ev, rng, 3)
    # one standard normal vector per field, so later draws from rng are the
    # ones a caller would get after three fields of its own
    ref = np.random.default_rng(5)
    for defect, fld in zip(defects, fields):
        f = ref.standard_normal(st.graph.n_vertices)
        f[st.graph.boundary_ids] = 0.0
        assert np.array_equal(fld.t_grid, FATOU_GRID)
        assert np.array_equal(fld.values, ev.poisson_integral(f, np.array(FATOU_GRID)))
        assert defect == fatou_consistency(ev, fld, 0.1, 0.2) and defect <= 1e-10
    assert len(defects) == 3
    assert rng.standard_normal() == ref.standard_normal()


# -- L^p profiles ---------------------------------------------------------------------------


def test_profiles_constant_neumann(stacks):
    st = stacks("interval", 7)
    fld = tube_sample(st.evaluator("neumann"), np.ones(st.graph.n_vertices), np.geomspace(0.1, 1.0, 6))
    for p in (1, 2, math.inf):
        prof = lp_profile(fld, p)
        assert np.abs(prof.norms - 1.0).max() < 1e-10


def test_profile_single_mode_l2(stacks):
    st = stacks("interval", 8)
    basis = st.basis("dirichlet")
    phi2 = basis.vectors[:, 1]
    grid = np.geomspace(0.1, 1.0, 7)
    fld = tube_sample(st.evaluator("dirichlet"), phi2, grid)
    prof = lp_profile(fld, 2)
    expect = np.exp(-math.sqrt(basis.eigenvalues[1]) * grid)
    assert np.abs(prof.norms - expect).max() < 1e-10


def test_profile_l2_monotone_and_contractive(stacks, rng):
    st = stacks("interval", 8)
    f, fld = _dirichlet_field(st, rng.standard_normal(st.graph.n_vertices), np.geomspace(0.1, 1.0, 8))
    mass = st.graph.vertex_mass
    for p, norm in ((1, np.sum(mass * np.abs(f))), (2, math.sqrt(np.sum(mass * f * f))), (math.inf, np.abs(f).max())):
        prof = lp_profile(fld, p)
        assert prof.sup <= norm * (1.0 + 1e-9)
    l2 = lp_profile(fld, 2).norms
    assert np.all(np.diff(l2) <= 1e-12)


def test_profile_atomic_measure_l1_bounded(stacks):
    st = stacks("interval", 8)
    ev = st.evaluator("dirichlet")
    x = st.graph.vertex_id((0,), 1)
    grid = np.geomspace(0.05, 1.0, 8)
    vals = np.vstack([ev.poisson_integral([(x, 1.0)], float(t)) for t in grid])
    fld = TubeField(grid, vals, "dirichlet", st.graph)
    prof = lp_profile(fld, 1)
    assert prof.sup <= 1.0 + 1e-9
    assert math.isfinite(lp_profile(fld, math.inf).fit_exponent)


def test_profile_invalid_p(stacks):
    st = stacks("interval", 5)
    fld = tube_sample(st.evaluator("neumann"), np.ones(st.graph.n_vertices), [0.1, 0.2])
    with pytest.raises(ValueError):
        lp_profile(fld, 3)


def test_positivity_propagation(stacks, rng):
    st = stacks("sierpinski", 4)
    f = np.abs(rng.standard_normal(st.graph.n_vertices))
    fld = tube_sample(st.evaluator("neumann"), f, np.geomspace(0.1, 1.0, 6))
    assert fld.values.min() >= -1e-9 * np.abs(fld.values).max()

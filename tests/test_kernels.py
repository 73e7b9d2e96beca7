import math

import numpy as np
import pytest

from pcftube.kernels import (
    KernelEvaluator,
    TruncationError,
    TruncationPolicy,
    approx_identity_error,
    bound_constant,
    semigroup_defect,
    subordination_transform,
)

from oracles import (
    brute_bound_constant,
    interval_dirichlet_mass,
    interval_heat_neumann,
    interval_poisson_dirichlet,
)


# -- subordination scalar identity -----------------------------------------------------


@pytest.mark.parametrize("beta", [1.0, 5.0, 20.0])
def test_scalar_subordination_identity(beta):
    val = subordination_transform(lambda s: math.exp(-beta * beta * s), 1.0, 1e-12)
    assert abs(val - math.exp(-beta)) <= 1e-10


def test_subordination_rejects_nonpositive_t():
    with pytest.raises(ValueError):
        subordination_transform(lambda s: 1.0, 0.0)


# -- kernel values against classical closed forms ---------------------------------------


def test_heat_theta_function(stacks):
    st = stacks("interval", 11)
    ev = st.evaluator("neumann")
    mid = st.graph.vertex_id((0,), 1)
    assert ev.heat(0.1, mid, mid) == pytest.approx(interval_heat_neumann(0.1, 0.5, 0.5), abs=1e-6)


def test_poisson_closed_form(stacks):
    st = stacks("interval", 11)
    ev = st.evaluator("dirichlet")
    mid = st.graph.vertex_id((0,), 1)
    assert ev.poisson(0.3, mid, mid) == pytest.approx(interval_poisson_dirichlet(0.3, 0.5, 0.5), abs=1e-6)


def test_dirichlet_kernel_vanishes_on_boundary(stacks):
    st = stacks("interval", 8)
    ev = st.evaluator("dirichlet")
    b0 = int(st.graph.boundary_ids[0])
    mid = st.graph.vertex_id((0,), 1)
    for t in (0.05, 0.3, 2.0):
        assert ev.poisson(t, b0, mid) == 0.0
        assert ev.heat(t, b0, mid) == 0.0


def test_neumann_long_time_limit(stacks):
    st = stacks("sierpinski", 4)
    ev = st.evaluator("neumann")
    x, y = int(st.graph.boundary_ids[0]), st.graph.vertex_id((0, 1), 2)
    assert ev.heat(60.0, x, y) == pytest.approx(1.0, abs=1e-10)
    assert ev.poisson(800.0, x, y) == pytest.approx(1.0, abs=1e-10)
    assert ev.poisson_via_subordination(800.0, x, y, 1e-8) == pytest.approx(1.0, abs=1e-6)


def test_kernel_symmetry(stacks):
    for preset, m in (("interval", 7), ("sierpinski", 4)):
        st = stacks(preset, m)
        for bc in ("dirichlet", "neumann"):
            ev = st.evaluator(bc)
            for t in (0.05, 0.3):
                P, H = ev.poisson_matrix(t), ev.heat_matrix(t)
                assert np.array_equal(P, P.T)
                assert np.array_equal(H, H.T)


def test_poisson_rows_match_matrix(stacks):
    st = stacks("sierpinski", 4)
    for bc in ("dirichlet", "neumann"):
        ev = st.evaluator(bc)
        P = ev.poisson_matrix(0.2)
        ids = np.array([0, 5, 17, 5, st.graph.n_vertices - 1])
        rows = ev.poisson_row(0.2, ids)
        assert rows.shape == (ids.size, st.graph.n_vertices)
        assert np.abs(rows - P[ids]).max() < 1e-13
        row = ev.poisson_row(0.2, 17)
        assert row.shape == (st.graph.n_vertices,)
        assert np.abs(row - P[17]).max() < 1e-13


def test_kernel_positivity(stacks):
    for preset, m in (("interval", 8), ("sierpinski", 4)):
        st = stacks(preset, m)
        for bc in ("dirichlet", "neumann"):
            ev = st.evaluator(bc)
            for t in (0.05, 0.2, 0.8):
                assert ev.poisson_matrix(t).min() >= -1e-10
                assert ev.heat_matrix(t).min() >= -1e-10


def test_nonpositive_time_rejected(stacks):
    ev = stacks("interval", 6).evaluator("dirichlet")
    with pytest.raises(ValueError):
        ev.heat(0.0, 0, 0)
    with pytest.raises(ValueError):
        ev.poisson(-0.5, 0, 0)


# -- subordination agreement -----------------------------------------------------------


def test_subordination_agrees_with_series(stacks):
    for preset, m in (("interval", 8), ("sierpinski", 5)):
        st = stacks(preset, m)
        ids = [int(st.graph.boundary_ids[0]), st.graph.vertex_id((0,), 1), st.graph.vertex_id((1,), 0)]
        for bc in ("dirichlet", "neumann"):
            ev = st.evaluator(bc)
            for t in (0.15, 0.6):
                for x in ids:
                    for y in ids[:2]:
                        series = ev.poisson(t, x, y)
                        quad = ev.poisson_via_subordination(t, x, y, 1e-8)
                        assert quad == pytest.approx(series, abs=1e-6)


def test_subordination_small_t_distant_pairs(stacks):
    # At small t the integrand for a distant pair is a narrow peak at small v;
    # (307, 251) at t = 0.01 is a pair whose peak a coarse start missed.
    st = stacks("sierpinski", 5)
    rng = np.random.default_rng(11)
    pairs = [(307, 251)] + [tuple(map(int, p)) for p in rng.integers(0, st.graph.n_vertices, size=(12, 2))]
    for bc in ("dirichlet", "neumann"):
        ev = st.evaluator(bc)
        for t in (0.01, 0.02, 0.03):
            for x, y in pairs:
                assert ev.poisson_via_subordination(t, x, y) == pytest.approx(ev.poisson(t, x, y), abs=1e-6)


# -- Poisson integrals ------------------------------------------------------------------


def test_poisson_integral_eigenmode_identity(stacks):
    st = stacks("interval", 8)
    ev = st.evaluator("dirichlet")
    basis = st.basis("dirichlet")
    k = 3
    phi = basis.vectors[:, k]
    u = ev.poisson_integral(phi, 0.4)
    assert np.abs(u - math.exp(-math.sqrt(basis.eigenvalues[k]) * 0.4) * phi).max() < 1e-12


def test_poisson_integral_constant_neumann(stacks):
    st = stacks("sierpinski", 4)
    ev = st.evaluator("neumann")
    for t in (0.1, 1.0):
        assert np.abs(ev.poisson_integral(np.ones(st.graph.n_vertices), t) - 1.0).max() < 1e-10


def test_poisson_integral_sine_mode(stacks):
    st = stacks("interval", 8)
    ev = st.evaluator("dirichlet")
    xs = st.graph.coords[:, 0]
    f = np.sin(np.pi * xs)
    u = ev.poisson_integral(f, 0.3)
    assert np.abs(u - math.exp(-math.pi * 0.3) * f).max() < 1e-4


def test_poisson_integral_atoms_match_row(stacks):
    st = stacks("interval", 7)
    ev = st.evaluator("dirichlet")
    x = st.graph.vertex_id((0,), 1)
    u = ev.poisson_integral([(x, 1.0)], 0.25)
    assert np.abs(u - ev.poisson_row(0.25, x)).max() < 1e-12


# -- semigroup property ------------------------------------------------------------------


def test_semigroup_defects(stacks):
    for preset, m in (("interval", 8), ("sierpinski", 5)):
        st = stacks(preset, m)
        for bc in ("dirichlet", "neumann"):
            ev = st.evaluator(bc)
            assert semigroup_defect(ev, 0.2, 0.2, "poisson") <= 1e-6
            assert semigroup_defect(ev, 0.2, 0.2, "heat") <= 1e-6


def test_semigroup_long_time_neumann(stacks):
    ev = stacks("interval", 7).evaluator("neumann")
    assert semigroup_defect(ev, 6.0, 6.0, "poisson") <= 1e-8


def test_semigroup_defect_rejects_kind(stacks):
    with pytest.raises(ValueError):
        semigroup_defect(stacks("interval", 6).evaluator("neumann"), 0.1, 0.1, "wave")


# -- kernel mass ---------------------------------------------------------------------------


def test_neumann_mass_is_one(stacks):
    for preset, m in (("interval", 8), ("sierpinski", 5)):
        st = stacks(preset, m)
        ev = st.evaluator("neumann")
        for t in (0.4, 0.2, 0.1, 0.05):
            for x in range(0, st.graph.n_vertices, max(1, st.graph.n_vertices // 24)):
                assert abs(ev.kernel_mass(t, x) - 1.0) <= 1e-8


def test_dirichlet_mass_zero_on_boundary(stacks):
    st = stacks("interval", 8)
    ev = st.evaluator("dirichlet")
    for t in (0.1, 0.5):
        assert ev.kernel_mass(t, int(st.graph.boundary_ids[0])) == 0.0


def test_dirichlet_mass_monotone_toward_one(stacks):
    st = stacks("interval", 8)
    ev = st.evaluator("dirichlet")
    mid = st.graph.vertex_id((0,), 1)
    masses = [ev.kernel_mass(t, mid) for t in (0.4, 0.2, 0.1, 0.05)]
    assert all(a < b for a, b in zip(masses, masses[1:]))
    assert masses[0] == pytest.approx(interval_dirichlet_mass(0.4), abs=5e-4)
    assert masses[-1] == pytest.approx(interval_dirichlet_mass(0.05), abs=5e-4)


def test_dirichlet_mass_small_time(stacks):
    st = stacks("interval", 10)
    ev = st.evaluator("dirichlet")
    mid = st.graph.vertex_id((0,), 1)
    assert ev.kernel_mass(0.01, mid) >= 0.95


# -- truncation policy ------------------------------------------------------------------------


def test_tail_estimate_monotone_in_t(stacks):
    ev = stacks("interval", 8).evaluator("dirichlet")
    taus = [ev.achievable_tau(t) for t in (0.02, 0.05, 0.2)]
    assert taus[0] > taus[1] > taus[2]


def test_t_min_reporting(stacks):
    st = stacks("interval", 8)
    ev = st.evaluator("dirichlet")
    t_floor = ev.t_min()
    assert 0.0 < t_floor < 0.1
    assert ev.resolvable(2.0 * t_floor)


def test_enforced_policy_raises_below_floor(stacks):
    st = stacks("interval", 8)
    ev = st.evaluator("dirichlet", tail_tol=1e-8, enforce=True)
    with pytest.raises(TruncationError) as err:
        ev.poisson(1e-3, 0, 0)
    assert err.value.achievable > 1e-8


def test_fixed_mode_truncation(stacks):
    st = stacks("interval", 8)
    basis = st.basis("dirichlet")
    ev = KernelEvaluator(basis, TruncationPolicy(n_modes=5, tail_tol=None))
    x = st.graph.vertex_id((0,), 1)
    w = np.exp(-np.sqrt(basis.eigenvalues[:5]) * 0.2)
    expect = float(np.sum(w * basis.vectors[x, :5] ** 2))
    assert ev.poisson(0.2, x, x) == pytest.approx(expect, abs=1e-15)


def test_tail_estimate_dominates_truncation_effect(stacks):
    st = stacks("interval", 8)
    full = st.evaluator("dirichlet")
    trunc = KernelEvaluator(st.basis("dirichlet"), TruncationPolicy(n_modes=64))
    x = st.graph.vertex_id((0,), 1)
    y = st.graph.vertex_id((0, 0), 1)
    for t in (0.05, 0.1, 0.2):
        omitted = abs(full.poisson(t, x, y) - trunc.poisson(t, x, y))
        assert omitted <= trunc.achievable_tau(t)


# -- bounds and approximation of the identity ----------------------------------------------


def test_bound_constant_finite_and_stable(stacks):
    vals = {}
    for m in (7, 8):
        st = stacks("interval", m)
        ev = st.evaluator("dirichlet")
        ids = list(range(0, st.graph.n_vertices, max(1, st.graph.n_vertices // 12)))
        pairs = [(x, y) for x in ids for y in ids if x <= y]
        rep = bound_constant(ev, st.metric, np.geomspace(0.05, 1.0, 5), pairs)
        assert math.isfinite(rep.C) and math.isfinite(rep.C_prime)
        vals[m] = rep
    assert abs(vals[8].C / vals[7].C - 1.0) < 0.3
    assert abs(vals[8].C_prime / vals[7].C_prime - 1.0) < 0.3


def test_bound_constant_diagonal_branch(stacks):
    st = stacks("interval", 7)
    ev = st.evaluator("dirichlet")
    x = st.graph.vertex_id((0,), 1)
    rep = bound_constant(ev, st.metric, [0.2], [(x, x)])
    d = ev.d
    expect = ev.poisson(0.2, x, x) / 0.2 ** (-2.0 * d / (d + 1.0))
    assert rep.C == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize(
    "preset, m, bc, explicit",
    [("vicsek", 3, "dirichlet", False), ("sierpinski", 4, "neumann", False), ("interval", 7, "dirichlet", True)],
)
def test_bound_constant_matches_brute(stacks, preset, m, bc, explicit):
    st = stacks(preset, m)
    ev = st.evaluator(bc)
    n = st.graph.n_vertices
    t_grid = list(np.geomspace(0.05, 1.0, 3))
    if explicit:
        b0 = int(st.graph.boundary_ids[0])
        pairs = [(b0, 7), (3, 3), (40, 9), (9, 40), (b0, b0), (64, 100), (0, n - 1), (20, 21)]
    else:
        pairs = None
    rep = bound_constant(ev, st.metric, t_grid, pairs)
    brute_pairs = [(x, y) for x in range(n) for y in range(x, n)] if pairs is None else pairs
    C, C_at, C_prime, C_prime_at = brute_bound_constant(
        [ev.poisson_matrix(t) for t in t_grid], st.metric.matrix(), ev.d, t_grid, brute_pairs
    )
    assert rep.C == pytest.approx(C, rel=1e-12)
    assert rep.C_prime == pytest.approx(C_prime, rel=1e-12)
    assert rep.C_at == C_at
    assert rep.C_prime_at == C_prime_at


def test_approx_identity_single_mode_exact(stacks):
    st = stacks("interval", 8)
    basis = st.basis("dirichlet")
    ev = st.evaluator("dirichlet")
    phi2 = basis.vectors[:, 1]
    ladder = [0.2, 0.1, 0.05, 0.02]
    rep = approx_identity_error(ev, phi2, ladder)
    for t, err in zip(ladder, rep.sup_errors):
        expect = (1.0 - math.exp(-math.sqrt(basis.eigenvalues[1]) * t)) * np.abs(phi2).max()
        assert err == pytest.approx(expect, abs=1e-10)
    assert all(a > b for a, b in zip(rep.sup_errors, rep.sup_errors[1:]))


def test_approx_identity_constant_neumann(stacks):
    st = stacks("interval", 8)
    ev = st.evaluator("neumann")
    rep = approx_identity_error(ev, np.ones(st.graph.n_vertices), [0.2, 0.05])
    assert max(rep.sup_errors) < 1e-10


def test_approx_identity_coordinate_neumann(stacks):
    st = stacks("interval", 8)
    ev = st.evaluator("neumann")
    f = st.graph.coords[:, 0] - 0.5
    rep = approx_identity_error(ev, f, [0.2, 0.1, 0.05, 0.02])
    assert all(a > b for a, b in zip(rep.sup_errors, rep.sup_errors[1:]))
    assert all(a > b for a, b in zip(rep.l1_errors, rep.l1_errors[1:]))
    assert all(a > b for a, b in zip(rep.l2_errors, rep.l2_errors[1:]))


def test_approx_identity_dirichlet_requires_vanishing(stacks):
    st = stacks("interval", 8)
    ev = st.evaluator("dirichlet")
    with pytest.raises(ValueError):
        approx_identity_error(ev, np.ones(st.graph.n_vertices), [0.1])

import dataclasses
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from pcftube.boundary import Cone, shifted_kernel_constant
from pcftube.core import build_level, load_structure
from pcftube.kernels import (
    KernelEvaluator,
    approx_identity_error,
    bound_constant,
    kernel_min,
    semigroup_defect,
    subordination_transform,
)
from pcftube.spectral import EigenBasis, eigensystem, energy_matrix

from oracles import (
    brute_bound_constant,
    full_kernel_min,
    full_mode_kernel,
    full_resistance,
    full_semigroup_defect,
    interval_dirichlet_mass,
    interval_heat_neumann,
    interval_poisson_dirichlet,
    simpson_subordination,
)


# -- subordination scalar identity -----------------------------------------------------


@pytest.mark.parametrize("beta", [1.0, 5.0, 20.0])
def test_scalar_subordination_identity(beta):
    val = subordination_transform(lambda s: np.exp(-beta * beta * s), 1.0, 1e-12)
    assert abs(val - math.exp(-beta)) <= 1e-10


def test_subordination_rejects_nonpositive_t():
    with pytest.raises(ValueError):
        subordination_transform(lambda s: 1.0, 0.0)

    def h(s):
        raise AssertionError("integrand evaluated")

    with pytest.raises(ValueError):
        subordination_transform(h, -1.0)


@pytest.mark.parametrize("beta", [0.1, 1.0, 5.0, 20.0, 100.0])
@pytest.mark.parametrize("t", [0.05, 1.0, 3.0])
def test_gauss_panels_match_simpson_on_exponentials(beta, t):
    # (2/sqrt(pi)) int exp(-v^2) exp(-beta^2 t^2 / (4 v^2)) dv = exp(-beta t).
    tol = 1e-10
    gauss = subordination_transform(lambda s: np.exp(-beta * beta * s), t, tol)
    simpson = simpson_subordination(lambda s: math.exp(-beta * beta * s), t, tol)
    assert abs(gauss - math.exp(-beta * t)) <= tol
    assert abs(simpson - math.exp(-beta * t)) <= tol
    # a constant: the whole integral of the weight, head piece included
    assert subordination_transform(lambda s: np.ones_like(s), t, tol) == pytest.approx(1.0, abs=tol)


def test_subordination_batch_shape():
    betas = np.array([[1.0], [2.0], [3.0]])
    vals = subordination_transform(lambda s: np.exp(-np.multiply.outer(betas**2, s)), 0.5, 1e-10)
    assert vals.shape == (3, 1)
    assert np.abs(vals - np.exp(-0.5 * betas)).max() <= 1e-10


@pytest.mark.parametrize(
    "h",
    [lambda s: np.sign(np.sin(1e6 * s)), lambda s: np.full(np.shape(s), np.nan)],
    ids=["noise", "nan"],
)
def test_subordination_unresolvable_integrand_raises(h):
    with pytest.raises(RuntimeError, match="did not converge"):
        subordination_transform(h, 0.3)


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


CUT_STACKS = [("interval", 8), ("sierpinski", 5), ("vicsek", 3)]
CUT_TIMES = (0.01, 0.05, 0.4, 5.0, 50.0)


@pytest.mark.parametrize("preset, m", CUT_STACKS)
@pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
def test_underflow_cut_is_exact(stacks, preset, m, bc):
    st = stacks(preset, m)
    ev = st.evaluator(bc)
    V = ev.vectors
    ids = np.array([0, 3, st.graph.n_vertices // 2, st.graph.n_vertices - 1])
    for t in CUT_TIMES:
        assert np.array_equal(ev.heat_matrix(t), full_mode_kernel(V, ev.lam, t))
        assert np.array_equal(ev.poisson_matrix(t), full_mode_kernel(V, ev.sqrt_lam, t))
        assert np.array_equal(ev.poisson_row(t, ids), full_mode_kernel(V, ev.sqrt_lam, t, ids, slice(None)))
    # The comparison covers the cut: from t = 0.05 on the heat series keeps a
    # fraction of the modes, at t = 50 no more than two.
    assert ev._live(ev.lam, 0.05) < ev.lam.size / 2
    assert ev._live(ev.lam, 50.0) <= 2


def test_underflow_cut_keeps_every_term_of_a_subnormal_sum():
    # Two synthetic modes with |phi| = 1, so cut = 1075 ln 2 + 1.  At t = 1
    # mode 0 contributes e^-735 (subnormal) and mode 1 e^-(cut - 2), about
    # 1.36 * 2^-1074: the exact cut keeps it and it moves the sum by at least
    # one ulp, so a cut lowered by two e-folds or more drops a nonzero term.
    G = build_level(load_structure("interval"), 1)
    lam = np.array([735.0, 1075.0 * math.log(2.0) - 1.0])
    V = np.ones((G.n_vertices, 2))
    ev = KernelEvaluator(EigenBasis("neumann", G, lam, V, G.vertex_mass, residuals=np.zeros(2), sup_norms=np.ones(2)))
    H = full_mode_kernel(V, lam, 1.0)
    assert 0.0 < H.min() and H.max() < np.finfo(float).tiny
    assert not np.array_equal(H, full_mode_kernel(V[:, :1], lam[:1], 1.0))
    assert np.array_equal(ev.heat_matrix(1.0), H)
    assert ev.heat(1.0, 0, 2) == float(full_mode_kernel(V, lam, 1.0, 0, 2))
    assert ev.heat(1.0, 0, 2) != float(full_mode_kernel(V[:, :1], lam[:1], 1.0, 0, 2))


@pytest.mark.parametrize("preset, m", CUT_STACKS)
@pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
def test_underflow_cut_scalars(stacks, preset, m, bc):
    # A 1-D dot pairs its partial sums by vector length, so scalars agree to
    # roundoff rather than bit for bit.
    st = stacks(preset, m)
    ev = st.evaluator(bc)
    V = ev.vectors
    pairs = [(1, 1), (0, st.graph.n_vertices - 1), (3, st.graph.n_vertices // 2)]
    for t in CUT_TIMES:
        for x, y in pairs:
            ref = float(full_mode_kernel(V, ev.lam, t, x, y))
            assert abs(ev.heat(t, x, y) - ref) <= 1e-15 * max(1.0, abs(ref))
            assert abs(ev.heat_profile(t, x, y) - ref) <= 1e-15 * max(1.0, abs(ref))
            ref = float(full_mode_kernel(V, ev.sqrt_lam, t, x, y))
            assert abs(ev.poisson(t, x, y) - ref) <= 1e-15 * max(1.0, abs(ref))


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


def test_subordination_matches_simpson_on_sampled_pairs(stacks):
    tol = 1e-8
    for preset, m in (("sierpinski", 4), ("vicsek", 2)):
        st = stacks(preset, m)
        rng = np.random.default_rng(5)
        pairs = rng.integers(0, st.graph.n_vertices, size=(4, 2)).tolist()
        for bc in ("dirichlet", "neumann"):
            ev = st.evaluator(bc)
            V, lam = ev.vectors, ev.lam
            for t in (0.03, 0.3):
                for x, y in pairs:
                    coef = V[x] * V[y]
                    simpson = simpson_subordination(
                        lambda s: float(coef @ np.exp(-lam * s)), t, tol, float(coef[lam == 0.0].sum())
                    )
                    gauss = ev.poisson_via_subordination(t, x, y, tol)
                    assert abs(gauss - simpson) <= 2.0 * tol
                    assert abs(gauss - ev.poisson(t, x, y)) <= tol


def test_batched_subordination_agrees_with_pairs(stacks):
    tol = 1e-8
    st = stacks("sierpinski", 5)
    rng = np.random.default_rng(3)
    xs, ys = rng.integers(0, st.graph.n_vertices, size=(2, 9))
    for bc in ("dirichlet", "neumann"):
        ev = st.evaluator(bc)
        for t in (0.02, 0.2, 0.9):
            batch = ev.poisson_via_subordination(t, xs, ys, tol)
            assert batch.shape == (9,)
            for value, x, y in zip(batch, xs, ys):
                assert abs(value - ev.poisson_via_subordination(t, x, y, tol)) <= tol
                assert abs(value - ev.poisson(t, x, y)) <= tol


def test_heat_profile_panels_match_scalars(stacks):
    ev = stacks("sierpinski", 4).evaluator("neumann")
    s = np.array([[0.5, 1e-3, 2.0], [1e4, 1e-6, 3e-2]])
    xs, ys = np.array([0, 7, 30]), np.array([12, 7, 1])
    table = ev.heat_profile(s, xs, ys)
    assert table.shape == (3, 2, 3)
    for i, (x, y) in enumerate(zip(xs, ys)):
        assert ev.heat_profile(s, x, y).shape == s.shape
        for j, k in np.ndindex(s.shape):
            ref = ev.heat_profile(float(s[j, k]), x, y)
            assert isinstance(ref, float)
            # the same live terms, summed in another order
            assert abs(table[i, j, k] - ref) <= 1e-14 * max(1.0, abs(ref))
    # at the times of the first quadrature panel only the zero mode is live:
    # 1 / total mass for Neumann, nothing for Dirichlet
    assert ev.heat_profile(1e12, 0, 12) == pytest.approx(1.0 / ev.mass.sum(), rel=1e-12)
    assert stacks("sierpinski", 4).evaluator("dirichlet").heat_profile(1e12, 0, 12) == 0.0


def test_subordination_vicsek_distant_pair(stacks):
    # Dirichlet P(0.0202, 291, 938) at vicsek m=4 is 1.39e-3 by the series;
    # recursive Simpson on wider panels once read 6.2e-8 for it.
    ev = stacks("vicsek", 4).evaluator("dirichlet")
    series = ev.poisson(0.0202, 291, 938)
    assert series == pytest.approx(1.39e-3, rel=5e-3)
    assert abs(ev.poisson_via_subordination(0.0202, 291, 938) - series) <= 1e-7


def test_smooth_pair_needs_few_integrand_calls(stacks):
    # One round of both rules on the initial panels and at most one
    # refinement round (one round measured).
    ev = stacks("sierpinski", 5).evaluator("neumann")
    calls = []

    def h(s):
        calls.append(np.shape(s))
        return ev.heat_profile(s, 3, 40)

    for t in (0.2, 0.5):
        calls.clear()
        subordination_transform(h, t, 1e-8)
        assert len(calls) <= 2


def test_subordination_peak_memory(stacks):
    # No table of all modes at all nodes (about 14 MB here): each panel sums
    # its own live modes.
    st = stacks("sierpinski", 6)
    ev = st.evaluator("dirichlet")
    x, y = st.graph.vertex_id((0, 1), 2), st.graph.vertex_id((2,), 0)
    assert _traced_peak(lambda: ev.poisson_via_subordination(0.2, x, y, 1e-8)) < 2**20


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


def test_poisson_integral_time_ladder(stacks, rng):
    st = stacks("sierpinski", 4)
    ts = np.array([0.05, 0.2, 0.2, 1.0, 7.5])
    rows = np.array([40, 3, 17, 3])
    for bc in ("dirichlet", "neumann"):
        ev = st.evaluator(bc)
        f = rng.standard_normal(st.graph.n_vertices)
        atoms = [(5, 0.5), (17, -2.0), (5, 1.25)]
        for g in (f, atoms):
            # The ladder is one product, summed in another order than one time
            # or one set of rows alone; two sums of the same n terms differ by
            # at most 2 n eps sum |terms|.
            terms = np.abs(np.exp(-np.multiply.outer(ts, ev.sqrt_lam)) * ev.coefficients(g)) @ np.abs(ev.vectors).T
            bound = 2.0 * ev.lam.size * np.finfo(float).eps * terms
            U = ev.poisson_integral(g, ts)
            assert U.shape == (ts.size, st.graph.n_vertices)
            for i, t in enumerate(ts):
                assert np.all(np.abs(U[i] - ev.poisson_integral(g, t)) <= bound[i])
            assert np.all(np.abs(ev.poisson_integral(g, ts, rows) - U[:, rows]) <= bound[:, rows])
            assert ev.poisson_integral(g, 0.2, rows).shape == rows.shape
            assert ev.poisson_integral(g, ts, 17).shape == ts.shape
        assert ev.poisson_integral(f, ts[:0]).shape == (0, st.graph.n_vertices)


def test_poisson_integral_ladder_enforces_every_time(stacks, monkeypatch):
    st = stacks("interval", 8)
    ev = KernelEvaluator(st.basis("dirichlet"))
    f = np.zeros(st.graph.n_vertices)
    f[5] = 1.0
    ev.poisson_integral(f, [0.3, 0.5])

    def projected(_):
        raise AssertionError("f was projected before every time was checked")

    monkeypatch.setattr(ev, "coefficients", projected)
    with pytest.raises(ValueError):
        ev.poisson_integral(f, [0.3, 0.0, 0.5])


# -- semigroup property ------------------------------------------------------------------


def test_semigroup_defects(stacks):
    for preset, m in (("interval", 8), ("sierpinski", 5)):
        st = stacks(preset, m)
        for bc in ("dirichlet", "neumann"):
            ev = st.evaluator(bc)
            assert semigroup_defect(ev, 0.2, 0.2, "poisson") <= 1e-6
            assert semigroup_defect(ev, 0.2, 0.2, "heat") <= 1e-6


def test_semigroup_defect_at_equal_times_is_the_two_matrix_product(stacks):
    # the orbit-row composition through the eigenvectors reads the defect of
    # the whole two-matrix product up to roundoff: both are roundoff figures,
    # up to 46 ulps of max |K| on the presets
    for bc in ("dirichlet", "neumann"):
        ev = stacks("sierpinski", 5).evaluator(bc)
        for kind, mat in (("poisson", ev.poisson_matrix), ("heat", ev.heat_matrix)):
            tol = 128 * np.spacing(np.abs(mat(0.4)).max())
            assert abs(semigroup_defect(ev, 0.2, 0.2, kind) - full_semigroup_defect(ev, 0.2, 0.2, kind)) <= tol
    ev = stacks("sierpinski", 5).evaluator("neumann")
    tol = 128 * np.spacing(np.abs(ev.heat_matrix(0.4)).max())
    assert abs(semigroup_defect(ev, 0.1, 0.3, "heat") - full_semigroup_defect(ev, 0.1, 0.3, "heat")) <= tol


ORBIT_STACKS = [("interval", 8), ("sierpinski", 5), ("vicsek", 3)]


@pytest.mark.parametrize("preset, m", ORBIT_STACKS)
@pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
@pytest.mark.parametrize("kind", ["poisson", "heat"])
def test_orbit_row_checks_match_the_whole_matrix(stacks, preset, m, bc, kind):
    # K(g x, g y) = K(x, y): the orbit-representative rows hold every entry,
    # so min and max |defect| over them are the whole-matrix values up to the
    # roundoff of the two routes (measured: the minima within 0.75 ulp of
    # max |K|, the defects, themselves roundoff figures, within 46)
    ev = stacks(preset, m).evaluator(bc)
    mat = ev.poisson_matrix if kind == "poisson" else ev.heat_matrix
    for t, s in ((0.05, 0.05), (0.2, 0.2), (0.1, 0.3)):
        tol = 128 * np.spacing(np.abs(mat(t + s)).max())
        assert abs(semigroup_defect(ev, t, s, kind) - full_semigroup_defect(ev, t, s, kind)) <= tol
    for t in (0.05, 0.2, 0.8):
        tol = 4 * np.spacing(max(np.abs(ev.poisson_matrix(t)).max(), np.abs(ev.heat_matrix(t)).max()))
        assert abs(kernel_min(ev, t) - full_kernel_min(ev, t)) <= tol


@pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
def test_orbit_row_checks_without_symmetry_read_every_row(bc):
    G = build_level(load_structure({"preset": "sierpinski", "mu": [0.2, 0.3, 0.5]}), 4)
    assert np.array_equal(G.orbit_representatives(), np.arange(G.n_vertices))
    ev = KernelEvaluator(eigensystem(energy_matrix(G), bc))
    for kind, mat in (("poisson", ev.poisson_matrix), ("heat", ev.heat_matrix)):
        tol = 128 * np.spacing(np.abs(mat(0.4)).max())
        assert abs(semigroup_defect(ev, 0.2, 0.2, kind) - full_semigroup_defect(ev, 0.2, 0.2, kind)) <= tol
    tol = 4 * np.spacing(max(np.abs(ev.poisson_matrix(0.05)).max(), np.abs(ev.heat_matrix(0.05)).max()))
    assert abs(kernel_min(ev, 0.05) - full_kernel_min(ev, 0.05)) <= tol


@pytest.mark.parametrize("preset, m", ORBIT_STACKS)
@pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
@pytest.mark.parametrize("kind", ["poisson", "heat"])
def test_orbit_rows_see_an_injected_equivariant_defect(stacks, preset, m, bc, kind):
    # A measure off by the factor 1 + delta commutes with the group and makes
    # every composition (1 + delta) K_(t+s).  (Scaling the eigenvalues instead
    # keeps e^(-lambda t) e^(-lambda s) = e^(-lambda (t + s)): no defect.)
    delta = 1e-2
    basis = stacks(preset, m).basis(bc)
    ev = KernelEvaluator(dataclasses.replace(basis, mass=basis.mass * (1.0 + delta)))
    mat = ev.poisson_matrix if kind == "poisson" else ev.heat_matrix
    dev = semigroup_defect(ev, 0.2, 0.2, kind)
    assert dev == pytest.approx(full_semigroup_defect(ev, 0.2, 0.2, kind), rel=1e-12)
    assert dev == pytest.approx(delta * np.abs(mat(0.4)).max(), rel=1e-12)


def _traced_peak(body) -> int:
    """Peak bytes traced while body() runs, after one untraced warm-up call."""
    body()
    tracemalloc.start()
    try:
        body()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_check_peaks_in_dense_arrays(stacks):
    # Peaks in units of one n x n float64 array.  At sierpinski m=5 (measured):
    # semigroup_defect 0.77, kernel_min 0.42.  The shifted-kernel blocks and
    # the gram_deviation strips hold about 2**17 entries each up to n = 1145,
    # which is one whole array at m=5, so those peaks are read at m=6 (0.34
    # and 0.31 measured).
    st = stacks("sierpinski", 5)
    dense = 8 * st.graph.n_vertices**2
    for bc in ("dirichlet", "neumann"):
        ev = st.evaluator(bc)
        for kind in ("poisson", "heat"):
            assert _traced_peak(lambda: semigroup_defect(ev, 0.2, 0.2, kind)) < dense
        assert _traced_peak(lambda: kernel_min(ev, 0.05)) < dense
    st = stacks("sierpinski", 6)
    dense = 8 * st.graph.n_vertices**2
    ev, x = st.evaluator("neumann"), st.graph.vertex_id((0, 1), 2)
    peak = _traced_peak(lambda: shifted_kernel_constant(ev, st.metric, x, Cone(x, 1.0), [0.1, 0.3]))
    assert peak < 0.5 * dense
    for bc in ("dirichlet", "neumann"):
        assert _traced_peak(st.basis(bc).gram_deviation) <= 0.5 * dense


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
    taus = [ev.tail_estimate(t) for t in (0.02, 0.05, 0.2)]
    assert taus[0] > taus[1] > taus[2]


def test_t_min_reporting(stacks):
    st = stacks("interval", 8)
    ev = st.evaluator("dirichlet")
    t_floor = ev.t_min()
    assert 0.0 < t_floor < 0.1
    assert ev.resolvable(2.0 * t_floor)


def _truncated(basis, k):
    return dataclasses.replace(
        basis,
        eigenvalues=basis.eigenvalues[:k],
        vectors=basis.vectors[:, :k],
        residuals=basis.residuals[:k],
        sup_norms=basis.sup_norms[:k],
    )


def test_fixed_mode_truncation(stacks):
    st = stacks("interval", 8)
    basis = st.basis("dirichlet")
    ev = KernelEvaluator(_truncated(basis, 5))
    x = st.graph.vertex_id((0,), 1)
    w = np.exp(-np.sqrt(basis.eigenvalues[:5]) * 0.2)
    expect = float(np.sum(w * basis.vectors[x, :5] ** 2))
    assert ev.poisson(0.2, x, x) == pytest.approx(expect, abs=1e-15)


def test_tail_estimate_dominates_truncation_effect(stacks):
    st = stacks("interval", 8)
    full = st.evaluator("dirichlet")
    trunc = KernelEvaluator(_truncated(st.basis("dirichlet"), 64))
    x = st.graph.vertex_id((0,), 1)
    y = st.graph.vertex_id((0, 0), 1)
    for t in (0.05, 0.1, 0.2):
        omitted = abs(full.poisson(t, x, y) - trunc.poisson(t, x, y))
        assert omitted <= trunc.tail_estimate(t)


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
        [ev.poisson_matrix(t) for t in t_grid], full_resistance(st.basis("neumann")), ev.d, t_grid, brute_pairs
    )
    assert rep.C == pytest.approx(C, rel=1e-12)
    assert rep.C_prime == pytest.approx(C_prime, rel=1e-12)
    assert rep.C_at == C_at
    assert rep.C_prime_at == C_prime_at


class _StubEvaluator:
    """Poisson matrices given per t on three vertices, with d = 1."""

    d = 1.0
    graph = SimpleNamespace(n_vertices=3)

    def __init__(self, by_t):
        self.by_t = by_t

    def poisson_matrix(self, t):
        return self.by_t[t]


def test_bound_constant_location_ignores_roundoff_ties():
    # With R = 1 off the diagonal and d = 1 both branches of the bound are
    # 0.5 at t = 0.5 and t = 2, and 1 at t = 1, so each ratio is P / bound
    # exactly.  At t = 0.5 the later pair is larger by one ulp; at t = 2 both
    # beat it by one more.  Neither moves C_at; the genuine gain at t = 1 does.
    ulp = float(np.spacing(0.5))

    def matrix(p01, p12):
        P = np.full((3, 3), 0.25)
        P[0, 1] = P[1, 0] = p01
        P[1, 2] = P[2, 1] = p12
        return P

    R = 1.0 - np.eye(3)
    metric = SimpleNamespace(pairs=lambda xs, ys: R[xs, ys])
    pairs = [(0, 1), (1, 2)]
    ev = _StubEvaluator({0.5: matrix(0.5, 0.5 + ulp), 2.0: matrix(0.5 + 2 * ulp, 0.5 + 2 * ulp)})
    rep = bound_constant(ev, metric, [0.5, 2.0], pairs)
    assert rep.C == 2.0 * (0.5 + 2 * ulp)
    assert rep.C_at == (0.5, 0, 1)
    assert rep.C_prime_at[1:] == (0, 1)
    ev.by_t[1.0] = matrix(0.5, 1.5)
    rep = bound_constant(ev, metric, [0.5, 2.0, 1.0], pairs)
    assert (rep.C, rep.C_at) == (1.5, (1.0, 1, 2))
    expect = brute_bound_constant([ev.by_t[t] for t in (0.5, 2.0, 1.0)], R, 1.0, [0.5, 2.0, 1.0], pairs)
    assert (rep.C, rep.C_at, rep.C_prime, rep.C_prime_at) == expect


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

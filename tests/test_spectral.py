import dataclasses
import itertools
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import pcftube.spectral as spectral
from pcftube.core import BudgetError, build_level, load_structure
from pcftube.spectral import (
    EIG_RTOL,
    eigen_growth_constants,
    eigensystem,
    energy_matrix,
    harmonic_extension,
    rayleigh_quotient,
    supnorm_ratio,
    weyl_exponent,
)

from oracles import (
    argmax_signs,
    bincount_energy_matrix,
    decimation_branch,
    dense_harmonic_extension,
    dense_residuals,
    dense_slot_basis,
    full_eigh,
    gasket_brute_dirichlet_matrix,
    gasket_lambda1,
    interval_dirichlet_lambda,
    isotypic_projector,
    layout_back_transform,
    loop_energy_matrix,
    whole_array_tail,
)

from test_core import CENTER_CELL, REFLECTED

SMALL_STACKS = (("interval", 8), ("sierpinski", 5), ("vicsek", 3))


# -- energy assembly --------------------------------------------------------------


def test_interval_level1_energy_by_hand():
    G = build_level(load_structure("interval"), 1)
    form = energy_matrix(G)
    i0, i1 = G.boundary_ids
    imid = G.vertex_id((0,), 1)
    f = np.zeros(3)
    f[i0], f[imid], f[i1] = 1.0, -0.5, 2.0
    expected = 2.0 * (f[i0] - f[imid]) ** 2 + 2.0 * (f[imid] - f[i1]) ** 2
    assert form.energy(f) == pytest.approx(expected, abs=1e-12)


def test_energy_matrix_matches_cell_loop(stacks):
    for preset, m in SMALL_STACKS:
        st = stacks(preset, m)
        assert np.array_equal(st.form.apply(np.eye(st.graph.n_vertices)), loop_energy_matrix(st.graph))


@pytest.mark.parametrize(
    "config, m",
    [("interval", m) for m in (0, 1, 8)]
    + [("sierpinski", m) for m in (0, 1, 5, 6)]
    + [("vicsek", m) for m in (1, 4)]
    + [({"preset": "sierpinski", "mu": [0.2, 0.3, 0.5]}, 4), ({"preset": "sierpinski", "r": [0.6, 0.5, 0.4]}, 4)]
    + [(REFLECTED, 4), (CENTER_CELL, 3)],
)
def test_energy_matrix_matches_dense_bincount(config, m):
    G = build_level(load_structure(config), m)
    form = energy_matrix(G)
    n = G.n_vertices
    # apply(I) reads each stencil value once, times one, plus exact zeros
    E = form.apply(np.eye(n))
    ref = bincount_energy_matrix(G)
    assert E.dtype == ref.dtype and E.tobytes() == ref.tobytes()
    # one vector per row of X
    X = np.random.default_rng(3).standard_normal((4, n))
    tol = 1e-13 * np.abs(ref).sum(axis=1).max() * np.abs(X).max()
    assert np.abs(form.apply(X) - X @ ref.T).max() <= tol
    assert np.abs(form.apply(X[0]) - ref @ X[0]).max() <= tol
    rows = np.flatnonzero(G.interior_mask())
    assert np.array_equal(form.apply(X, rows=rows), form.apply(X)[:, rows])


def test_energy_form_peaks_far_below_one_dense_array():
    G = build_level(load_structure("sierpinski"), 6)
    n = G.n_vertices
    f = np.ones(n)
    tracemalloc.start()
    try:
        form = energy_matrix(G)
        form.apply(f)
        form.energy(harmonic_extension(G, np.arange(3.0)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the stencil and the neighbour table hold O(n) entries; one n x n float64
    # array is 8 n^2 bytes (0.04 of it measured)
    assert peak < 0.1 * 8 * n * n


def test_dense_budget_rejects_before_allocating(monkeypatch):
    G = build_level(load_structure("sierpinski"), 5)
    monkeypatch.setattr(spectral, "_physical_memory_bytes", lambda: 1 << 20)
    with pytest.raises(BudgetError) as exc:
        energy_matrix(G)
    need = spectral.DENSE_ARRAYS * 8 * G.n_vertices**2
    assert str(need) in str(exc.value) and str(1 << 20) in str(exc.value)


def test_energy_kills_constants(stacks):
    for preset in ("interval", "sierpinski", "vicsek"):
        st = stacks(preset, 3)
        ones = np.ones(st.graph.n_vertices)
        assert abs(st.form.energy(ones)) < 1e-10
        assert np.abs(st.form.apply(ones)).max() < 1e-10


def test_energy_of_identity_function(stacks):
    st = stacks("interval", 3)
    assert st.form.energy(st.graph.coords[:, 0]) == pytest.approx(1.0, abs=1e-12)


def test_energy_psd(stacks, rng):
    st = stacks("sierpinski", 3)
    for _ in range(5):
        f = rng.standard_normal(st.graph.n_vertices)
        assert st.form.energy(f) >= -1e-10


def test_harmonic_extension_preserves_energy(stacks, rng):
    for preset, m in (("interval", 8), ("sierpinski", 6), ("vicsek", 4)):
        st = stacks(preset, m)
        for _ in range(5):
            bv = rng.standard_normal(st.structure.n_boundary)
            h = harmonic_extension(st.graph, bv)
            e0 = float(bv @ (-np.asarray(st.structure.harmonic.D, float)) @ bv)
            # the edge sum read at most 2.6e-16 relative here; the quadratic
            # form summed on the stencil reads up to 1.7e-11
            assert abs(st.form.energy(h) - e0) <= 1e-14 * e0


@pytest.mark.parametrize(
    "config, m",
    [("interval", 8), ("sierpinski", 6), ("vicsek", 4), ({"preset": "sierpinski", "mu": [0.2, 0.3, 0.5]}, 4)]
    + [(REFLECTED, 4), (CENTER_CELL, 3)],
)
def test_harmonic_extension_matches_dense_solve(config, m):
    G = build_level(load_structure(config), m)
    rng = np.random.default_rng(9)
    for _ in range(3):
        bv = rng.standard_normal(G.structure.n_boundary)
        h = harmonic_extension(G, bv)
        assert np.array_equal(h[G.boundary_ids], bv)
        # measured gap up to 4.1e-14; the dense solve itself is off by up to
        # 3.4e-14 at interval m = 8, where the extension is exact to roundoff
        assert np.abs(h - dense_harmonic_extension(G, bv)).max() <= 1e-13 * np.abs(bv).max()


def test_interval_harmonic_extension_is_linear():
    G = build_level(load_structure("interval"), 8)
    x = G.coords[:, 0]
    assert np.array_equal(x[G.boundary_ids], [0.0, 1.0])
    bv = np.array([0.3, -1.7])
    h = harmonic_extension(G, bv)
    assert np.abs(h - (bv[0] * (1.0 - x) + bv[1] * x)).max() <= 4 * np.finfo(float).eps * np.abs(bv).max()


def test_harmonic_extension_of_a_non_harmonic_structure_is_not_the_minimizer():
    # with these r the level-1 network does not trace back to D on V_0, so the
    # structure's extension is not the level-m energy minimizer
    G = build_level(load_structure({"preset": "sierpinski", "r": [0.6, 0.5, 0.4]}), 4)
    bv = np.array([1.0, -0.5, 0.25])
    assert np.abs(harmonic_extension(G, bv) - dense_harmonic_extension(G, bv)).max() > 1e-3


# -- eigensystem -----------------------------------------------------------------------


def test_interval_dirichlet_matches_discrete_formula(stacks):
    st = stacks("interval", 8)
    lam = st.basis("dirichlet").eigenvalues
    for k in (1, 2, 5, 17, 100):
        assert lam[k - 1] == pytest.approx(interval_dirichlet_lambda(8, k), rel=1e-9)


def test_interval_dirichlet_approaches_continuum(stacks):
    lam = stacks("interval", 8).basis("dirichlet").eigenvalues
    assert abs(lam[0] - math.pi**2) / math.pi**2 < 1e-3
    for k in range(1, 11):
        assert abs(lam[k - 1] - (k * math.pi) ** 2) / (k * math.pi) ** 2 < 1e-2


def test_neumann_ground_state(stacks):
    b = stacks("interval", 8).basis("neumann")
    assert b.eigenvalues[0] == 0.0
    assert np.abs(b.vectors[:, 0] - 1.0).max() < 1e-8


def test_dirichlet_vectors_vanish_on_boundary(stacks):
    st = stacks("sierpinski", 4)
    b = st.basis("dirichlet")
    assert np.abs(b.vectors[st.graph.boundary_ids, :]).max() == 0.0
    assert b.eigenvalues[0] > 0.0


def test_orthonormality_and_residuals(stacks):
    for preset, m in SMALL_STACKS:
        st = stacks(preset, m)
        for bc in ("dirichlet", "neumann"):
            b = st.basis(bc)
            assert b.gram_deviation() <= 1e-8
            assert np.all(b.residuals <= 1e-8 * (1.0 + b.eigenvalues))
            assert b.max_residual == float((b.residuals / (1.0 + b.eigenvalues)).max())


@pytest.mark.parametrize("chunk", [2**17, 300])
def test_gram_deviation_strips_match_the_whole_gram_matrix(stacks, monkeypatch, chunk):
    # 300 entries is one column per strip at sierpinski m=3 (n = 42); one
    # defect sits at the far corner of the lower triangle (row k - 1,
    # column 0), the other on the diagonal (column 5)
    monkeypatch.setattr(spectral, "CHUNK_ENTRIES", chunk)
    b = stacks("sierpinski", 3).basis("dirichlet")
    corner, diagonal = b.vectors.copy(), b.vectors.copy()
    corner[:, -1] += 1e-6 * corner[:, 0]
    diagonal[:, 5] *= 1.0 + 3e-7
    for V, defect in ((b.vectors, 0.0), (corner, 1e-6), (diagonal, 6e-7)):
        basis = dataclasses.replace(b, vectors=V)
        W = V * np.sqrt(basis.mass)[:, None]
        expect = np.abs(W.T @ W - np.eye(basis.n_modes)).max()
        assert basis.gram_deviation() == pytest.approx(expect, rel=0.0, abs=1e-15)
        assert expect == pytest.approx(defect, rel=1e-6, abs=1e-14)


def test_sparse_residuals_match_dense(stacks):
    for preset, m in SMALL_STACKS:
        st = stacks(preset, m)
        for bc in ("dirichlet", "neumann"):
            b = st.basis(bc)
            dense = dense_residuals(b, bincount_energy_matrix(st.graph))
            assert np.abs(b.residuals - dense).max() <= 1e-12


def test_residuals_catch_perturbed_pair(stacks, monkeypatch):
    # one entry of one block eigenvector moved by 1e-6: the pass's stencil
    # residual of that mode exceeds the tolerance, with or without vectors
    form = stacks("sierpinski", 5).form
    solve = spectral._solve_block
    for bc, vectors in itertools.product(("dirichlet", "neumann"), (True, False)):
        for shift in (0.0, 1e-6):

            def perturbed(A):
                vals, vecs = solve(A)
                vecs[17, 5] += shift
                return vals, vecs

            monkeypatch.setattr(spectral, "_solve_block", perturbed)
            if shift == 0.0:
                eigensystem(form, bc, vectors=vectors)
            else:
                with pytest.raises(RuntimeError, match="eigen residual .* exceeds tolerance"):
                    eigensystem(form, bc, vectors=vectors)


def test_residuals_single_out_the_perturbed_mode(stacks, monkeypatch):
    # with the gate lifted, one entry of irrep j's block eigenvector 5 moved by
    # 1e-6 puts the residual of that mode (and of its s-odd partner, for a
    # 2-dim irrep) over the tolerance, and no other mode's
    form = stacks("sierpinski", 5).form
    tol = spectral.RESIDUAL_TOL
    monkeypatch.setattr(spectral, "RESIDUAL_TOL", np.inf)
    solve = spectral._solve_block
    dims = [rho.shape[1] for rho in spectral._irreps(3, True)]  # D_3: 1, 1, 2

    def perturbed(j):
        calls = itertools.count()

        def solve_j(A):
            vals, vecs = solve(A)
            if next(calls) == j:
                vecs[17, 5] += 1e-6
            return vals, vecs

        return solve_j

    for bc in ("dirichlet", "neumann"):
        clean = eigensystem(form, bc)
        assert np.all(clean.residuals <= tol * (1.0 + clean.eigenvalues))
        for j, dim in enumerate(dims):
            monkeypatch.setattr(spectral, "_solve_block", perturbed(j))
            b = eigensystem(form, bc)
            hit = np.flatnonzero(np.any(b.vectors != clean.vectors, axis=0))
            assert hit.size == dim
            bound = tol * (1.0 + b.eigenvalues)
            assert np.all(b.residuals[hit] > bound[hit])
            others = np.delete(np.arange(b.n_modes), hit)
            assert np.all(b.residuals[others] <= bound[others])
            # the pass without vectors reads the same residuals
            monkeypatch.setattr(spectral, "_solve_block", perturbed(j))
            assert np.array_equal(eigensystem(form, bc, vectors=False).residuals, b.residuals)
            monkeypatch.setattr(spectral, "_solve_block", solve)


def test_residuals_skip_dirichlet_boundary_rows(stacks):
    st = stacks("sierpinski", 5)
    b = st.basis("dirichlet")
    E = bincount_energy_matrix(st.graph)
    bid = st.graph.boundary_ids
    # boundary rows carry the normal derivative, far above the tolerance
    boundary = np.abs(E[bid] @ b.vectors).max(axis=0)
    assert boundary.max() > 1.0
    assert np.all(b.residuals <= 1e-8 * (1.0 + b.eigenvalues))


def test_eigensystem_leaves_form_untouched():
    form = energy_matrix(build_level(load_structure("sierpinski"), 3))
    before = [a.copy() for a in form.stencil]
    for bc in ("dirichlet", "neumann"):
        b = eigensystem(form, bc)
        for a, kept in zip(form.stencil, before):
            assert np.array_equal(a, kept)
            assert not np.shares_memory(b.vectors, a)


def test_eigensystem_rejects_unsorted_eigh(monkeypatch):
    form = energy_matrix(build_level(load_structure("interval"), 4))
    eigh = np.linalg.eigh

    def reversed_eigh(A):
        w, v = eigh(A)
        return w[::-1].copy(), v[:, ::-1].copy()

    monkeypatch.setattr(np.linalg, "eigh", reversed_eigh)
    with pytest.raises(RuntimeError, match="ascending"):
        eigensystem(form, "neumann")


def _clusters(vals: np.ndarray) -> list[np.ndarray]:
    """Index runs of eigenvalues within EIG_RTOL (relative) of their neighbour."""
    split = np.flatnonzero(np.diff(vals) > EIG_RTOL * np.abs(vals[1:])) + 1
    return np.split(np.arange(vals.size), split)


ASYMMETRIC = {"preset": "sierpinski", "mu": [0.2, 0.3, 0.5]}


def _pentagasket() -> dict:
    """Five maps of ratio (3 - sqrt 5) / 2 toward the corners of a regular
    pentagon, neighbours touching at one point: symmetry group D_5, with the
    two 2-dim irreps no preset has.  D is the complete graph; the split needs
    the symmetry only."""
    c = (3.0 - math.sqrt(5.0)) / 2.0
    corners = [[math.cos(2.0 * math.pi * i / 5 + math.pi / 2), math.sin(2.0 * math.pi * i / 5 + math.pi / 2)] for i in range(5)]
    return {
        "name": "pentagasket",
        "maps": [{"scale": c, "translation": [(1.0 - c) * x, (1.0 - c) * y]} for x, y in corners],
        "boundary": corners,
        "identifications": [[i, (i + 2) % 5, (i + 1) % 5, (i + 4) % 5] for i in range(5)],
        "D": (np.ones((5, 5)) - 5.0 * np.eye(5)).tolist(),
        "r": [0.5] * 5,
    }


@pytest.mark.parametrize("config, m", list(SMALL_STACKS) + [(ASYMMETRIC, 4), (_pentagasket(), 2)])
@pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
def test_split_eigensystem_matches_full_eigh(config, m, bc):
    G = build_level(load_structure(config), m)
    form = energy_matrix(G)
    b = eigensystem(form, bc)
    vals, V = full_eigh(form, bc)
    assert np.abs(b.eigenvalues - vals).max() <= 1e-13 * vals[-1]
    # spectral projectors V_c V_c^T M do not depend on the basis of a cluster
    for c in _clusters(vals):
        mine = b.vectors[:, c] @ (b.vectors[:, c].T * G.vertex_mass)
        ref = V[:, c] @ (V[:, c].T * G.vertex_mass)
        assert np.abs(mine - ref).max() <= 1e-10
    n_even, n_odd = b.blocks
    assert n_even + n_odd == b.n_modes
    keep = np.flatnonzero(G.interior_mask()) if bc == "dirichlet" else np.arange(G.n_vertices)
    perm = G.vertex_involution()
    assert n_even - n_odd == np.count_nonzero(perm[keep] == keep)
    # one eigh per irrep; a 2-dim irrep's block carries half of its modes
    group = G.symmetry_group()
    k = group.shape[0] // (1 + (G.structure.involution is not None))
    n_one_dim = 1 if G.structure.involution is None else 2 + (k % 2 == 0) * 2
    dims = [1] * n_one_dim + [2] * (len(b.irreps) - n_one_dim)
    assert len(dims) == n_one_dim + (k - 1) // 2
    assert sum(d * size for d, size in zip(dims, b.irreps)) == b.n_modes


def test_split_modes_have_a_parity(stacks):
    st = stacks("sierpinski", 5)
    perm = st.graph.vertex_involution()
    for bc in ("dirichlet", "neumann"):
        V = st.basis(bc).vectors
        even = np.abs(V[perm] - V).max(axis=0) == 0.0
        odd = np.abs(V[perm] + V).max(axis=0) == 0.0
        assert np.all(even ^ odd)
        assert np.count_nonzero(odd) == st.basis(bc).blocks[1]


@pytest.mark.parametrize("preset, m, k", [("sierpinski", 5, 3), ("vicsek", 3, 4)])
def test_two_dim_pairs_share_their_eigenvalue_bitwise(stacks, preset, m, k):
    st = stacks(preset, m)
    rot, s = st.graph.vertex_rotation(), st.graph.vertex_involution()
    rot_inv = np.argsort(rot)
    for bc in ("dirichlet", "neumann"):
        b = st.basis(bc)
        V, vals = b.vectors, b.eigenvalues
        even = np.abs(V[s] - V).max(axis=0) == 0.0
        # P_r phi = +-phi on a 1-dim irrep; on the 2-dim one P_r turns phi by 2 pi / k
        turned = np.minimum(np.abs(V[rot] - V).max(axis=0), np.abs(V[rot] + V).max(axis=0)) > 1e-6 * np.abs(V).max(axis=0)
        pairs = np.flatnonzero(even & turned)
        assert pairs.size == b.irreps[-1]
        partner = (V[rot_inv][:, pairs] - V[rot][:, pairs]) / (2.0 * math.sin(2.0 * math.pi / k))
        overlap = V.T @ (st.graph.vertex_mass[:, None] * partner)
        mate = np.abs(overlap).argmax(axis=0)
        assert np.abs(np.abs(overlap[mate, np.arange(pairs.size)]) - 1.0).max() <= 1e-10
        assert not np.any(even[mate])
        assert np.array_equal(vals[mate], vals[pairs])


def test_no_eigh_block_exceeds_a_third_of_the_vertices(monkeypatch):
    # the one-reflection split would hand eigh blocks of about n / 2
    G = build_level(load_structure("sierpinski"), 5)
    form = energy_matrix(G)
    sizes = []
    eigh = np.linalg.eigh

    def recording_eigh(A):
        sizes.append(A.shape[0])
        return eigh(A)

    monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
    for bc in ("dirichlet", "neumann"):
        eigensystem(form, bc)
    assert len(sizes) == 6
    assert max(sizes) <= math.ceil(G.n_vertices / 3) + 3


@pytest.mark.parametrize("preset, m", SMALL_STACKS)
def test_anchor_signs_match_whole_array_argmax(stacks, preset, m):
    rng = np.random.default_rng(5)
    for bc in ("dirichlet", "neumann"):
        V = stacks(preset, m).basis(bc).vectors
        # random signs; s-odd modes tie +-max between mirror vertices
        W = V * rng.choice([-1.0, 1.0], V.shape[1])
        W[:, 3] = 0.0
        m_half = np.sqrt(stacks(preset, m).graph.vertex_mass)
        X = W * m_half[:, None]
        signs = spectral._anchor_signs(X, m_half)
        assert np.array_equal(X, (W * m_half[:, None]) / m_half[:, None])
        assert np.array_equal(signs, argmax_signs(X))


@pytest.mark.parametrize("config, m", list(SMALL_STACKS) + [(ASYMMETRIC, 4), (CENTER_CELL, 3)])
def test_residual_stencil_is_the_nonzero_pattern_of_E(config, m):
    G = build_level(load_structure(config), m)
    rows, cols, values = energy_matrix(G).stencil
    key = rows * G.n_vertices + cols
    assert np.all(np.diff(key) > 0)  # row-major, each entry once
    E = bincount_energy_matrix(G)
    assert np.array_equal(values, E[rows, cols])
    # the stencil covers every nonzero of E: E is zero off it
    off = np.ones(E.shape, dtype=bool)
    off[rows, cols] = False
    assert not np.any(E[off])


def test_interlacing(stacks):
    for preset, m in (("interval", 7), ("sierpinski", 4), ("vicsek", 3)):
        st = stacks(preset, m)
        lamD = st.basis("dirichlet").eigenvalues
        lamN = st.basis("neumann").eigenvalues
        assert np.all(lamN[: lamD.size] <= lamD + 1e-9)


def test_sierpinski_lambda1_matches_decimation(stacks):
    lam1 = stacks("sierpinski", 5).basis("dirichlet").eigenvalues[0]
    oracle = gasket_lambda1(5)
    assert lam1 == pytest.approx(oracle, rel=1e-9)
    # three significant digits against the level-independent limit
    assert abs(lam1 - gasket_lambda1(12)) / gasket_lambda1(12) < 5e-3


def test_rayleigh_ground_eigenvalue_matches_decimation(stacks):
    for m in range(2, 7):
        lam = rayleigh_quotient(stacks("sierpinski", m).basis("dirichlet"))
        # the oracle's (5 - sqrt(25 - 4z)) / 2 itself cancels 9.5e-14 at m = 6
        assert abs(lam - gasket_lambda1(m)) <= 1e-13 * gasket_lambda1(m)


def test_rayleigh_ground_eigenvalue_is_thread_independent():
    # eigh's lambda_1 at sierpinski m = 6 moves by about 1e-12 between one
    # and two BLAS threads; the edge-energy quotient, summed in long double,
    # does not.  Where long double is plain double its last bit may move.
    script = (
        "from pcftube.core import build_level, load_structure\n"
        "from pcftube.spectral import eigensystem, energy_matrix, rayleigh_quotient\n"
        "form = energy_matrix(build_level(load_structure('sierpinski'), 6))\n"
        "print(repr(rayleigh_quotient(eigensystem(form, 'dirichlet'))))\n"
    )
    src = os.path.dirname(os.path.dirname(spectral.__file__))
    out = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src)
        env.update({var: threads for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})
        run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
        out.append(run.stdout)
    lam = [float(o) for o in out]
    if np.finfo(np.longdouble).nmant > 52:
        assert out[0] == out[1]
    else:
        assert abs(lam[0] - lam[1]) <= np.spacing(lam[0])
    assert abs(lam[0] - gasket_lambda1(6)) <= 1e-13 * gasket_lambda1(6)


def test_decimation_oracle_against_brute_force():
    for m in (2, 3):
        A = gasket_brute_dirichlet_matrix(m)
        w = np.sort(np.linalg.eigvalsh(A))
        z = 2.0
        for _ in range(m - 1):
            z = decimation_branch(z)
        assert w[0] == pytest.approx(z, abs=1e-10)


def test_mesh_cauchy_ground_state(stacks):
    for preset, levels in (("interval", (4, 5, 6, 7)), ("sierpinski", (2, 3, 4, 5))):
        lam1 = [stacks(preset, m).basis("dirichlet").eigenvalues[0] for m in levels]
        diffs = np.abs(np.diff(lam1))
        assert np.all(np.diff(diffs) < 0.0)


def test_eigensystem_rejects_bad_bc(stacks):
    with pytest.raises(ValueError):
        eigensystem(stacks("interval", 3).form, "robin")


@pytest.mark.parametrize("preset", ["interval", "sierpinski", "vicsek"])
def test_dirichlet_without_interior_vertex_is_rejected(preset, monkeypatch):
    # level 0 is V_0 alone; the Neumann pencil there is still solvable
    form = energy_matrix(build_level(load_structure(preset), 0))
    assert eigensystem(form, "neumann").n_modes == form.graph.n_vertices

    def no_array_work(*args):
        raise AssertionError("the Dirichlet solve reached the block assembly")

    monkeypatch.setattr(spectral, "_orbit_types", no_array_work)
    with pytest.raises(spectral.NoInteriorError, match="level 0 has no interior vertex"):
        eigensystem(form, "dirichlet")


def test_eigensystem_holds_only_the_basis_when_residuals_run(monkeypatch):
    # While the chunk pass runs, what is held past the n x n_modes basis is
    # the block eigenvectors it reads and a few chunks of CHUNK_ENTRIES
    # entries: no n x n temporary.  Measured at sierpinski m=6: 2.2 and 2.0
    # MB over the basis and the block eigenvectors (Dirichlet, Neumann); an
    # n x n temporary would add 9.6 MB.
    form = energy_matrix(build_level(load_structure("sierpinski"), 6))
    anchor, solve = spectral._anchor_signs, spectral._solve_block
    held, blocks = [], []

    def traced_anchor(phi, m_half):
        held.append(tracemalloc.get_traced_memory()[0])
        return anchor(phi, m_half)

    def traced_solve(A):
        vals, vecs = solve(A)
        blocks.append(vecs.nbytes)
        return vals, vecs

    monkeypatch.setattr(spectral, "_anchor_signs", traced_anchor)
    monkeypatch.setattr(spectral, "_solve_block", traced_solve)
    for bc in ("dirichlet", "neumann"):
        held.clear()
        blocks.clear()
        tracemalloc.start()
        try:
            b = eigensystem(form, bc)
        finally:
            tracemalloc.stop()
        assert len(held) > 1
        assert max(held) <= b.vectors.nbytes + sum(blocks) + 4 * 8 * spectral.CHUNK_ENTRIES


def test_spectrum_peak_at_level_7_is_below_half_an_n_by_n_array():
    # Without vectors nothing grows like n x n: the peak is the block
    # eigenvectors and a few chunks, 0.28 of 8 n^2 bytes measured; an
    # eigensystem holding the basis reads 1.25.
    form = energy_matrix(build_level(load_structure("sierpinski"), 7))
    n = form.graph.n_vertices
    for bc in ("dirichlet", "neumann"):
        tracemalloc.start()
        try:
            s = eigensystem(form, bc, vectors=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not hasattr(s, "vectors")
        assert peak <= 0.5 * 8 * n * n


@pytest.mark.parametrize("preset, m", SMALL_STACKS)
@pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
@pytest.mark.parametrize("modes", [1, 37, None], ids=["one", "37", "all"])
def test_chunked_pass_matches_whole_array_tail(monkeypatch, preset, m, bc, modes):
    # The chunk pass against the whole-array tail it replaced, on the same
    # block solves, with chunks of one mode, of 37 (dividing no mode count
    # here) and of every mode: bit for bit, with and without vectors.
    form = energy_matrix(build_level(load_structure(preset), m))
    n = form.graph.n_vertices
    monkeypatch.setattr(spectral, "CHUNK_ENTRIES", n * (modes or n))
    seen = {}
    for name in ("_irreps", "_irrep_basis", "_block", "_solve_block"):

        def recording(*args, fn=getattr(spectral, name), name=name):
            out = fn(*args)
            seen.setdefault(name, []).append(out)
            return out

        monkeypatch.setattr(spectral, name, recording)
    for vectors in (True, False):
        seen.clear()
        b = eigensystem(form, bc, vectors=vectors)
        bases, solved = seen["_irrep_basis"], seen["_solve_block"]
        # one block per basis, of its size, built and solved in irrep order
        assert [block.shape for block in seen["_block"]] == [(size, size) for *_, size in bases]
        assert [Y.shape for _, Y in solved] == [(size, size) for *_, size in bases]
        vals, V, resid, sup, worst = whole_array_tail(
            form, bc, form.graph.symmetry_group(), seen["_irreps"][0], bases, solved
        )
        assert modes != 37 or b.n_modes % 37 != 0
        assert np.array_equal(b.eigenvalues, vals)
        assert np.array_equal(b.residuals, resid)
        assert np.array_equal(b.sup_norms, sup)
        assert b.max_residual == worst
        pos = vals > 0.0
        d = form.graph.structure.dim
        assert supnorm_ratio(b) == float((sup[pos] / vals[pos] ** (d / (2.0 * (d + 1.0)))).max())
        if vectors:
            assert np.array_equal(b.vectors, V)
        else:
            assert type(b) is spectral.Spectrum


# The small levels where the permutation representation misses an irrep, so
# that its basis and block are empty.
EMPTY_IRREP = {
    ("interval", 1, "dirichlet"),
    ("sierpinski", 0, "neumann"),
    ("sierpinski", 1, "dirichlet"),
    ("sierpinski", 1, "neumann"),
    ("vicsek", 0, "neumann"),
}


@pytest.mark.parametrize(
    "preset, m, bc",
    [(preset, m, bc) for preset, m in SMALL_STACKS for bc in ("dirichlet", "neumann")]
    + [(preset, 0, "neumann") for preset, _ in SMALL_STACKS]
    + [(preset, 1, bc) for preset, _ in SMALL_STACKS for bc in ("dirichlet", "neumann")],
)
def test_irrep_basis_against_dense_oracles(monkeypatch, preset, m, bc):
    # Each slot basis U, made dense, is orthonormal and spans the component
    # of its irrep (U U^T is the isotypic projector), the components tile the
    # solved vertices, _block is the dense U^T A U and _expand is the per-type
    # back-transform of the earlier layout, bit for bit.
    form = energy_matrix(build_level(load_structure(preset), m))
    graph = form.graph
    n = graph.n_vertices
    calls, blocks = [], []
    irrep_basis, block = spectral._irrep_basis, spectral._block

    def recording_basis(*args):
        calls.append((args, irrep_basis(*args)))
        return calls[-1][1]

    def recording_block(*args):
        out = block(*args)
        blocks.append(out.copy())  # before _solve_block symmetrizes it in place
        return out

    monkeypatch.setattr(spectral, "_irrep_basis", recording_basis)
    monkeypatch.setattr(spectral, "_block", recording_block)
    eigensystem(form, bc, vectors=False)
    keep = graph.interior_mask() if bc == "dirichlet" else np.ones(n, dtype=bool)
    m_half = np.sqrt(graph.vertex_mass)
    A = bincount_energy_matrix(graph) / m_half[:, None] / m_half[None, :]
    rng = np.random.default_rng(25)
    sizes = []
    for ((rho, parity, group, reps, types, _), basis), B in zip(calls, blocks, strict=True):
        cols, coef, size = basis
        assert cols.shape == coef.shape and cols.shape[0] <= rho.shape[1] and cols.shape[1] == n
        assert not np.any(coef[:, ~keep])
        U = dense_slot_basis(cols, coef, size)
        assert np.all(np.abs(U.T @ U - np.eye(size)) <= 1e-15)
        assert np.all(np.abs(U @ U.T - isotypic_projector(group, rho, keep)) <= 1e-15)
        ref = U.T @ A @ U
        assert B.shape == ref.shape
        # relative to the largest entry of A; 3.1e-16 measured
        assert np.all(np.abs(B - ref) <= 1e-15 * np.abs(A).max())
        if size:
            Y = rng.standard_normal((size, 5))
            ref = layout_back_transform(rho, parity, group, reps, types, Y)
            assert np.array_equal(spectral._expand(basis, Y.T), ref.T)
        sizes.append(rho.shape[1] * size)
    assert sum(sizes) == np.count_nonzero(keep)
    assert (0 in sizes) == ((preset, m, bc) in EMPTY_IRREP)


# -- counting and asymptotics -------------------------------------------------------------


def test_counting_function_cases(stacks):
    b = stacks("interval", 8).basis("dirichlet")
    assert spectral._count(b.eigenvalues, 0.5 * b.eigenvalues[0]) == 0
    assert spectral._count(b.eigenvalues, b.eigenvalues[-1]) == b.n_modes
    assert spectral._count(b.eigenvalues, 50.0) == 2


def test_weyl_interval(stacks):
    fit = weyl_exponent(stacks("interval", 8).basis("dirichlet"))
    assert abs(fit.slope - 0.5) <= 0.05


def test_weyl_sierpinski(stacks):
    fit = weyl_exponent(stacks("sierpinski", 5).basis("dirichlet"))
    target = math.log(3.0) / math.log(5.0)
    assert abs(target - 0.6826) < 1e-4
    assert abs(fit.slope - target) <= 0.05


def test_weyl_fit_depends_only_on_eigenvalue_multiset(stacks):
    b = stacks("sierpinski", 5).basis("dirichlet")
    lam = b.eigenvalues
    runs = _clusters(lam)
    assert max(len(c) for c in runs) > 1  # the spectrum has degenerate clusters
    # every cluster snapped to one value, then split again by a few ulps
    snapped = np.concatenate([np.full(len(c), lam[c[0]]) for c in runs])
    rng = np.random.default_rng(11)
    noisy = np.sort(snapped * (1.0 + rng.integers(-8, 9, lam.size) * np.finfo(float).eps))
    # a bare count of the eigenvalues <= lambda_n would tell these apart
    assert not np.array_equal(np.searchsorted(snapped, snapped, "right"), np.searchsorted(noisy, noisy, "right"))
    ref = weyl_exponent(b)
    for vals in (snapped, noisy):
        other = dataclasses.replace(b, eigenvalues=vals)
        fit = weyl_exponent(other)
        assert abs(fit.slope - ref.slope) <= 1e-12 and abs(fit.intercept - ref.intercept) <= 1e-12
        assert np.array_equal(spectral._count(vals, vals), spectral._count(lam, lam))


def test_weyl_deterministic(stacks):
    b = stacks("interval", 8).basis("dirichlet")
    assert weyl_exponent(b).slope == weyl_exponent(b).slope


def test_weyl_window_too_small(stacks):
    with pytest.raises(ValueError):
        weyl_exponent(stacks("interval", 4).basis("dirichlet"))


def test_growth_constants_interval(stacks):
    c1, c2 = eigen_growth_constants(stacks("interval", 8).basis("dirichlet"))
    assert 9.0 < c1 <= c2 < 10.5
    assert c2 / c1 < 1.1


def test_growth_constants_sierpinski(stacks):
    c1, c2 = eigen_growth_constants(stacks("sierpinski", 5).basis("dirichlet"))
    assert 0.0 < c1 <= c2
    assert c2 / c1 < 10.0


def test_supnorm_interval_closed_form(stacks):
    b = stacks("interval", 8).basis("dirichlet")
    c = supnorm_ratio(b)
    assert c == pytest.approx(math.sqrt(2.0) / math.sqrt(math.pi), abs=2e-3)


def test_supnorm_skips_constant_mode(stacks):
    c = supnorm_ratio(stacks("interval", 6).basis("neumann"))
    assert math.isfinite(c) and c > 0.0


def test_supnorm_stable_across_levels(stacks):
    c5 = supnorm_ratio(stacks("sierpinski", 5).basis("dirichlet"))
    c6 = supnorm_ratio(stacks("sierpinski", 6).basis("dirichlet"))
    assert abs(c6 / c5 - 1.0) < 0.2

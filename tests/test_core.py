import dataclasses
import itertools
import math

import numpy as np
import pytest

from pcftube.core import (
    TIE_RTOL,
    BudgetError,
    ResistanceMetric,
    StructureError,
    VertexGraph,
    build_level,
    load_structure,
    scaling_constants,
    similarity_dimension,
    word_products,
)

from pcftube.spectral import eigensystem, energy_matrix

from oracles import (
    bincount_energy_matrix,
    bisect_dimension,
    cell_words,
    grounded_resistance,
    loop_build_level,
    loop_cells_with_prefix,
    loop_export_csv,
    loop_vertex_id,
)

# Sierpinski with F_0 reflected across the axis through x_0: a map whose
# rotation part has irrational entries, and relations other than the preset's.
REFLECTED = {
    "preset": "sierpinski",
    "maps": [
        {"scale": 0.5, "translation": [0.0, 0.0], "rotation": [[0.5, math.sqrt(3.0) / 2.0], [math.sqrt(3.0) / 2.0, -0.5]]},
        {"scale": 0.5, "translation": [0.5, 0.0]},
        {"scale": 0.5, "translation": [0.25, math.sqrt(3.0) / 4.0]},
    ],
    "identifications": [[0, 2, 1, 0], [0, 1, 2, 0], [1, 2, 2, 1]],
    "mu": [0.2, 0.3, 0.5],
}
# Sierpinski plus an inverted center cell F_3, glued to the corner cells only
# through it: three cells meet at every midpoint, and gluing the two corner
# cells onto the smaller one's slot takes a second hooking round.
CENTER_CELL = {
    "maps": [
        {"scale": 0.5, "translation": [0.0, 0.0]},
        {"scale": 0.5, "translation": [0.5, 0.0]},
        {"scale": 0.5, "translation": [0.25, math.sqrt(3.0) / 4.0]},
        {"scale": 0.5, "translation": [0.75, math.sqrt(3.0) / 4.0], "rotation": [[-1.0, 0.0], [0.0, -1.0]]},
    ],
    "boundary": [[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]],
    "identifications": [[0, 1, 3, 2], [1, 0, 3, 2], [0, 2, 3, 1], [2, 0, 3, 1], [1, 2, 3, 0], [2, 1, 3, 0]],
    "D": [[-2.0, 1.0, 1.0], [1.0, -2.0, 1.0], [1.0, 1.0, -2.0]],
    "r": [0.5, 0.5, 0.5, 0.5],
}


# -- structure loading -------------------------------------------------------------


def test_interval_preset_fields():
    S = load_structure("interval")
    assert S.n_symbols == 2 and S.n_boundary == 2
    assert np.allclose(S.harmonic.r, [0.5, 0.5])
    assert np.allclose(S.harmonic.D, [[-1.0, 1.0], [1.0, -1.0]])
    assert abs(S.dim - 1.0) < 1e-12
    assert np.allclose(S.measure_weights, [0.5, 0.5])


def test_sierpinski_preset_dimension_and_measure():
    S = load_structure("sierpinski")
    assert abs(S.dim - bisect_dimension([0.6, 0.6, 0.6])) < 1e-10
    assert S.dim == pytest.approx(math.log(3.0) / math.log(5.0 / 3.0), abs=1e-12)
    assert abs(S.dim - 2.150663) < 1e-5  # commonly quoted rounding
    assert np.allclose(S.measure_weights, [1.0 / 3.0] * 3, atol=1e-14)


def test_vicsek_preset_dimension():
    S = load_structure("vicsek")
    assert abs(S.dim - math.log(5.0) / math.log(3.0)) < 1e-10
    assert np.allclose(S.measure_weights, [0.2] * 5, atol=1e-14)


def test_load_rejects_nonconservative_D():
    base = {
        "maps": [{"scale": 0.5, "translation": [0.0]}, {"scale": 0.5, "translation": [0.5]}],
        "boundary": [[0.0], [1.0]],
        "identifications": [[0, 1, 1, 0]],
        "D": [[1.0, 0.0], [0.0, 1.0]],
        "r": [0.5, 0.5],
    }
    with pytest.raises(StructureError):
        load_structure(base)


def test_load_rejects_broken_identification():
    base = {
        "maps": [{"scale": 0.5, "translation": [0.0]}, {"scale": 0.4, "translation": [0.6]}],
        "boundary": [[0.0], [1.0]],
        "identifications": [[0, 1, 1, 0]],
        "D": [[-1.0, 1.0], [1.0, -1.0]],
        "r": [0.5, 0.5],
    }
    with pytest.raises(StructureError, match="identification"):
        load_structure(base)


def test_load_rejects_irregular_weights():
    with pytest.raises(StructureError):
        load_structure({"preset": "interval", "r": [0.5, 1.0]})


def test_load_rejects_unknown_preset():
    with pytest.raises(StructureError):
        load_structure("menger")


def test_measure_override_is_accepted():
    S = load_structure({"preset": "interval", "mu": [0.3, 0.7]})
    assert np.allclose(S.measure_weights, [0.3, 0.7])
    G = build_level(S, 2)
    assert abs(G.cell_measures.sum() - 1.0) < 1e-12


# -- similarity dimension -------------------------------------------------------------


@pytest.mark.parametrize(
    "weights, expected",
    [
        ([0.5, 0.5], 1.0),
        ([0.6, 0.6, 0.6], math.log(3.0) / math.log(5.0 / 3.0)),
        ([0.25, 0.25, 0.25, 0.25], 1.0),
    ],
)
def test_similarity_dimension_values(weights, expected):
    d = similarity_dimension(weights)
    assert abs(d - expected) < 1e-11
    assert abs(d - bisect_dimension(weights)) < 1e-11
    assert abs(sum(w**d for w in weights) - 1.0) <= 1e-12


def test_similarity_dimension_root_is_isolated():
    r = np.array([0.6, 0.6, 0.6])
    d = similarity_dimension(r)
    g = lambda x: float(np.sum(r**x) - 1.0)
    assert g(d - 1e-6) > 0.0 > g(d + 1e-6)


# -- graph construction --------------------------------------------------------------


def test_interval_level3_layout(stacks):
    G = build_level(load_structure("interval"), 3)
    assert G.n_vertices == 9
    assert np.allclose(np.sort(G.coords[:, 0]), np.arange(9) / 8.0)
    assert np.allclose(G.cell_measures, 1.0 / 8.0)


def test_level_zero_is_boundary_only():
    for preset in ("interval", "sierpinski", "vicsek"):
        S = load_structure(preset)
        G = build_level(S, 0)
        assert G.n_cells == 1
        assert G.n_vertices == S.n_boundary
        assert abs(G.cell_measures[0] - 1.0) < 1e-15
        assert abs(S.word_resistance(()) - 1.0) == 0.0


def test_sierpinski_level1():
    G = build_level(load_structure("sierpinski"), 1)
    assert G.n_vertices == 6 and G.n_cells == 3
    assert np.allclose(G.cell_measures, 1.0 / 3.0, atol=1e-15)


@pytest.mark.parametrize("m", range(8))
def test_sierpinski_vertex_count_formula(m):
    G = build_level(load_structure("sierpinski"), m)
    assert G.n_vertices == (3 ** (m + 1) + 3) // 2


@pytest.mark.parametrize(
    "preset, max_level",
    [("interval", 7), ("sierpinski", 7), ("vicsek", 6)],
)
def test_gluing_matches_coordinate_dedup(preset, max_level):
    S = load_structure(preset)
    for m in range(max_level + 1):
        G = build_level(S, m)
        uniq = np.unique(np.round(G.coords, 10), axis=0)
        assert uniq.shape[0] == G.n_vertices, f"{preset} level {m}"


def test_mass_and_measure_sums(stacks):
    for preset, m in (("interval", 6), ("sierpinski", 4), ("vicsek", 3)):
        G = stacks(preset, m).graph
        assert abs(G.cell_measures.sum() - 1.0) < 1e-12
        assert abs(G.vertex_mass.sum() - 1.0) < 1e-12


def test_budget_guard():
    with pytest.raises(BudgetError):
        build_level(load_structure("sierpinski"), 12)


def test_negative_level_rejected():
    with pytest.raises(StructureError):
        build_level(load_structure("interval"), -1)


@pytest.mark.parametrize(
    "config, m",
    [("interval", m) for m in range(9)]
    + [("sierpinski", m) for m in range(7)]
    + [("vicsek", m) for m in range(5)]
    + [({"preset": "sierpinski", "mu": [0.2, 0.3, 0.5]}, m) for m in (0, 1, 4)]
    + [(REFLECTED, m) for m in (0, 1, 4)]
    + [(CENTER_CELL, m) for m in (1, 4)],
)
def test_build_level_matches_word_loop(config, m):
    S = load_structure(config)
    G = build_level(S, m)
    ref = loop_build_level(S, m)
    for name in ("cells", "coords", "cell_measures", "vertex_mass", "boundary_ids"):
        got = getattr(G, name)
        assert got.dtype == ref[name].dtype and got.shape == ref[name].shape, name
        assert got.tobytes() == ref[name].tobytes(), name


def test_glue_cross_check_rejects_disagreeing_corners():
    S = load_structure("sierpinski")
    # F_0(x_1) is the midpoint of the bottom side; F_1(x_2) is not
    bad = dataclasses.replace(S, identifications=((0, 1, 1, 0), (0, 2, 2, 0), (1, 2, 2, 1), (0, 1, 1, 2)))
    assert build_level(bad, 0).n_vertices == 3  # no relation is pushed to level 0
    for m in (1, 3):
        with pytest.raises(ValueError) as ref:
            loop_build_level(bad, m)
        with pytest.raises(StructureError, match="glued pair disagrees") as err:
            build_level(bad, m)
        assert str(err.value) == str(ref.value)


@pytest.mark.parametrize("config", ["interval", "sierpinski", "vicsek", {"preset": "sierpinski", "r": [0.6, 0.5, 0.4]}])
def test_word_products_match_per_word_products(config):
    S = load_structure(config)
    mu = S.measure_weights
    for m in range(6):
        words = cell_words(build_level(S, m))
        r_w = np.array([S.word_resistance(w) for w in words])
        mu_w = np.array([float(np.prod([mu[s] for s in w])) if w else 1.0 for w in words])
        assert word_products(S.harmonic.r, m).tobytes() == r_w.tobytes()
        assert word_products(mu, m).tobytes() == mu_w.tobytes()


@pytest.mark.parametrize("preset, levels", [("interval", (3, 6)), ("sierpinski", (2, 4)), ("vicsek", (1, 3))])
def test_word_lookups_match_word_scans(preset, levels):
    for m in levels:
        G = build_level(load_structure(preset), m)
        N, nB = G.structure.n_symbols, G.structure.n_boundary
        for k in range(m + 2):
            for prefix in itertools.product(range(N), repeat=k):
                assert np.array_equal(G.cells_with_prefix(prefix), loop_cells_with_prefix(G, prefix)), prefix
                if k <= m:
                    for p in range(nB):
                        assert G.vertex_id(prefix, p) == loop_vertex_id(G, prefix, p)
        for prefix in ((N,), (0, -1), (0,) * (m + 2)):
            assert G.cells_with_prefix(prefix).size == 0 == loop_cells_with_prefix(G, prefix).size
        with pytest.raises(ValueError):
            G.vertex_id((N,), 0)
        with pytest.raises(ValueError):
            G.vertex_id((0,) * (m + 1), 0)


def test_vertex_id_addresses(stacks):
    G = stacks("interval", 6).graph
    assert np.isclose(G.coords[G.vertex_id((0,), 1), 0], 0.5)
    assert np.isclose(G.coords[G.vertex_id((0, 0), 1), 0], 0.25)
    assert G.vertex_id((), 0) == G.boundary_ids[0]


# -- resistance metric ------------------------------------------------------------------


# -- dihedral symmetry -------------------------------------------------------------


@pytest.mark.parametrize(
    "config, involution",
    [
        ("interval", ((1, 0), (1, 0))),
        ("sierpinski", ((0, 2, 1), (0, 2, 1))),
        ("vicsek", ((0, 3, 2, 1), (0, 3, 2, 1, 4))),
        # r keeps only the reflection that swaps corners 0 and 2
        ({"preset": "sierpinski", "r": [0.6, 0.5, 0.6]}, ((2, 1, 0), (2, 1, 0))),
        # the listed gluing keeps only the same reflection
        ({"preset": "sierpinski", "identifications": [[0, 1, 1, 0], [1, 2, 2, 1]]}, ((2, 1, 0), (2, 1, 0))),
        ({"preset": "sierpinski", "mu": [0.2, 0.3, 0.5]}, None),
        ({"preset": "sierpinski", "r": [0.6, 0.5, 0.4]}, None),
    ],
)
def test_structure_involution(config, involution):
    assert load_structure(config).involution == involution


@pytest.mark.parametrize(
    "config, m",
    [
        ("interval", 6),
        ("sierpinski", 4),
        ("vicsek", 3),
        ({"preset": "sierpinski", "r": [0.6, 0.5, 0.6]}, 3),
        ({"preset": "sierpinski", "identifications": [[0, 1, 1, 0], [1, 2, 2, 1]]}, 3),
    ],
)
def test_vertex_involution_preserves_the_graph(config, m):
    G = build_level(load_structure(config), m)
    perm = G.vertex_involution()
    n = G.n_vertices
    assert np.array_equal(perm[perm], np.arange(n)) and not np.array_equal(perm, np.arange(n))
    assert {frozenset(c) for c in perm[G.cells].tolist()} == {frozenset(c) for c in G.cells.tolist()}
    assert sorted(perm[G.boundary_ids].tolist()) == sorted(G.boundary_ids.tolist())
    assert np.abs(G.vertex_mass[perm] - G.vertex_mass).max() <= 1e-15 * G.vertex_mass.max()
    E = bincount_energy_matrix(G)
    assert np.abs(E[np.ix_(perm, perm)] - E).max() <= 1e-12 * np.abs(E).max()
    # the involution is an isometry of the embedding
    d = lambda X: np.linalg.norm(X[:, None, :] - X[None, :, :], axis=2)
    assert np.abs(d(G.coords[perm]) - d(G.coords)).max() <= 1e-12


def test_vertex_involution_identity_without_symmetry():
    G = build_level(load_structure({"preset": "sierpinski", "mu": [0.2, 0.3, 0.5]}), 3)
    assert np.array_equal(G.vertex_involution(), np.arange(G.n_vertices))


def test_vertex_involution_rejects_a_reflection_the_gluing_breaks():
    # (0, 2, 1) is a symmetry of the triangle but carries the listed relation
    # F_0(x_1) = F_1(x_0) onto the unlisted F_0(x_2) = F_2(x_0).
    S = load_structure({"preset": "sierpinski", "identifications": [[0, 1, 1, 0], [1, 2, 2, 1]]})
    G = build_level(dataclasses.replace(S, involution=((0, 2, 1), (0, 2, 1))), 2)
    with pytest.raises(StructureError, match="does not lift"):
        G.vertex_involution()
    # the group keeps no partial result: every use raises again
    for _ in range(2):
        with pytest.raises(StructureError, match="does not lift"):
            G.symmetry_group()
        with pytest.raises(StructureError, match="does not lift"):
            G.orbit_representatives()


def test_symmetry_group_is_lifted_once_per_graph(monkeypatch):
    G = build_level(load_structure("sierpinski"), 4)
    lifted = []
    lift = VertexGraph._lift

    def counting_lift(self, symmetry, name):
        lifted.append(name)
        return lift(self, symmetry, name)

    monkeypatch.setattr(VertexGraph, "_lift", counting_lift)
    group = G.symmetry_group()
    reps = G.orbit_representatives()
    ResistanceMetric(eigensystem(energy_matrix(G), "neumann"))
    assert G.symmetry_group() is group
    assert sorted(lifted) == ["involution", "rotation"]
    # read-only, so no reader can change what the others see
    assert not group.flags.writeable
    with pytest.raises(ValueError):
        group[0, 0] = 1
    # a new graph of the same level lifts its own group, equal to the first
    H = build_level(load_structure("sierpinski"), 4)
    assert np.array_equal(H.symmetry_group(), group)
    assert np.array_equal(H.orbit_representatives(), reps)
    assert len(lifted) == 4


@pytest.mark.parametrize(
    "config, rotation",
    [
        ("interval", None),
        ("sierpinski", ((1, 2, 0), (1, 2, 0))),
        ("vicsek", ((1, 2, 3, 0), (1, 2, 3, 0, 4))),
        ({"preset": "sierpinski", "r": [0.6, 0.5, 0.6]}, None),
        ({"preset": "sierpinski", "mu": [0.2, 0.3, 0.5]}, None),
    ],
)
def test_structure_rotation(config, rotation):
    assert load_structure(config).rotation == rotation


@pytest.mark.parametrize("preset, m, k", [("sierpinski", 4, 3), ("vicsek", 3, 4)])
def test_vertex_rotation_generates_a_dihedral_group(preset, m, k):
    G = build_level(load_structure(preset), m)
    rot, s = G.vertex_rotation(), G.vertex_involution()
    n = G.n_vertices
    ident = np.arange(n)
    # r is a graph automorphism of order k
    assert {frozenset(c) for c in rot[G.cells].tolist()} == {frozenset(c) for c in G.cells.tolist()}
    assert sorted(rot[G.boundary_ids].tolist()) == sorted(G.boundary_ids.tolist())
    assert np.abs(G.vertex_mass[rot] - G.vertex_mass).max() <= 1e-15 * G.vertex_mass.max()
    E = bincount_energy_matrix(G)
    assert np.abs(E[np.ix_(rot, rot)] - E).max() <= 1e-12 * np.abs(E).max()
    powers = [ident]
    for _ in range(k):
        powers.append(rot[powers[-1]])
    assert all(not np.array_equal(P, ident) for P in powers[1:k]) and np.array_equal(powers[k], ident)
    # s r s = r^-1
    assert np.array_equal(s[rot[s]], np.argsort(rot))
    group = G.symmetry_group()
    assert group.shape == (2 * k, n)
    assert len({row.tobytes() for row in group}) == 2 * k


@pytest.mark.parametrize(
    "config, order",
    [("interval", 2), ("sierpinski", 6), ("vicsek", 8), ({"preset": "sierpinski", "mu": [0.2, 0.3, 0.5]}, 1)],
)
def test_symmetry_group_order(config, order):
    G = build_level(load_structure(config), 2)
    group = G.symmetry_group()
    assert group.shape == (order, G.n_vertices)
    # closed under composition: every product of two rows is a row
    rows = {row.tobytes() for row in group}
    assert all(a[b].tobytes() in rows for a in group for b in group)


@pytest.mark.parametrize(
    "config, m, n_reps",
    [
        ("interval", 8, 129),
        ("sierpinski", 5, 64),
        ("sierpinski", 6, 186),
        ("sierpinski", 7, 551),
        ("vicsek", 3, 54),
        ({"preset": "sierpinski", "mu": [0.2, 0.3, 0.5]}, 4, None),
    ],
)
def test_orbit_representatives_partition_the_vertices(config, m, n_reps):
    G = build_level(load_structure(config), m)
    group = G.symmetry_group()
    reps = G.orbit_representatives()
    # each column of group[:, reps] is one orbit, listed |stabilizer| times,
    # and the orbits cover every vertex exactly once
    orbits = [np.unique(group[:, x]) for x in reps]
    assert np.array_equal(np.sort(np.concatenate(orbits)), np.arange(G.n_vertices))
    assert all(orbit[0] == x for orbit, x in zip(orbits, reps))
    assert np.all(np.diff(reps) > 0)
    if group.shape[0] == 1:
        assert np.array_equal(reps, np.arange(G.n_vertices))
    if n_reps is not None:
        assert reps.size == n_reps


def test_interval_resistances(stacks):
    st = stacks("interval", 3)
    R = st.table
    a, b = st.graph.boundary_ids
    mid = st.graph.vertex_id((0,), 1)
    assert abs(R[a, b] - 1.0) < 1e-10
    assert abs(R[a, mid] - 0.5) < 1e-10
    assert R[a, a] == 0.0
    E = bincount_energy_matrix(st.graph)
    for x in range(st.graph.n_vertices):
        for y in range(st.graph.n_vertices):
            assert R[x, y] == pytest.approx(grounded_resistance(E, x, y), abs=1e-12)


def test_metric_needs_neumann_basis(stacks):
    st = stacks("interval", 3)
    with pytest.raises(ValueError):
        ResistanceMetric(st.basis("dirichlet"))


@pytest.mark.parametrize("preset, m", [("interval", 8), ("sierpinski", 5), ("vicsek", 3)])
def test_tie_rule_margin(stacks, preset, m):
    # Sorted resistance gaps are either roundoff splits of exact ties or
    # genuine gaps, with at least a factor of ten to TIE_RTOL on each side.
    # Validated levels: interval m <= 10, sierpinski m <= 6, vicsek m <= 4;
    # the smallest genuine gap shrinks 25-50 fold per sierpinski level.
    st = stacks(preset, m)
    gaps = np.diff(np.sort(st.table, axis=1), axis=1).ravel() / st.metric.diameter()
    gaps = gaps[gaps > 0.0]
    assert np.all((gaps < TIE_RTOL / 10.0) | (gaps > 10.0 * TIE_RTOL))


def test_interval_metric_is_euclidean(stacks):
    st = stacks("interval", 6)
    R = st.table
    xs = st.graph.coords[:, 0]
    assert np.abs(R - np.abs(xs[:, None] - xs[None, :])).max() < 1e-9


def test_resistance_symmetry_and_triangle(stacks):
    st = stacks("sierpinski", 3)
    R = st.table
    assert np.abs(R - R.T).max() < 1e-12
    n = R.shape[0]
    idx = np.arange(0, n, 3)
    sub = R[np.ix_(idx, idx)]
    k = sub.shape[0]
    for i in range(k):
        for j in range(k):
            assert np.all(sub[i, j] <= sub[i, :] + sub[:, j] + 1e-9)


def test_resistance_contraction_per_cell(stacks):
    for preset, m in (("interval", 5), ("sierpinski", 4), ("vicsek", 3)):
        st = stacks(preset, m)
        R = st.table
        bid = st.graph.boundary_ids
        base = R[np.ix_(bid, bid)].max()
        for c in range(0, st.graph.n_cells, max(1, st.graph.n_cells // 16)):
            ids = st.graph.cells[c]
            rw = st.structure.word_resistance(cell_words(st.graph)[c])
            assert R[np.ix_(ids, ids)].max() <= rw * base + 1e-9


def test_boundary_resistance_matches_level_zero(stacks):
    for preset, m in (("interval", 5), ("sierpinski", 4), ("vicsek", 3)):
        st = stacks(preset, m)
        R0 = np.linalg.pinv(-np.asarray(st.structure.harmonic.D, float), hermitian=True)
        bid = st.graph.boundary_ids
        for a in range(st.structure.n_boundary):
            for b in range(a + 1, st.structure.n_boundary):
                expect = R0[a, a] + R0[b, b] - 2.0 * R0[a, b]
                assert st.table[bid[a], bid[b]] == pytest.approx(expect, abs=1e-9)


# -- balls and scaling ---------------------------------------------------------------------


def test_ball_trivial_cases(stacks):
    st = stacks("interval", 5)
    met = st.metric
    x = st.graph.vertex_id((0,), 1)
    ids, mass = met.ball(x, met.diameter() * 1.01)
    assert ids.size == st.graph.n_vertices and abs(mass - 1.0) < 1e-12
    row = met.from_vertex(x)
    ids, mass = met.ball(x, 0.5 * row[row > 0].min())
    assert ids.tolist() == [x]
    with pytest.raises(ValueError):
        met.ball(x, 0.0)


def test_interval_quarter_ball_mass(stacks):
    st = stacks("interval", 4)
    x = st.graph.vertex_id((0,), 1)
    ids, mass = st.metric.ball(x, 0.25)
    xs = st.graph.coords[ids, 0]
    assert xs.min() > 0.25 and xs.max() < 0.75
    assert mass == pytest.approx(7.0 / 16.0, abs=1e-12)


def test_interval_scaling_constants(stacks):
    st = stacks("interval", 6)
    h = 2.0**-6
    grid = [(j + 0.5) * h for j in (1, 2, 4, 8, 16)]
    rep = scaling_constants(st.metric, grid)
    assert rep.A1 >= 0.5 - 1e-12
    assert rep.A2 <= 2.0 + 1e-12
    assert not rep.degenerate


def test_scaling_degenerate_flag(stacks):
    st = stacks("interval", 4)
    rep = scaling_constants(st.metric, [st.metric.diameter() * 1.5])
    assert rep.degenerate
    assert rep.A1 == pytest.approx(rep.A2)


def test_sierpinski_scaling_bounded(stacks):
    st = stacks("sierpinski", 5)
    dia = st.metric.diameter()
    grid = np.geomspace(0.08 * dia, 0.5 * dia, 6)
    rep = scaling_constants(st.metric, grid, sample_vertices=range(0, st.graph.n_vertices, 7))
    assert 0.0 < rep.A1 <= rep.A2 < math.inf
    assert rep.A2 / rep.A1 < 40.0
    assert not rep.degenerate


def test_scaling_empty_grid_rejected(stacks):
    with pytest.raises(ValueError):
        scaling_constants(stacks("interval", 4).metric, [])


# -- measure self-similarity ------------------------------------------------------------


def test_cell_average_identity(stacks, rng):
    st = stacks("sierpinski", 4)
    G = st.graph
    f = rng.standard_normal(G.n_vertices)
    cellwise = float(np.sum(G.cell_measures * f[G.cells].mean(axis=1)))
    direct = float(np.sum(G.vertex_mass * f))
    assert cellwise == pytest.approx(direct, abs=1e-12)


def test_graph_export_csv(tmp_path, stacks):
    st = stacks("interval", 3)
    st.graph.export_csv(tmp_path)
    rows = (tmp_path / "vertices.csv").read_text().strip().splitlines()
    assert rows[0] == "vertex_id,x0,mass"
    assert len(rows) == 1 + st.graph.n_vertices
    cells = (tmp_path / "cells.csv").read_text().strip().splitlines()
    assert len(cells) == 1 + st.graph.n_cells
    for preset, m in (
        ("interval", 0),
        ("interval", 3),
        ("sierpinski", 0),
        ("sierpinski", 5),
        ("sierpinski", 7),
        ("vicsek", 3),
        ("vicsek", 4),
    ):
        graph = stacks(preset, m).graph
        graph.export_csv(tmp_path / f"{preset}{m}")
        (tmp_path / "loop").mkdir(exist_ok=True)
        loop_export_csv(graph, tmp_path / "loop")
        for name in ("vertices.csv", "cells.csv"):
            assert (tmp_path / f"{preset}{m}" / name).read_bytes() == (tmp_path / "loop" / name).read_bytes(), (preset, m, name)

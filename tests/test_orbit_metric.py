"""The resistance metric held on orbit rows against the whole n x n tables.

``ResistanceMetric`` keeps R, ``order`` and ``masses`` on the orbit
representatives only and reads every other row through the symmetry group.
The oracles build every row: the n x n table from the Neumann eigenbasis and
its row-by-row stable sort (``tests/oracles.py``).
"""

import functools
import tracemalloc

import numpy as np
import pytest

from pcftube.boundary import BoundarySet, maximal_function
from pcftube.core import TIE_RTOL, ResistanceMetric, build_level, load_structure
from pcftube.spectral import eigensystem, energy_matrix

from oracles import full_maximal, full_resistance

CASES = {
    "sierpinski-5": ("sierpinski", 5),
    "vicsek-3": ("vicsek", 3),
    "interval-7": ("interval", 7),
    # mu breaks every symmetry, so each vertex is its own representative
    "trivial-group-4": ({"preset": "sierpinski", "mu": [0.2, 0.3, 0.5]}, 4),
}


@functools.cache
def _case(name):
    config, m = CASES[name]
    graph = build_level(load_structure(config), m)
    basis = eigensystem(energy_matrix(graph), "neumann")
    return graph, ResistanceMetric(basis), full_resistance(basis)


@pytest.mark.parametrize("name", sorted(CASES))
def test_rows_and_pairs_match_the_whole_table(name):
    graph, met, R = _case(name)
    tol = 1e-13 * R.max()
    assert abs(met.diameter() - R.max()) <= tol
    for x in range(graph.n_vertices):
        assert np.abs(met.from_vertex(x) - R[x]).max() <= tol
    idx = np.arange(graph.n_vertices)
    assert np.abs(met.pairs(idx[:, None], idx) - R).max() <= tol
    xs, ys = np.random.default_rng(5).integers(0, graph.n_vertices, (2, 200))
    assert np.abs(met.pairs(xs, ys) - R[xs, ys]).max() <= tol
    if name.startswith("trivial"):
        assert met.reps.size == graph.n_vertices
    else:
        assert met.reps.size < graph.n_vertices
    assert met.realizable_balls()[0].shape == (met.reps.size, graph.n_vertices)


@pytest.mark.parametrize("name", sorted(CASES))
def test_balls_match_the_whole_table(name):
    graph, met, R = _case(name)
    tie = TIE_RTOL * R.max()
    for eps in np.geomspace(1e-3, 1.2, 17) * R.max():
        for x in range(graph.n_vertices):
            ids, mass = met.ball(x, eps)
            expect = np.flatnonzero(R[x] < eps - tie)
            assert np.array_equal(ids, expect)
            assert mass == graph.vertex_mass[expect].sum()


@pytest.mark.parametrize("name", sorted(CASES))
def test_boundary_set_distance_matches_the_whole_table(name):
    graph, met, R = _case(name)
    E = BoundarySet(graph, [(0,), (1, 0)])
    dist = E.distance(met)
    # the same entries as the metric's own rows, so the minima are exact
    idx = np.arange(graph.n_vertices)
    table = met.pairs(idx[:, None], idx)
    assert np.array_equal(dist, np.min(table, axis=1, where=E.vertex_indicator, initial=np.inf))
    full = np.min(R, axis=1, where=E.vertex_indicator, initial=np.inf)
    assert np.abs(dist - full).max() <= 1e-13 * R.max()
    assert np.array_equal(dist == 0.0, E.vertex_indicator)
    assert np.all(met.distance_to(np.zeros(graph.n_vertices, dtype=bool)) == np.inf)


@pytest.mark.parametrize("name", sorted(CASES))
def test_maximal_functions_match_the_whole_tables(name):
    graph, met, R = _case(name)
    rng = np.random.default_rng(3)
    functions = [rng.standard_normal(graph.n_vertices) for _ in range(3)]
    functions += [np.ones(graph.n_vertices), (graph.coords[:, 0] < 0.3).astype(float)]
    for f in functions:
        mf = maximal_function(met, f)
        expect = full_maximal(R, graph.vertex_mass, f)
        assert np.all(np.abs(mf - expect) <= 4 * np.spacing(np.abs(expect)))


def test_metric_memory_on_orbit_rows(stacks):
    # In units of one n x n float64 array at sierpinski m=6 (measured: 0.52
    # held with an intp order, 0.88 at peak).  The whole tables were 3.
    st = stacks("sierpinski", 6)
    basis = st.basis("neumann")
    dense = 8 * st.graph.n_vertices**2
    ResistanceMetric(basis).realizable_balls()  # warm-up
    tracemalloc.start()
    try:
        met = ResistanceMetric(basis)
        met.realizable_balls()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held <= 0.6 * dense
    assert peak <= 1.0 * dense

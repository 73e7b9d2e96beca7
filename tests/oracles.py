"""Independent oracles used to freeze expected values.

Everything here is deliberately written from scratch against closed forms or
brute-force enumeration, never by calling the code under test, so agreement
between the two is meaningful.
"""

import itertools
import math
from fractions import Fraction

import numpy as np

from pcftube.core import GLUE_COORD_TOL, TIE_RTOL


# -- unit interval classics ----------------------------------------------------


def interval_dirichlet_lambda(m: int, k: int) -> float:
    """Exact pencil eigenvalue of the level-m path graph with lumped mass."""
    return 4.0 ** (m + 1) * math.sin(k * math.pi / 2 ** (m + 1)) ** 2


def interval_neumann_lambda(m: int, k: int) -> float:
    return 4.0 ** (m + 1) * math.sin(k * math.pi / 2 ** (m + 1)) ** 2


def interval_poisson_dirichlet(t: float, x: float, y: float, nmax: int = 8000) -> float:
    n = np.arange(1, nmax + 1)
    return float(np.sum(2.0 * np.exp(-n * np.pi * t) * np.sin(n * np.pi * x) * np.sin(n * np.pi * y)))


def interval_heat_neumann(t: float, x: float, y: float, nmax: int = 4000) -> float:
    n = np.arange(1, nmax + 1)
    return float(1.0 + np.sum(2.0 * np.exp(-(n**2) * np.pi**2 * t) * np.cos(n * np.pi * x) * np.cos(n * np.pi * y)))


def interval_dirichlet_mass(t: float) -> float:
    """Closed form of the Dirichlet Poisson mass at x = 1/2."""
    return 4.0 / math.pi * math.atan(math.exp(-math.pi * t))


# -- similarity dimension by plain bisection ------------------------------------


def bisect_dimension(r, tol: float = 1e-13) -> float:
    g = lambda d: sum(ri**d for ri in r) - 1.0
    lo, hi = 0.0, 1.0
    while g(hi) > 0.0:
        lo, hi = hi, 2.0 * hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if g(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# -- gasket spectral decimation ---------------------------------------------------


def decimation_branch(z: float) -> float:
    return (5.0 - math.sqrt(25.0 - 4.0 * z)) / 2.0


def gasket_lambda1(m: int) -> float:
    """First Dirichlet eigenvalue at level m through the decimation recursion.

    The level-1 graph value 2 descends through the lower inverse branch of
    z (5 - z); the pencil normalization contributes the (3/2) 5^m factor.
    """
    z = 2.0
    for _ in range(m - 1):
        z = decimation_branch(z)
    return 1.5 * 5.0**m * z


def gasket_brute_dirichlet_matrix(m: int) -> np.ndarray:
    """Combinatorial graph Laplacian of the level-m gasket, interior block.

    Built by coordinate subdivision and deduplication, independently of the
    package's gluing.
    """
    corners = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]])
    cells = [corners]
    for _ in range(m):
        cells = [(cell + corners[i]) / 2.0 for cell in cells for i in range(3)]
    pts = np.round(np.vstack(cells), 12)
    uniq, inv = np.unique(pts, axis=0, return_inverse=True)
    n = uniq.shape[0]
    L = np.zeros((n, n))
    for ci in range(len(cells)):
        ids = inv[3 * ci : 3 * ci + 3]
        for a, b in itertools.combinations(ids.tolist(), 2):
            L[a, a] += 1.0
            L[b, b] += 1.0
            L[a, b] -= 1.0
            L[b, a] -= 1.0
    bidx = [int(np.where((uniq == np.round(c, 12)).all(axis=1))[0][0]) for c in corners]
    keep = [i for i in range(n) if i not in bidx]
    return L[np.ix_(keep, keep)]


# -- level-m graph, one word at a time -----------------------------------------------


class UnionFind:
    """Union-find with path compression over integer keys; a union keeps the
    smaller root."""

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, k: int) -> int:
        root = k
        while root != self.parent[root]:
            root = self.parent[root]
        while k != root:
            self.parent[k], k = root, self.parent[k]
        return root

    def union(self, a: int, b: int) -> int:
        ra, rb = self.find(a), self.find(b)
        if ra > rb:
            ra, rb = rb, ra
        self.parent[rb] = ra
        return ra


def loop_build_level(S, m: int) -> dict:
    """The glued level-m graph built word by word: a dict of tuple words, corner
    coordinates by prefix extension, every glue relation pushed down every
    prefix and depth into a union-find, and dense ids in first-appearance
    order.  Raises ValueError on a glued pair that disagrees in the embedding.
    """
    nB, N = S.n_boundary, S.n_symbols
    words = list(itertools.product(range(N), repeat=m))
    word_index = {w: c for c, w in enumerate(words)}
    uf = UnionFind(len(words) * nB)

    corner_pts = {(): S.boundary.copy()}
    for _ in range(m):
        corner_pts = {(s,) + w: S.maps[s](pts) for s in range(N) for w, pts in corner_pts.items()}
    coords_by_slot = np.empty((len(words), nB, S.ambient_dim))
    for w, c in word_index.items():
        coords_by_slot[c] = corner_pts[w]

    for i, p, j, q in S.identifications:
        sp, sq = S.self_symbols[p], S.self_symbols[q]
        for k in range(m):
            tail = m - 1 - k
            for u in itertools.product(range(N), repeat=k):
                ca = word_index[u + (i,) + (sp,) * tail]
                cb = word_index[u + (j,) + (sq,) * tail]
                gap = np.linalg.norm(coords_by_slot[ca, p] - coords_by_slot[cb, q])
                if gap > GLUE_COORD_TOL:
                    raise ValueError(f"glued pair disagrees in the embedding by {gap:.3e}")
                uf.union(ca * nB + p, cb * nB + q)

    root_to_id = {}
    cells = np.empty((len(words), nB), dtype=np.int64)
    coord_rows = []
    for c in range(len(words)):
        for p in range(nB):
            root = uf.find(c * nB + p)
            if root not in root_to_id:
                root_to_id[root] = len(root_to_id)
                coord_rows.append(coords_by_slot[c, p])
            cells[c, p] = root_to_id[root]
    coords = np.vstack(coord_rows)

    mu = S.measure_weights
    cell_measures = np.array([float(np.prod([mu[s] for s in w])) if w else 1.0 for w in words])
    vertex_mass = np.zeros(coords.shape[0])
    np.add.at(vertex_mass, cells.ravel(), np.repeat(cell_measures / nB, nB))
    boundary_ids = np.array([cells[word_index[(S.self_symbols[p],) * m], p] for p in range(nB)])
    return {
        "cells": cells,
        "coords": coords,
        "cell_measures": cell_measures,
        "vertex_mass": vertex_mass,
        "boundary_ids": boundary_ids,
    }


def cell_words(graph) -> list[tuple[int, ...]]:
    """Every cell's word in cell order: all words of length m, lexicographic."""
    return list(itertools.product(range(graph.structure.n_symbols), repeat=graph.level))


def loop_export_csv(graph, outdir) -> None:
    """``vertices.csv`` and ``cells.csv`` written one row at a time, each float
    through ``repr``."""
    import csv
    import os

    with open(os.path.join(outdir, "vertices.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["vertex_id"] + [f"x{k}" for k in range(graph.coords.shape[1])] + ["mass"])
        for v in range(graph.n_vertices):
            writer.writerow([v] + [repr(float(c)) for c in graph.coords[v]] + [repr(float(graph.vertex_mass[v]))])
    with open(os.path.join(outdir, "cells.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["word"] + [f"v{k}" for k in range(graph.cells.shape[1])])
        for c, w in enumerate(cell_words(graph)):
            writer.writerow(["".join(map(str, w))] + [int(v) for v in graph.cells[c]])


def loop_vertex_id(graph, word, p: int) -> int:
    """Vertex id of F_w(x_p): w padded with x_p's self-symbol, looked up in a
    dict of the graph's words."""
    full = tuple(word) + (graph.structure.self_symbols[p],) * (graph.level - len(word))
    return int(graph.cells[{w: c for c, w in enumerate(cell_words(graph))}[full], p])


def loop_cells_with_prefix(graph, prefix) -> np.ndarray:
    prefix = tuple(prefix)
    return np.array([c for c, w in enumerate(cell_words(graph)) if w[: len(prefix)] == prefix], dtype=int)


def loop_boundary_cells(graph, words) -> np.ndarray:
    """Cells below any of ``words``, by a scan of every cell's word."""
    prefixes = {tuple(w) for w in words}
    return np.array(
        [c for c, w in enumerate(cell_words(graph)) if any(w[: len(u)] in prefixes for u in prefixes)], dtype=int
    )


# -- energy form and eigen residuals ----------------------------------------------------


def loop_energy_matrix(graph) -> np.ndarray:
    """E assembled one cell at a time: (1/r_w) * (-D) added onto its corner ids."""
    S = graph.structure
    block = -np.asarray(S.harmonic.D, dtype=float)
    inv_rw = 1.0 / np.array([S.word_resistance(w) for w in cell_words(graph)])
    E = np.zeros((graph.n_vertices, graph.n_vertices))
    for c in range(graph.n_cells):
        ids = graph.cells[c]
        E[np.ix_(ids, ids)] += inv_rw[c] * block
    return 0.5 * (E + E.T)


def bincount_energy_matrix(graph) -> np.ndarray:
    """E from one dense bincount over all n^2 corner-pair keys of every cell,
    in cell order, symmetrized with its transpose."""
    S = graph.structure
    n = graph.n_vertices
    block = -np.asarray(S.harmonic.D, dtype=float)
    inv_rw = 1.0 / np.array([S.word_resistance(w) for w in cell_words(graph)])
    cells = graph.cells
    flat = (cells[:, :, None] * n + cells[:, None, :]).ravel()
    weights = (inv_rw[:, None, None] * block).ravel()
    E = np.bincount(flat, weights=weights, minlength=n * n).reshape(n, n)
    E += E.T
    E *= 0.5
    return E


def dense_harmonic_extension(graph, boundary_values) -> np.ndarray:
    """The level-m energy minimizer with the given V_0 values: one dense
    interior solve against ``bincount_energy_matrix``."""
    E = bincount_energy_matrix(graph)
    bid = graph.boundary_ids
    interior = np.flatnonzero(graph.interior_mask())
    h = np.zeros(graph.n_vertices)
    h[bid] = boundary_values
    rhs = -E[np.ix_(interior, bid)] @ np.asarray(boundary_values, dtype=float)
    h[interior] = np.linalg.solve(E[np.ix_(interior, interior)], rhs)
    return h


def dense_residuals(basis, E: np.ndarray) -> np.ndarray:
    """Per-mode max of |E phi - lambda M phi| from one dense product.

    Rows are the interior vertices for a Dirichlet basis and all vertices
    otherwise.
    """
    V = basis.vectors
    R = E @ V - (basis.mass[:, None] * V) * basis.eigenvalues[None, :]
    if basis.bc == "dirichlet":
        R = R[basis.graph.interior_mask()]
    return np.abs(R).max(axis=0)


def stencil_residuals(form, bc: str, eigenvalues: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Per-mode max of |E phi - lambda M phi| over the solved rows (interior
    rows for Dirichlet), E phi from one einsum over the stencil neighbours on
    row blocks of about 2**17 entries of the whole n x k array V."""
    graph = form.graph
    nbr, w = form._neighbours
    n, k = V.shape
    rows = np.flatnonzero(graph.interior_mask()) if bc == "dirichlet" else np.arange(n)
    out = np.zeros(k)
    step = max(1, 2**17 // k)
    for start in range(0, rows.size, step):
        r = rows[start : start + step]
        R = np.einsum("ik,ikj->ij", w[:, r].T, V[nbr[:, r].T])
        R -= (graph.vertex_mass[r, None] * V[r]) * eigenvalues[None, :]
        np.maximum(out, np.abs(R).max(axis=0), out=out)
    return out


def whole_array_tail(form, bc: str, group, irreps, bases, solved):
    """An eigenbasis from its block solves by whole-array passes.

    ``irreps``, the slot bases ``(cols, coef, size)`` of the irreps and
    their eigh results ``solved`` are taken as the solve produced them.
    Every mode is back-transformed into one n x k array in set layout (one
    set per irrep, then the s-odd partner set of each 2-dim irrep,
    (P_r - P_r^-1) v / (2 sin theta)) by one gather per slot over the whole
    array, divided by M^(1/2), signed by ``argmax_signs`` and sorted by one
    column gather.  Returns (eigenvalues, vectors, residuals, sup norms, max
    relative residual).
    """
    graph = form.graph
    n = graph.n_vertices
    k = len(group) // (1 + (graph.structure.involution is not None))
    partners = [i for i, rho in enumerate(irreps) if rho.shape[1] == 2]
    sets = [vals for vals, _ in solved] + [solved[i][0] for i in partners]
    vals = np.concatenate(sets)
    bounds = np.cumsum([0] + [v.size for v in sets])
    order = np.argsort(vals, kind="stable")
    vals = vals[order]
    vals[np.abs(vals) <= 1e-11 * max(1.0, abs(vals[-1]))] = 0.0
    phi = np.zeros((n, vals.size))
    for lo, hi, (_, Y), (cols, coef, _) in zip(bounds, bounds[1:], solved, bases):
        if hi > lo:
            X = coef[0][:, None] * Y[cols[0]]
            for c, w in zip(cols[1:], coef[1:]):
                X += w[:, None] * Y[c]
            phi[:, lo:hi] = X
    rot, rot_inv = group[1 % k], group[k - 1]
    for i, j in enumerate(partners):
        even = slice(bounds[j], bounds[j + 1])
        odd = slice(bounds[len(irreps) + i], bounds[len(irreps) + i + 1])
        X = phi[rot_inv, even]
        X -= phi[rot, even]
        X *= 0.5 / irreps[j][1, 1, 0]
        phi[:, odd] = X
    phi /= np.sqrt(graph.vertex_mass)[:, None]
    V = phi[:, order] * argmax_signs(phi)[order]
    resid = stencil_residuals(form, bc, vals, V)
    sup = np.maximum(V.max(axis=0), -V.min(axis=0))
    return vals, V, resid, sup, float((resid / (1.0 + vals)).max())


def dense_slot_basis(cols, coef, size: int) -> np.ndarray:
    """The n x size matrix U of a slot basis: U[p, cols[i, p]] = coef[i, p]."""
    U = np.zeros((cols.shape[1], size))
    i, p = np.nonzero(coef)
    U[p, cols[i, p]] = coef[i, p]
    return U


def isotypic_projector(group, rho, keep) -> np.ndarray:
    """(d / |G|) sum over g of rho(g)_11 P_g on the vertices ``keep`` (a mask
    the group maps onto itself), zero elsewhere: the orthogonal projector onto
    the component of the permutation representation that transforms like
    rho's first basis vector (Serre, section 2.7), P_g e_x = e_(g x)."""
    n = group.shape[1]
    P = np.zeros((n, n))
    for g, row in enumerate(group):
        P[row, np.arange(n)] += rho[g, 0, 0]
    P *= rho.shape[1] / len(group)
    P[~keep] = 0.0
    P[:, ~keep] = 0.0
    return P


def layout_back_transform(rho, parity: float, group, reps, types, Y) -> np.ndarray:
    """Block vectors Y (one per column) on the vertices, written orbit type by
    orbit type and slot by slot, as the per-type layout of the block solver
    wrote them before the slot basis: with b an orthonormal basis of rho's
    vectors fixed by the type's stabilizer and v = (rho(g_c) b)_1
    sqrt(d / |orbit|) averaged with its s-image, the points g_c reps of slot
    c get sum_i v[i] Y[o + i R + r]."""
    d = rho.shape[1]
    phi = np.zeros((group.shape[1], Y.shape[1]))
    o = 0
    for sl, fixed, slots, mirror in types:
        U, sv, _ = np.linalg.svd(rho[fixed].mean(axis=0))
        b = U[:, sv > 0.5]
        values = (rho[slots] @ b)[:, 0] * math.sqrt(d / slots.size)
        values = (values + parity * values[mirror]) * 0.5
        R = sl.stop - sl.start
        for g, v in zip(slots, values):
            if v.size:
                X = v[0] * Y[o : o + R]
                for i in range(1, v.size):
                    X += v[i] * Y[o + i * R : o + (i + 1) * R]
                phi[group[g, reps[sl]]] = X
        o += b.shape[1] * R
    return phi


def full_eigh(form, bc: str) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and mass-orthonormal eigenvectors (n x k, zero Dirichlet rows)
    from one eigh of the whole symmetrized block M^(-1/2) E M^(-1/2), with no
    symmetry split; the same clamp and sign rule as ``eigensystem``."""
    graph = form.graph
    mass = graph.vertex_mass
    keep = np.flatnonzero(graph.interior_mask()) if bc == "dirichlet" else np.arange(graph.n_vertices)
    m_half = np.sqrt(mass[keep])
    A = bincount_energy_matrix(graph)[np.ix_(keep, keep)] / m_half[:, None] / m_half[None, :]
    vals, phi = np.linalg.eigh(0.5 * (A + A.T))
    vals[np.abs(vals) <= 1e-11 * max(1.0, abs(vals[-1]))] = 0.0
    phi /= m_half[:, None]
    full = np.zeros((graph.n_vertices, vals.size))
    full[keep] = phi * argmax_signs(phi)[None, :]
    return vals, full


def argmax_signs(phi: np.ndarray) -> np.ndarray:
    """Sign of each column's first entry of largest magnitude, +1 for a zero
    column, from one whole-array argmax."""
    anchor = np.abs(phi).argmax(axis=0)
    signs = np.sign(phi[anchor, np.arange(phi.shape[1])])
    signs[signs == 0.0] = 1.0
    return signs


# -- resistance metric ----------------------------------------------------------------


def grounded_resistance(E: np.ndarray, a: int, b: int) -> float:
    """R(a, b) from one linear solve: ground b, inject a unit current at a."""
    if a == b:
        return 0.0
    n = E.shape[0]
    keep = np.arange(n) != b
    rhs = np.zeros(n)
    rhs[a] = 1.0
    x = np.linalg.solve(E[np.ix_(keep, keep)], rhs[keep])
    return float(x[a - (a > b)])


def exact_resistance(graph) -> np.ndarray:
    """Whole resistance matrix in exact rational arithmetic, returned as floats.

    The energy form is assembled from the structure's D and r as fractions
    (r_i rounded to the nearest fraction with denominator <= 10**6, exact for
    the presets), vertex 0 is grounded and the reduced form is inverted by
    Gauss-Jordan elimination, so exact resistance ties stay exact.  Cost grows
    quickly with the level: sierpinski m=3 (42 vertices) takes a fraction of a
    second, m=4 several seconds.
    """
    S = graph.structure
    n = graph.n_vertices
    D = [[Fraction(float(v)).limit_denominator(10**6) for v in row] for row in np.asarray(S.harmonic.D)]
    r = [Fraction(float(v)).limit_denominator(10**6) for v in S.harmonic.r]
    E = [[Fraction(0)] * n for _ in range(n)]
    for word, ids in zip(cell_words(graph), graph.cells.tolist()):
        conductance = Fraction(1)
        for s in word:
            conductance /= r[s]
        for p, a in enumerate(ids):
            for q, b in enumerate(ids):
                E[a][b] -= conductance * D[p][q]
    # Gauss-Jordan on [E_00 | I] with vertex 0 grounded; E_00 is positive definite.
    k = n - 1
    rows = [E[i][1:] + [Fraction(int(i == j)) for j in range(1, n)] for i in range(1, n)]
    for col in range(k):
        pivot = rows[col][col]
        rows[col] = [v / pivot for v in rows[col]]
        for i in range(k):
            factor = rows[i][col]
            if i != col and factor:
                rows[i] = [u - factor * v for u, v in zip(rows[i], rows[col])]
    G = [[Fraction(0)] * n] + [[Fraction(0)] + row[k:] for row in rows]
    return np.array([[float(G[a][a] + G[b][b] - 2 * G[a][b]) for b in range(n)] for a in range(n)])


def full_resistance(basis) -> np.ndarray:
    """The whole n x n resistance table from the Neumann eigenbasis, every row
    computed: G = S S^T for S = V / sqrt(lambda) over the modes with
    lambda > 0, R = G(x, x) + G(y, y) - 2 G(x, y), zero on the diagonal and
    clipped at zero."""
    pos = basis.eigenvalues > 0.0
    scaled = basis.vectors[:, pos] / np.sqrt(basis.eigenvalues[pos])
    R = scaled @ scaled.T
    diag = np.diag(R).copy()
    R *= -2.0
    R += diag[:, None]
    R += diag[None, :]
    np.fill_diagonal(R, 0.0)
    return np.maximum(R, 0.0, out=R)


def full_realizable_balls(R: np.ndarray, mass: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(order, masses) for every row of R, sorted row by row: order[x] lists
    the vertices by ascending R(x, .) (stable sort), masses[x, k] is the
    measure of the prefix order[x, :k + 1], inf where the prefix ends inside a
    tie (a gap of at most TIE_RTOL * R.max())."""
    n = R.shape[0]
    tie = TIE_RTOL * R.max()
    order = np.empty((n, n), dtype=np.intp)
    masses = np.empty((n, n))
    for x, row in enumerate(R):
        o = np.argsort(row, kind="stable")
        order[x] = o
        masses[x] = np.cumsum(mass[o])
        masses[x, :-1][np.diff(row[o]) <= tie] = np.inf
    return order, masses


def full_maximal(R: np.ndarray, mass: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Mf at every vertex from the whole tables of ``full_realizable_balls``."""
    order, masses = full_realizable_balls(R, mass)
    return (np.cumsum((mass * np.abs(f))[order], axis=1) / masses).max(axis=1)


# -- brute-force maximal function ---------------------------------------------------


def brute_maximal(R: np.ndarray, mass: np.ndarray, f: np.ndarray, x: int) -> float:
    """Exhaustive sweep of every realizable open-ball average at x.

    The distinct balls {R(x, .) < eps} are realized just below each positive
    radius, plus the whole space for eps beyond the diameter.
    """
    best = 0.0
    radii = np.unique(R[x])
    for eps in list(radii[1:]) + [radii[-1] + 1.0]:
        ball = R[x] < eps
        best = max(best, float((mass[ball] * np.abs(f[ball])).sum() / mass[ball].sum()))
    return best


def brute_maximal_measure(R: np.ndarray, mass: np.ndarray, atom_vec: np.ndarray, x: int) -> float:
    best = 0.0
    radii = np.unique(R[x])
    for eps in list(radii[1:]) + [radii[-1] + 1.0]:
        ball = R[x] < eps
        best = max(best, float(atom_vec[ball].sum() / mass[ball].sum()))
    return best


# -- brute-force kernel bound sweeps --------------------------------------------------


def full_mode_kernel(vectors: np.ndarray, rate: np.ndarray, t: float, x=slice(None), y=None):
    """sum_n e^(-rate_n t) phi_n(x) phi_n(y) over every mode, with no underflow cut.

    With y omitted the kernel is A A^T with A = phi(x) e^(-rate t/2), the same
    product the evaluator forms for its matrices.
    """
    if y is None:
        A = vectors[x] * np.exp(-0.5 * t * rate)
        return A @ A.T
    return (vectors[x] * np.exp(-rate * t)) @ vectors[y].T


def brute_bound_constant(P_by_t, R: np.ndarray, d: float, t_grid, pairs):
    """Pair-by-pair sweep of P(t,x,y) against the two-branch bound and the
    combined bound t / (t^2 + R^(d+1))^((3d+1)/(2(d+1))).

    ``P_by_t[i]`` is the dense kernel matrix at ``t_grid[i]``.  Pairs with
    P <= 0 are skipped.  Each maximum is exact; its location moves to a later
    t only when that t beats the running maximum by more than ``TIE_RTOL``
    (relative), and then names that t's first pair within ``TIE_RTOL`` of it.
    Returns (C, C_at, C_prime, C_prime_at).
    """

    def fold(best, at, rows):
        if not rows:
            return best, at
        top = max(ratio for ratio, _ in rows)
        if top > best and (best == -math.inf or top - best > TIE_RTOL * best):
            at = next(where for ratio, where in rows if ratio >= top - TIE_RTOL * top)
        return max(best, top), at

    best = best_p = -math.inf
    at = at_p = (0.0, 0, 0)
    for t, P in zip(t_grid, P_by_t):
        t = float(t)
        branch1 = t ** (-2.0 * d / (d + 1.0))
        rows, rows_p = [], []
        for x, y in pairs:
            val = float(P[x, y])
            if val <= 0.0:
                continue
            r = float(R[x, y])
            if r > 0.0:
                bound = min(branch1, t / r ** ((3.0 * d + 1.0) / 2.0))
            else:
                bound = branch1
            combined = t / (t * t + r ** (d + 1.0)) ** ((3.0 * d + 1.0) / (2.0 * (d + 1.0)))
            rows.append((val / bound, (t, int(x), int(y))))
            rows_p.append((val / combined, (t, int(x), int(y))))
        best, at = fold(best, at, rows)
        best_p, at_p = fold(best_p, at_p, rows_p)
    return best, at, best_p, at_p


def brute_shifted_kernel_constant(P_by_t, R: np.ndarray, d: float, x: int, apex: int, aperture: float, height: float, t_grid) -> float:
    """max of P(t,y,z) / min{t^(-2d/(d+1)), t / R(x,z)^((3d+1)/2)} over every
    t in ``t_grid``, every y with 0 < t < height and R(apex,y)^(d+1) <
    aperture t^2, and every target z with P > 0; 0 when there is none."""
    n = R.shape[0]
    best = 0.0
    for t, P in zip(t_grid, P_by_t):
        t = float(t)
        if not 0.0 < t < height:
            continue
        branch1 = t ** (-2.0 * d / (d + 1.0))
        for y in range(n):
            if not float(R[apex, y]) ** (d + 1.0) < aperture * t * t:
                continue
            for z in range(n):
                r = float(R[x, z])
                bound = min(branch1, t / r ** ((3.0 * d + 1.0) / 2.0)) if r > 0.0 else branch1
                if P[y, z] > 0.0:
                    best = max(best, float(P[y, z]) / bound)
    return best


# -- whole-matrix kernel checks ---------------------------------------------------


def full_kernel_min(ev, t: float) -> float:
    """Smallest entry of the whole Poisson and heat kernel matrices at t."""
    return min(float(ev.poisson_matrix(t).min()), float(ev.heat_matrix(t).min()))


def full_semigroup_defect(ev, t: float, s: float, kind: str) -> float:
    """max |K_t M K_s - K_(t+s)| over every (x, y), from whole kernel matrices."""
    mat = ev.poisson_matrix if kind == "poisson" else ev.heat_matrix
    comp = mat(t) @ (ev.mass[:, None] * mat(s)) - mat(t + s)
    return float(np.abs(comp).max())


# -- subordination by recursive adaptive Simpson -----------------------------------


def _simpson(g, a, b, fa, fm, fb, whole, tol, depth):
    m = 0.5 * (a + b)
    lm, rm = 0.5 * (a + m), 0.5 * (m + b)
    flm, frm = g(lm), g(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    if depth <= 0:
        raise RuntimeError("quadrature did not converge")
    if abs(left + right - whole) <= 15.0 * tol:
        return left + right + (left + right - whole) / 15.0
    return _simpson(g, a, m, fa, flm, fm, left, tol / 2.0, depth - 1) + _simpson(
        g, m, b, fm, frm, fb, right, tol / 2.0, depth - 1
    )


def adaptive_simpson(g, a: float, b: float, tol: float) -> float:
    """int_a^b g by recursive adaptive Simpson with Richardson correction,
    failing on a panel of 2**-48 the width of [a, b]."""
    fa, fb = g(a), g(b)
    m = 0.5 * (a + b)
    fm = g(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return _simpson(g, a, b, fa, fm, fb, whole, tol, 48)


def simpson_subordination(h, t: float, tol: float = 1e-7, h_inf: float = 0.0) -> float:
    """(2/sqrt(pi)) * int_0^inf exp(-v^2) h(t^2 / (4 v^2)) dv for a scalar h.

    Adaptive Simpson on panels spanning a factor of sqrt(2) in v over
    [1e-8, 8]; below 1e-8 the integrand is exp(-v^2) h_inf (h's limit at
    s = inf), which adds erf(1e-8) h_inf.
    """
    v0, v1 = 1e-8, 8.0

    def integrand(v: float) -> float:
        return math.exp(-v * v) * h(t * t / (4.0 * v * v))

    panels = math.ceil(2.0 * math.log2(v1 / v0))
    edges = np.geomspace(v0, v1, panels + 1)
    panel_tol = tol * math.sqrt(math.pi) / (2.0 * panels)
    total = math.fsum(adaptive_simpson(integrand, a, b, panel_tol) for a, b in zip(edges[:-1], edges[1:]))
    return total * 2.0 / math.sqrt(math.pi) + math.erf(v0) * h_inf

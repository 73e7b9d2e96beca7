"""Independent oracles used to freeze expected values.

Everything here is deliberately written from scratch against closed forms or
brute-force enumeration, never by calling the code under test, so agreement
between the two is meaningful.
"""

import itertools
import math
from fractions import Fraction

import numpy as np


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
    package's union-find construction.
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
    for word, ids in zip(graph.words, graph.cells.tolist()):
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


def brute_bound_constant(P_by_t, R: np.ndarray, d: float, t_grid, pairs):
    """Pair-by-pair sweep of P(t,x,y) against the two-branch bound and the
    combined bound t / (t^2 + R^(d+1))^((3d+1)/(2(d+1))).

    ``P_by_t[i]`` is the dense kernel matrix at ``t_grid[i]``.  Pairs with
    P <= 0 are skipped; each maximum keeps the first (t, x, y) attaining it.
    Returns (C, C_at, C_prime, C_prime_at).
    """
    best = best_p = -math.inf
    at = at_p = (0.0, 0, 0)
    for t, P in zip(t_grid, P_by_t):
        t = float(t)
        branch1 = t ** (-2.0 * d / (d + 1.0))
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
            if val / bound > best:
                best, at = val / bound, (t, int(x), int(y))
            if val / combined > best_p:
                best_p, at_p = val / combined, (t, int(x), int(y))
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

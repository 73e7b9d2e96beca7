"""Self-similar structures and their level-m vertex graph approximations.

A structure is a finite family of affine contractions of R^n together with a
boundary point set V_0, a list of identification relations F_i(x_p) = F_j(x_q)
describing how first-level cells touch, and a regular harmonic structure
(D, r).  From these we build, for any level m, the glued vertex set
V_m = union of F_w(V_0) over words w of length m and the self-similar measure
(lumped to vertex masses).  The effective resistance metric of the associated
resistor network is read off the Neumann eigenbasis of the level-m energy
form (see ``ResistanceMetric``), so each level is factorized once; resistance
radii are compared under one tie rule, ``TIE_RTOL``.  A structure also
carries its reflection symmetry, if it has one (``_find_involution``), which
``VertexGraph.vertex_involution`` lifts to every level.

Gluing is purely combinatorial: identification relations are propagated to
every scale through a union-find, and embedding coordinates are used only to
cross-validate the result.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

if TYPE_CHECKING:
    from .spectral import EigenBasis

IDENT_TOL = 1e-12
GLUE_COORD_TOL = 1e-10
DEFAULT_BUDGET = 200_000
# Two resistances closer than TIE_RTOL * diameter are the same radius.  Row
# gaps between sorted resistances are roundoff splits of exact ties (<= 5e-12
# * diameter) or genuine (>= 5e-9 * diameter) on interval m <= 10, sierpinski
# m <= 6 and vicsek m <= 4.  Genuine sierpinski gaps shrink 25-50 fold per
# level (2.0e-10 at m = 7), so deeper levels are not covered.
TIE_RTOL = 1e-10


class StructureError(ValueError):
    """Malformed or inconsistent structure configuration."""


class BudgetError(RuntimeError):
    """Requested level exceeds the configured size budget."""


class UnionFind:
    """Union-find with path compression over integer keys."""

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


@dataclass(frozen=True)
class AffineMap:
    """Contraction x -> scale * rotation @ x + translation."""

    scale: float
    rotation: np.ndarray
    translation: np.ndarray

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        return self.scale * (np.asarray(pts, dtype=float) @ self.rotation.T) + self.translation

    def compose(self, other: "AffineMap") -> "AffineMap":
        """Composition self o other."""
        rot = self.rotation @ other.rotation
        trans = self.scale * (self.rotation @ other.translation) + self.translation
        return AffineMap(self.scale * other.scale, rot, trans)


@dataclass(frozen=True)
class HarmonicStructure:
    """Boundary energy form D and per-map resistance weights r.

    D is symmetric with zero row sums and nonpositive diagonal; -D induces a
    positive-semidefinite quadratic form.  Regularity means all r_i lie in
    (0, 1).
    """

    D: np.ndarray
    r: np.ndarray

    def validate(self) -> None:
        D = np.asarray(self.D, dtype=float)
        if D.ndim != 2 or D.shape[0] != D.shape[1]:
            raise StructureError("D must be a square matrix")
        if np.abs(D - D.T).max() > IDENT_TOL:
            raise StructureError("D must be symmetric")
        if np.abs(D.sum(axis=1)).max() > IDENT_TOL:
            raise StructureError("D must have zero row sums")
        if np.diag(D).max() > IDENT_TOL:
            raise StructureError("D must have nonpositive diagonal")
        if np.linalg.eigvalsh(-D).min() < -1e-10:
            raise StructureError("-D must be positive semidefinite")
        r = np.asarray(self.r, dtype=float)
        if np.any(r <= 0.0) or np.any(r >= 1.0):
            raise StructureError("harmonic structure is not regular: need 0 < r_i < 1")


def similarity_dimension(r: Sequence[float], tol: float = 1e-12) -> float:
    """Unique d > 0 with sum_i r_i**d = 1, located by safeguarded bisection.

    g(d) = sum r_i**d - 1 is strictly decreasing with g(0) = N - 1 > 0 and
    g -> -1, so the root exists and is unique; we bisect until |g(d)| <= tol.
    """
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0.0) or np.any(r >= 1.0):
        raise StructureError("weights must lie in (0, 1)")

    def g(d: float) -> float:
        return float(np.sum(r**d) - 1.0)

    lo, hi = 0.0, 1.0
    while g(hi) > 0.0:
        lo, hi = hi, 2.0 * hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-16 * max(1.0, hi):
            break
    d = 0.5 * (lo + hi)
    if abs(g(d)) > tol:
        raise StructureError(f"dimension solve did not converge: |g| = {abs(g(d)):.3e}")
    return d


@dataclass(frozen=True)
class SelfSimilarStructure:
    """A validated p.c.f. self-similar structure with harmonic structure.

    ``identifications`` is a tuple of (i, p, j, q) meaning F_i(x_p) = F_j(x_q)
    with i != j.  ``self_symbols[p]`` is the symbol s with F_s(x_p) = x_p;
    every boundary point must be the fixed point of one of the maps, which is
    what lets identifications be pushed to arbitrary scale combinatorially.

    ``involution`` is the structure's reflection symmetry (sigma, pi), derived
    by ``load_structure``: sigma permutes the boundary indices and pi the map
    indices (see ``_find_involution``), or None when there is none.
    """

    name: str
    maps: tuple[AffineMap, ...]
    boundary: np.ndarray
    identifications: tuple[tuple[int, int, int, int], ...]
    harmonic: HarmonicStructure
    measure_weights: np.ndarray
    self_symbols: tuple[int, ...]
    dim: float
    involution: tuple[tuple[int, ...], tuple[int, ...]] | None = None

    @property
    def n_symbols(self) -> int:
        return len(self.maps)

    @property
    def n_boundary(self) -> int:
        return self.boundary.shape[0]

    @property
    def ambient_dim(self) -> int:
        return self.boundary.shape[1]

    def word_map(self, word: Sequence[int]) -> AffineMap:
        n = self.ambient_dim
        out = AffineMap(1.0, np.eye(n), np.zeros(n))
        for s in word:
            out = out.compose(self.maps[s])
        return out

    def point(self, word: Sequence[int], p: int) -> np.ndarray:
        return self.word_map(word)(self.boundary[p])

    def word_resistance(self, word: Sequence[int]) -> float:
        r = self.harmonic.r
        return float(np.prod([r[s] for s in word])) if len(word) else 1.0

    def word_measure(self, word: Sequence[int]) -> float:
        mu = self.measure_weights
        return float(np.prod([mu[s] for s in word])) if len(word) else 1.0


def _rotation_from(entry, n: int) -> np.ndarray:
    if entry is None:
        return np.eye(n)
    rot = np.asarray(entry, dtype=float)
    if rot.shape == () and n == 1:
        rot = rot.reshape(1, 1)
    if rot.shape != (n, n):
        raise StructureError(f"rotation must be {n}x{n}")
    if np.abs(rot @ rot.T - np.eye(n)).max() > 1e-10:
        raise StructureError("rotation part must be orthogonal")
    return rot


def _preset_interval() -> dict:
    return {
        "name": "interval",
        "maps": [
            {"scale": 0.5, "translation": [0.0]},
            {"scale": 0.5, "translation": [0.5]},
        ],
        "boundary": [[0.0], [1.0]],
        "identifications": [[0, 1, 1, 0]],
        "D": [[-1.0, 1.0], [1.0, -1.0]],
        "r": [0.5, 0.5],
    }


def _preset_sierpinski() -> dict:
    corners = [[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]]
    return {
        "name": "sierpinski",
        "maps": [
            {"scale": 0.5, "translation": [c / 2.0 for c in corner]} for corner in corners
        ],
        "boundary": corners,
        "identifications": [[0, 1, 1, 0], [0, 2, 2, 0], [1, 2, 2, 1]],
        "D": [[-2.0, 1.0, 1.0], [1.0, -2.0, 1.0], [1.0, 1.0, -2.0]],
        "r": [0.6, 0.6, 0.6],
    }


def _preset_vicsek() -> dict:
    # Diagonal cross: four corner cells plus a center cell, each of scale 1/3.
    # With the complete-graph form on the four corners, r = 1/3 reproduces D
    # exactly under the level-1 network trace.
    corners = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
    maps = [{"scale": 1.0 / 3.0, "translation": [2.0 * c / 3.0 for c in corner]} for corner in corners]
    maps.append({"scale": 1.0 / 3.0, "translation": [1.0 / 3.0, 1.0 / 3.0]})
    idents = [[0, 2, 4, 0], [1, 3, 4, 1], [2, 0, 4, 2], [3, 1, 4, 3]]
    D = [
        [-3.0, 1.0, 1.0, 1.0],
        [1.0, -3.0, 1.0, 1.0],
        [1.0, 1.0, -3.0, 1.0],
        [1.0, 1.0, 1.0, -3.0],
    ]
    return {
        "name": "vicsek",
        "maps": maps,
        "boundary": corners,
        "identifications": idents,
        "D": D,
        "r": [1.0 / 3.0] * 5,
    }


PRESETS = {
    "interval": _preset_interval,
    "sierpinski": _preset_sierpinski,
    "vicsek": _preset_vicsek,
}


def load_structure(config: dict | str) -> SelfSimilarStructure:
    """Build and validate a structure from a preset name or an explicit config.

    Parameters
    ----------
    config : dict or str
        Either a preset name ("interval", "sierpinski", "vicsek"), a dict with
        a "preset" key, or an explicit dict with keys maps, boundary,
        identifications, D, r and optionally mu (Bernoulli measure weights,
        defaulting to r_i**d).

    Raises
    ------
    StructureError
        If any invariant fails: identification relations that do not hold in
        the embedding, a non-symmetric or non-conservative D, weights outside
        (0, 1), or boundary points that are not fixed points of any map.
    """
    if isinstance(config, str):
        config = {"preset": config}
    if not isinstance(config, dict):
        raise StructureError("config must be a dict or preset name")
    if "preset" in config:
        name = config["preset"]
        if name not in PRESETS:
            raise StructureError(f"unknown preset {name!r}")
        base = PRESETS[name]()
        base.update({k: v for k, v in config.items() if k not in ("preset",)})
        config = base

    try:
        boundary = np.asarray(config["boundary"], dtype=float)
        raw_maps = config["maps"]
        idents = [tuple(int(v) for v in rel) for rel in config["identifications"]]
        D = np.asarray(config["D"], dtype=float)
        r = np.asarray(config["r"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise StructureError(f"malformed config: {exc}") from exc

    if boundary.ndim != 2 or boundary.shape[0] == 0:
        raise StructureError("boundary must be a nonempty list of points")
    n = boundary.shape[1]
    maps = []
    for map_cfg in raw_maps:
        scale = float(map_cfg["scale"])
        if not 0.0 < scale < 1.0:
            raise StructureError(f"map scale {scale} not in (0, 1)")
        rot = _rotation_from(map_cfg.get("rotation"), n)
        trans = np.asarray(map_cfg["translation"], dtype=float)
        if trans.shape != (n,):
            raise StructureError("translation dimension mismatch")
        maps.append(AffineMap(scale, rot, trans))
    if len(maps) < 2:
        raise StructureError("need at least two contractions")

    nB = boundary.shape[0]
    if D.shape != (nB, nB):
        raise StructureError("D size must match the number of boundary points")
    if r.shape != (len(maps),):
        raise StructureError("r must have one weight per map")
    harmonic = HarmonicStructure(D=D, r=r)
    harmonic.validate()

    for i, p, j, q in idents:
        if i == j:
            raise StructureError("identification must relate two distinct maps")
        if not (0 <= i < len(maps) and 0 <= j < len(maps)):
            raise StructureError("identification map index out of range")
        if not (0 <= p < nB and 0 <= q < nB):
            raise StructureError("identification boundary index out of range")
        gap = np.linalg.norm(maps[i](boundary[p]) - maps[j](boundary[q]))
        if gap > IDENT_TOL:
            raise StructureError(
                f"identification F_{i}(x_{p}) = F_{j}(x_{q}) violated by {gap:.3e}"
            )

    self_symbols = []
    for p in range(nB):
        hits = [s for s, F in enumerate(maps) if np.linalg.norm(F(boundary[p]) - boundary[p]) <= IDENT_TOL]
        if not hits:
            raise StructureError(
                f"boundary point {p} is not the fixed point of any map; "
                "scale-by-scale gluing needs a self-address for every boundary point"
            )
        self_symbols.append(hits[0])

    d = similarity_dimension(r)
    if "mu" in config and config["mu"] is not None:
        mu = np.asarray(config["mu"], dtype=float)
        if mu.shape != r.shape or np.any(mu <= 0) or np.any(mu >= 1):
            raise StructureError("mu weights must lie in (0, 1), one per map")
        if abs(mu.sum() - 1.0) > IDENT_TOL:
            raise StructureError("mu weights must sum to 1")
    else:
        mu = r**d
        mu = mu / mu.sum()  # exact normalization against roundoff

    return SelfSimilarStructure(
        name=str(config.get("name", "custom")),
        maps=tuple(maps),
        boundary=boundary,
        identifications=tuple(idents),
        harmonic=harmonic,
        measure_weights=mu,
        self_symbols=tuple(self_symbols),
        dim=d,
        involution=_find_involution(maps, boundary, idents, D, r, mu),
    )


def _find_involution(maps, boundary, idents, D, r, mu):
    """The first boundary involution sigma, in ``itertools.permutations``
    order, under which the structure is symmetric, with its map permutation
    pi; None when there is none.

    sigma is a non-identity involution of the boundary indices that extends
    to an isometry T (T x_p = x_sigma(p)) conjugating every map onto a map,
    T F_i = F_pi(i) T on V_0.  D, r and mu must be invariant under sigma and
    pi, and the identification relations must be carried onto identification
    relations, so that the gluing at every level is symmetric too
    (``VertexGraph.vertex_involution``).  A map between finite point sets
    extends to an isometry exactly when it preserves every distance, so T is
    tested on V_0 and the level-1 corners F_i(x_p) by distances alone.
    """
    nB, n = boundary.shape
    N = len(maps)
    ids = np.arange(nB)
    corners = np.array([F(boundary) for F in maps])
    relations = {frozenset([(i, p), (j, q)]) for i, p, j, q in idents}

    def congruent(X: np.ndarray, Y: np.ndarray) -> bool:
        dX = np.linalg.norm(X[:, None] - X[None], axis=2)
        dY = np.linalg.norm(Y[:, None] - Y[None], axis=2)
        return bool(np.abs(dX - dY).max() <= IDENT_TOL)

    for sigma in itertools.permutations(range(nB)):
        s = np.array(sigma)
        if np.array_equal(s, ids) or not np.array_equal(s[s], ids):
            continue
        pi = [
            j
            for i in range(N)
            for j in range(N)
            if congruent(np.vstack([boundary, corners[i]]), np.vstack([boundary[s], corners[j, s]]))
        ]
        if sorted(pi) != list(range(N)) or not congruent(
            np.vstack([boundary, *corners]), np.vstack([boundary[s], *corners[pi][:, s]])
        ):
            continue
        if (
            np.abs(D[np.ix_(s, s)] - D).max() > IDENT_TOL
            or np.abs(r[pi] - r).max() > IDENT_TOL
            or np.abs(mu[pi] - mu).max() > IDENT_TOL
            or {frozenset([(pi[i], sigma[p]), (pi[j], sigma[q])]) for i, p, j, q in idents} != relations
        ):
            continue
        return tuple(sigma), tuple(pi)
    return None


def enumerate_words(n_symbols: int, m: int) -> list[tuple[int, ...]]:
    return list(itertools.product(range(n_symbols), repeat=m))


@dataclass
class VertexGraph:
    """Level-m vertex approximation of a self-similar set.

    ``cells[c]`` holds the vertex ids of F_w(V_0) in boundary order for the
    c-th word, ``cell_measures[c]`` its measure, and ``vertex_mass`` the
    lumped quadrature weights M(p) = sum over incident cells of mu_w / |V_0|.
    """

    structure: SelfSimilarStructure
    level: int
    words: list[tuple[int, ...]]
    cells: np.ndarray
    coords: np.ndarray
    cell_measures: np.ndarray
    vertex_mass: np.ndarray
    boundary_ids: np.ndarray
    _word_index: dict = field(repr=False, default_factory=dict)

    @property
    def n_vertices(self) -> int:
        return self.coords.shape[0]

    @property
    def n_cells(self) -> int:
        return self.cells.shape[0]

    def vertex_id(self, word: Sequence[int], p: int) -> int:
        """Vertex id of F_w(x_p) for any prefix word with |w| <= level."""
        word = tuple(word)
        if len(word) > self.level:
            raise ValueError("word longer than graph level")
        s = self.structure.self_symbols[p]
        full = word + (s,) * (self.level - len(word))
        return int(self.cells[self._word_index[full], p])

    def vertex_involution(self) -> np.ndarray:
        """The structure's involution on V_m as a vertex permutation ``perm``.

        The involution carries cell w onto cell pi(w) (pi letter by letter,
        base-N digit arithmetic on the cell index) and its corner p onto corner
        sigma(p), so perm[cells[c]] = cells[pi(c)][sigma].  The identity when
        the structure has no involution.
        """
        n = self.n_vertices
        if self.structure.involution is None:
            return np.arange(n)
        sigma, pi = (np.array(v) for v in self.structure.involution)
        N = self.structure.n_symbols
        c = np.arange(self.n_cells)
        image = np.zeros_like(c)
        for k in range(self.level):
            place = N ** (self.level - 1 - k)
            image += pi[c // place % N] * place
        target = self.cells[image][:, sigma]
        perm = np.empty(n, dtype=np.intp)
        perm[self.cells] = target
        if not (np.array_equal(perm[self.cells], target) and np.array_equal(perm[perm], np.arange(n))):
            raise StructureError(f"the involution does not lift to a vertex involution at level {self.level}")
        return perm

    def interior_mask(self) -> np.ndarray:
        mask = np.ones(self.n_vertices, dtype=bool)
        mask[self.boundary_ids] = False
        return mask

    def cells_with_prefix(self, prefix: Sequence[int]) -> np.ndarray:
        prefix = tuple(prefix)
        k = len(prefix)
        return np.array([c for c, w in enumerate(self.words) if w[:k] == prefix], dtype=int)

    def export_csv(self, outdir) -> None:
        import csv
        import os

        os.makedirs(outdir, exist_ok=True)
        with open(os.path.join(outdir, "vertices.csv"), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["vertex_id"] + [f"x{k}" for k in range(self.coords.shape[1])] + ["mass"])
            for v in range(self.n_vertices):
                writer.writerow([v] + [repr(float(c)) for c in self.coords[v]] + [repr(float(self.vertex_mass[v]))])
        with open(os.path.join(outdir, "cells.csv"), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["word"] + [f"v{k}" for k in range(self.cells.shape[1])])
            for c, w in enumerate(self.words):
                writer.writerow(["".join(map(str, w))] + [int(v) for v in self.cells[c]])


def build_level(structure: SelfSimilarStructure, m: int, budget: int = DEFAULT_BUDGET) -> VertexGraph:
    """Construct the glued level-m vertex graph.

    Two corner slots (w, p) and (w', p') receive the same vertex id exactly
    when forced by an identification relation applied at some scale: for each
    relation F_i(x_p) = F_j(x_q), every prefix u and descent depth l give the
    union (u i s_p^l, p) ~ (u j s_q^l, q), where s_p is the self-symbol of
    x_p.  Coordinates of every union are checked to agree in the embedding.
    """
    if m < 0:
        raise StructureError("level must be nonnegative")
    S = structure
    nB, N = S.n_boundary, S.n_symbols
    n_words = N**m
    if n_words * nB > budget:
        raise BudgetError(
            f"level {m} needs {n_words * nB} corner slots, over the budget of {budget}"
        )

    words = enumerate_words(N, m)
    word_index = {w: c for c, w in enumerate(words)}

    uf = UnionFind(n_words * nB)
    key = lambda c, p: c * nB + p

    # Cell corner coordinates, built by extending prefixes one symbol at a time.
    corner_pts = {(): S.boundary.copy()}
    for _ in range(m):
        nxt = {}
        for w, pts in corner_pts.items():
            for s in range(N):
                nxt[w + (s,)] = None
        # apply maps by leading symbol: F_{(s,)+w}(V0) = F_s(F_w(V0))
        for w in nxt:
            nxt[w] = S.maps[w[0]](corner_pts[w[1:]])
        corner_pts = nxt
    coords_by_slot = np.empty((n_words, nB, S.ambient_dim))
    for w, c in word_index.items():
        coords_by_slot[c] = corner_pts[w]

    for i, p, j, q in S.identifications:
        sp, sq = S.self_symbols[p], S.self_symbols[q]
        for k in range(m):
            tail = m - 1 - k
            suffix_a = (i,) + (sp,) * tail
            suffix_b = (j,) + (sq,) * tail
            for u in itertools.product(range(N), repeat=k):
                ca = word_index[u + suffix_a]
                cb = word_index[u + suffix_b]
                gap = np.linalg.norm(coords_by_slot[ca, p] - coords_by_slot[cb, q])
                if gap > GLUE_COORD_TOL:
                    raise StructureError(
                        f"glued pair disagrees in the embedding by {gap:.3e}"
                    )
                uf.union(key(ca, p), key(cb, q))

    # Dense ids in first-appearance order for determinism.
    root_to_id: dict[int, int] = {}
    cells = np.empty((n_words, nB), dtype=np.int64)
    coord_rows = []
    for c in range(n_words):
        for p in range(nB):
            root = uf.find(key(c, p))
            vid = root_to_id.get(root)
            if vid is None:
                vid = len(root_to_id)
                root_to_id[root] = vid
                coord_rows.append(coords_by_slot[c, p])
            cells[c, p] = vid
    coords = np.vstack(coord_rows) if coord_rows else np.empty((0, S.ambient_dim))

    cell_measures = np.array([S.word_measure(w) for w in words])
    total = cell_measures.sum()
    if abs(total - 1.0) > IDENT_TOL * max(1, n_words):
        raise StructureError(f"cell measures sum to {total!r}, expected 1")

    vertex_mass = np.zeros(coords.shape[0])
    np.add.at(vertex_mass, cells.ravel(), np.repeat(cell_measures / nB, nB))

    graph = VertexGraph(
        structure=S,
        level=m,
        words=words,
        cells=cells,
        coords=coords,
        cell_measures=cell_measures,
        vertex_mass=vertex_mass,
        boundary_ids=np.zeros(nB, dtype=np.int64),
        _word_index=word_index,
    )
    boundary_ids = np.array([graph.vertex_id((), p) for p in range(nB)], dtype=np.int64)
    graph.boundary_ids = boundary_ids
    return graph


class ResistanceMetric:
    """Effective resistance metric of the level-m resistor network.

    Built from the Neumann eigenbasis of the energy form: with mass-orthonormal
    modes E phi_n = lambda_n M phi_n, G = sum over lambda_n > 0 of
    phi_n phi_n^T / lambda_n is a generalized inverse of E, so
    R(x, y) = G(x, x) + G(y, y) - 2 G(x, y) needs no second factorization.

    Radii are compared under the tie rule: two radii closer than
    TIE_RTOL * diameter are the same radius.  Exact ties (symmetric vertices)
    otherwise split at roundoff level, in a direction that depends on the
    factorization.
    """

    def __init__(self, basis: EigenBasis):
        if basis.bc != "neumann":
            raise ValueError("the resistance metric is built from the Neumann eigenbasis")
        self.graph = basis.graph
        pos = basis.eigenvalues > 0.0
        scaled = basis.vectors[:, pos] / np.sqrt(basis.eigenvalues[pos])
        R = scaled @ scaled.T  # the Gram matrix G, exactly symmetric
        diag = np.diag(R).copy()
        R *= -2.0
        R += diag[:, None]
        R += diag[None, :]
        np.fill_diagonal(R, 0.0)
        self._matrix = np.maximum(R, 0.0, out=R)
        self._diameter = float(R.max())
        self._balls: tuple[np.ndarray, np.ndarray] | None = None

    def matrix(self) -> np.ndarray:
        return self._matrix

    def from_vertex(self, a: int) -> np.ndarray:
        return self._matrix[a]

    def diameter(self) -> float:
        return self._diameter

    def ball(self, x: int, eps: float) -> tuple[np.ndarray, float]:
        """Open ball {y : R(x, y) < eps} and its lumped measure; a radius tied
        with eps lies outside."""
        if eps <= 0.0:
            raise ValueError("radius must be positive")
        ids = np.flatnonzero(self.from_vertex(x) < eps - TIE_RTOL * self._diameter)
        return ids, float(self.graph.vertex_mass[ids].sum())

    def realizable_balls(self) -> tuple[np.ndarray, np.ndarray]:
        """Every distinct open ball about every vertex, computed once.

        Returns (order, masses), both n x n.  Row x of ``order`` lists the
        vertices by ascending R(x, .) (stable sort).  The prefix
        order[x, :k + 1] is a ball when the radius at k is the largest or is
        followed by an increase beyond the tie rule; masses[x, k] is then its
        measure, and inf where the prefix ends inside a tie.
        """
        if self._balls is None:
            n = self.graph.n_vertices
            mass = self.graph.vertex_mass
            tie = TIE_RTOL * self._diameter
            order = np.empty((n, n), dtype=np.intp)
            masses = np.empty((n, n))
            for x, row in enumerate(self._matrix):
                o = np.argsort(row, kind="stable")
                order[x] = o
                masses[x] = np.cumsum(mass[o])
                masses[x, :-1][np.diff(row[o]) <= tie] = np.inf
            self._balls = (order, masses)
        return self._balls


@dataclass
class ScalingReport:
    """Empirical two-sided constants for mu(B_eps(x)) ~ eps**d."""

    A1: float
    A2: float
    argmin: tuple[int, float]
    argmax: tuple[int, float]
    degenerate: bool


def scaling_constants(
    metric: ResistanceMetric,
    eps_grid: Iterable[float],
    sample_vertices: Iterable[int] | None = None,
    d: float | None = None,
) -> ScalingReport:
    """Sweep mu(B_eps(x)) / eps**d over samples and radii.

    The report is degenerate (flagged, ratios meaningless as two-sided
    scaling constants) when every sampled ball already covers the whole
    vertex set.
    """
    graph = metric.graph
    if d is None:
        d = graph.structure.dim
    eps_grid = list(eps_grid)
    if not eps_grid:
        raise ValueError("empty radius grid")
    if sample_vertices is None:
        sample_vertices = range(graph.n_vertices)
    best_lo, best_hi = math.inf, -math.inf
    arg_lo = arg_hi = (0, 0.0)
    all_cover = True
    for x in sample_vertices:
        for eps in eps_grid:
            ids, mass = metric.ball(int(x), eps)
            if mass <= 0.0:
                continue
            all_cover = all_cover and ids.size == graph.n_vertices
            ratio = mass / eps**d
            if ratio < best_lo:
                best_lo, arg_lo = ratio, (int(x), float(eps))
            if ratio > best_hi:
                best_hi, arg_hi = ratio, (int(x), float(eps))
    return ScalingReport(A1=best_lo, A2=best_hi, argmin=arg_lo, argmax=arg_hi, degenerate=all_cover)


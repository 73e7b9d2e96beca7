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
carries its dihedral symmetry group, generated by a reflection and a rotation
when it has them (``_find_symmetries``), which ``VertexGraph.symmetry_group``
lifts to every level; the metric is held on one row per orbit of it.

Gluing is purely combinatorial: identification relations are propagated to
every scale by base-N arithmetic on cell indices, glued corners are merged by
min-label propagation, and embedding coordinates are used only to
cross-validate the result.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
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
# Rows ``write_csv`` joins into one string per write, about 0.3 MB of text
# for a vertex table: a whole table's text is never held at once.
CSV_BLOCK_ROWS = 4096


class StructureError(ValueError):
    """Malformed or inconsistent structure configuration."""


class BudgetError(RuntimeError):
    """Requested level exceeds the configured size budget."""


@dataclass(frozen=True)
class AffineMap:
    """Contraction x -> scale * rotation @ x + translation."""

    scale: float
    rotation: np.ndarray
    translation: np.ndarray

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        return self.scale * (np.asarray(pts, dtype=float) @ self.rotation.T) + self.translation


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

    def resistances(self) -> np.ndarray:
        """Effective resistances between the boundary points in the network -D."""
        G = np.linalg.pinv(-np.asarray(self.D, dtype=float), hermitian=True)
        return np.diag(G)[:, None] + np.diag(G)[None, :] - 2.0 * G


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

    ``involution`` (s) and ``rotation`` (r) generate the structure's dihedral
    symmetry group, both derived by ``load_structure`` as pairs (sigma, pi):
    sigma permutes the boundary indices and pi the map indices (see
    ``_find_symmetries``).  Either is None when there is none.
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
    rotation: tuple[tuple[int, ...], tuple[int, ...]] | None = None

    @property
    def n_symbols(self) -> int:
        return len(self.maps)

    @property
    def n_boundary(self) -> int:
        return self.boundary.shape[0]

    @property
    def ambient_dim(self) -> int:
        return self.boundary.shape[1]

    def word_resistance(self, word: Sequence[int]) -> float:
        r = self.harmonic.r
        return float(np.prod([r[s] for s in word])) if len(word) else 1.0


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

    involution, rotation = _find_symmetries(maps, boundary, idents, D, r, mu)
    return SelfSimilarStructure(
        name=str(config.get("name", "custom")),
        maps=tuple(maps),
        boundary=boundary,
        identifications=tuple(idents),
        harmonic=harmonic,
        measure_weights=mu,
        self_symbols=tuple(self_symbols),
        dim=d,
        involution=involution,
        rotation=rotation,
    )


def _find_symmetries(maps, boundary, idents, D, r, mu):
    """The structure's reflection s and rotation r, each a pair (sigma, pi) or
    None.

    A symmetry is a permutation sigma of the boundary indices that extends to
    an isometry T (T x_p = x_sigma(p)) conjugating every map onto a map,
    T F_i = F_pi(i) T on V_0.  D, r and mu must be invariant under sigma and
    pi, and the identification relations must be carried onto identification
    relations, so that the gluing at every level is symmetric too
    (``VertexGraph.symmetry_group``).  A map between finite point sets extends
    to an isometry exactly when it preserves every distance, so T is tested on
    V_0 and the level-1 corners F_i(x_p) by distances alone.

    s is the first symmetry of order 2 in ``itertools.permutations`` order.
    r is the first of highest order k >= 2 with s r s = r^-1 and s not a power
    of r, so that s and r generate the dihedral group of order 2k.
    """
    nB = boundary.shape[0]
    N = len(maps)
    pts = np.vstack([boundary, *(F(boundary) for F in maps)])
    dist = np.linalg.norm(pts[:, None] - pts[None], axis=2)
    # dist4[a, p, b, q]: distance from point p of block a to point q of block b,
    # block 0 being V_0 and block i + 1 the corners F_i(V_0)
    dist4 = dist.reshape(N + 1, nB, N + 1, nB)
    cross = dist4[0, :, 1:].transpose(1, 0, 2)
    inner = dist4[np.arange(1, N + 1), :, np.arange(1, N + 1)]
    relations = {frozenset([(i, p), (j, q)]) for i, p, j, q in idents}

    found = []
    for sigma in itertools.permutations(range(nB)):
        s = np.array(sigma)
        if (
            np.abs(D[np.ix_(s, s)] - D).max() > IDENT_TOL
            or np.abs(dist[np.ix_(s, s)] - dist[:nB, :nB]).max() > IDENT_TOL
        ):
            continue
        # match[i, j]: corners F_j(V_0), relabelled by sigma, sit like F_i(V_0)
        match = (np.abs(cross[None, :, s][..., s] - cross[:, None]).max(axis=(2, 3)) <= IDENT_TOL) & (
            np.abs(inner[None, :, s][..., s] - inner[:, None]).max(axis=(2, 3)) <= IDENT_TOL
        )
        if not np.array_equal(match.sum(axis=1), np.ones(N)):
            continue
        pi = match.argmax(axis=1)
        image = np.concatenate([s, *(nB * (1 + pi[i]) + s for i in range(N))])
        if (
            sorted(pi) != list(range(N))
            or np.abs(dist[np.ix_(image, image)] - dist).max() > IDENT_TOL
            or np.abs(r[pi] - r).max() > IDENT_TOL
            or np.abs(mu[pi] - mu).max() > IDENT_TOL
            or {frozenset([(pi[i], sigma[p]), (pi[j], sigma[q])]) for i, p, j, q in idents} != relations
        ):
            continue
        found.append(np.concatenate([s, nB + pi]))

    # A symmetry as one permutation of the nB boundary and N map labels.
    def cycle(g) -> list[np.ndarray]:
        """g, g^2, ..., up to the identity."""
        out = [g]
        while not np.array_equal(out[-1], np.arange(nB + N)):
            out.append(g[out[-1]])
        return out

    def pair(g):
        return tuple(int(v) for v in g[:nB]), tuple(int(v) - nB for v in g[nB:])

    refl = next((g for g in found if len(cycle(g)) == 2), None)
    if refl is None:
        return None, None
    rotations = [
        g
        for g in found
        if len(cycle(g)) > 1
        and np.array_equal(refl[g[refl]], np.argsort(g))
        and not any(np.array_equal(h, refl) for h in cycle(g))
    ]
    rot = max(rotations, key=lambda g: len(cycle(g)), default=None)
    return pair(refl), None if rot is None else pair(rot)


def word_products(weights: Sequence[float], m: int) -> np.ndarray:
    """Product of weights[s] over the letters s of every level-m word, in cell
    order (the word of cell c is the m base-N digits of c, first letter most
    significant).

    A running product over the letters, first letter first: the multiply order
    of ``np.prod`` over the word, so entry c is ``word_resistance`` of cell c's
    word bit for bit when ``weights`` is r.
    """
    weights = np.asarray(weights, dtype=float)
    out = np.ones(1)
    for _ in range(m):
        out = (out[:, None] * weights).ravel()
    return out


@dataclass
class VertexGraph:
    """Level-m vertex approximation of a self-similar set.

    ``cells[c]`` holds the vertex ids of F_w(V_0) in boundary order for the
    c-th word, ``cell_measures[c]`` its measure, and ``vertex_mass`` the
    lumped quadrature weights M(p) = sum over incident cells of mu_w / |V_0|.
    Cell c's word is the m base-N digits of c, first letter most significant,
    so the cells below a prefix form one contiguous block (``_prefix_block``).
    """

    structure: SelfSimilarStructure
    level: int
    cells: np.ndarray
    coords: np.ndarray
    cell_measures: np.ndarray
    vertex_mass: np.ndarray
    boundary_ids: np.ndarray

    @property
    def n_vertices(self) -> int:
        return self.coords.shape[0]

    @property
    def n_cells(self) -> int:
        return self.cells.shape[0]

    def _prefix_block(self, prefix: Sequence[int]) -> slice:
        """The cells whose word starts with ``prefix``: the block
        [idx N^(m-k), (idx + 1) N^(m-k)) for a length-k prefix with base-N
        value idx; empty when the prefix is longer than the level or has a
        letter outside 0..N-1."""
        N = self.structure.n_symbols
        tail = self.level - len(prefix)
        if tail < 0 or any(not 0 <= s < N for s in prefix):
            return slice(0, 0)
        idx = 0
        for s in prefix:
            idx = idx * N + int(s)
        return slice(idx * N**tail, (idx + 1) * N**tail)

    def vertex_id(self, word: Sequence[int], p: int) -> int:
        """Vertex id of F_w(x_p) for any prefix word with |w| <= level."""
        word = tuple(word)
        if len(word) > self.level:
            raise ValueError("word longer than graph level")
        s = self.structure.self_symbols[p]
        block = self._prefix_block(word + (s,) * (self.level - len(word)))
        if block.start == block.stop:
            raise ValueError(f"word {word} has a letter outside 0..{self.structure.n_symbols - 1}")
        return int(self.cells[block.start, p])

    def _lift(self, symmetry, name: str) -> np.ndarray:
        """A structure symmetry (sigma, pi) on V_m as a vertex permutation
        ``perm``; the identity for None.

        The symmetry carries cell w onto cell pi(w) (pi letter by letter,
        base-N digit arithmetic on the cell index) and its corner p onto corner
        sigma(p), so perm[cells[c]] = cells[pi(c)][sigma].  Every vertex is a
        corner, so a consistent perm is onto, hence a permutation.
        """
        n = self.n_vertices
        if symmetry is None:
            return np.arange(n)
        sigma, pi = (np.array(v) for v in symmetry)
        N = self.structure.n_symbols
        c = np.arange(self.n_cells)
        image = np.zeros_like(c)
        for k in range(self.level):
            place = N ** (self.level - 1 - k)
            image += pi[c // place % N] * place
        target = self.cells[image][:, sigma]
        perm = np.empty(n, dtype=np.intp)
        perm[self.cells] = target
        if not np.array_equal(perm[self.cells], target):
            raise StructureError(f"the {name} does not lift to a vertex permutation at level {self.level}")
        return perm

    def vertex_involution(self) -> np.ndarray:
        """The structure's involution s on V_m (``_lift``)."""
        return self._lift(self.structure.involution, "involution")

    def vertex_rotation(self) -> np.ndarray:
        """The structure's rotation r on V_m (``_lift``)."""
        return self._lift(self.structure.rotation, "rotation")

    @functools.cached_property
    def _group(self) -> np.ndarray:
        rot = self.vertex_rotation()
        rows = [np.arange(self.n_vertices)]
        while not np.array_equal(nxt := rot[rows[-1]], rows[0]):
            rows.append(nxt)
        if self.structure.involution is not None:
            s = self.vertex_involution()
            rows += [row[s] for row in rows]
        group = np.array(rows)
        group.flags.writeable = False
        return group

    def symmetry_group(self) -> np.ndarray:
        """The dihedral group D_k = <r, s> on V_m, one vertex permutation per row:
        row a + k b is p -> r^a(s^b(p)), for a < k and b < 2 (b = 0 only when
        the structure has no involution, k = 1 when it has no rotation),
        lifted once per graph and read-only."""
        return self._group

    def orbit_representatives(self) -> np.ndarray:
        """The smallest vertex of each orbit of ``symmetry_group``, ascending;
        every vertex when the structure has no symmetry."""
        return np.flatnonzero(self.symmetry_group().min(axis=0) == np.arange(self.n_vertices))

    def interior_mask(self) -> np.ndarray:
        mask = np.ones(self.n_vertices, dtype=bool)
        mask[self.boundary_ids] = False
        return mask

    def cells_with_prefix(self, prefix: Sequence[int]) -> np.ndarray:
        block = self._prefix_block(tuple(prefix))
        return np.arange(block.start, block.stop)

    def export_csv(self, outdir) -> None:
        """``vertices.csv`` (id, coordinates, mass) and ``cells.csv`` (word,
        vertex ids of the cell's corners) under ``outdir``, by ``write_csv``."""
        import os

        os.makedirs(outdir, exist_ok=True)
        names = _field_text(np.arange(self.n_vertices))
        write_csv(
            os.path.join(outdir, "vertices.csv"),
            ["vertex_id"] + [f"x{k}" for k in range(self.coords.shape[1])] + ["mass"],
            [names, *self.coords.T, self.vertex_mass],
        )
        # Cell c's word is its m base-N digits, first letter most significant:
        # each word of length l + 1 is a word of length l and one more letter.
        letters = np.array([str(s) for s in range(self.structure.n_symbols)], dtype=object)
        words = np.array([""], dtype=object)
        for _ in range(self.level):
            words = np.add.outer(words, letters).ravel()
        write_csv(
            os.path.join(outdir, "cells.csv"),
            ["word"] + [f"v{k}" for k in range(self.cells.shape[1])],
            [words, *names[self.cells.T]],
        )


def write_csv(path, header: Sequence[str], columns: Sequence[np.ndarray]) -> None:
    r"""Write ``header`` and one row per entry of the equal-length ``columns``
    to ``path``, with the bytes ``csv.writer`` gives: fields joined by ``,``
    and every line ended by ``\r\n``.  Each column is formatted once, and
    the rows go out ``CSV_BLOCK_ROWS`` to a write.

    A column of numbers is formatted by ``_field_text`` (floats as ``repr``,
    integers in decimal); an object array is taken as its text.  No field is
    quoted, so none may hold ``,``, ``"`` or a line break: the callers write
    numbers, digit words and boundary-condition names.
    """
    text = [(c if c.dtype == object else _field_text(c)).tolist() for c in map(np.asarray, columns)]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, len(text[0]), CSV_BLOCK_ROWS):
            rows = zip(*(column[start : start + CSV_BLOCK_ROWS] for column in text))
            fh.write("\r\n".join(map(",".join, rows)) + "\r\n")


def _field_text(values: np.ndarray) -> np.ndarray:
    """``str`` of every number in ``values`` (``repr`` for a float), as an
    object array of the same shape, formatted once per distinct value: the
    coordinates and masses of a level take few distinct values.  Floats are
    told apart by bit pattern, so 0.0 and -0.0 keep their own text."""
    if values.dtype.kind == "f":
        bits = np.ascontiguousarray(values, dtype=float).view(np.int64)
        uniq, inverse = np.unique(bits, return_inverse=True)
        uniq = uniq.view(np.float64)
    else:
        uniq, inverse = np.unique(values, return_inverse=True)
    text = np.array([str(v) for v in uniq.tolist()], dtype=object)
    return text[inverse.reshape(values.shape)]


def build_level(structure: SelfSimilarStructure, m: int, budget: int = DEFAULT_BUDGET) -> VertexGraph:
    """Construct the glued level-m vertex graph.

    Two corner slots (w, p) and (w', p') receive the same vertex id exactly
    when forced by an identification relation applied at some scale: for each
    relation F_i(x_p) = F_j(x_q), every prefix u and descent depth l give the
    union (u i s_p^l, p) ~ (u j s_q^l, q), where s_p is the self-symbol of
    x_p.  Coordinates of every union are checked to agree in the embedding.

    Slot (c, p) has key c |V_0| + p.  Vertex ids are dense in the order of
    each vertex's first slot, and that slot is the smallest key of its glued
    class, which is where min-label propagation leaves the class's label.
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

    # Corner coordinates by slot key: F_{sw}(V_0) = F_s(F_w(V_0)), and the word
    # sw of length l + 1 is cell s N^l + w.
    slot_pts = S.boundary
    for _ in range(m):
        slot_pts = np.concatenate([F(slot_pts) for F in S.maps])

    # Glued slot pairs (a, b), relation by relation, depth by depth, prefix u
    # ascending; s_p^tail is the repunit s_p (N^tail - 1) / (N - 1).
    pairs_a, pairs_b = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    for i, p, j, q in S.identifications:
        sp, sq = S.self_symbols[p], S.self_symbols[q]
        for k in range(m):
            tail = m - 1 - k
            u = np.arange(N**k, dtype=np.int64) * N ** (tail + 1)
            ones = (N**tail - 1) // (N - 1)
            pairs_a.append((u + i * N**tail + sp * ones) * nB + p)
            pairs_b.append((u + j * N**tail + sq * ones) * nB + q)
    a, b = np.concatenate(pairs_a), np.concatenate(pairs_b)
    gaps = np.linalg.norm(slot_pts[a] - slot_pts[b], axis=1)
    bad = np.flatnonzero(gaps > GLUE_COORD_TOL)
    if bad.size:
        raise StructureError(f"glued pair disagrees in the embedding by {gaps[bad[0]]:.3e}")

    # Min-label propagation: hook the larger label of every unequal pair onto
    # the smaller, then jump pointers until every label is a root.  Labels only
    # fall and stay inside their class, so each class ends on its smallest key.
    label = np.arange(n_words * nB)
    while not np.array_equal(la := label[a], lb := label[b]):
        np.minimum.at(label, np.maximum(la, lb), np.minimum(la, lb))
        while not np.array_equal(jump := label[label], label):
            label = jump
    is_root = label == np.arange(label.size)
    cells = (np.cumsum(is_root) - 1)[label].reshape(n_words, nB)
    coords = slot_pts[is_root]

    cell_measures = word_products(S.measure_weights, m)
    total = cell_measures.sum()
    if abs(total - 1.0) > IDENT_TOL * max(1, n_words):
        raise StructureError(f"cell measures sum to {total!r}, expected 1")

    vertex_mass = np.zeros(coords.shape[0])
    np.add.at(vertex_mass, cells.ravel(), np.repeat(cell_measures / nB, nB))

    graph = VertexGraph(
        structure=S,
        level=m,
        cells=cells,
        coords=coords,
        cell_measures=cell_measures,
        vertex_mass=vertex_mass,
        boundary_ids=np.zeros(nB, dtype=np.int64),
    )
    graph.boundary_ids = np.array([graph.vertex_id((), p) for p in range(nB)], dtype=np.int64)
    return graph


class ResistanceMetric:
    """Effective resistance metric of the level-m resistor network.

    Built from the Neumann eigenbasis of the energy form: with mass-orthonormal
    modes E phi_n = lambda_n M phi_n, G = sum over lambda_n > 0 of
    phi_n phi_n^T / lambda_n is a generalized inverse of E, so
    R(x, y) = G(x, x) + G(y, y) - 2 G(x, y) needs no second factorization.

    R commutes with the symmetry group, R(gx, gy) = R(x, y), so only the rows
    at ``VertexGraph.orbit_representatives`` are held: row x = g(rep) is
    rows[rep][g^-1].  Each vertex is read through one (rep, g), the last
    element of ``group`` that carries a representative onto it, so every
    reader of a row sees the same numbers.

    Radii are compared under the tie rule: two radii closer than
    TIE_RTOL * diameter are the same radius.  Exact ties (symmetric vertices)
    otherwise split at roundoff level, in a direction that depends on the
    factorization.
    """

    def __init__(self, basis: EigenBasis):
        if basis.bc != "neumann":
            raise ValueError("the resistance metric is built from the Neumann eigenbasis")
        self.graph = graph = basis.graph
        self.group = graph.symmetry_group()
        self.reps = reps = graph.orbit_representatives()
        # the eigenvalues ascend, so the modes with lambda > 0 are a suffix
        k0 = int(np.searchsorted(basis.eigenvalues, 0.0, side="right"))
        V, lam = basis.vectors[:, k0:], basis.eigenvalues[k0:]
        rows = (V[reps] / lam) @ V.T  # G at the representative rows
        diag = np.empty(graph.n_vertices)  # G(y, y), in strips of about 1 MB
        step = max(1, 2**17 // lam.size)
        for start in range(0, diag.size, step):
            block = V[start : start + step]
            diag[start : start + step] = (block * block) @ (1.0 / lam)
        rows *= -2.0
        rows += diag[reps, None]
        rows += diag[None, :]
        rows[np.arange(reps.size), reps] = 0.0
        self._rows = np.maximum(rows, 0.0, out=rows)
        self._diameter = float(rows.max())
        # vertex x = group[element[x]][reps[slot[x]]], the last such g winning
        self._slot = np.empty(graph.n_vertices, dtype=np.intp)
        self._element = np.empty(graph.n_vertices, dtype=np.intp)
        for j, g in enumerate(self.group):
            self._slot[g[reps]] = np.arange(reps.size)
            self._element[g[reps]] = j
        self._inverse = np.argsort(self.group, axis=1)  # row j is g_j^-1
        self._balls: tuple[np.ndarray, np.ndarray] | None = None

    def pairs(self, xs, ys) -> np.ndarray:
        """R(x, y) for index arrays xs and ys, broadcast against each other."""
        return self._rows[self._slot[xs], self._inverse[self._element[xs], ys]]

    def from_vertex(self, a: int) -> np.ndarray:
        return self._rows[self._slot[a]][self._inverse[self._element[a]]]

    def diameter(self) -> float:
        return self._diameter

    def distance_to(self, mask: np.ndarray) -> np.ndarray:
        """min of R(x, y) over the y with mask[y], for every vertex x (inf for
        an empty mask): the masked row minima of the representatives, once
        per group element, R(g rep, y) being R(rep, g^-1 y)."""
        out = np.empty(self.graph.n_vertices)
        for g in self.group:
            out[g[self.reps]] = np.min(self._rows, axis=1, where=mask[g], initial=np.inf)
        return out

    def ball(self, x: int, eps: float) -> tuple[np.ndarray, float]:
        """Open ball {y : R(x, y) < eps} and its lumped measure; a radius tied
        with eps lies outside."""
        if eps <= 0.0:
            raise ValueError("radius must be positive")
        ids = np.flatnonzero(self.from_vertex(x) < eps - TIE_RTOL * self._diameter)
        return ids, float(self.graph.vertex_mass[ids].sum())

    def realizable_balls(self) -> tuple[np.ndarray, np.ndarray]:
        """Every distinct open ball about every representative, computed once.

        Returns (order, masses), one row per entry of ``reps``.  Row i of
        ``order`` lists the vertices by ascending R(reps[i], .) (stable sort).
        The prefix order[i, :k + 1] is a ball when the radius at k is the
        largest or is followed by an increase beyond the tie rule; masses[i, k]
        is then its measure, and inf where the prefix ends inside a tie.  The
        balls about g(rep) are the images under g of the balls about rep, with
        the same masses.
        """
        if self._balls is None:
            order = np.argsort(self._rows, axis=1, kind="stable")
            masses = np.cumsum(self.graph.vertex_mass[order], axis=1)
            gaps = np.diff(np.take_along_axis(self._rows, order, axis=1), axis=1)
            masses[:, :-1][gaps <= TIE_RTOL * self._diameter] = np.inf
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


"""Level-m energy forms and Dirichlet/Neumann eigenbases.

The quadratic form is assembled cell by cell: each word w contributes the
boundary form -D scaled by 1/r_w onto its corner vertex ids, and E is kept
only as its stencil (``EnergyForm``).  Eigenpairs of E phi = lambda M phi (M
the diagonal lumped mass) are obtained by symmetrizing with M^(-1/2) and
running a dense symmetric solver on one block per irreducible representation
of the structure's dihedral symmetry group, the only n x n arrays built here;
for the Dirichlet condition the orbit-adapted bases have no entry on the
boundary, so the blocks omit its rows and the eigenvectors vanish there.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from dataclasses import KW_ONLY, dataclass

import numpy as np

from .core import BudgetError, VertexGraph, build_level, word_products

RESIDUAL_TOL = 1e-8
# Eigenvalues within EIG_RTOL (relative) of each other are one eigenvalue of a
# degenerate cluster.  Roundoff splits clusters by <= 4e-12 and the smallest
# genuine relative gap is 2.9e-5 on sierpinski m <= 7.
EIG_RTOL = 1e-9
# Fraction of the spectrum (lower and upper index fraction) where the discrete
# eigenvalues track the continuum: the Weyl and growth fits read only it.
FIT_WINDOW = (0.05, 0.25)
# Entries of one chunk of modes in ``eigensystem``'s back-transform pass:
# 1 MB of float64, so the pass's temporaries are a few MB at any n and none
# grows like n x n.
CHUNK_ENTRIES = 2**17
# Peak number of live n x n float64 arrays while one level's energy form and
# both eigenbases are built, as ``verify`` holds them: the held Dirichlet
# basis, the working block and what eigh itself allocates (its input copy,
# syevd's 2 n^2 workspace and its output); E is never dense.  Peak RSS over
# the pre-assembly RSS at sierpinski m = 7 (n = 3282) is 2.4 such arrays with
# the D_3 split (blocks of at most about n/3) and 6.2 for a structure with no
# symmetry (one block of n), which sets the constant.  ``kernel`` and
# ``fatou`` hold one basis at a time; ``spectrum`` holds none, only the
# block eigenvectors and chunks of CHUNK_ENTRIES entries.
DENSE_ARRAYS = 7


class NoInteriorError(ValueError):
    """A Dirichlet solve was asked of a level with no interior vertex."""


def _physical_memory_bytes() -> int:
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


@dataclass
class EnergyForm:
    """Positive-semidefinite form f^T E f with kernel spanned by constants.

    ``stencil`` holds (rows, cols, values), the entries of E that cells can
    make nonzero (the corner pairs (p, q) of every cell with D[p, q] or
    D[q, p] nonzero) in row-major order; E is zero off it and is never formed
    as a dense array.
    """

    graph: VertexGraph
    stencil: tuple[np.ndarray, np.ndarray, np.ndarray]

    @functools.cached_property
    def _neighbours(self) -> tuple[np.ndarray, np.ndarray]:
        """Slot s of row i: stencil column nbr[s, i] with weight w[s, i],
        padded by column 0 at weight 0; one contiguous row per slot."""
        i, j, values = self.stencil
        n = self.graph.n_vertices
        counts = np.bincount(i, minlength=n)
        slot = np.arange(i.size) - np.repeat(np.cumsum(counts) - counts, counts)
        nbr = np.zeros((counts.max(), n), dtype=np.intp)
        w = np.zeros(nbr.shape)
        nbr[slot, i] = j
        w[slot, i] = values
        return nbr, w

    def apply(self, X: np.ndarray, rows=slice(None)) -> np.ndarray:
        """(E x)[rows] for every vector x on the last axis of X (one row per
        vector), summed on the stencil one neighbour slot at a time, so each
        entry is the same sum in the same order whatever the shape of X."""
        nbr, w = self._neighbours
        nbr, w = nbr[:, rows], w[:, rows]
        # each slot is one gather and one product with a contiguous weight vector
        out = np.take(X, nbr[0], axis=-1)
        out *= w[0]
        term = np.empty_like(out)
        for idx, weight in zip(nbr[1:], w[1:]):
            np.take(X, idx, axis=-1, out=term, mode="clip")  # clip: no buffer
            term *= weight
            out += term
        return out

    def energy(self, f: np.ndarray) -> float:
        """f^T E f as the edge sum of ``_edge_energy``, in long double."""
        return float(_edge_energy(self.graph, np.asarray(f, dtype=np.longdouble)))


def _conductances(graph: VertexGraph) -> np.ndarray:
    """1 / r_w for every cell w."""
    return 1.0 / word_products(graph.structure.harmonic.r, graph.level)


def energy_matrix(graph: VertexGraph) -> EnergyForm:
    """Assemble E = sum_w (1/r_w) * (-D) lifted onto cell w's vertices.

    The cell terms are summed on the stencil (``EnergyForm.stencil``).  Raises
    BudgetError, before allocating, when the dense spectral working set of the
    level (``DENSE_ARRAYS`` n x n float64 arrays) exceeds physical memory.
    """
    n = graph.n_vertices
    need = DENSE_ARRAYS * 8 * n * n
    have = _physical_memory_bytes()
    if need > have:
        raise BudgetError(
            f"{n} vertices need about {need} bytes of dense spectral arrays "
            f"({DENSE_ARRAYS} x {n} x {n} float64), over the {have} bytes of physical memory"
        )
    D = np.asarray(graph.structure.harmonic.D, dtype=float)
    p, q = np.nonzero((D != 0.0) | (D.T != 0.0))
    cells = graph.cells
    key = (cells[:, p] * n + cells[:, q]).ravel()
    weights = (_conductances(graph)[:, None] * -D[p, q]).ravel()
    # A stable sort keeps each key's terms in cell order, and bincount adds
    # them in that order, so every entry is bit for bit the cell-by-cell sum.
    order = np.argsort(key, kind="stable")
    key = key[order]
    first = np.diff(key, prepend=-1) != 0
    values = np.bincount(np.cumsum(first) - 1, weights=weights[order])
    key = key[first]
    rows, cols = key // n, key % n
    # the pattern is symmetric: every (i, j) has its mate (j, i)
    values = (values + values[np.searchsorted(key, cols * n + rows)]) * 0.5
    return EnergyForm(graph=graph, stencil=(rows, cols, values))


def _edge_energy(graph: VertexGraph, f: np.ndarray):
    """f^T E f as sum_w (1 / r_w) sum_(p < q) D[p, q] (f(w_p) - f(w_q))^2 over
    cells w with corners w_p (D has zero row sums), in the dtype of f: with
    conductances D[p, q] >= 0 a sum of nonnegative terms, free of cancellation."""
    p, q = np.triu_indices(graph.structure.n_boundary, 1)
    D = np.asarray(graph.structure.harmonic.D, dtype=float)
    diff = f[graph.cells[:, p]] - f[graph.cells[:, q]]
    return np.sum(_conductances(graph)[:, None] * D[p, q] * diff * diff)


def harmonic_extension(graph: VertexGraph, boundary_values: np.ndarray) -> np.ndarray:
    """The harmonic structure's extension of the given V_0 values to V_m:
    h o F_wi |V_0 = A_i (h o F_w |V_0) cell by cell (Kigami 2001, ch. 3), the
    matrices A_i read off the level-1 energy minimizer.  It is the level-m
    energy minimizer when (D, r) is a harmonic structure (the level-1 network
    traces back to D on V_0), and differs from it otherwise.
    """
    S = graph.structure
    G1 = build_level(S, 1)
    E1 = energy_matrix(G1).apply(np.eye(G1.n_vertices))
    bid = G1.boundary_ids
    inner = G1.interior_mask()
    H = np.eye(G1.n_vertices)[:, bid]
    H[inner] = np.linalg.solve(E1[np.ix_(inner, inner)], -E1[np.ix_(inner, bid)])
    A = H[G1.cells]  # A[i, p, q] = h(F_i(x_p)) for the harmonic h = 1 at x_q, 0 on V_0 \ x_q
    # row c N + i of the next V is cell c's child i, as in the cell index
    V = np.asarray(boundary_values, dtype=float)[None, :]
    for _ in range(graph.level):
        V = np.einsum("ipq,cq->cip", A, V).reshape(-1, S.n_boundary)
    h = np.empty(graph.n_vertices)
    h[graph.cells] = V
    return h


@dataclass
class Spectrum:
    """Sorted eigenvalues of one boundary condition and the per-mode figures
    of their mass-orthonormalized eigenvectors phi_n, without the vectors.

    ``residuals`` holds the rowwise max of |E phi_n - lambda_n M phi_n| over
    the solved rows (Dirichlet pairs solve the pencil on interior rows only;
    boundary rows carry the normal derivative), ``sup_norms`` max_p |phi_n(p)|,
    ``blocks`` the numbers (n_even, n_odd) of modes even and odd under the
    involution s, and ``irreps`` the size of the eigh block of each
    irreducible representation of the symmetry group (see ``_irreps``; a
    2-dim one carries twice that many modes), all set by ``eigensystem``.
    """

    bc: str
    graph: VertexGraph
    eigenvalues: np.ndarray
    _: KW_ONLY
    residuals: np.ndarray
    sup_norms: np.ndarray
    blocks: tuple[int, int] = (0, 0)
    irreps: tuple[int, ...] = ()

    @property
    def n_modes(self) -> int:
        return self.eigenvalues.size

    @property
    def dim(self) -> float:
        return self.graph.structure.dim

    @property
    def max_residual(self) -> float:
        """The largest relative residual max_n resid_n / (1 + lambda_n)."""
        return float((self.residuals / (1.0 + self.eigenvalues)).max())

    def window_indices(self) -> np.ndarray:
        """Mode indices in the FIT_WINDOW fraction of the spectrum, skipping lambda = 0."""
        lo = max(int(np.floor(FIT_WINDOW[0] * self.n_modes)), 0)
        hi = max(int(np.ceil(FIT_WINDOW[1] * self.n_modes)), lo + 1)
        idx = np.arange(lo, min(hi, self.n_modes))
        return idx[self.eigenvalues[idx] > 0.0]


@dataclass
class EigenBasis(Spectrum):
    """A ``Spectrum`` with its eigenvectors.

    ``vectors`` has one column per mode on the full vertex set; Dirichlet
    columns vanish on the boundary ids.  Normalization is
    sum_p M(p) phi_n(p) phi_k(p) = delta_nk.
    """

    vectors: np.ndarray
    mass: np.ndarray

    def gram_deviation(self) -> float:
        """max |V^T M V - I| over the lower triangle, in column strips of
        CHUNK_ENTRIES entries: strip j..j+w is V[:, j:]^T (M V[:, j:j+w]), so
        the strip's columns and its block are the only temporaries and no
        n x n array is formed."""
        V = self.vectors
        step = max(1, CHUNK_ENTRIES // V.shape[0])
        worst = 0.0
        for start in range(0, self.n_modes, step):
            cols = V[:, start : start + step]
            G = V[:, start:].T @ (self.mass[:, None] * cols)
            diag = np.arange(cols.shape[1])
            G[diag, diag] -= 1.0
            worst = max(worst, float(np.abs(G, out=G).max()))
        return worst


def _irreps(k: int, reflect: bool) -> list[np.ndarray]:
    """Real irreducible representations of D_k = <r, s>, or of the trivial
    group without s: rho[a + k b] = rho(r^a s^b), a d x d matrix.

    The 1-dim ones come first, (chi(r), chi(s)) = (1, 1), (1, -1), then
    (-1, 1), (-1, -1) for even k; then the 2-dim rho_j, 1 <= j < k/2, with
    rho_j(r) the rotation by 2 pi j / k and rho_j(s) = diag(1, -1), so that
    the modes solved for rho are s-even or s-odd as rho(s)[0, 0] says.
    """
    if not reflect:
        return [np.ones((1, 1, 1))]
    a = np.arange(k)
    out = []
    for cr in (1.0, -1.0)[: 2 - k % 2]:
        for cs in (1.0, -1.0):
            chi = cr**a
            out.append(np.concatenate([chi, cs * chi])[:, None, None])
    for j in range(1, (k + 1) // 2):
        c, s = np.cos(2 * np.pi * j * a / k), np.sin(2 * np.pi * j * a / k)
        rot = np.stack([np.stack([c, -s], axis=1), np.stack([s, c], axis=1)], axis=1)
        out.append(np.concatenate([rot, rot * [1.0, -1.0]]))
    return out


def _solve_block(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Symmetrize A in place and hand it to eigh; eigenvalues ascending."""
    A += A.T
    A *= 0.5
    vals, vecs = np.linalg.eigh(A)
    if np.any(vals[1:] < vals[:-1]):
        raise RuntimeError("eigh returned eigenvalues out of ascending order")
    return vals, vecs


def _anchor_signs(phi: np.ndarray, m_half: np.ndarray) -> np.ndarray:
    """Divide row p of phi by m_half[p] in place and return the sign of each
    column's first entry of largest magnitude (+1 for a zero column)."""
    phi /= m_half[:, None]
    anchor = np.abs(phi).argmax(axis=0)
    signs = np.sign(phi[anchor, np.arange(phi.shape[1])])
    signs[signs == 0.0] = 1.0
    return signs


def _orbit_types(group: np.ndarray, reps: np.ndarray, k: int):
    """The orbit representatives ``reps`` grouped by orbit type.

    The reps (smallest vertex ids of their orbits) come back grouped by
    stabilizer H, larger stabilizers first (with k = 1: the vertices s fixes,
    then the swapped pairs).  Each type is (sl, fixed, slots, mirror): its
    reps are reps[sl] and H = fixed (row indices of ``group``); slot c is the
    point g_c x, g_c = slots[c] the first element of its coset of H, and
    mirror[c] is the slot of its image under s (group row k).
    """
    fixed = group[:, reps] == reps
    # each stabilizer as a bit mask over the group rows
    mask = (fixed.T << np.arange(group.shape[0])).sum(axis=1)
    order = np.lexsort((mask, -fixed.sum(axis=0)))
    reps, mask = reps[order], mask[order]
    starts = np.flatnonzero(np.diff(mask, prepend=-1))
    types = []
    for lo, hi in zip(starts, np.append(starts[1:], reps.size)):
        points = group[:, reps[lo]]
        slots = np.sort(np.unique(points, return_index=True)[1])
        where = {int(p): c for c, p in enumerate(points[slots])}
        mirror = np.array([where[int(q)] for q in group[k % group.shape[0], points[slots]]])
        types.append((slice(lo, hi), np.flatnonzero(points == reps[lo]), slots, mirror))
    return reps, types


def _irrep_basis(rho: np.ndarray, parity: float, group: np.ndarray, reps: np.ndarray, types, n: int):
    """U, the orthonormal basis of the first-row component of rho, in slot
    form (cols, coef, size): U is n x size and vertex p has the entry
    coef[i, p] in column cols[i, p] for every slot i < k <= dim rho, with
    coefficient 0 where p has fewer than k entries (every vertex off the
    solved set among them).

    For each orbit type, with stabilizer H and b an orthonormal basis of the
    H-fixed vectors of rho, column o + i * len(reps[sl]) + r of U is
    u_(x, b_i) for the rep x = reps[sl][r]: the entry (rho(g_c) b)[0, i]
    sqrt(d / |orbit|) on the point g_c x of slot c, averaged with its s-image.
    """
    d = rho.shape[1]
    pieces, size = [], 0
    for sl, fixed, slots, mirror in types:
        vecs, sv, _ = np.linalg.svd(rho[fixed].mean(axis=0))
        values = (rho[slots] @ vecs[:, sv > 0.5])[:, 0] * math.sqrt(d / slots.size)
        # averaged with the s-image: every mode is bitwise s-even or s-odd
        values = (values + parity * values[mirror]) * 0.5
        pieces.append((group[slots[:, None], reps[sl]], values, size))
        size += values.shape[1] * (sl.stop - sl.start)
    k = max(values.shape[1] for _, values, _ in pieces)
    cols, coef = np.zeros((k, n), dtype=np.intp), np.zeros((k, n))
    for ids, values, o in pieces:
        R = ids.shape[1]
        for i in range(values.shape[1]):
            cols[i, ids] = o + i * R + np.arange(R)
            coef[i, ids] = values[:, i, None]
    return cols, coef, size


def _block(form: EnergyForm, m_half: np.ndarray, basis) -> np.ndarray:
    """U^T A U for A = M^(-1/2) E M^(-1/2): for every pair of slots (i, i2),
    the stencil entries A[p, q] coef[i, p] coef[i2, q] added in stencil order
    at (cols[i, p], cols[i2, q])."""
    cols, coef, size = basis
    rows, nbrs, values = form.stencil
    scaled = values / m_half[rows] / m_half[nbrs]
    block = np.zeros((size, size))
    for (c, w), (c2, w2) in itertools.product(zip(cols, coef), repeat=2):
        np.add.at(block, (c[rows], c2[nbrs]), w[rows] * scaled * w2[nbrs])
    return block


def _expand(basis, Y: np.ndarray) -> np.ndarray:
    """The rows of Y (block eigenvectors, one per row) as modes on the
    vertices, Y U^T: sum over the slots i of coef[i] * Y[:, cols[i]]."""
    cols, coef, _ = basis
    X = np.take(Y, cols[0], axis=1)
    X *= coef[0]
    for idx, weight in zip(cols[1:], coef[1:]):
        term = np.take(Y, idx, axis=1)
        term *= weight
        X += term
    return X


def require_interior(graph: VertexGraph, need: str) -> None:
    """Raise ``NoInteriorError`` when every vertex of ``graph`` is a boundary
    vertex; ``need`` names what wanted an interior vertex."""
    if len(graph.boundary_ids) == graph.n_vertices:
        raise NoInteriorError(f"{graph.structure.name} level {graph.level} has no interior vertex, so no {need}")


def eigensystem(form: EnergyForm, bc: str, vectors: bool = True) -> EigenBasis | Spectrum:
    """Solve E phi = lambda M phi for the requested boundary condition.

    Eigenvalues are ascending; each vector's sign is fixed so its largest
    magnitude component is positive; eigenvalues within roundoff of zero are
    clamped to exactly zero so downstream sqrt weights stay real.  A Dirichlet
    solve on a level with no interior vertex (level 0) raises
    ``NoInteriorError`` before any array is built.  With ``vectors`` False
    the result is the ``Spectrum`` alone and no n x n array is formed.

    The pencil is split by the structure's dihedral group G = D_k = <r, s>
    (``VertexGraph.symmetry_group``), whose vertex permutations P_g commute
    with A = M^(-1/2) E M^(-1/2).  For every irreducible representation rho
    (``_irreps``) and every orbit x of G on the solved vertices, with
    stabilizer H, the vectors

        u_(x,b) = sqrt(d / |orbit|) sum over points g x of (rho(g) b)_1 e_(g x),

    b running over an orthonormal basis of the H-fixed vectors of rho, are
    the columns of an orthonormal basis U of the first-row component of rho
    (``_irrep_basis``).  A maps that component into itself, so each block
    U^T A U (``_block``) is solved by its own eigh, and a block eigenvector y
    is the mode U y on the vertices (``_expand``).  The s-odd partner of a
    2-dim mode v is (P_r - P_r^-1) v / (2 sin theta_j), with the same
    eigenvalue.

    The modes are then taken in ascending order, in chunks of about
    ``CHUNK_ENTRIES`` entries: each chunk is back-transformed, divided by
    M^(1/2) and sign-anchored, and its stencil residuals and sup norms are
    read while it is in cache, before it is written into ``vectors``.
    """
    if bc not in ("dirichlet", "neumann"):
        raise ValueError("bc must be 'dirichlet' or 'neumann'")
    graph = form.graph
    mass = graph.vertex_mass
    if np.any(mass <= 0.0):
        raise ValueError("vertex masses must be positive")
    if bc == "dirichlet":
        require_interior(graph, "Dirichlet spectrum")
    reps = graph.orbit_representatives()
    if bc == "dirichlet":
        # the group maps V_0 onto itself, so interior orbits stay interior
        reps = reps[graph.interior_mask()[reps]]
    group = graph.symmetry_group()
    reflect = graph.structure.involution is not None
    k = group.shape[0] // (1 + reflect)
    irreps = _irreps(k, reflect)
    # the sign of s on each irrep's modes (+1 without s: group row k % |G| = 0)
    parities = [rho[k % group.shape[0], 0, 0] for rho in irreps]
    m_half = np.sqrt(mass)
    n = graph.n_vertices
    reps, types = _orbit_types(group, reps, k)
    bases = [_irrep_basis(rho, parity, group, reps, types, n) for rho, parity in zip(irreps, parities)]
    # each block is built just before its eigh and freed once solved; the
    # eigenvectors are kept as rows, so that a chunk's gather copies whole rows
    solved = []
    for basis in bases:
        vals, Y = _solve_block(_block(form, m_half, basis))
        solved.append((vals, np.ascontiguousarray(Y.T)))
        del Y

    # Mode sets: one per irrep, then the s-odd partner set of each 2-dim irrep.
    partners = [i for i, rho in enumerate(irreps) if rho.shape[1] == 2]
    sets = [vals for vals, _ in solved] + [solved[i][0] for i in partners]
    set_parity = np.array(parities + [-1.0] * len(partners))
    vals = np.concatenate(sets)
    bounds = np.cumsum([0] + [v.size for v in sets])
    order = np.argsort(vals, kind="stable")
    vals = vals[order]
    # Solver noise scales with the top of the spectrum; true kernel modes sit
    # many orders below any genuine eigenvalue.
    vals[np.abs(vals) <= 1e-11 * max(1.0, abs(vals[-1]))] = 0.0
    if vals[0] < 0.0:
        raise RuntimeError(f"negative eigenvalue {vals[0]!r} from a PSD pencil")

    # Sorted mode q is column col_of[q] of set set_of[q]; a partner set reads
    # its irrep's eigenvectors.  (P_r v)(p) = v(r^-1 p).
    set_of = np.searchsorted(bounds, order, side="right") - 1
    col_of = order - bounds[set_of]
    source = np.array(list(range(len(irreps))) + partners)
    rot, rot_inv = group[1 % k], group[k - 1]
    # Dirichlet pairs solve the pencil on interior rows only: the boundary
    # rows of a residual carry the normal derivative and are not read
    unsolved = graph.boundary_ids if bc == "dirichlet" else slice(0)

    out = np.empty((n, vals.size)) if vectors else None
    resid, sup = np.empty(vals.size), np.empty(vals.size)

    def chunk(lo: int, hi: int) -> None:
        """Sorted modes lo:hi, grouped by irrep (a 2-dim irrep's s-odd
        partners after its own modes), one per row of phi: back-transformed,
        divided by M^(1/2), sign-anchored, their residuals and sup norms
        read, and written into ``out``.  A mode and its partner share one
        back-transform."""
        odd = set_of[lo:hi] >= len(irreps)
        by_irrep = np.argsort(2 * source[set_of[lo:hi]] + odd, kind="stable")
        irrep, odd = source[set_of[lo:hi]][by_irrep], odd[by_irrep]
        starts = np.flatnonzero(np.diff(irrep, prepend=-1))
        phi = np.empty((by_irrep.size, n))
        for a, b in zip(starts, np.append(starts[1:], by_irrep.size)):
            j = irrep[a]
            cols, at = np.unique(col_of[lo:hi][by_irrep[a:b]], return_inverse=True)
            X = _expand(bases[j], solved[j][1][cols])
            m = a + np.count_nonzero(~odd[a:b])
            np.take(X, at[: m - a], axis=0, out=phi[a:m], mode="clip")  # clip: no buffer
            if m < b:
                Xo = X[at[m - a :]]
                np.subtract(np.take(Xo, rot_inv, axis=1), np.take(Xo, rot, axis=1), out=phi[m:b])
                phi[m:b] *= 0.5 / irreps[j][1, 1, 0]  # 1 / (2 sin theta_j)
        phi *= _anchor_signs(phi.T, m_half)[:, None]
        R = form.apply(phi)
        term = mass * phi
        term *= vals[lo:hi][by_irrep, None]
        R -= term
        R[:, unsolved] = 0.0
        resid[lo + by_irrep] = np.maximum(R.max(axis=1), -R.min(axis=1))
        # each mode's anchor entry is its largest magnitude, now positive
        sup[lo + by_irrep] = phi.max(axis=1)
        if out is not None:
            out[:, lo:hi] = phi[np.argsort(by_irrep)].T

    step = max(1, CHUNK_ENTRIES // n)
    for lo in range(0, vals.size, step):
        chunk(lo, min(lo + step, vals.size))

    bound = RESIDUAL_TOL * (1.0 + vals)
    if np.any(resid > bound):
        worst = int(np.argmax(resid - bound))
        raise RuntimeError(f"eigen residual {resid[worst]:.3e} at mode {worst} exceeds tolerance")
    if bc == "dirichlet" and vals[0] <= 0.0:
        raise RuntimeError("Dirichlet spectrum must be strictly positive")
    sizes = np.array([v.size for v in sets])
    summary = dict(
        bc=bc,
        graph=graph,
        eigenvalues=vals,
        residuals=resid,
        sup_norms=sup,
        blocks=(int(sizes[set_parity > 0].sum()), int(sizes[set_parity < 0].sum())),
        irreps=tuple(int(v) for v in sizes[: len(irreps)]),
    )
    return EigenBasis(vectors=out, mass=mass, **summary) if vectors else Spectrum(**summary)


def rayleigh_quotient(basis: EigenBasis) -> float:
    """lambda_1 as the Rayleigh quotient of the ground eigenvector phi,
    ``_edge_energy`` of phi over sum M phi^2 in long double.  The edge sum has
    no cancellation and the quotient is stationary at the eigenvector: a low
    eigenvalue keeps its relative accuracy, where eigh gives it only to about
    eps * lambda_max.
    """
    phi = basis.vectors[:, 0].astype(np.longdouble)
    return float(_edge_energy(basis.graph, phi) / np.sum(basis.mass * phi * phi))


def _count(eigenvalues: np.ndarray, x):
    """Number of eigenvalues <= x (1 + EIG_RTOL): a degenerate cluster counts
    whole, whatever order roundoff put its members in."""
    return np.searchsorted(eigenvalues, x * (1.0 + EIG_RTOL), side="right")


@dataclass
class WeylFit:
    slope: float
    intercept: float
    max_residual: float
    n_points: int


def weyl_exponent(basis: Spectrum) -> WeylFit:
    """Least-squares slope of log N(lambda_n) against log lambda_n.

    N counts every eigenvalue of lambda_n's cluster (``_count``),
    so the fit depends only on the eigenvalue multiset.

    Only the lower part of the discrete spectrum tracks the continuum, so the
    fit is restricted to the index window FIT_WINDOW.
    """
    idx = basis.window_indices()
    if idx.size < 10:
        raise ValueError("window selects fewer than 10 eigenvalues")
    lam = basis.eigenvalues[idx]
    count = _count(basis.eigenvalues, lam)
    X = np.log(lam)
    Y = np.log(count.astype(float))
    A = np.vstack([X, np.ones_like(X)]).T
    coef, *_ = np.linalg.lstsq(A, Y, rcond=None)
    resid = np.abs(A @ coef - Y).max()
    return WeylFit(
        slope=float(coef[0]),
        intercept=float(coef[1]),
        max_residual=float(resid),
        n_points=int(idx.size),
    )


def eigen_growth_constants(basis: Spectrum) -> tuple[float, float]:
    """Extremes of lambda_n / n**((d+1)/d) over FIT_WINDOW."""
    idx = basis.window_indices()
    if idx.size == 0:
        raise ValueError("empty window")
    d = basis.dim
    n = idx + 1  # 1-based mode index
    ratio = basis.eigenvalues[idx] / n ** ((d + 1.0) / d)
    return float(ratio.min()), float(ratio.max())


def supnorm_ratio(basis: Spectrum) -> float:
    """Empirical C with sup|phi_n| <= C * lambda_n**(d/(2(d+1))).

    All modes with lambda > 0 enter (the lambda = 0 Neumann mode is excluded).
    """
    idx = np.flatnonzero(basis.eigenvalues > 0.0)
    if idx.size == 0:
        raise ValueError("no modes with positive eigenvalue")
    d = basis.dim
    ratio = basis.sup_norms[idx] / basis.eigenvalues[idx] ** (d / (2.0 * (d + 1.0)))
    return float(ratio.max())


def export_spectrum_csv(path, spectra: list[tuple[str, np.ndarray]]) -> None:
    """Write the (bc, eigenvalues) pairs as rows n, lambda, bc; the pairs
    carry no eigenvectors, so a caller can drop each basis once solved."""
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "lambda", "bc"])
        for bc, eigenvalues in spectra:
            for n, lam in enumerate(eigenvalues, start=1):
                writer.writerow([n, repr(float(lam)), bc])

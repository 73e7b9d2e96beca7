"""Level-m energy forms and Dirichlet/Neumann eigenbases.

The quadratic form is assembled cell by cell: each word w contributes the
boundary form -D scaled by 1/r_w onto its corner vertex ids, and E is kept
only as its stencil (``EnergyForm``).  Eigenpairs of E phi = lambda M phi (M
the diagonal lumped mass) are obtained by symmetrizing with M^(-1/2) and
running a dense symmetric solver on one block per irreducible representation
of the structure's dihedral symmetry group, the only n x n arrays built here;
for the Dirichlet condition the boundary rows and columns are removed first
and the eigenvectors are re-embedded with zeros on the boundary.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from dataclasses import dataclass

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
# Peak number of live n x n float64 arrays while one level's energy form and
# both eigenbases are built: the held Dirichlet basis, the working block and
# what eigh itself allocates (its input copy, syevd's 2 n^2 workspace and its
# output); E is never dense.  Peak RSS over the pre-assembly RSS at sierpinski
# m = 7 (n = 3282) is 2.4 such arrays with the D_3 split (blocks of at most
# about n/3) and 6.2 for a structure with no symmetry (one block of n), which
# sets the constant.
DENSE_ARRAYS = 7


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
        """Row i's stencil columns nbr[i] and weights w[i], padded by column 0 at weight 0."""
        i, j, values = self.stencil
        n = self.graph.n_vertices
        counts = np.bincount(i, minlength=n)
        slot = np.arange(i.size) - np.repeat(np.cumsum(counts) - counts, counts)
        nbr = np.zeros((n, counts.max()), dtype=np.intp)
        w = np.zeros(nbr.shape)
        nbr[i, slot] = j
        w[i, slot] = values
        return nbr, w

    def apply(self, X: np.ndarray, rows=slice(None)) -> np.ndarray:
        """(E X)[rows] for X with one row per vertex, summed on the stencil."""
        nbr, w = self._neighbours
        return np.einsum("ik,ik...->i...", w[rows], X[nbr[rows]])

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
class EigenBasis:
    """Sorted eigenpairs of one boundary condition, mass-orthonormalized.

    ``vectors`` has one column per mode on the full vertex set; Dirichlet
    columns vanish on the boundary ids.  Normalization is
    sum_p M(p) phi_n(p) phi_k(p) = delta_nk.  ``max_residual`` is the largest
    relative residual max_n resid_n / (1 + lambda_n), ``blocks`` the numbers
    (n_even, n_odd) of modes even and odd under the involution s, and
    ``irreps`` the size of the eigh block of each irreducible representation
    of the symmetry group (see ``_irreps``; a 2-dim one carries twice that
    many modes), all set by ``eigensystem``.
    """

    bc: str
    graph: VertexGraph
    eigenvalues: np.ndarray
    vectors: np.ndarray
    mass: np.ndarray
    max_residual: float = math.nan
    blocks: tuple[int, int] = (0, 0)
    irreps: tuple[int, ...] = ()

    @property
    def n_modes(self) -> int:
        return self.eigenvalues.size

    @property
    def dim(self) -> float:
        return self.graph.structure.dim

    def window_indices(self) -> np.ndarray:
        """Mode indices in the FIT_WINDOW fraction of the spectrum, skipping lambda = 0."""
        lo = max(int(np.floor(FIT_WINDOW[0] * self.n_modes)), 0)
        hi = max(int(np.ceil(FIT_WINDOW[1] * self.n_modes)), lo + 1)
        idx = np.arange(lo, min(hi, self.n_modes))
        return idx[self.eigenvalues[idx] > 0.0]

    def residuals(self, form: EnergyForm) -> np.ndarray:
        """Rowwise max of |E phi - lambda M phi| over the solved rows.

        Dirichlet pairs solve the pencil on interior rows only; boundary rows
        carry the (generally nonzero) normal derivative and are excluded.
        E phi is ``form.apply`` on blocks of about 2**17 entries of the
        result, so no n x n product is formed.
        """
        V = self.vectors
        n, k = V.shape
        if self.bc == "dirichlet":
            rows = np.flatnonzero(self.graph.interior_mask())
        else:
            rows = np.arange(n)
        out = np.zeros(k)
        step = max(1, 2**17 // k)
        for start in range(0, rows.size, step):
            r = rows[start : start + step]
            R = form.apply(V, rows=r)
            R -= (self.mass[r, None] * V[r]) * self.eigenvalues[None, :]
            np.maximum(out, np.abs(R).max(axis=0), out=out)
        return out

    def gram_deviation(self) -> float:
        G = self.vectors.T @ (self.mass[:, None] * self.vectors)
        return float(np.abs(G - np.eye(self.n_modes)).max())


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
    column's first entry of largest magnitude (+1 for a zero column), in one
    sweep over blocks of about 2**17 entries, so no n x n temporary of |phi|
    is formed."""
    n, k = phi.shape
    best = np.full(k, -1.0)
    anchor = np.zeros(k, dtype=np.intp)
    step = max(1, 2**17 // max(k, 1))
    for start in range(0, n, step):
        q = slice(start, start + step)
        phi[q] /= m_half[q, None]
        block = np.abs(phi[q])
        top = block.max(axis=0)
        new = np.flatnonzero(top > best)
        anchor[new] = start + block[:, new].argmax(axis=0)
        best[new] = top[new]
    signs = np.sign(phi[anchor, np.arange(k)])
    signs[signs == 0.0] = 1.0
    return signs


def _orbit_types(group: np.ndarray, keep: np.ndarray, k: int):
    """Orbit representatives of the group on ``keep`` and their orbit types.

    reps holds the smallest vertex id of each orbit, grouped by stabilizer H,
    larger stabilizers first (with k = 1: the vertices s fixes, then the
    swapped pairs).  Each type is (sl, fixed, slots, mirror): its reps are
    reps[sl] and H = fixed (row indices of ``group``); slot c is the point
    g_c x, g_c = slots[c] the first element of its coset of H, and mirror[c]
    is the slot of its image under s (group row k).
    """
    reps = keep[group[:, keep].min(axis=0) == keep]
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


def _hat(form: EnergyForm, m_half: np.ndarray, group: np.ndarray, reps: np.ndarray, types) -> list[dict]:
    """The gathers A[reps, f reps], f running over the group rows, as lists of
    nonzeros split by orbit type: hat[f][t, t2] = (a, b, values) holds the
    entries A[reps[sl][a], f reps[sl2][b]] for the types sl = types[t][0] and
    sl2 = types[t2][0], with A = M^(-1/2) E M^(-1/2) read off the stencil.
    """
    rows, cols, values = form.stencil
    pos = np.full(form.graph.n_vertices, -1, dtype=np.intp)
    pos[reps] = np.arange(reps.size)
    # the types' slices tile reps in order
    kind = np.repeat(np.arange(len(types)), [sl.stop - sl.start for sl, *_ in types])
    scaled = values / m_half[rows] / m_half[cols]
    hat = []
    for row in group:
        a, b = pos[rows], pos[np.argsort(row)[cols]]
        on = (a >= 0) & (b >= 0)
        a, b, v = a[on], b[on], scaled[on]
        entries = {}
        for (t, (sl, *_)), (t2, (sl2, *_)) in itertools.product(enumerate(types), repeat=2):
            sel = (kind[a] == t) & (kind[b] == t2)
            entries[t, t2] = (a[sel] - sl.start, b[sel] - sl2.start, v[sel])
        hat.append(entries)
    return hat


def _irrep_block(rho: np.ndarray, parity: float, types, hat: list[dict]):
    """The block of A on the first-row component of rho, and its layout.

    For each orbit type with H-fixed vectors in rho, b is an orthonormal basis
    of them and values[c] = (rho(g_c) b)_1 sqrt(d / |orbit|) the entries of the
    basis vectors on slot c; the layout lists (sl, slots, values, offset), the
    rows of local basis vector i being offset + i * len(reps[sl]) onward.
    """
    d = rho.shape[1]
    rows, size = [], 0
    for t, (sl, fixed, slots, mirror) in enumerate(types):
        U, sv, _ = np.linalg.svd(rho[fixed].mean(axis=0))
        b = U[:, sv > 0.5]
        if b.shape[1] == 0:
            continue
        values = (rho[slots] @ b)[:, 0] * math.sqrt(d / slots.size)
        # averaged with the s-image: every mode is bitwise s-even or s-odd
        values = (values + parity * values[mirror]) * 0.5
        rows.append((t, sl, fixed, b, slots, values, size))
        size += b.shape[1] * (sl.stop - sl.start)
    block = np.zeros((size, size))
    for t, sl, fixed, b, _, _, o in rows:
        R = sl.stop - sl.start
        for t2, sl2, fixed2, b2, _, _, o2 in rows:
            R2 = sl2.stop - sl2.start
            coef = b.T @ rho @ b2 * math.sqrt(1.0 / (fixed.size * fixed2.size))
            for i, i2 in np.ndindex(coef.shape[1:]):
                sub = block[o + i * R : o + (i + 1) * R, o2 + i2 * R2 : o2 + (i2 + 1) * R2]
                # a COO scatter adds what the dense sum adds: the entries off
                # the stencil would only add zeros
                for f in np.flatnonzero(coef[:, i, i2]):
                    a, a2, v = hat[f][t, t2]
                    sub[a, a2] += coef[f, i, i2] * v
    return block, [(sl, slots, values, o) for _, sl, _, _, slots, values, o in rows]


def eigensystem(form: EnergyForm, bc: str) -> EigenBasis:
    """Solve E phi = lambda M phi for the requested boundary condition.

    Eigenvalues are ascending; each vector's sign is fixed so its largest
    magnitude component is positive; eigenvalues within roundoff of zero are
    clamped to exactly zero so downstream sqrt weights stay real.

    The pencil is split by the structure's dihedral group G = D_k = <r, s>
    (``VertexGraph.symmetry_group``), whose vertex permutations P_g commute
    with A = M^(-1/2) E M^(-1/2).  For every irreducible representation rho
    (``_irreps``) and every orbit x of G on the solved vertices, with
    stabilizer H, the vectors

        u_(x,b) = sqrt(d / |orbit|) sum over points g x of (rho(g) b)_1 e_(g x),

    b running over an orthonormal basis of the H-fixed vectors of rho, are an
    orthonormal basis of the first-row component of rho, and by
    A[g x, h y] = A[x, g^-1 h y]

        u_(x,b)^T A u_(y,b') = sum over f in G of
            b^T rho(f) b' / sqrt(|H_x| |H_y|) * A[x, f y],

    so every block is assembled from the |G| gathers A[reps, f reps] and
    solved by its own eigh.  The s-odd partner of a 2-dim mode v is
    (P_r - P_r^-1) v / (2 sin theta_j), with the same eigenvalue.
    """
    if bc not in ("dirichlet", "neumann"):
        raise ValueError("bc must be 'dirichlet' or 'neumann'")
    graph = form.graph
    mass = graph.vertex_mass
    if np.any(mass <= 0.0):
        raise ValueError("vertex masses must be positive")
    if bc == "dirichlet":
        keep = np.flatnonzero(graph.interior_mask())
    else:
        keep = np.arange(graph.n_vertices)
    group = graph.symmetry_group()
    reflect = graph.structure.involution is not None
    k = group.shape[0] // (1 + reflect)
    irreps = _irreps(k, reflect)
    # the sign of s on each irrep's modes (+1 without s: group row k % |G| = 0)
    parities = [rho[k % group.shape[0], 0, 0] for rho in irreps]
    m_half = np.sqrt(mass)
    reps, types = _orbit_types(group, keep, k)

    # The gathers A[reps, f reps], shared by every block, on the stencil.
    hat = _hat(form, m_half, group, reps, types)
    blocks, layouts = [], []
    for rho, parity in zip(irreps, parities):
        block, layout = _irrep_block(rho, parity, types, hat)
        blocks.append(block)
        layouts.append(layout)
    del hat, block
    # popped, so each block is freed once solved
    solved = [_solve_block(blocks.pop(0)) for _ in irreps]

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

    # Back to vertex coordinates in set layout, set t in the columns
    # bounds[t]:bounds[t + 1], with zero rows off the solved vertices.  Every
    # slot applies the same operations to its values, so mirror slots agree
    # bit for bit up to the sign.
    n = graph.n_vertices
    phi = np.zeros((n, vals.size))
    for lo, hi, (_, Y), layout in zip(bounds, bounds[1:], solved, layouts):
        for sl, slots, values, o in layout:
            R = sl.stop - sl.start
            for g, v in zip(slots, values):
                X = v[0] * Y[o : o + R]
                for i in range(1, v.size):
                    X += v[i] * Y[o + i * R : o + (i + 1) * R]
                phi[group[g, reps[sl]], lo:hi] = X
    del solved
    # (P_r v)(p) = v(r^-1 p); every n x n pass runs in row blocks of about
    # 2**17 entries
    rot, rot_inv = group[1 % k], group[k - 1]
    step = max(1, 2**17 // vals.size)
    strips = [slice(start, start + step) for start in range(0, n, step)]
    for i, j in enumerate(partners):
        even = slice(bounds[j], bounds[j + 1])
        odd = slice(bounds[len(irreps) + i], bounds[len(irreps) + i + 1])
        scale = 0.5 / irreps[j][1, 1, 0]  # 1 / (2 sin theta_j)
        for q in strips:
            X = phi[rot_inv[q], even]
            X -= phi[rot[q], even]
            X *= scale
            phi[q, odd] = X
    signs = _anchor_signs(phi, m_half)[order]
    # columns into ascending eigenvalue order, row block by row block
    for q in strips:
        np.multiply(phi[q][:, order], signs, out=phi[q])

    sizes = np.array([v.size for v in sets])
    basis = EigenBasis(
        bc=bc,
        graph=graph,
        eigenvalues=vals,
        vectors=phi,
        mass=mass,
        blocks=(int(sizes[set_parity > 0].sum()), int(sizes[set_parity < 0].sum())),
        irreps=tuple(int(v) for v in sizes[: len(irreps)]),
    )

    resid = basis.residuals(form)
    bound = RESIDUAL_TOL * (1.0 + vals)
    if np.any(resid > bound):
        worst = int(np.argmax(resid - bound))
        raise RuntimeError(
            f"eigen residual {resid[worst]:.3e} at mode {worst} exceeds tolerance"
        )
    basis.max_residual = float((resid / (1.0 + vals)).max())
    if bc == "dirichlet" and vals[0] <= 0.0:
        raise RuntimeError("Dirichlet spectrum must be strictly positive")
    return basis


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


def weyl_exponent(basis: EigenBasis) -> WeylFit:
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


def eigen_growth_constants(basis: EigenBasis) -> tuple[float, float]:
    """Extremes of lambda_n / n**((d+1)/d) over FIT_WINDOW."""
    idx = basis.window_indices()
    if idx.size == 0:
        raise ValueError("empty window")
    d = basis.dim
    n = idx + 1  # 1-based mode index
    ratio = basis.eigenvalues[idx] / n ** ((d + 1.0) / d)
    return float(ratio.min()), float(ratio.max())


def supnorm_ratio(basis: EigenBasis) -> float:
    """Empirical C with sup|phi_n| <= C * lambda_n**(d/(2(d+1))).

    All modes with lambda > 0 enter (the lambda = 0 Neumann mode is excluded).
    """
    idx = np.flatnonzero(basis.eigenvalues > 0.0)
    if idx.size == 0:
        raise ValueError("no modes with positive eigenvalue")
    d = basis.dim
    V = basis.vectors
    sup = np.maximum(V.max(axis=0), -V.min(axis=0))[idx]
    ratio = sup / basis.eigenvalues[idx] ** (d / (2.0 * (d + 1.0)))
    return float(ratio.max())


def export_spectrum_csv(path, bases: list[EigenBasis]) -> None:
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "lambda", "bc"])
        for basis in bases:
            for n, lam in enumerate(basis.eigenvalues, start=1):
                writer.writerow([n, repr(float(lam)), basis.bc])

"""Level-m energy forms and Dirichlet/Neumann eigenbases.

The quadratic form is assembled cell by cell: each word w contributes the
boundary form -D scaled by 1/r_w onto its corner vertex ids.  Eigenpairs of
E phi = lambda M phi (M the diagonal lumped mass) are obtained by
symmetrizing with M^(-1/2) and running a dense symmetric solver on the even
and odd blocks of the structure's reflection symmetry; for the Dirichlet
condition the boundary rows and columns are removed first and the
eigenvectors are re-embedded with zeros on the boundary.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .core import BudgetError, VertexGraph

RESIDUAL_TOL = 1e-8
# Eigenvalues within EIG_RTOL (relative) of each other are one eigenvalue of a
# degenerate cluster.  Roundoff splits clusters by <= 4e-12 and the smallest
# genuine relative gap is 2.9e-5 on sierpinski m <= 7.
EIG_RTOL = 1e-9
# Peak number of live n x n float64 arrays while one level's energy form and
# both eigenbases are built: E, the held Dirichlet basis, the working block and
# what eigh itself allocates (its input copy, syevd's 2 n^2 workspace and its
# output).  Peak RSS over the pre-assembly RSS at sierpinski m = 7 (n = 3282)
# is 5.0 such arrays with the symmetry split (two blocks of about n/2) and 7.2
# for a structure with no involution (one block of n).
DENSE_ARRAYS = 7


def _physical_memory_bytes() -> int:
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


@dataclass
class EnergyForm:
    """Positive-semidefinite form f^T E f with kernel spanned by constants."""

    graph: VertexGraph
    matrix: np.ndarray

    @property
    def level(self) -> int:
        return self.graph.level

    def energy(self, f: np.ndarray) -> float:
        return float(f @ self.matrix @ f)


def energy_matrix(graph: VertexGraph) -> EnergyForm:
    """Assemble E = sum_w (1/r_w) * (-D) lifted onto cell w's vertices.

    Raises BudgetError, before allocating, when the dense spectral working
    set of the level (``DENSE_ARRAYS`` n x n float64 arrays) exceeds physical
    memory.
    """
    n = graph.n_vertices
    need = DENSE_ARRAYS * 8 * n * n
    have = _physical_memory_bytes()
    if need > have:
        raise BudgetError(
            f"{n} vertices need about {need} bytes of dense spectral arrays "
            f"({DENSE_ARRAYS} x {n} x {n} float64), over the {have} bytes of physical memory"
        )
    S = graph.structure
    block = -np.asarray(S.harmonic.D, dtype=float)
    inv_rw = 1.0 / np.array([S.word_resistance(w) for w in graph.words])
    cells = graph.cells
    # bincount accumulates in cell order, so E is bit for bit the cell-by-cell sum
    flat = (cells[:, :, None] * n + cells[:, None, :]).ravel()
    weights = (inv_rw[:, None, None] * block).ravel()
    E = np.bincount(flat, weights=weights, minlength=n * n).reshape(n, n)
    E += E.T
    E *= 0.5
    return EnergyForm(graph=graph, matrix=E)


def harmonic_extension(form: EnergyForm, boundary_values: np.ndarray) -> np.ndarray:
    """Energy-minimizing extension of the given boundary values to V_m."""
    graph = form.graph
    bid = graph.boundary_ids
    interior = np.flatnonzero(graph.interior_mask())
    h = np.zeros(graph.n_vertices)
    h[bid] = boundary_values
    if interior.size:
        E = form.matrix
        rhs = -E[np.ix_(interior, bid)] @ np.asarray(boundary_values, dtype=float)
        h[interior] = np.linalg.solve(E[np.ix_(interior, interior)], rhs)
    return h


@dataclass
class EigenBasis:
    """Sorted eigenpairs of one boundary condition, mass-orthonormalized.

    ``vectors`` has one column per mode on the full vertex set; Dirichlet
    columns vanish on the boundary ids.  Normalization is
    sum_p M(p) phi_n(p) phi_k(p) = delta_nk.  ``max_residual`` is the largest
    relative residual max_n resid_n / (1 + lambda_n) and ``blocks`` the sizes
    (n_even, n_odd) of the two symmetry blocks, both set by ``eigensystem``.
    """

    bc: str
    graph: VertexGraph
    eigenvalues: np.ndarray
    vectors: np.ndarray
    mass: np.ndarray
    max_residual: float = math.nan
    blocks: tuple[int, int] = (0, 0)

    @property
    def n_modes(self) -> int:
        return self.eigenvalues.size

    @property
    def dim(self) -> float:
        return self.graph.structure.dim

    def window_indices(self, window: tuple[float, float] = (0.05, 0.25)) -> np.ndarray:
        """Mode indices in the stated fraction of the spectrum, skipping lambda = 0."""
        lo = max(int(np.floor(window[0] * self.n_modes)), 0)
        hi = max(int(np.ceil(window[1] * self.n_modes)), lo + 1)
        idx = np.arange(lo, min(hi, self.n_modes))
        return idx[self.eigenvalues[idx] > 0.0]

    def residuals(self, energy: np.ndarray) -> np.ndarray:
        """Rowwise max of |E phi - lambda M phi| over the solved rows.

        Dirichlet pairs solve the pencil on interior rows only; boundary rows
        carry the (generally nonzero) normal derivative and are excluded.
        E phi is summed over each row's nonzeros, for blocks of about 2**17
        entries of the result, so no n x n product is formed.
        """
        V = self.vectors
        n, k = V.shape
        if self.bc == "dirichlet":
            rows = np.flatnonzero(self.graph.interior_mask())
        else:
            rows = np.arange(n)
        # Padded neighbour table: row i's nonzero columns nbr[i] with weights
        # w[i], padded by column 0 at weight 0.
        i, j = np.nonzero(energy)
        counts = np.bincount(i, minlength=n)
        slot = np.arange(i.size) - np.repeat(np.cumsum(counts) - counts, counts)
        nbr = np.zeros((n, counts.max()), dtype=np.intp)
        w = np.zeros(nbr.shape)
        nbr[i, slot] = j
        w[i, slot] = energy[i, j]
        out = np.zeros(k)
        step = max(1, 2**17 // k)
        for start in range(0, rows.size, step):
            r = rows[start : start + step]
            R = np.einsum("ik,ikj->ij", w[r], V[nbr[r]])
            R -= (self.mass[r, None] * V[r]) * self.eigenvalues[None, :]
            np.maximum(out, np.abs(R).max(axis=0), out=out)
        return out

    def gram_deviation(self) -> float:
        G = self.vectors.T @ (self.mass[:, None] * self.vectors)
        return float(np.abs(G - np.eye(self.n_modes)).max())


def _solve_block(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Symmetrize A in place and hand it to eigh; eigenvalues ascending."""
    A += A.T
    A *= 0.5
    vals, vecs = np.linalg.eigh(A)
    if np.any(vals[1:] < vals[:-1]):
        raise RuntimeError("eigh returned eigenvalues out of ascending order")
    return vals, vecs


def eigensystem(form: EnergyForm, bc: str) -> EigenBasis:
    """Solve E phi = lambda M phi for the requested boundary condition.

    Eigenvalues are ascending; each vector's sign is fixed so its largest
    magnitude component is positive; eigenvalues within roundoff of zero are
    clamped to exactly zero so downstream sqrt weights stay real.

    The pencil is split by the structure's involution P (see
    ``VertexGraph.vertex_involution``).  P commutes with
    A = M^(-1/2) E M^(-1/2), so in the orthonormal basis of fixed vertices,
    (e_a + e_b)/sqrt 2 and (e_a - e_b)/sqrt 2 over the swapped pairs (a, b)
    A is an even block plus an odd block, each solved by its own eigh.  With
    no involution the even block is all of A and the odd block is empty.
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
    perm = graph.vertex_involution()
    image = perm[keep]
    fixed, a = keep[image == keep], keep[keep < image]
    b = perm[a]
    nf = fixed.size
    m_half = np.sqrt(mass)

    def scaled(rows, cols):
        B = form.matrix[np.ix_(rows, cols)]
        B /= m_half[rows, None]
        B /= m_half[None, cols]
        return B

    # Even block [[A_ff, (A_fa + A_fb)/sqrt 2], [., (X + Y)/2]] and odd block
    # (X - Y)/2, with X = A_aa + A_bb and Y = A_ab + A_ba.
    even = np.empty((nf + a.size, nf + a.size))
    even[:nf, :nf] = scaled(fixed, fixed)
    cross = scaled(a, fixed)
    cross += scaled(b, fixed)
    cross *= math.sqrt(0.5)
    even[nf:, :nf] = cross
    even[:nf, nf:] = cross.T
    del cross
    odd = scaled(a, a)
    odd += scaled(b, b)
    Y = scaled(a, b)
    Y += Y.T
    even[nf:, nf:] = odd
    even[nf:, nf:] += Y
    even[nf:, nf:] *= 0.5
    odd -= Y
    odd *= 0.5
    del Y
    vals_even, U = _solve_block(even)
    del even
    vals_odd, W = _solve_block(odd)
    del odd

    vals = np.concatenate([vals_even, vals_odd])
    order = np.argsort(vals, kind="stable")
    vals = vals[order]
    column = np.empty(vals.size, dtype=np.intp)
    column[order] = np.arange(vals.size)
    even_cols, odd_cols = column[: vals_even.size], column[vals_even.size :]
    # Solver noise scales with the top of the spectrum; true kernel modes sit
    # many orders below any genuine eigenvalue.
    vals[np.abs(vals) <= 1e-11 * max(1.0, abs(vals[-1]))] = 0.0
    if vals[0] < 0.0:
        raise RuntimeError(f"negative eigenvalue {vals[0]!r} from a PSD pencil")

    # Back to vertex coordinates, with zero rows off the solved block.
    phi = np.zeros((graph.n_vertices, vals.size))
    phi[fixed[:, None], even_cols] = U[:nf]
    U = U[nf:]
    U *= math.sqrt(0.5)
    phi[a[:, None], even_cols] = U
    phi[b[:, None], even_cols] = U
    del U
    W *= math.sqrt(0.5)
    phi[a[:, None], odd_cols] = W
    np.negative(W, out=W)
    phi[b[:, None], odd_cols] = W
    del W
    phi /= m_half[:, None]
    # sign convention: largest-magnitude component positive
    anchor = np.abs(phi).argmax(axis=0)
    signs = np.sign(phi[anchor, np.arange(phi.shape[1])])
    signs[signs == 0.0] = 1.0
    phi *= signs[None, :]

    basis = EigenBasis(
        bc=bc, graph=graph, eigenvalues=vals, vectors=phi, mass=mass, blocks=(vals_even.size, vals_odd.size)
    )

    resid = basis.residuals(form.matrix)
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


def _count(eigenvalues: np.ndarray, x):
    """Number of eigenvalues <= x (1 + EIG_RTOL): a degenerate cluster counts
    whole, whatever order roundoff put its members in."""
    return np.searchsorted(eigenvalues, x * (1.0 + EIG_RTOL), side="right")


def counting_function(basis: EigenBasis, x: float) -> int:
    """Number of eigenvalues <= x, multiplicity counted (see ``_count``)."""
    if x < 0.0:
        raise ValueError("threshold must be nonnegative")
    return int(_count(basis.eigenvalues, x))


@dataclass
class WeylFit:
    slope: float
    intercept: float
    max_residual: float
    n_points: int
    window: tuple[float, float]


def weyl_exponent(basis: EigenBasis, window: tuple[float, float] = (0.05, 0.25)) -> WeylFit:
    """Least-squares slope of log N(lambda_n) against log lambda_n.

    N counts every eigenvalue of lambda_n's cluster (``counting_function``),
    so the fit depends only on the eigenvalue multiset.

    Only the lower part of the discrete spectrum tracks the continuum, so the
    fit is restricted to the given index window.
    """
    idx = basis.window_indices(window)
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
        window=window,
    )


def eigen_growth_constants(
    basis: EigenBasis, window: tuple[float, float] = (0.05, 0.25)
) -> tuple[float, float]:
    """Window extremes of lambda_n / n**((d+1)/d)."""
    idx = basis.window_indices(window)
    if idx.size == 0:
        raise ValueError("empty window")
    d = basis.dim
    n = idx + 1  # 1-based mode index
    ratio = basis.eigenvalues[idx] / n ** ((d + 1.0) / d)
    return float(ratio.min()), float(ratio.max())


def supnorm_ratio(
    basis: EigenBasis, window: tuple[float, float] | None = None
) -> float:
    """Empirical C with sup|phi_n| <= C * lambda_n**(d/(2(d+1))).

    By default all modes with lambda > 0 enter (the lambda = 0 Neumann mode
    is excluded); pass a window to restrict to a spectral band.
    """
    if window is None:
        idx = np.flatnonzero(basis.eigenvalues > 0.0)
    else:
        idx = basis.window_indices(window)
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

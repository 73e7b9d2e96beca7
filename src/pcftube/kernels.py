"""Heat and Poisson kernels by eigen-expansion, with subordination cross-check.

The heat kernel weights modes by exp(-lambda_n t), the Poisson kernel by
exp(-sqrt(lambda_n) t).  The subordination route recovers the Poisson kernel
as a weighted time average of the heat kernel,

    P(t,x,y) = (2/sqrt(pi)) * int_0^inf exp(-v^2) H(t^2/(4 v^2), x, y) dv,

evaluated on Gauss-Legendre panels in v with a nested error estimate, one
integrand evaluation per refinement round for a pair or a batch of pairs;
for the discrete eigenbasis the two routes agree exactly up to quadrature
error, which is what the verification suite exploits.

Truncation honesty: the evaluator can estimate the continuum tail left out
beyond its retained modes (using the empirical sup-norm constant and the
eigenvalue growth law) and reports the achievable tail tolerance at small t
instead of silently degrading.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import TIE_RTOL, write_csv
from .spectral import EigenBasis, eigen_growth_constants, supnorm_ratio

class KernelEvaluator:
    """Kernel and Poisson-integral evaluations on one eigenbasis."""

    def __init__(self, basis: EigenBasis, tail_tol: float = 1e-8):
        self.basis = basis
        self.tail_tol = tail_tol
        self.lam = basis.eigenvalues
        self.sqrt_lam = np.sqrt(self.lam)
        self.vectors = basis.vectors
        self.mass = basis.mass
        # Mode coefficients of the constant function 1, read by kernel_mass.
        self._ones_coef = self.vectors.T @ self.mass
        self.d = basis.dim
        # Terms with rate * t above this are below 2^-1075 / e in magnitude
        # (see _live).
        s = float(basis.sup_norms.max())
        self._cut = 1075.0 * math.log(2.0) + 2.0 * math.log(max(1.0, s)) + 1.0
        self.sup_constant = supnorm_ratio(basis)
        try:
            self.growth_lower = eigen_growth_constants(basis)[0]
        except ValueError:
            pos = basis.eigenvalues[basis.eigenvalues > 0]
            npos = np.flatnonzero(basis.eigenvalues > 0) + 1
            self.growth_lower = float((pos / npos ** ((self.d + 1) / self.d)).min())

    @property
    def graph(self):
        return self.basis.graph

    @property
    def bc(self) -> str:
        return self.basis.bc

    # -- truncation reporting -------------------------------------------------

    def tail_estimate(self, t: float) -> float:
        """Continuum-tail bound sum_{n>N} C^2 lambda_n^(d/(d+1)) e^{-sqrt(lambda_n) t}.

        Eigenvalues beyond the retained modes are extrapolated through the
        growth law lambda_n ~ c1 n^((d+1)/d).
        """
        if t <= 0.0:
            raise ValueError("t must be positive")
        d, c1, C = self.d, self.growth_lower, self.sup_constant
        total = 0.0
        n0 = self.lam.size + 1
        chunk = 4096
        for _ in range(10_000):
            n = np.arange(n0, n0 + chunk, dtype=float)
            lam = c1 * n ** ((d + 1.0) / d)
            terms = C * C * lam ** (d / (d + 1.0)) * np.exp(-np.sqrt(lam) * t)
            total += float(terms.sum())
            if terms[-1] < 1e-6 * max(total, 1e-300):
                break
            n0 += chunk
        return total

    def t_min(self) -> float:
        """Smallest time with the configured tail tolerance achievable."""
        lam_top = float(self.lam[-1])
        if lam_top <= 0.0:
            return 0.0
        return math.log(1.0 / self.tail_tol) / math.sqrt(lam_top)

    def resolvable(self, t: float) -> bool:
        return self.tail_estimate(t) <= self.tail_tol

    def _check(self, t: float) -> None:
        if t <= 0.0:
            raise ValueError("t must be positive")

    # -- kernel values ---------------------------------------------------------

    def _live(self, rate: np.ndarray, t: float) -> int:
        """Number of leading modes whose terms e^(-rate_n t) phi_n(x) phi_n(y) can be nonzero.

        A mode with rate_n t > cut has |phi_n(x) phi_n(y) e^(-rate_n t)| < 2^-1075 / e,
        below half the smallest subnormal, so it rounds to zero in any product,
        sum or FMA and dropping it leaves every result bit-identical.  Rates
        ascend with the eigenvalues, so the live modes are a prefix.
        """
        return max(1, int(np.searchsorted(rate * t, self._cut, "right")))

    def _kernel(self, rate: np.ndarray, t: float, x=slice(None), y=None):
        """sum_n e^(-rate_n t) phi_n(x) phi_n(y) for vertices (or all vertices) x and y.

        Only the live modes (see _live) enter.  With y omitted (y = x) the
        kernel is A A^T with A = phi(x) e^(-rate t/2): BLAS evaluates that
        product as a symmetric rank-k update, so the matrix is exactly
        symmetric at half the cost of a general product.
        """
        self._check(t)
        k = self._live(rate, t)
        rate, V = rate[:k], self.vectors[:, :k]
        if y is None:
            A = V[x] * np.exp(-0.5 * t * rate)
            return A @ A.T
        return (V[x] * np.exp(-rate * t)) @ V[y].T

    def heat(self, t: float, x: int, y: int) -> float:
        return float(self._kernel(self.lam, t, x, y))

    def poisson(self, t: float, x: int, y: int) -> float:
        return float(self._kernel(self.sqrt_lam, t, x, y))

    def heat_matrix(self, t: float) -> np.ndarray:
        return self._kernel(self.lam, t)

    def poisson_matrix(self, t: float) -> np.ndarray:
        return self._kernel(self.sqrt_lam, t)

    def poisson_row(self, t: float, x) -> np.ndarray:
        """P(t, x, .) for a vertex x (a row), or rows for an index array x."""
        return self._kernel(self.sqrt_lam, t, x, slice(None))

    def heat_row(self, t: float, x) -> np.ndarray:
        """H(t, x, .) for a vertex x (a row), or rows for an index array x."""
        return self._kernel(self.lam, t, x, slice(None))

    # -- Poisson integrals -------------------------------------------------------

    def coefficients(self, f) -> np.ndarray:
        """Mode coefficients a_n for a vertex function or an atom list."""
        if isinstance(f, np.ndarray) and f.ndim == 1 and f.size == self.graph.n_vertices:
            return self.vectors.T @ (self.mass * f)
        atoms = list(f)
        a = np.zeros(self.lam.size)
        for vertex, weight in atoms:
            a += float(weight) * self.vectors[int(vertex)]
        return a

    def poisson_integral(self, f, t, x=slice(None)) -> np.ndarray:
        """u(t, x) = sum_n a_n e^{-sqrt(lambda_n) t} phi_n(x) at the vertices x
        (all of them by default, an index array for some rows, as in
        ``poisson_row``).

        For an array of times (a time ladder) the result has one row per time,
        all from one projection of f onto the modes and one product with the
        modes; every t is checked first.
        """
        ts = np.asarray(t, dtype=float)
        for s in ts.flat:
            self._check(float(s))
        a = self.coefficients(f)
        out = (np.exp(-np.multiply.outer(ts.ravel(), self.sqrt_lam)) * a) @ self.vectors[x].T
        return out.reshape(ts.shape + out.shape[1:])

    def kernel_mass(self, t: float, x: int) -> float:
        """Lumped integral of P(t, x, .) against the measure."""
        self._check(t)
        return float(np.dot(np.exp(-self.sqrt_lam * t) * self._ones_coef, self.vectors[x]))

    # -- subordination -----------------------------------------------------------

    def heat_profile(self, s, x, y):
        """H(s, x, y) over the modes live at s, for finite times s > 0.

        ``s`` is a time, or an array whose last axis holds the nodes of one
        panel: each panel sums the modes live at its smallest time (see
        _live), so no table of all modes at all nodes is formed.  x and y are
        vertices or matching index arrays, whose shape leads the result's.
        """
        s = np.asarray(s, dtype=float)
        panels = s.reshape(-1, s.shape[-1] if s.ndim else 1)
        coef = self.vectors[x] * self.vectors[y]
        out = np.empty(coef.shape[:-1] + panels.shape)
        for i, nodes in enumerate(panels):
            k = self._live(self.lam, nodes.min())
            w = np.multiply.outer(self.lam[:k], -nodes)
            out[..., i, :] = coef[..., :k] @ np.exp(w, out=w)
        out = out.reshape(coef.shape[:-1] + s.shape)
        return float(out) if out.ndim == 0 else out

    def poisson_via_subordination(self, t: float, x, y, quad_tol: float = 1e-7):
        """P(t, x, y) from the heat kernel by subordination, for a pair or for
        matching index arrays x and y (then one value per pair)."""
        self._check(t)
        return subordination_transform(lambda s: self.heat_profile(s, x, y), t, quad_tol)


# Nodes of the 10-node and then the 20-node Gauss-Legendre rule on [-1, 1],
# and their weights; the two rules' difference on a panel is its error estimate.
_GL10, _GL20 = np.polynomial.legendre.leggauss(10), np.polynomial.legendre.leggauss(20)
_GL_NODES = np.concatenate([_GL10[0], _GL20[0]])
# Halvings after which a failing panel reports no convergence: a panel of
# 2**-48 its initial width.
QUAD_HALVINGS = 48
# Open panels past which refinement reports no convergence: an integrand no
# finite panel set resolves (NaN, noise) would otherwise double them each round.
QUAD_MAX_PANELS = 4096


def subordination_transform(h, t: float, tol: float = 1e-7):
    """(2/sqrt(pi)) * int_0^inf exp(-v^2) h(t^2 / (4 v^2)) dv on Gauss-Legendre panels.

    The substitution v = t / (2 sqrt(s)) turns the subordination integral into
    a smooth, exponentially decaying integrand; h must be bounded on (0, inf).
    h takes an array of times s and returns values whose trailing shape is
    s.shape; a leading axis there is a batch of integrands, and the result has
    the batch shape (a float for none).  ``tol`` is an absolute tolerance on
    each result.

    Each round evaluates h once, at the nodes of both rules on every open
    panel.  A panel passes when its 10- and 20-node values agree within its
    share of ``tol`` for every integrand of the batch, and adds its 20-node
    value; a failing panel is bisected, each half with half its tolerance.
    The first panel is [0, v0] with v0 = 1e-8: there s exceeds t^2 / 4e-16,
    so a heat kernel is down to its zero modes.  Past v1 = 8 the weight is
    below 1e-27.
    """
    if t <= 0.0:
        raise ValueError("t must be positive")
    # Past v0, panels start at a factor of sqrt(2) in v each.  For a distant
    # pair at small t the integrand is a narrow peak at small v; on fewer,
    # wider panels every initial node can miss it, and the vanishing values
    # then pass the convergence test.
    v0, v1 = 1e-8, 8.0
    edges = np.geomspace(v0, v1, math.ceil(2.0 * math.log2(v1 / v0)) + 1)
    lo, hi = np.concatenate([[0.0], edges[:-1]]), edges
    panel_tol = np.full(lo.size, tol * math.sqrt(math.pi) / (2.0 * lo.size))
    total = 0.0
    for _ in range(QUAD_HALVINGS + 1):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        v = mid[:, None] + half[:, None] * _GL_NODES
        f = np.exp(-v * v) * h(t * t / (4.0 * v * v))
        coarse = (f[..., :10] @ _GL10[1]) * half
        fine = (f[..., 10:] @ _GL20[1]) * half
        ok = np.abs(fine - coarse).reshape(-1, lo.size).max(axis=0) <= panel_tol
        total = total + fine[..., ok].sum(axis=-1)
        if ok.all():
            break
        lo, mid, hi = lo[~ok], mid[~ok], hi[~ok]
        if 2 * lo.size > QUAD_MAX_PANELS:
            raise RuntimeError("quadrature did not converge")
        lo, hi = np.stack([lo, mid], axis=1).ravel(), np.stack([mid, hi], axis=1).ravel()
        panel_tol = np.repeat(0.5 * panel_tol[~ok], 2)
    else:
        raise RuntimeError("quadrature did not converge")
    total = total * (2.0 / math.sqrt(math.pi))
    return float(total) if np.ndim(total) == 0 else total


def kernel_min(ev: KernelEvaluator, t: float) -> float:
    """Smallest entry of the Poisson and the heat kernel matrix at time t.

    Both kernels commute with the symmetry group, K(g x, g y) = K(x, y), so
    the rows at the orbit representatives hold every entry of the matrix,
    and their minimum is the whole-matrix minimum.
    """
    reps = ev.graph.orbit_representatives()
    return min(float(ev.poisson_row(t, reps).min()), float(ev.heat_row(t, reps).min()))


def semigroup_defect(ev: KernelEvaluator, t: float, s: float, kind: str = "poisson") -> float:
    """Max over all (x, y) of |composition through the measure - kernel at t+s|.

    The composition K_t M K_s is taken through the eigenvectors,
    ((K_t[reps] M) V) e^(-rate s) V^T over the modes V live at s, on the
    orbit representatives reps only: as in ``kernel_min``, their rows hold
    every entry of the G-invariant kernels, so the max is the whole-matrix
    one, and no n x n array is formed.
    """
    if kind not in ("poisson", "heat"):
        raise ValueError("kind must be 'poisson' or 'heat'")
    ev._check(s)
    rate, row = (ev.sqrt_lam, ev.poisson_row) if kind == "poisson" else (ev.lam, ev.heat_row)
    reps = ev.graph.orbit_representatives()
    k = ev._live(rate, s)
    V = ev.vectors[:, :k]
    left = row(t, reps)
    left *= ev.mass
    coef = left @ V
    del left
    coef *= np.exp(-rate[:k] * s)
    comp = coef @ V.T
    comp -= row(t + s, reps)
    return float(np.abs(comp, out=comp).max())


@dataclass
class BoundConstants:
    """Empirical constants for the two-branch and combined kernel bounds."""

    C: float
    C_at: tuple[float, int, int]
    C_prime: float
    C_prime_at: tuple[float, int, int]


def _fold_max(best: float, at: tuple, ratio: np.ndarray, skip: np.ndarray, t: float, xs, ys):
    """Fold one time's ratios outside ``skip`` into the running maximum ``best``.

    The maximum stays exact, but its location ``at`` moves to this t only when
    the new maximum beats ``best`` by more than TIE_RTOL (relative), and then
    names the first pair within TIE_RTOL of it: ratios that differ by
    roundoff are ties, so BLAS summation order cannot move the location.
    """
    ratio[skip] = -math.inf
    c = float(ratio.max(initial=-math.inf))
    if c > best and (best == -math.inf or c - best > TIE_RTOL * best):
        k = int(np.argmax(ratio >= c - TIE_RTOL * c))
        at = (float(t), int(xs[k]), int(ys[k]))
    return max(best, c), at


def two_branch_bound(r: np.ndarray, d: float):
    """t -> min{t^(-2d/(d+1)), t / R^((3d+1)/2)} over the distances ``r``.

    Where R = 0 only the first branch applies.  The power of ``r`` is taken
    once; the returned function evaluates the bound at one time.
    """
    decay = r ** ((3.0 * d + 1.0) / 2.0)

    def bound(t: float) -> np.ndarray:
        branch1 = t ** (-2.0 * d / (d + 1.0))
        with np.errstate(divide="ignore"):
            return np.where(r > 0.0, np.minimum(branch1, t / decay), branch1)

    return bound


def bound_constant(ev: KernelEvaluator, metric, t_grid, pairs=None) -> BoundConstants:
    """Sweep P(t,x,y) against min{t^(-2d/(d+1)), t / R^((3d+1)/2)}.

    ``pairs`` defaults to all vertex pairs x <= y; on the diagonal only the
    first branch applies.  Pairs with P <= 0 are skipped.  Each constant is
    the exact maximum; its ``*_at`` names the first (t, pair) in sweep order
    within TIE_RTOL (relative) of it, under the rule of ``_fold_max``.
    """
    d = ev.d
    if pairs is None:
        xs, ys = np.triu_indices(ev.graph.n_vertices)
    else:
        xs, ys = np.asarray(pairs, dtype=int).reshape(-1, 2).T
    r = metric.pairs(xs, ys)
    bound_at = two_branch_bound(r, d)
    spread = r ** (d + 1.0)
    best = best_p = -math.inf
    at = at_p = (0.0, 0, 0)
    for t in t_grid:
        val = ev.poisson_matrix(t)[xs, ys]
        skip = val <= 0.0
        bound = bound_at(t)
        combined = t / (t * t + spread) ** ((3.0 * d + 1.0) / (2.0 * (d + 1.0)))
        best, at = _fold_max(best, at, val / bound, skip, t, xs, ys)
        best_p, at_p = _fold_max(best_p, at_p, val / combined, skip, t, xs, ys)
    return BoundConstants(C=best, C_at=at, C_prime=best_p, C_prime_at=at_p)


@dataclass
class ApproxIdentityReport:
    t_ladder: list[float]
    sup_errors: list[float]
    l1_errors: list[float]
    l2_errors: list[float]


def approx_identity_error(ev: KernelEvaluator, f: np.ndarray, t_ladder) -> ApproxIdentityReport:
    """Errors of the Poisson smoothing P_t f against f along a time ladder.

    Dirichlet smoothing only approximates functions vanishing on the
    boundary, so such f are required there.
    """
    f = np.asarray(f, dtype=float)
    graph = ev.graph
    if ev.bc == "dirichlet" and np.abs(f[graph.boundary_ids]).max() > 1e-12:
        raise ValueError("Dirichlet smoothing needs f = 0 on the boundary set")
    mass = ev.mass
    sup, l1, l2 = [], [], []
    for u in ev.poisson_integral(f, t_ladder):
        err = u - f
        sup.append(float(np.abs(err).max()))
        l1.append(float(np.sum(mass * np.abs(err))))
        l2.append(float(math.sqrt(np.sum(mass * err * err))))
    return ApproxIdentityReport(list(map(float, t_ladder)), sup, l1, l2)


def export_kernel_csv(path, ev: KernelEvaluator, t_grid, points, quad_tol: float = 1e-7) -> None:
    """Write rows t, x_id, y_id, H, P_series, P_quadrature for every time of
    ``t_grid`` and every pair of ``points``, one evaluation of each per row."""
    pairs = np.asarray(points, dtype=int).reshape(-1, 2)
    ts = np.repeat(np.asarray(t_grid, dtype=float), len(pairs))
    xs, ys = np.tile(pairs, (len(t_grid), 1)).T
    values = [
        (ev.heat(t, x, y), ev.poisson(t, x, y), ev.poisson_via_subordination(t, x, y, quad_tol))
        for t, x, y in zip(ts.tolist(), xs.tolist(), ys.tolist())
    ]
    write_csv(
        path,
        ["t", "x_id", "y_id", "H", "P_series", "P_quadrature"],
        [ts, xs, ys, *np.array(values, dtype=float).reshape(-1, 3).T],
    )

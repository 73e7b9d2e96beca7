"""Heat and Poisson kernels by eigen-expansion, with subordination cross-check.

The heat kernel weights modes by exp(-lambda_n t), the Poisson kernel by
exp(-sqrt(lambda_n) t).  The subordination route recovers the Poisson kernel
as a weighted time average of the heat kernel,

    P(t,x,y) = (2/sqrt(pi)) * int_0^inf exp(-v^2) H(t^2/(4 v^2), x, y) dv,

evaluated by adaptive Simpson quadrature; for the discrete eigenbasis the two
routes agree exactly up to quadrature error, which is what the verification
suite exploits.

Truncation honesty: the evaluator can estimate the continuum tail left out
beyond its retained modes (using the empirical sup-norm constant and the
eigenvalue growth law) and reports the achievable tail tolerance at small t
instead of silently degrading.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectral import EigenBasis, eigen_growth_constants, supnorm_ratio


class TruncationError(RuntimeError):
    """Requested tail tolerance is not achievable with the available modes."""

    def __init__(self, requested: float, achievable: float, t: float):
        super().__init__(
            f"tail tolerance {requested:.1e} unachievable at t = {t:g}; "
            f"achievable tau is {achievable:.1e}"
        )
        self.requested = requested
        self.achievable = achievable


@dataclass
class TruncationPolicy:
    """Mode truncation: fixed count and/or a tail tolerance to report against.

    ``n_modes = None`` keeps every computed mode.  ``tail_tol`` is the tau
    used by resolvability reporting; with ``enforce`` set, kernel evaluations
    below the resolvable time raise instead of reporting.
    """

    n_modes: int | None = None
    tail_tol: float | None = 1e-8
    enforce: bool = False


class KernelEvaluator:
    """Kernel and Poisson-integral evaluations on one eigenbasis."""

    def __init__(self, basis: EigenBasis, policy: TruncationPolicy | None = None):
        self.basis = basis
        self.policy = policy or TruncationPolicy()
        n = basis.n_modes if self.policy.n_modes is None else min(self.policy.n_modes, basis.n_modes)
        self.n_used = n
        self.lam = basis.eigenvalues[:n]
        self.sqrt_lam = np.sqrt(self.lam)
        self.vectors = basis.vectors[:, :n]
        self.mass = basis.mass
        self.d = basis.dim
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
        n0 = self.n_used + 1
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

    def achievable_tau(self, t: float) -> float:
        return self.tail_estimate(t)

    def t_min(self) -> float:
        """Smallest time with the configured tail tolerance achievable."""
        tau = self.policy.tail_tol
        if tau is None:
            return 0.0
        lam_top = float(self.lam[-1])
        if lam_top <= 0.0:
            return 0.0
        return math.log(1.0 / tau) / math.sqrt(lam_top)

    def resolvable(self, t: float) -> bool:
        tau = self.policy.tail_tol
        return tau is None or self.achievable_tau(t) <= tau

    def _check(self, t: float) -> None:
        if t <= 0.0:
            raise ValueError("t must be positive")
        if self.policy.enforce and not self.resolvable(t):
            raise TruncationError(self.policy.tail_tol, self.achievable_tau(t), t)

    # -- kernel values ---------------------------------------------------------

    def _kernel(self, rate: np.ndarray, t: float, x=slice(None), y=None):
        """sum_n e^(-rate_n t) phi_n(x) phi_n(y) for vertices (or all vertices) x and y.

        With y omitted (y = x) the kernel is A A^T with A = phi(x) e^(-rate t/2):
        BLAS evaluates that product as a symmetric rank-k update, so the matrix
        is exactly symmetric at half the cost of a general product.
        """
        self._check(t)
        if y is None:
            A = self.vectors[x] * np.exp(-0.5 * t * rate)
            return A @ A.T
        return (self.vectors[x] * np.exp(-rate * t)) @ self.vectors[y].T

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

    # -- Poisson integrals -------------------------------------------------------

    def coefficients(self, f) -> np.ndarray:
        """Mode coefficients a_n for a vertex function or an atom list."""
        if isinstance(f, np.ndarray) and f.ndim == 1 and f.size == self.graph.n_vertices:
            return self.vectors.T @ (self.mass * f)
        atoms = list(f)
        a = np.zeros(self.n_used)
        for vertex, weight in atoms:
            a += float(weight) * self.vectors[int(vertex)]
        return a

    def poisson_integral(self, f, t: float) -> np.ndarray:
        """u(t, .) = sum_n a_n e^{-sqrt(lambda_n) t} phi_n."""
        self._check(t)
        a = self.coefficients(f)
        return self.vectors @ (np.exp(-self.sqrt_lam * t) * a)

    def kernel_mass(self, t: float, x: int) -> float:
        """Lumped integral of P(t, x, .) against the measure."""
        self._check(t)
        ones_coef = self.vectors.T @ self.mass
        return float(np.dot(np.exp(-self.sqrt_lam * t) * ones_coef, self.vectors[x]))

    # -- subordination -----------------------------------------------------------

    def heat_profile(self, s: float, x: int, y: int) -> float:
        if not np.isfinite(s):
            w = (self.lam == 0.0).astype(float)
        else:
            w = np.exp(-self.lam * s)
        return float(np.dot(self.vectors[x] * w, self.vectors[y]))

    def poisson_via_subordination(self, t: float, x: int, y: int, quad_tol: float = 1e-7) -> float:
        self._check(t)
        return subordination_transform(lambda s: self.heat_profile(s, x, y), t, quad_tol)


def _adaptive_simpson(g, a, b, fa, fm, fb, whole, tol, depth):
    m = 0.5 * (a + b)
    lm, rm = 0.5 * (a + m), 0.5 * (m + b)
    flm, frm = g(lm), g(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    if depth <= 0:
        raise RuntimeError("quadrature did not converge")
    if abs(left + right - whole) <= 15.0 * tol:
        return left + right + (left + right - whole) / 15.0
    return _adaptive_simpson(g, a, m, fa, flm, fm, left, tol / 2.0, depth - 1) + _adaptive_simpson(
        g, m, b, fm, frm, fb, right, tol / 2.0, depth - 1
    )


def adaptive_simpson(g, a: float, b: float, tol: float, depth: int = 48) -> float:
    fa, fb = g(a), g(b)
    m = 0.5 * (a + b)
    fm = g(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return _adaptive_simpson(g, a, b, fa, fm, fb, whole, tol, depth)


def subordination_transform(h, t: float, tol: float = 1e-7) -> float:
    """(2/sqrt(pi)) * int exp(-v^2) h(t^2 / (4 v^2)) dv by adaptive Simpson.

    The substitution v = t / (2 sqrt(s)) turns the subordination integral into
    a smooth, exponentially decaying integrand; h(s) must be bounded on
    (0, inf].  ``tol`` is an absolute tolerance on the result.
    """
    if t <= 0.0:
        raise ValueError("t must be positive")

    def integrand(v: float) -> float:
        s = t * t / (4.0 * v * v)
        return math.exp(-v * v) * h(s)

    # Refinement starts from panels spanning a factor of sqrt(2) in v each.  For
    # a distant pair at small t the integrand is a narrow peak at small v; on
    # fewer, wider panels every initial sample can miss it, and the vanishing
    # samples then pass the convergence test.
    v0, v1 = 1e-8, 8.0
    panels = math.ceil(2.0 * math.log2(v1 / v0))
    edges = np.geomspace(v0, v1, panels + 1)
    panel_tol = tol * math.sqrt(math.pi) / (2.0 * panels)
    total = math.fsum(adaptive_simpson(integrand, a, b, panel_tol) for a, b in zip(edges[:-1], edges[1:]))
    return total * 2.0 / math.sqrt(math.pi)


def semigroup_defect(ev: KernelEvaluator, t: float, s: float, kind: str = "poisson") -> float:
    """Max over all (x, y) of |composition through the measure - kernel at t+s|."""
    if kind not in ("poisson", "heat"):
        raise ValueError("kind must be 'poisson' or 'heat'")
    mat = ev.poisson_matrix if kind == "poisson" else ev.heat_matrix
    # One product at a time and in place: three n x n arrays live at most.
    comp = mat(t) @ (ev.mass[:, None] * mat(s))
    comp -= mat(t + s)
    return float(np.abs(comp, out=comp).max())


@dataclass
class BoundConstants:
    """Empirical constants for the two-branch and combined kernel bounds."""

    C: float
    C_at: tuple[float, int, int]
    C_prime: float
    C_prime_at: tuple[float, int, int]


def _first_max(ratio: np.ndarray, skip: np.ndarray) -> tuple[float, int]:
    """Largest ratio outside ``skip`` and the first index holding it."""
    ratio[skip] = -math.inf
    if ratio.size == 0:
        return -math.inf, 0
    k = int(np.argmax(ratio))
    return float(ratio[k]), k


def bound_constant(ev: KernelEvaluator, metric, t_grid, pairs=None) -> BoundConstants:
    """Sweep P(t,x,y) against min{t^(-2d/(d+1)), t / R^((3d+1)/2)}.

    ``pairs`` defaults to all vertex pairs x <= y; on the diagonal only the
    first branch applies.  Pairs with P <= 0 are skipped, and each ``*_at``
    names the first strict maximum in (t, pair) order.
    """
    d = ev.d
    if pairs is None:
        xs, ys = np.triu_indices(ev.graph.n_vertices)
    else:
        xs, ys = np.asarray(pairs, dtype=int).reshape(-1, 2).T
    r = metric.matrix()[xs, ys]
    decay = r ** ((3.0 * d + 1.0) / 2.0)
    spread = r ** (d + 1.0)
    best = best_p = -math.inf
    at = at_p = (0.0, 0, 0)
    for t in t_grid:
        val = ev.poisson_matrix(t)[xs, ys]
        skip = val <= 0.0
        branch1 = t ** (-2.0 * d / (d + 1.0))
        with np.errstate(divide="ignore"):
            bound = np.where(r > 0.0, np.minimum(branch1, t / decay), branch1)
        combined = t / (t * t + spread) ** ((3.0 * d + 1.0) / (2.0 * (d + 1.0)))
        c, k = _first_max(val / bound, skip)
        if c > best:
            best, at = c, (float(t), int(xs[k]), int(ys[k]))
        c, k = _first_max(val / combined, skip)
        if c > best_p:
            best_p, at_p = c, (float(t), int(xs[k]), int(ys[k]))
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
    for t in t_ladder:
        u = ev.poisson_integral(f, t)
        err = u - f
        sup.append(float(np.abs(err).max()))
        l1.append(float(np.sum(mass * np.abs(err))))
        l2.append(float(math.sqrt(np.sum(mass * err * err))))
    return ApproxIdentityReport(list(map(float, t_ladder)), sup, l1, l2)


def export_kernel_csv(path, ev: KernelEvaluator, t_grid, points, quad_tol: float = 1e-7) -> None:
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "x_id", "y_id", "H", "P_series", "P_quadrature"])
        for t in t_grid:
            for x, y in points:
                writer.writerow(
                    [
                        repr(float(t)),
                        int(x),
                        int(y),
                        repr(ev.heat(t, x, y)),
                        repr(ev.poisson(t, x, y)),
                        repr(ev.poisson_via_subordination(t, x, y, quad_tol)),
                    ]
                )

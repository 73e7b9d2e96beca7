"""Harmonic fields on the half-line times the set: residuals, extrema, Fatou.

A TubeField holds samples u(t, x) on a time ladder times the vertex set.
Fields produced by Poisson integrals satisfy u_tt = M^{-1} E u exactly in
continuous time; the diagnostics here verify that structure through divided
differences, locate slab extrema, and check the semigroup reconstruction
identity that is the computable core of the Fatou theorem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import KernelEvaluator
from .spectral import EnergyForm

EXTREMA_SLACK = 1e-9
# The Fatou batch: each random Dirichlet field is sampled on FATOU_GRID and
# u(s + t, .) is rebuilt from the slice u(s, .) with (s, t) = FATOU_SHIFT.
FATOU_GRID = (0.1, 0.2, 0.3, 0.5)
FATOU_SHIFT = (0.1, 0.2)


@dataclass
class TubeField:
    """Samples over t_grid x V_m of a field with boundary condition ``bc``."""

    t_grid: np.ndarray
    values: np.ndarray
    bc: str
    graph: object

    def __post_init__(self):
        self.t_grid = np.asarray(self.t_grid, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.t_grid.size, self.graph.n_vertices):
            raise ValueError("values must be shaped (len(t_grid), n_vertices)")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field contains non-finite values")
        if np.any(np.diff(self.t_grid) <= 0.0):
            raise ValueError("t_grid must be strictly increasing")
        if self.bc == "dirichlet":
            col = self.values[:, self.graph.boundary_ids]
            if np.abs(col).max() > 1e-12:
                raise ValueError("Dirichlet field must vanish on boundary columns")

    def row(self, t: float) -> np.ndarray:
        i = int(np.argmin(np.abs(self.t_grid - t)))
        if not math.isclose(self.t_grid[i], t, rel_tol=1e-12, abs_tol=1e-15):
            raise KeyError(f"t = {t} is not on the grid")
        return self.values[i]


def tube_sample(ev: KernelEvaluator, f, t_grid) -> TubeField:
    """Poisson integral of f sampled on a time ladder."""
    ts = np.asarray(list(t_grid), dtype=float)
    return TubeField(t_grid=ts, values=ev.poisson_integral(f, ts), bc=ev.bc, graph=ev.graph)


def _second_divided_difference(t: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Three-point second derivative on a non-uniform grid, interior nodes."""
    h1 = (t[1:-1] - t[:-2])[:, None]
    h2 = (t[2:] - t[1:-1])[:, None]
    return 2.0 * (u[:-2] / (h1 * (h1 + h2)) - u[1:-1] / (h1 * h2) + u[2:] / (h2 * (h1 + h2)))


@dataclass
class ResidualReport:
    max_residual: float
    per_node: np.ndarray
    t_interior: np.ndarray


def harmonic_residual(field: TubeField, form: EnergyForm) -> ResidualReport:
    """Max over interior grid nodes and non-boundary columns of |u_tt + Delta u|.

    Delta = -M^{-1} E, applied on the stencil (``EnergyForm.apply``); the
    boundary columns are excluded because the equation is only imposed away
    from the boundary set.
    """
    if field.t_grid.size < 3:
        raise ValueError("need at least three time nodes")
    graph = field.graph
    interior = graph.interior_mask()
    u = field.values
    utt = _second_divided_difference(field.t_grid, u)[:, interior]
    lap = -form.apply(u[1:-1].T, rows=interior).T / graph.vertex_mass[interior]
    per_node = np.abs(utt + lap).max(axis=1)
    return ResidualReport(
        max_residual=float(per_node.max()),
        per_node=per_node,
        t_interior=field.t_grid[1:-1],
    )


@dataclass
class ExtremaReport:
    slab_max: float
    slab_min: float
    boundary_max: float
    boundary_min: float
    max_excess: float
    min_deficit: float
    max_location: tuple[float, int]
    min_location: tuple[float, int]
    ok: bool


def max_principle_check(field: TubeField, a: float, b: float) -> ExtremaReport:
    """Verify slab extrema sit on {t=a}, {t=b} or the boundary columns.

    The allowed slack, ``EXTREMA_SLACK``, is relative to the field's range
    over the slab, which absorbs floating-point ties in degenerate (constant)
    fields.
    """
    ts = field.t_grid
    sel = (ts >= a - 1e-15) & (ts <= b + 1e-15)
    if sel.sum() < 2:
        raise ValueError("slab must contain at least two grid times")
    sub = field.values[sel]
    sub_t = ts[sel]
    slab_max = float(sub.max())
    slab_min = float(sub.min())
    rng = max(slab_max - slab_min, 1e-300)

    bid = field.graph.boundary_ids
    boundary_vals = np.concatenate([sub[0], sub[-1], sub[:, bid].ravel()])
    bmax, bmin = float(boundary_vals.max()), float(boundary_vals.min())

    i_max = np.unravel_index(int(np.argmax(sub)), sub.shape)
    i_min = np.unravel_index(int(np.argmin(sub)), sub.shape)
    excess = slab_max - bmax
    deficit = bmin - slab_min
    ok = excess <= EXTREMA_SLACK * rng and deficit <= EXTREMA_SLACK * rng
    return ExtremaReport(
        slab_max=slab_max,
        slab_min=slab_min,
        boundary_max=bmax,
        boundary_min=bmin,
        max_excess=excess,
        min_deficit=deficit,
        max_location=(float(sub_t[i_max[0]]), int(i_max[1])),
        min_location=(float(sub_t[i_min[0]]), int(i_min[1])),
        ok=ok,
    )


def fatou_consistency(ev: KernelEvaluator, field: TubeField, s: float, t: float) -> float:
    """Defect of u(t+s, .) against the Poisson integral of the slice u(s, .).

    This reconstruction identity is the computable content of the Fatou
    theorem for bounded fields with zero boundary columns, so only Dirichlet
    fields are accepted.
    """
    if field.bc != "dirichlet" or ev.bc != "dirichlet":
        raise ValueError("Fatou reconstruction applies to Dirichlet fields")
    u_s = field.row(s)
    u_ts = field.row(t + s)
    rebuilt = ev.poisson_integral(u_s, t)
    return float(np.abs(rebuilt - u_ts).max())


def fatou_batch(ev: KernelEvaluator, rng: np.random.Generator, count: int) -> tuple[list[float], list[TubeField]]:
    """Reconstruction defects of ``count`` random Dirichlet fields, and the fields.

    Each field is the Poisson integral of standard normal data drawn from
    ``rng`` (one draw per field, zero on the boundary), sampled on FATOU_GRID;
    its defect is ``fatou_consistency`` at FATOU_SHIFT.
    """
    graph = ev.graph
    defects, fields = [], []
    for _ in range(count):
        f = rng.standard_normal(graph.n_vertices)
        f[graph.boundary_ids] = 0.0
        fld = tube_sample(ev, f, FATOU_GRID)
        defects.append(fatou_consistency(ev, fld, *FATOU_SHIFT))
        fields.append(fld)
    return defects, fields


@dataclass
class ProfileReport:
    p: float
    norms: np.ndarray
    sup: float
    fit_exponent: float


def lp_profile(field: TubeField, p) -> ProfileReport:
    """Mass-weighted L^p norms along the ladder plus a pointwise decay fit.

    The fitted exponent is the log-log slope of max_x |u(t,x)| against t,
    reported for comparison with the p-dependent decay envelope.
    """
    mass = field.graph.vertex_mass
    u = field.values
    if p == 1:
        norms = np.sum(mass[None, :] * np.abs(u), axis=1)
    elif p == 2:
        norms = np.sqrt(np.sum(mass[None, :] * u * u, axis=1))
    elif p in (math.inf, "inf"):
        norms = np.abs(u).max(axis=1)
    else:
        raise ValueError("p must be 1, 2 or inf")
    peak = np.abs(u).max(axis=1)
    good = peak > 0.0
    if good.sum() >= 2:
        A = np.vstack([np.log(field.t_grid[good]), np.ones(int(good.sum()))]).T
        coef, *_ = np.linalg.lstsq(A, np.log(peak[good]), rcond=None)
        exponent = float(coef[0])
    else:
        exponent = 0.0
    return ProfileReport(
        p=float(p) if p != "inf" else math.inf,
        norms=norms,
        sup=float(norms.max()),
        fit_exponent=exponent,
    )

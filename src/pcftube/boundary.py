"""Maximal functions, cones and boundary-limit experiments.

Balls live in the effective resistance metric.  The maximal function at a
vertex is the exact supremum over all resolvable ball averages, obtained by
sweeping the distinct radii from that vertex (ties merged by the metric's
tie rule) in an order the metric sorts once, on its orbit-representative
rows.  Approach regions
("cones") over a point x are the sets R(x,y)^(d+1) < alpha t^2, optionally
truncated in time; they drive the nontangential-limit and barrier
experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import ResistanceMetric, VertexGraph, word_products
from .kernels import KernelEvaluator, two_branch_bound


def _maximal(metric: ResistanceMetric, weights: np.ndarray) -> np.ndarray:
    """Largest ratio weights(B) / mu(B) over the realizable balls B about each
    vertex.  The balls about g(rep) are the images under g of the balls about
    rep, so each group element g sweeps weights o g over the representatives'
    sorted rows.  Weights are nonnegative, so the zero ratios at prefixes that
    are not balls (mass inf) never exceed a ball's ratio."""
    order, masses = metric.realizable_balls()
    reps = metric.reps
    rows = max(1, 2**17 // order.shape[1])  # a block of rows is about 1 MB of float64
    out = np.empty(order.shape[1])
    for g in metric.group:
        moved = weights[g]
        for start in range(0, reps.size, rows):
            block = slice(start, start + rows)
            ratios = np.cumsum(moved[order[block]], axis=1)
            ratios /= masses[block]
            out[g[reps[block]]] = ratios.max(axis=1)
    return out


def maximal_function(metric: ResistanceMetric, f: np.ndarray) -> np.ndarray:
    """Hardy-Littlewood maximal function of f over resistance balls.

    Mf(x) = sup over radii of the ball average of |f| d(mu); the supremum is
    attained on the finite family of balls realizable at this level, all of
    which are scanned.
    """
    return _maximal(metric, metric.graph.vertex_mass * np.abs(np.asarray(f, dtype=float)))


def maximal_measure(metric: ResistanceMetric, atoms) -> np.ndarray:
    """Maximal function of a finite atomic measure (vertex, weight) list."""
    pairs = np.asarray(list(atoms), dtype=float).reshape(-1, 2)
    atom_vec = np.zeros(metric.graph.n_vertices)
    np.add.at(atom_vec, pairs[:, 0].astype(int), np.abs(pairs[:, 1]))
    return _maximal(metric, atom_vec)


@dataclass
class WeakTypeReport:
    constant: float
    per_alpha: list[tuple[float, float]]
    l2_ratio: float


def weak11_check(graph: VertexGraph, f: np.ndarray, mf: np.ndarray, alpha_grid) -> WeakTypeReport:
    """Empirical weak-(1,1) constant alpha * mu{Mf > alpha} / ||f||_1, for f
    and its maximal function mf.

    Also records the L^2 operator ratio ||Mf||_2 / ||f||_2 as a boundedness
    spot check.
    """
    f = np.asarray(f, dtype=float)
    mass = graph.vertex_mass
    norm1 = float(np.sum(mass * np.abs(f)))
    if norm1 <= 0.0:
        raise ValueError("f must not vanish identically")
    rows = []
    best = 0.0
    for alpha in alpha_grid:
        meas = float(mass[mf > alpha].sum())
        ratio = alpha * meas / norm1
        rows.append((float(alpha), ratio))
        best = max(best, ratio)
    norm2 = math.sqrt(float(np.sum(mass * f * f)))
    mf2 = math.sqrt(float(np.sum(mass * mf * mf)))
    return WeakTypeReport(constant=best, per_alpha=rows, l2_ratio=mf2 / norm2)


@dataclass(frozen=True)
class Cone:
    """Approach region over a vertex: R(x,y)^(d+1) < aperture * t^2, 0 < t < height."""

    apex: int
    aperture: float
    height: float = math.inf

    def members(self, r_row: np.ndarray, d: float, t: float) -> np.ndarray:
        if not 0.0 < t < self.height:
            return np.empty(0, dtype=int)
        return np.flatnonzero(r_row ** (d + 1.0) < self.aperture * t * t)


def _cone_running_max(cone: Cone, r_row: np.ndarray, d: float, ts: np.ndarray, field) -> tuple[np.ndarray, bool]:
    """errs[i] = max of |field(j, ts[j])| over the cone members at ts[j], j <= i.

    ``ts`` ascends; ``field`` is called only at times where the cone has a
    member.  Also returns whether any time had one.
    """
    errs = np.empty(ts.size)
    running = 0.0
    any_member = False
    for i, t in enumerate(ts):
        ids = cone.members(r_row, d, float(t))
        if ids.size:
            any_member = True
            running = max(running, float(np.abs(field(i, float(t))[ids]).max()))
        errs[i] = running
    return errs, any_member


@dataclass
class ConeSupReport:
    sup: float
    ratio: float | None


def cone_sup(field, cone: Cone, metric: ResistanceMetric, mf_at_apex: float | None = None) -> ConeSupReport:
    """Sup of |u| over the sampled cone, optionally relative to Mf(apex)."""
    d, row = metric.graph.structure.dim, metric.from_vertex(cone.apex)
    errs, any_member = _cone_running_max(cone, row, d, field.t_grid, lambda i, t: field.values[i])
    if not any_member:
        raise ValueError("cone contains no sampled points at this level")
    sup = float(errs[-1])
    ratio = None if mf_at_apex is None else sup / mf_at_apex
    return ConeSupReport(sup=sup, ratio=ratio)


def nontangential_error(
    ev: KernelEvaluator,
    f,
    x: int,
    cone: Cone,
    t_ladder,
    metric: ResistanceMetric,
) -> tuple[np.ndarray, np.ndarray]:
    """e(t) = sup over cone members at times s <= t of |u(s,y) - f(x)|.

    Returns (ascending times, errors).  The apex must avoid the boundary set
    under the Dirichlet condition, where the limit f(x) is unattainable.
    """
    graph = ev.graph
    if ev.bc == "dirichlet" and int(x) in set(int(b) for b in graph.boundary_ids):
        raise ValueError("Dirichlet nontangential limits exclude boundary points")
    f = np.asarray(f, dtype=float)
    target = float(f[x])
    d = graph.structure.dim
    r_row = metric.from_vertex(cone.apex)
    ts = np.sort(np.asarray(list(t_ladder), dtype=float))
    errs, any_member = _cone_running_max(cone, r_row, d, ts, lambda i, t: ev.poisson_integral(f, t) - target)
    if not any_member:
        raise ValueError("cone contains no sampled points on the ladder")
    return ts, errs


def shifted_kernel_constant(
    ev: KernelEvaluator, metric: ResistanceMetric, x: int, cone: Cone, t_grid
) -> float:
    """Empirical C with P(t,y,z) <= C min{t^(-2d/(d+1)), t/R(x,z)^((3d+1)/2)}
    over sampled cone members (t, y) and targets z; entries with P <= 0 are
    skipped.  The cone is taken over ``cone.apex``, the bound in R(x, .)."""
    d = ev.d
    r_apex = metric.from_vertex(cone.apex)
    bound_at = two_branch_bound(metric.from_vertex(x), d)
    best = 0.0
    # A block reads the whole eigenbasis through gemm: at least a tenth of the
    # rows per block keeps that read from dominating at large n.
    step = max(2**17 // r_apex.size, r_apex.size // 10)
    for t in t_grid:
        t = float(t)
        members = cone.members(r_apex, d, t)
        if members.size == 0:
            continue
        bound = bound_at(t)
        # bound > 0 and best >= 0, so entries with P <= 0 never win: the ratio
        # is formed in place, on blocks of at least 1 MB of float64
        for start in range(0, members.size, step):
            P = ev.poisson_row(t, members[start : start + step])
            P /= bound
            best = max(best, float(P.max()))
    return best


def ball_radius(alpha: float, t: float, d: float) -> float:
    """Radius (alpha t^2)^(1/(d+1)) of the ball matched to time t."""
    return (alpha * t * t) ** (1.0 / (d + 1.0))


def resolution_radius(graph: VertexGraph, x: int) -> float:
    """Least resistance bound from x to another vertex that the level's cells
    give, without a metric: a level-m cell w holding x at corner p is the
    network -D scaled by r_w, so R(x, F_w(q)) <= r_w R_0(p, q) (Rayleigh
    monotonicity).  A ball about x of a larger radius holds a second vertex."""
    R0 = graph.structure.harmonic.resistances()
    np.fill_diagonal(R0, np.inf)
    cells, corners = np.nonzero(graph.cells == x)
    r_w = word_products(graph.structure.harmonic.r, graph.level)[cells]
    return float((r_w * R0[corners].min(axis=1)).min())


def ball_mass_lower(
    ev: KernelEvaluator,
    metric: ResistanceMetric,
    x: int,
    alpha: float,
    t_ladder,
) -> np.ndarray:
    """Integral of P^N(t,x,.) over the ball of radius ``ball_radius(alpha, t, d)``.

    Raises if some requested ball collapses to the apex alone, meaning the
    radius fell below the level resolution.
    """
    graph = ev.graph
    d = graph.structure.dim
    ts = np.asarray(list(t_ladder), dtype=float)
    out = np.empty(ts.size)
    for i, t in enumerate(ts):
        radius = ball_radius(alpha, t, d)
        ids, _ = metric.ball(x, radius)
        if ids.size <= 1:
            raise ValueError(f"ball of radius {radius:.3e} is below the level resolution")
        row = ev.poisson_row(float(t), x)
        out[i] = float(np.sum(graph.vertex_mass[ids] * row[ids]))
    return out


def alpha_scaling_fit(alphas, minima) -> tuple[float, np.ndarray]:
    """Fit minima ~ c * sqrt(alpha); returns c and the per-alpha ratios."""
    alphas = np.asarray(list(alphas), dtype=float)
    minima = np.asarray(list(minima), dtype=float)
    ratios = minima / np.sqrt(alphas)
    c = float(np.exp(np.mean(np.log(ratios))))
    return c, minima / (c * np.sqrt(alphas))


@dataclass
class BoundarySet:
    """A union of level-k cells with its vertex indicator at graph level."""

    graph: VertexGraph
    words: list[tuple[int, ...]]
    cell_ids: np.ndarray = field(init=False)
    vertex_indicator: np.ndarray = field(init=False)
    measure: float = field(init=False)

    def __post_init__(self):
        graph = self.graph
        member = np.zeros(graph.n_cells, dtype=bool)
        for w in self.words:
            member[graph.cells_with_prefix(w)] = True
        self.cell_ids = np.flatnonzero(member)
        ind = np.zeros(graph.n_vertices, dtype=bool)
        ind[graph.cells[self.cell_ids].ravel()] = True
        self.vertex_indicator = ind
        self.measure = float(graph.cell_measures[self.cell_ids].sum())

    def complement_weights(self) -> np.ndarray:
        """Lumped weights of the measure restricted to the complement cells."""
        graph = self.graph
        weights = np.zeros(graph.n_vertices)
        outside = np.setdiff1d(np.arange(graph.n_cells), self.cell_ids)
        nB = graph.structure.n_boundary
        np.add.at(weights, graph.cells[outside].ravel(), np.repeat(graph.cell_measures[outside] / nB, nB))
        return weights

    def distance(self, metric: ResistanceMetric) -> np.ndarray:
        """Resistance distance from every vertex to the vertex set of E."""
        return metric.distance_to(self.vertex_indicator)


# Relative half-width of the sampled lateral shell of the barrier region, and
# the number of interior proxies that get a decay ladder.
SHELL_ETA = 0.05
BARRIER_PROXIES = 3


@dataclass
class BarrierResult:
    t_grid: np.ndarray
    values: np.ndarray
    boundary_min: float
    n_boundary_samples: int
    decay: dict[int, np.ndarray]
    proxies: list[int]


def barrier(
    ev: KernelEvaluator,
    E: BoundarySet,
    alpha: float,
    t_grid,
    metric: ResistanceMetric,
) -> BarrierResult:
    """Neumann barrier w(t,x) = P_t[chi_complement](x) + t with diagnostics.

    The lateral boundary of Omega = union of unit-truncated cones over E is
    sampled as the shell where min-over-E distance satisfies
    R^(d+1)/t^2 in [alpha(1-eta), alpha(1+eta)] (eta = ``SHELL_ETA``), plus
    the t = 1 cap; the report carries the minimum of w over those samples.
    The ``BARRIER_PROXIES`` deepest vertices of E get a nontangential decay
    ladder of w.
    """
    if ev.bc != "neumann":
        raise ValueError("barrier construction uses the Neumann kernel")
    if E.measure >= 1.0:
        raise ValueError("E must have measure strictly below 1")
    graph = ev.graph
    d = graph.structure.dim
    ts = np.sort(np.asarray(list(t_grid), dtype=float))

    # P_t of the complement measure, as the Poisson integral of its density.
    density = E.complement_weights() / ev.mass
    values = ev.poisson_integral(density, ts) + ts[:, None]

    if E.measure == 0.0:
        # Degenerate barrier: the smoothing of the full measure is the
        # Neumann mass, so w = 1 + t with no lateral boundary to sample.
        return BarrierResult(
            t_grid=ts,
            values=values,
            boundary_min=math.inf,
            n_boundary_samples=0,
            decay={},
            proxies=[],
        )

    dist_e = E.distance(metric)

    boundary_vals = []
    for i, t in enumerate(ts):
        ratio = dist_e ** (d + 1.0) / (t * t)
        shell = np.flatnonzero((ratio >= alpha * (1.0 - SHELL_ETA)) & (ratio <= alpha * (1.0 + SHELL_ETA)))
        boundary_vals.extend(values[i, shell])
    # t = 1 cap over the open region
    cap_members = np.flatnonzero(dist_e ** (d + 1.0) < alpha)
    if 1.0 >= ts[0]:
        cap_vals = ev.poisson_integral(density, 1.0) + 1.0
        boundary_vals.extend(cap_vals[cap_members])
    if not boundary_vals:
        raise ValueError("no lateral boundary samples at this resolution")

    dist_comp = metric.distance_to(~E.vertex_indicator)
    interior = np.flatnonzero(E.vertex_indicator & (dist_comp > 0.0))
    if interior.size == 0:
        raise ValueError("E has no interior vertices at this level")
    order = interior[np.argsort(-dist_comp[interior])]
    proxies = [int(v) for v in order[:BARRIER_PROXIES]]
    decay = {}
    for v in proxies:
        cone = Cone(apex=v, aperture=alpha, height=1.0)
        decay[v], _ = _cone_running_max(cone, metric.from_vertex(v), d, ts, lambda i, t: values[i])

    return BarrierResult(
        t_grid=ts,
        values=values,
        boundary_min=float(min(boundary_vals)),
        n_boundary_samples=len(boundary_vals),
        decay=decay,
        proxies=proxies,
    )


@dataclass
class CoverReport:
    delta: float
    height: float
    n_checked: int
    n_violations: int
    covered: bool


def cone_cover_check(
    metric: ResistanceMetric,
    E: BoundarySet,
    x: int,
    alpha: float,
    k: int,
    t_grid=None,
    height_override: float | None = None,
) -> CoverReport:
    """Finite check that the truncated cone over a density point of E is
    covered by unit cones of aperture 1/k over points of E.

    delta is the largest radius with B_delta(x) inside E's vertex set, capped
    at k^(-1/(d+1)); the truncation height follows the recipe
    h = (delta / (2 alpha^(1/(d+1))))^((d+1)/2).  Passing ``height_override``
    bypasses the recipe; with an oversized height the covering can genuinely
    fail, which is reported through the violation count rather than raised.
    """
    graph = metric.graph
    d = graph.structure.dim
    if not E.vertex_indicator[x]:
        raise ValueError("x is not inside E; no density-point proxy available")
    row = metric.from_vertex(x)
    outside = np.flatnonzero(~E.vertex_indicator)
    if outside.size == 0:
        delta = metric.diameter()
    else:
        delta = float(row[outside].min())
    if delta <= 0.0:
        raise ValueError("x touches the complement; no density-point proxy available")
    delta = min(delta, k ** (-1.0 / (d + 1.0)))
    h = (delta / (2.0 * alpha ** (1.0 / (d + 1.0)))) ** ((d + 1.0) / 2.0)
    if height_override is not None:
        h = float(height_override)

    dist_e = E.distance(metric)

    if t_grid is None:
        t_grid = np.geomspace(h / 64.0, h * 0.999, 12)
    checked = violations = 0
    cone = Cone(x, alpha)
    for t in t_grid:
        if not 0.0 < t < min(h, 1.0):
            continue
        members = cone.members(row, d, float(t))
        checked += members.size
        # "not <" rather than ">=", so that a NaN distance counts as a violation
        violations += np.count_nonzero(~(dist_e[members] ** (d + 1.0) < t * t / k))
    return CoverReport(
        delta=delta,
        height=float(h),
        n_checked=checked,
        n_violations=violations,
        covered=checked > 0 and violations == 0,
    )

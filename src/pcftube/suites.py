"""Verification suites: run module invariants and collect a report.

Each suite bundles the checkable laws of one module at desk scale.  A check
body returns one value, and its ``_Runner.run`` call declares the value's
bound once, as a closed interval: the check passes when the value is finite
and inside it.  Exact identities get tight bounds, empirical constants that
no law bounds are gated on finiteness only, and checks whose calibration only
exists for particular presets are skipped elsewhere with an explicit reason.
A body whose structural precondition fails raises, and the check fails with
that reason.  Reports are deterministic for a fixed seed up to the per-check
runtimes.
"""

from __future__ import annotations

import functools
import json
import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import boundary as bnd
from . import kernels as ker
from . import spectral as spec
from . import tube as tb
from .core import (
    DEFAULT_BUDGET,
    ResistanceMetric,
    SelfSimilarStructure,
    build_level,
    load_structure,
    scaling_constants,
    word_products,
)

REPORT_VERSION = 1
SUITE_NAMES = ("core", "spectral", "kernels", "boundary", "tube")
DEFAULT_LEVELS = {"interval": 8, "sierpinski": 5, "vicsek": 3}
# the fixtures (``sample_vertices``, ``interior_sample``) address level-2 words
MIN_LEVEL = 2

# Bounds are closed intervals (lo, hi); either end may be infinite.
FINITE = (-math.inf, math.inf)
# closed at the least positive float, so it holds exactly the values > 0
POSITIVE = (math.ulp(0.0), math.inf)
# residual ratio between 17 and 33 time samples: about 4 at second order
SECOND_ORDER = (2.5, 6.0)


def at_most(hi: float) -> tuple[float, float]:
    return (-math.inf, hi)


def at_least(lo: float) -> tuple[float, float]:
    return (lo, math.inf)


class PreconditionError(Exception):
    """A structural precondition of a check does not hold."""


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise PreconditionError(what)


def default_level(structure: SelfSimilarStructure, level: int | None) -> int:
    """``level``, or the structure's desk-scale default when it is None."""
    return level if level is not None else DEFAULT_LEVELS.get(structure.name, 4)


@dataclass
class CheckRecord:
    id: str
    law: str
    status: str  # "pass" | "fail" | "skip"
    value: float | None
    tolerance: float | None
    runtime_s: float
    reason: str | None = None


@dataclass
class SuiteReport:
    suite: str
    env: dict
    checks: list[CheckRecord] = field(default_factory=list)
    report_version: int = REPORT_VERSION

    @property
    def passed(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def counts(self) -> dict:
        out = {"pass": 0, "fail": 0, "skip": 0}
        for c in self.checks:
            out[c.status] += 1
        return out

    def to_dict(self) -> dict:
        return {
            "report_version": self.report_version,
            "suite": self.suite,
            "env": self.env,
            "summary": self.counts(),
            "checks": [asdict(c) for c in self.checks],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json() + "\n")


def _tolerance(bound: tuple[float, float]) -> float | None:
    """The bound's end a report records: its upper end when finite, else its
    lower end, else None (a check gated on finiteness only)."""
    lo, hi = bound
    if math.isfinite(hi):
        return hi
    return lo if math.isfinite(lo) else None


class _Runner:
    def __init__(self):
        self.checks: list[CheckRecord] = []

    def run(self, cid: str, law: str, fn, bound: tuple[float, float]):
        """Run ``fn`` for its value.  The check passes when the value is
        finite and inside the closed interval ``bound``; a body that raises
        fails with the exception as its reason."""
        lo, hi = bound
        t0 = time.perf_counter()
        try:
            value = float(fn())
            status = "pass" if math.isfinite(value) and lo <= value <= hi else "fail"
            reason = None
        except Exception as exc:  # check bodies are trusted; report, don't crash the suite
            value, status, reason = None, "fail", f"{type(exc).__name__}: {exc}"
        self.checks.append(
            CheckRecord(
                id=cid,
                law=law,
                status=status,
                value=value,
                tolerance=_tolerance(bound),
                runtime_s=round(time.perf_counter() - t0, 6),
                reason=reason,
            )
        )

    def skip(self, cid: str, law: str, reason: str):
        self.checks.append(
            CheckRecord(id=cid, law=law, status="skip", value=None, tolerance=None, runtime_s=0.0, reason=reason)
        )


class SuiteContext:
    """Lazily built, cached artifacts for one (structure, level) pair."""

    def __init__(
        self,
        structure: SelfSimilarStructure,
        level: int,
        tol: float = 1e-8,
        seed: int = 7,
        budget: int = DEFAULT_BUDGET,
    ):
        self.structure = structure
        self.level = level
        self.tol = tol
        self.seed = seed
        self.budget = budget
        self._cache: dict[tuple, object] = {}

    def _cached(self, kind, level: int | None, build):
        """build(level) once per (kind, level); level None is the context's."""
        key = (kind, self.level if level is None else level)
        if key not in self._cache:
            self._cache[key] = build(key[1])
        return self._cache[key]

    def graph(self, level: int | None = None):
        return self._cached("graph", level, lambda m: build_level(self.structure, m, self.budget))

    def form(self, level: int | None = None) -> spec.EnergyForm:
        return self._cached("form", level, lambda m: spec.energy_matrix(self.graph(m)))

    def basis(self, bc: str, level: int | None = None) -> spec.EigenBasis:
        return self._cached(("basis", bc), level, lambda m: spec.eigensystem(self.form(m), bc))

    def evaluator(self, bc: str) -> ker.KernelEvaluator:
        return self._cached(("evaluator", bc), None, lambda m: ker.KernelEvaluator(self.basis(bc), self.tol))

    def metric(self) -> ResistanceMetric:
        return self._cached("metric", None, lambda m: ResistanceMetric(self.basis("neumann")))

    def barrier(self) -> tuple[bnd.BoundarySet, bnd.BarrierResult]:
        """The set of ``barrier_words`` and its Neumann barrier at aperture 1
        on the boundary suite's ladder."""
        def build(m):
            E = bnd.BoundarySet(self.graph(), self.barrier_words())
            return E, bnd.barrier(self.evaluator("neumann"), E, 1.0, np.geomspace(0.02, 0.9, 10), self.metric())
        return self._cached("barrier", None, build)

    def family_maximal(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """(f, Mf) for each f of ``function_family``."""
        def build(m):
            return [(f, bnd.maximal_function(self.metric(), f)) for _, f in self.function_family()]
        return self._cached("family_maximal", None, build)

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(self.seed)

    # -- preset-dependent fixtures ------------------------------------------------

    @property
    def preset(self) -> str:
        return self.structure.name

    def barrier_words(self):
        return {"interval": [(0,)], "sierpinski": [(0,), (1, 0), (2, 0)]}.get(self.preset, [(0,)])

    def cover_setup(self):
        graph = self.graph()
        if self.preset == "interval":
            return bnd.BoundarySet(graph, [(0, 1), (1, 0)]), graph.vertex_id((0,), 1)
        return bnd.BoundarySet(graph, [(0,)]), int(graph.boundary_ids[0])

    def interior_sample(self) -> int:
        graph = self.graph()
        if self.preset == "interval":
            return graph.vertex_id((0,), 1)
        if self.preset == "sierpinski":
            return graph.vertex_id((0, 1), 2)
        return graph.vertex_id((self.structure.n_symbols - 1,), 0)

    def function_family(self) -> list[tuple[str, np.ndarray]]:
        """Deterministic test functions defined by addresses, hence
        comparable across levels."""
        graph = self.graph()
        def indicator(prefix):
            ind = np.zeros(graph.n_vertices)
            ind[graph.cells[graph.cells_with_prefix(prefix)].ravel()] = 1.0
            return ind
        fam = [("const", np.ones(graph.n_vertices))]
        fam += [(f"cell{s}", indicator((s,))) for s in range(self.structure.n_symbols)]
        return fam + [("cell00", indicator((0, 0))), ("coord", graph.coords[:, 0].copy())]

    def sample_vertices(self) -> list[int]:
        """Level-2 lattice points, addressed so they exist at every level >= 2."""
        graph = self.graph()
        words = [(), (0,), (1,)] + [(a, b) for a in range(self.structure.n_symbols) for b in (0, 1)]
        return sorted({graph.vertex_id(w, p) for w in words for p in range(self.structure.n_boundary)})


def _second_order_ratio(ctx: SuiteContext, data) -> float:
    """Ratio of the tube-equation residuals of the Dirichlet field of ``data``
    sampled at 17 and at 33 times on [0.3, 1.1]."""
    ev = ctx.evaluator("dirichlet")
    resid = []
    for npts in (17, 33):
        fld = tb.tube_sample(ev, data, np.linspace(0.3, 1.1, npts))
        resid.append(tb.harmonic_residual(fld, ctx.form()).max_residual)
    return resid[0] / max(resid[1], 1e-300)


# ----------------------------------------------------------------------------
# individual suites
# ----------------------------------------------------------------------------


def _core_suite(ctx: SuiteContext, r: _Runner) -> None:
    S = ctx.structure
    graph = ctx.graph()

    def dimension_root():
        rr = S.harmonic.r
        g = lambda d: float(np.sum(rr**d) - 1.0)
        _require(g(S.dim - 1e-6) > 0.0 > g(S.dim + 1e-6), "sum of r_i^d - 1 does not change sign at d")
        return abs(g(S.dim))

    r.run("core.dimension_root", "sum of r_i^d = 1 at a unique root", dimension_root, at_most(1e-12))

    def gluing():
        uniq = np.unique(np.round(graph.coords, 10), axis=0)
        return float(graph.n_vertices - uniq.shape[0])

    r.run("core.gluing_dedup", "combinatorial gluing matches coordinate dedup", gluing, at_most(0.0))

    def measure_total():
        return max(abs(graph.cell_measures.sum() - 1.0), abs(graph.vertex_mass.sum() - 1.0))

    r.run("core.measure_total", "cell measures and vertex masses sum to one", measure_total, at_most(1e-12))

    def self_similar():
        f = ctx.rng().standard_normal(graph.n_vertices)
        cellwise = float(np.sum(graph.cell_measures * f[graph.cells].mean(axis=1)))
        direct = float(np.sum(graph.vertex_mass * f))
        return abs(cellwise - direct) / max(1.0, abs(direct))

    r.run("core.measure_selfsimilar", "cellwise averages reproduce the lumped integral", self_similar, at_most(1e-12))

    def contraction():
        met = ctx.metric()
        bid = graph.boundary_ids
        base = met.pairs(bid[:, None], bid).max()
        worst = -math.inf
        step = max(1, graph.n_cells // 24)
        r_w = word_products(S.harmonic.r, graph.level)
        for c in range(0, graph.n_cells, step):
            ids = graph.cells[c]
            worst = max(worst, float(met.pairs(ids[:, None], ids).max() - r_w[c] * base))
        return worst

    r.run("core.resistance_contraction", "cell copies contract the resistance metric by r_w", contraction, at_most(1e-9))

    def boundary_trace():
        met = ctx.metric()
        R0 = S.harmonic.resistances()
        bid = graph.boundary_ids
        dev = 0.0
        for a in range(S.n_boundary):
            for b in range(a + 1, S.n_boundary):
                dev = max(dev, abs(met.pairs(bid[a], bid[b]) - R0[a, b]))
        return dev

    r.run("core.boundary_trace", "level-m boundary resistances equal the level-0 network", boundary_trace, at_most(1e-9))

    def ball_trivia():
        met = ctx.metric()
        x = ctx.interior_sample()
        ids_all, mass_all = met.ball(x, met.diameter() * 1.001 + 1e-12)
        row = met.from_vertex(x)
        ids_one, _ = met.ball(x, 0.5 * row[row > 0.0].min())
        _require(ids_all.size == graph.n_vertices, "an oversized ball misses vertices")
        _require(ids_one.tolist() == [x], "a tiny ball is not a singleton")
        return float(mass_all)

    r.run("core.ball_trivial", "oversized balls cover everything; tiny balls are singletons", ball_trivia,
          (1.0 - 1e-12, 1.0 + 1e-12))

    def scaling():
        met = ctx.metric()
        if ctx.preset == "interval":
            h = 2.0**-graph.level
            grid = [(j + 0.5) * h for j in (1, 2, 4, 8, 16, 32) if (j + 0.5) * h < 1.0]
            rep = scaling_constants(met, grid)
        else:
            dia = met.diameter()
            grid = np.geomspace(0.05 * dia, 0.5 * dia, 8)
            rep = scaling_constants(met, grid, sample_vertices=ctx.sample_vertices())
        _require(not rep.degenerate, "every sampled ball covers the whole vertex set")
        return rep.A2 / rep.A1

    # on the interval the ball masses lie between eps and 2 eps, so A2/A1 <= 2
    r.run("core.scaling_constants", "ball measures scale like radius^d within two-sided constants", scaling,
          (1.0, 2.0 + 1e-9) if ctx.preset == "interval" else at_least(1.0))


def _spectral_suite(ctx: SuiteContext, r: _Runner) -> None:
    graph = ctx.graph()
    bD = ctx.basis("dirichlet")
    bN = ctx.basis("neumann")

    r.run("spectral.residual", "generalized eigen residual stays below 1e-8 (1 + lambda)",
          lambda: max(bD.max_residual, bN.max_residual), at_most(1e-8))
    r.run("spectral.gram", "mass-orthonormality of the eigenvector family",
          lambda: max(bD.gram_deviation(), bN.gram_deviation()), at_most(1e-8))

    def neumann_ground():
        _require(bN.eigenvalues[0] == 0.0, "the Neumann ground eigenvalue is not 0")
        return float(np.abs(bN.vectors[:, 0] - 1.0).max())

    r.run("spectral.neumann_ground", "Neumann ground state is the unit constant at lambda 0", neumann_ground,
          at_most(1e-8))
    r.run("spectral.dirichlet_positive", "Dirichlet spectrum is strictly positive",
          lambda: bD.eigenvalues[0], POSITIVE)
    r.run("spectral.interlacing", "Neumann eigenvalues never exceed Dirichlet ones",
          lambda: (bN.eigenvalues[: bD.n_modes] - bD.eigenvalues).max(), at_most(1e-9))

    def energy_trace():
        bv = ctx.rng().standard_normal(ctx.structure.n_boundary)
        h = spec.harmonic_extension(graph, bv)
        e0 = float(bv @ (-np.asarray(ctx.structure.harmonic.D, dtype=float)) @ bv)
        return abs(ctx.form().energy(h) - e0) / max(1.0, e0)

    r.run("spectral.energy_trace", "harmonic extension preserves the boundary energy", energy_trace, at_most(1e-9))

    if ctx.level >= 3:
        def mesh_cauchy():
            l1 = [spec.rayleigh_quotient(ctx.basis("dirichlet", m)) for m in range(ctx.level - 2, ctx.level + 1)]
            return abs(l1[2] - l1[1]) / abs(l1[1] - l1[0])

        r.run("spectral.mesh_cauchy", "ground eigenvalue differences shrink with the level", mesh_cauchy,
              at_most(1.0))
    else:
        r.skip("spectral.mesh_cauchy", "ground eigenvalue differences shrink with the level",
               "needs three distinct levels >= 1, so level >= 3")

    d = ctx.structure.dim
    target = d / (d + 1.0)
    window = bD.window_indices().size
    if ctx.preset in ("interval", "sierpinski") and ctx.level >= 5 and window >= 10:
        r.run("spectral.weyl", "eigenvalue counting grows like x^(d/(d+1))",
              lambda: abs(spec.weyl_exponent(bD).slope - target), at_most(0.05))
    else:
        r.skip("spectral.weyl", "eigenvalue counting grows like x^(d/(d+1))",
               "slope tolerance calibrated for interval and sierpinski at level >= 5, "
               f"fitted on >= 10 eigenvalues (the window holds {window})")

    def growth():
        c1, c2 = spec.eigen_growth_constants(bD)
        return c2 / c1

    r.run("spectral.growth", "two-sided power growth of eigenvalues in the window", growth, FINITE)
    r.run("spectral.supnorm", "eigenfunction sup norms obey the spectral power bound",
          lambda: spec.supnorm_ratio(bD), FINITE)


def _kernels_suite(ctx: SuiteContext, r: _Runner) -> None:
    graph = ctx.graph()
    evD = ctx.evaluator("dirichlet")
    evN = ctx.evaluator("neumann")
    samples = ctx.sample_vertices()[:5]
    ladder = [0.4, 0.2, 0.1, 0.05]

    def scalar_identity():
        dev = 0.0
        for beta in (1.0, 5.0, 20.0):
            val = ker.subordination_transform(lambda s: np.exp(-beta * beta * s), 1.0, 1e-12)
            dev = max(dev, abs(val - math.exp(-beta)))
        return dev

    r.run("kernels.scalar_subordination", "subordination of a pure exponential has closed form", scalar_identity,
          at_most(1e-10))

    def subordination():
        dev = 0.0
        pairs = [(x, y) for x in samples[:3] for y in samples[:2]]
        xs, ys = np.array(pairs).T
        for ev in (evD, evN):
            for t in (0.2, 0.5):
                series = np.array([ev.poisson(t, x, y) for x, y in pairs])
                dev = max(dev, float(np.abs(ev.poisson_via_subordination(t, xs, ys, 1e-8) - series).max()))
        return dev

    r.run("kernels.subordination_agreement", "eigen-series and quadrature Poisson kernels agree", subordination,
          at_most(max(1e-6, 10.0 * ctx.tol)))
    r.run("kernels.neumann_mass", "Neumann kernel integrates to one at every time",
          lambda: max(abs(evN.kernel_mass(t, x) - 1.0) for t in ladder for x in samples), at_most(1e-8))

    def dirichlet_mass():
        x = ctx.interior_sample()
        usable = [t for t in ladder if evD.resolvable(t)] or ladder[:2]
        masses = [evD.kernel_mass(t, x) for t in usable]
        _require(all(masses[i] < masses[i + 1] for i in range(len(masses) - 1)),
                 "Dirichlet kernel masses do not rise as t drops")
        return masses[-1]

    r.run("kernels.dirichlet_mass", "Dirichlet kernel mass rises toward one as t drops", dirichlet_mass,
          at_least(0.9) if ctx.preset == "interval" and ctx.level >= 8 else FINITE)

    def semigroup(kind):
        return lambda: max(ker.semigroup_defect(ev, 0.2, 0.2, kind) for ev in (evD, evN))

    r.run("kernels.semigroup_poisson", "Poisson kernels compose through the measure", semigroup("poisson"),
          at_most(1e-6))
    r.run("kernels.semigroup_heat", "heat kernels compose through the measure", semigroup("heat"), at_most(1e-6))

    if ctx.tol > 1e-4:
        r.skip("kernels.positivity", "kernels stay nonnegative up to the tail tolerance",
               "tail tolerance too loose to resolve the kernel sign")
    else:
        r.run("kernels.positivity", "kernels stay nonnegative up to the tail tolerance",
              lambda: min([0.0] + [ker.kernel_min(ev, t) for ev in (evD, evN) for t in ladder]), at_least(-ctx.tol))

    r.run("kernels.kernel_harmonicity", "kernel time slices solve the tube equation at O(h^2)",
          lambda: _second_order_ratio(ctx, [(ctx.interior_sample(), 1.0)]), SECOND_ORDER)

    def maximal_domination():
        best = 0.0
        for f, mf in ctx.family_maximal():
            for ev in (evD, evN):
                u = ev.poisson_integral(f, ladder, samples)
                best = max(best, float(np.max(np.abs(u) / mf[samples])))
        return best

    r.run("kernels.maximal_domination", "Poisson integrals are dominated by the maximal function",
          maximal_domination, FINITE)

    def approx_identity():
        coord = graph.coords[:, 0] - float(np.sum(graph.vertex_mass * graph.coords[:, 0]))
        worst_break = 0.0
        for ev, f in ((evN, coord), (evD, ctx.basis("dirichlet").vectors[:, 1])):
            rep = ker.approx_identity_error(ev, f, [0.2, 0.1, 0.05, 0.02])
            worst_break = max(worst_break, float(np.diff(rep.sup_errors).max()))
        return worst_break

    r.run("kernels.approx_identity", "Poisson smoothing errors shrink along the time ladder", approx_identity,
          at_most(1e-9))
    r.run("kernels.truncation_floor", "resolvable-time floor for the configured tail tolerance", evD.t_min, FINITE)


def _boundary_suite(ctx: SuiteContext, r: _Runner) -> None:
    graph = ctx.graph()
    met = ctx.metric()
    d = ctx.structure.dim
    rng = ctx.rng()

    def constant_mf():
        """M1, from the family, whose first member is the constant function."""
        return ctx.family_maximal()[0][1]

    r.run("boundary.maximal_one", "the maximal function fixes constants",
          lambda: np.abs(constant_mf() - 1.0).max(), at_most(1e-12))
    r.run("boundary.maximal_lower", "Mf dominates |f| pointwise",
          lambda: max(float((np.abs(f) - mf).max()) for f, mf in ctx.family_maximal()), at_most(1e-12))

    def sublinear():
        worst = -math.inf
        for _ in range(4):
            f = rng.standard_normal(graph.n_vertices)
            g = rng.standard_normal(graph.n_vertices)
            mfg = bnd.maximal_function(met, f + g)
            bound = bnd.maximal_function(met, f) + bnd.maximal_function(met, g)
            worst = max(worst, float((mfg - bound).max()))
        return worst

    r.run("boundary.maximal_sublinear", "M(f+g) <= Mf + Mg on every vertex", sublinear, at_most(1e-10))

    def homogeneous():
        f = rng.standard_normal(graph.n_vertices)
        return np.abs(bnd.maximal_function(met, -3.5 * f) - 3.5 * bnd.maximal_function(met, f)).max()

    r.run("boundary.maximal_homogeneous", "M(cf) = |c| Mf", homogeneous, at_most(1e-10))

    def weak11():
        family = ctx.family_maximal()
        rep = bnd.weak11_check(graph, *family[0], [0.5])
        _require(abs(rep.per_alpha[0][1] - 0.5) <= 1e-12, "the constant function misses its exact weak (1,1) ratio")
        best = rep.constant
        for f, mf in family[1:3]:
            best = max(best, bnd.weak11_check(graph, f, mf, np.geomspace(0.1, 2.0, 6)).constant)
        return best

    r.run("boundary.weak11", "weak (1,1) ratios stay bounded by one constant", weak11, FINITE)

    def l2_bound():
        worst = 0.0
        for f, mf in ctx.family_maximal():
            if np.abs(f).max() == 0.0:
                continue
            worst = max(worst, bnd.weak11_check(graph, f, mf, [1.0]).l2_ratio)
        return worst

    r.run("boundary.l2_bound", "the maximal operator is L^2 bounded", l2_bound, FINITE)

    def nesting():
        x = ctx.interior_sample()
        row = met.from_vertex(x)
        for t in (0.05, 0.2, 0.8):
            prev: set[int] = set()
            for alpha in (0.25, 0.5, 1.0, 2.0):
                ids = set(bnd.Cone(x, alpha).members(row, d, t).tolist())
                _require(prev.issubset(ids), f"the cone of aperture {alpha} at t={t} misses a narrower cone's member")
                prev = ids
        return 0.0

    r.run("boundary.cone_nesting", "cones grow with aperture and height", nesting, FINITE)

    if d > 1.0:
        def classical():
            x = ctx.interior_sample()
            row = met.from_vertex(x)
            for t in (0.05, 0.2, 0.8):
                for alpha in (0.5, 1.0, 2.0):
                    classical_ids = np.flatnonzero((row < math.sqrt(alpha) * t) & (row < 1.0))
                    cone_ids = set(bnd.Cone(x, alpha).members(row, d, t).tolist())
                    _require(set(classical_ids.tolist()).issubset(cone_ids),
                             f"the cone of aperture {alpha} at t={t} misses a classical-cone member")
            return 0.0

        r.run("boundary.cone_classical", "cones contain the unit-clipped classical cone when d > 1", classical,
              FINITE)
    else:
        r.skip("boundary.cone_classical", "cones contain the unit-clipped classical cone when d > 1",
               "only meaningful for d > 1 presets")

    def cone_sup_const():
        x = ctx.interior_sample()
        fld = tb.tube_sample(ctx.evaluator("neumann"), np.ones(graph.n_vertices), np.geomspace(0.05, 0.8, 6))
        return abs(bnd.cone_sup(fld, bnd.Cone(x, 1.0), met, mf_at_apex=float(constant_mf()[x])).ratio - 1.0)

    r.run("boundary.cone_sup_constant", "constant data saturates the cone bound at ratio one", cone_sup_const,
          at_most(1e-10))

    def nontangential():
        E = bnd.BoundarySet(graph, [(0,)])
        f = E.vertex_indicator.astype(float)
        x = graph.vertex_id((0, 0), 1) if ctx.preset == "interval" else int(graph.boundary_ids[0])
        ts, errs = bnd.nontangential_error(ctx.evaluator("neumann"), f, x, bnd.Cone(x, 1.0),
                                           np.geomspace(0.02, 0.4, 7), met)
        _require(bool(np.all(np.diff(errs) >= -1e-12)), "cone errors do not shrink toward the boundary")
        return float(errs[0])

    r.run("boundary.nontangential", "cone-restricted errors shrink toward the boundary value", nontangential,
          at_most(0.1) if ctx.preset == "interval" and ctx.level >= 8 else FINITE)

    def shifted_kernel():
        x = ctx.interior_sample()
        return bnd.shifted_kernel_constant(ctx.evaluator("neumann"), met, x, bnd.Cone(x, 1.0), [0.1, 0.3])

    r.run("boundary.shifted_kernel", "shifted kernels obey the two-branch bound inside cones", shifted_kernel,
          FINITE)

    alphas, ladder = [0.25, 1.0, 4.0], [0.4, 0.2, 0.1]
    x = ctx.interior_sample()
    # balls grow with alpha and t, so the smallest one decides; the level's
    # cells, not the metric under test, say whether it can hold a second vertex
    smallest = bnd.ball_radius(min(alphas), min(ladder), d)

    def ball_mass():
        minima = [float(bnd.ball_mass_lower(ctx.evaluator("neumann"), met, x, a, ladder).min()) for a in alphas]
        if ctx.preset in ("interval", "sierpinski"):
            _, ratios = bnd.alpha_scaling_fit(alphas, minima)
            _require(bool(np.all((ratios >= 0.5) & (ratios <= 2.0))), "ball-mass minima do not scale like sqrt(alpha)")
        return min(minima)

    if smallest > bnd.resolution_radius(graph, x):
        r.run("boundary.ball_mass_lower", "kernel mass in matched balls is bounded below uniformly in t", ball_mass,
              POSITIVE)
    else:
        r.skip("boundary.ball_mass_lower", "kernel mass in matched balls is bounded below uniformly in t",
               f"the level's cells do not resolve a ball of radius {smallest:.3e} about the interior sample")

    def barrier_check():
        _, res = ctx.barrier()
        _require(res.boundary_min > 0.0, "the barrier is not positive on the lateral boundary")
        _require(all(dec[0] <= dec[-1] + 1e-12 for dec in res.decay.values()), "the barrier does not decay inside")
        return max(float(dec[0]) for dec in res.decay.values())

    calibrated = (ctx.preset == "sierpinski" and ctx.level >= 6) or (ctx.preset == "interval" and ctx.level >= 8)
    r.run("boundary.barrier", "the barrier stays positive on the lateral boundary and decays inside", barrier_check,
          at_most(0.05) if calibrated else FINITE)

    def cover():
        E, x = ctx.cover_setup()
        rep = bnd.cone_cover_check(met, E, x, 4.0, 1)
        _require(rep.n_checked > 0, "no cone member to check")
        return float(rep.n_violations)

    r.run("boundary.cover", "truncated cones over density points are covered by unit cones", cover, at_most(0.0))

    def comparison():
        evN = ctx.evaluator("neumann")
        E, res = ctx.barrier()
        alpha = 1.0
        ts = res.t_grid
        mtilde = max(1.0 / res.boundary_min, 1.0)
        dist_e = E.distance(met)
        g = np.tanh(rng.standard_normal(graph.n_vertices))
        worst = math.inf
        for n in (4, 8):
            gn = np.flatnonzero(dist_e ** (d + 1.0) < alpha / n**2)
            fn = np.zeros(graph.n_vertices)
            fn[gn] = evN.poisson_integral(g, 1.0 / n)[gn]
            u_n = evN.poisson_integral(fn, ts) - evN.poisson_integral(g, ts + 1.0 / n)
            for i, t in enumerate(ts):
                members = np.flatnonzero(dist_e ** (d + 1.0) < alpha * t * t)
                if members.size == 0:
                    continue
                v = mtilde * res.values[i]
                worst = min(worst, float(np.min((2.0 * v - np.abs(u_n[i]))[members])))
        return worst

    r.run("boundary.barrier_comparison", "twice the barrier dominates the localized harmonic parts", comparison,
          at_least(-1e-9))


def _tube_suite(ctx: SuiteContext, r: _Runner) -> None:
    graph = ctx.graph()
    evD = ctx.evaluator("dirichlet")
    evN = ctx.evaluator("neumann")
    rng = ctx.rng()
    ladder = np.geomspace(0.1, 1.0, 9)

    def dirichlet_data():
        """A standard normal draw, zero on the boundary."""
        f = rng.standard_normal(graph.n_vertices)
        f[graph.boundary_ids] = 0.0
        return f

    @functools.cache
    def atomic_field():
        """The Dirichlet field of the unit atom at ``interior_sample``."""
        vals = evD.poisson_integral([(ctx.interior_sample(), 1.0)], ladder)
        return tb.TubeField(ladder, vals, "dirichlet", graph)

    r.run("tube.dirichlet_columns", "Dirichlet fields vanish on the boundary columns",
          lambda: np.abs(tb.tube_sample(evD, dirichlet_data(), ladder).values[:, graph.boundary_ids]).max(),
          at_most(1e-12))

    def positivity():
        worst = 0.0
        for _ in range(4):
            f = np.abs(rng.standard_normal(graph.n_vertices))
            fld = tb.tube_sample(evN, f, ladder)
            worst = min(worst, float(fld.values.min() / max(np.abs(fld.values).max(), 1e-300)))
        return worst

    r.run("tube.positivity", "nonnegative data propagates to nonnegative fields", positivity, at_least(-1e-9))
    r.run("tube.smoothness", "divided differences converge at second order on eigenmodes",
          lambda: _second_order_ratio(ctx, ctx.basis("dirichlet").vectors[:, 1]), SECOND_ORDER)

    def max_principle():
        worst = 0.0
        for _ in range(16):
            fld = tb.tube_sample(evD, dirichlet_data(), ladder)
            rep = tb.max_principle_check(fld, float(ladder[0]), float(ladder[-1]))
            excess = max(rep.max_excess, rep.min_deficit) / max(rep.slab_max - rep.slab_min, 1e-300)
            worst = max(worst, excess)
        return worst

    r.run("tube.max_principle", "slab extrema sit on the time faces or the boundary columns", max_principle,
          at_most(tb.EXTREMA_SLACK))

    def min_on_boundary():
        fld = tb.tube_sample(evD, np.abs(dirichlet_data()), ladder)
        rep = tb.max_principle_check(fld, float(ladder[0]), float(ladder[-1]))
        _require(rep.ok, "slab extrema leave the time faces and the boundary columns")
        return rep.slab_min

    r.run("tube.min_on_boundary", "nonnegative Dirichlet fields take their minimum on the boundary",
          min_on_boundary, at_least(-1e-12))
    r.run("tube.fatou", "fields reconstruct as Poisson integrals of their own slices",
          lambda: max(tb.fatou_batch(evD, rng, 8)[0]), at_most(1e-6))

    def fatou_precondition():
        fld = tb.tube_sample(evN, np.ones(graph.n_vertices), np.array([0.1, 0.2, 0.3]))
        try:
            tb.fatou_consistency(evN, fld, 0.1, 0.1)
        except ValueError:
            return 0.0
        raise PreconditionError("fatou_consistency accepted a Neumann field")

    r.run("tube.fatou_precondition", "the reconstruction identity rejects non-Dirichlet fields", fatou_precondition,
          FINITE)

    def contraction():
        worst = 0.0
        mass = graph.vertex_mass
        for _ in range(4):
            f = dirichlet_data()
            fld = tb.tube_sample(evD, f, ladder)
            for p in (1, 2, math.inf):
                prof = tb.lp_profile(fld, p)
                if p == 1:
                    norm = float(np.sum(mass * np.abs(f)))
                elif p == 2:
                    norm = math.sqrt(float(np.sum(mass * f * f)))
                else:
                    norm = float(np.abs(f).max())
                worst = max(worst, prof.sup / norm - 1.0)
        return worst

    r.run("tube.lp_contraction", "Poisson integrals contract every L^p norm", contraction, at_most(1e-9))
    r.run("tube.l2_monotone", "Dirichlet L^2 profiles never increase in time",
          lambda: np.diff(tb.lp_profile(tb.tube_sample(evD, dirichlet_data(), ladder), 2).norms).max(),
          at_most(1e-12))
    r.run("tube.atomic_l1", "atomic-measure integrals have uniformly bounded L^1 profiles",
          lambda: tb.lp_profile(atomic_field(), 1).sup, at_most(1.0 + 1e-9))
    r.run("tube.decay_exponent", "pointwise decay exponent recorded against the p-dependent envelope",
          lambda: tb.lp_profile(atomic_field(), math.inf).fit_exponent, FINITE)


_SUITE_BODIES = {
    "core": _core_suite,
    "spectral": _spectral_suite,
    "kernels": _kernels_suite,
    "boundary": _boundary_suite,
    "tube": _tube_suite,
}


def verify_suite(
    name: str,
    preset: str = "interval",
    level: int | None = None,
    tol: float = 1e-8,
    seed: int = 7,
    budget: int = DEFAULT_BUDGET,
    config: dict | None = None,
) -> SuiteReport:
    """Run one named suite (or "all") and return its report."""
    if name not in SUITE_NAMES and name != "all":
        raise ValueError(f"unknown suite {name!r}")
    structure = load_structure(config if config is not None else preset)
    lvl = default_level(structure, level)
    if lvl < MIN_LEVEL:
        raise ValueError(f"the suites address level-{MIN_LEVEL} words, so they need level >= {MIN_LEVEL}")
    ctx = SuiteContext(structure, lvl, tol=tol, seed=seed, budget=budget)
    runner = _Runner()
    names = SUITE_NAMES if name == "all" else (name,)
    for n in names:
        _SUITE_BODIES[n](ctx, runner)
    env = {
        "preset": structure.name,
        "level": lvl,
        "tol": tol,
        "seed": seed,
        "budget": budget,
        "n_vertices": ctx.graph().n_vertices,
    }
    return SuiteReport(suite=name, env=env, checks=runner.checks)

"""Verification suites: run module invariants and collect a report.

Each suite bundles the checkable laws of one module at desk scale: exact
identities are asserted at tight tolerances, empirical constants are measured
and recorded, and checks whose calibration only exists for particular presets
are skipped elsewhere with an explicit reason.  Reports are deterministic for
a fixed seed up to the per-check runtimes.
"""

from __future__ import annotations

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


class _Runner:
    def __init__(self):
        self.checks: list[CheckRecord] = []

    def run(self, cid: str, law: str, fn, tolerance: float | None = None):
        t0 = time.perf_counter()
        try:
            out = fn()
            value, ok = out if isinstance(out, tuple) else (out, True)
            status = "pass" if ok else "fail"
            reason = None
        except Exception as exc:  # check bodies are trusted; report, don't crash the suite
            value, status, reason = None, "fail", f"{type(exc).__name__}: {exc}"
        self.checks.append(
            CheckRecord(
                id=cid,
                law=law,
                status=status,
                value=None if value is None else float(value),
                tolerance=tolerance,
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

    def evaluator(self, bc: str, level: int | None = None) -> ker.KernelEvaluator:
        return self._cached(("evaluator", bc), level, lambda m: ker.KernelEvaluator(self.basis(bc, m), self.tol))

    def metric(self, level: int | None = None) -> ResistanceMetric:
        return self._cached("metric", level, lambda m: ResistanceMetric(self.basis("neumann", m)))

    def barrier(self) -> tuple[bnd.BoundarySet, bnd.BarrierResult]:
        """The set of ``barrier_words`` and its Neumann barrier at aperture 1
        on the boundary suite's ladder."""
        def build(m):
            E = bnd.BoundarySet(self.graph(m), self.barrier_words())
            return E, bnd.barrier(self.evaluator("neumann", m), E, 1.0, np.geomspace(0.02, 0.9, 10), self.metric(m))
        return self._cached("barrier", None, build)

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

    def function_family(self, level: int | None = None) -> list[tuple[str, np.ndarray]]:
        """Deterministic test functions defined by addresses, hence
        comparable across levels."""
        graph = self.graph(level)
        fam = [("const", np.ones(graph.n_vertices))]
        for s in range(self.structure.n_symbols):
            ind = np.zeros(graph.n_vertices)
            ids = graph.cells[graph.cells_with_prefix((s,))].ravel()
            ind[ids] = 1.0
            fam.append((f"cell{s}", ind))
        ind2 = np.zeros(graph.n_vertices)
        ids2 = graph.cells[graph.cells_with_prefix((0, 0))].ravel()
        ind2[ids2] = 1.0
        fam.append(("cell00", ind2))
        fam.append(("coord", graph.coords[:, 0].copy()))
        return fam

    def sample_vertices(self, level: int | None = None) -> list[int]:
        """Level-2 lattice points, addressed so they exist at every level >= 2."""
        graph = self.graph(level)
        seen = {}
        for w in [(), (0,), (1,)] + [(a, b) for a in range(self.structure.n_symbols) for b in (0, 1)]:
            if len(w) > graph.level:
                continue
            for p in range(self.structure.n_boundary):
                vid = graph.vertex_id(w, p)
                seen[vid] = True
        return sorted(seen)


# ----------------------------------------------------------------------------
# individual suites
# ----------------------------------------------------------------------------


def _core_suite(ctx: SuiteContext, r: _Runner) -> None:
    S = ctx.structure
    graph = ctx.graph()

    def dimension_root():
        rr = S.harmonic.r
        g = lambda d: float(np.sum(rr**d) - 1.0)
        ok = g(S.dim - 1e-6) > 0.0 > g(S.dim + 1e-6)
        return S.dim, ok and abs(g(S.dim)) <= 1e-12

    r.run("core.dimension_root", "sum of r_i^d = 1 at a unique root", dimension_root, 1e-12)

    def gluing():
        uniq = np.unique(np.round(graph.coords, 10), axis=0)
        return float(graph.n_vertices - uniq.shape[0]), uniq.shape[0] == graph.n_vertices

    r.run("core.gluing_dedup", "combinatorial gluing matches coordinate dedup", gluing, 0.0)

    def measure_total():
        dev = max(abs(graph.cell_measures.sum() - 1.0), abs(graph.vertex_mass.sum() - 1.0))
        return dev, dev <= 1e-12

    r.run("core.measure_total", "cell measures and vertex masses sum to one", measure_total, 1e-12)

    def self_similar():
        f = ctx.rng().standard_normal(graph.n_vertices)
        cellwise = float(np.sum(graph.cell_measures * f[graph.cells].mean(axis=1)))
        direct = float(np.sum(graph.vertex_mass * f))
        dev = abs(cellwise - direct)
        return dev, dev <= 1e-12 * max(1.0, abs(direct))

    r.run("core.measure_selfsimilar", "cellwise averages reproduce the lumped integral", self_similar, 1e-12)

    def contraction():
        met = ctx.metric()
        R = met.matrix()
        bid = graph.boundary_ids
        base = R[np.ix_(bid, bid)].max()
        worst = -math.inf
        step = max(1, graph.n_cells // 24)
        r_w = word_products(S.harmonic.r, graph.level)
        for c in range(0, graph.n_cells, step):
            ids = graph.cells[c]
            worst = max(worst, float(R[np.ix_(ids, ids)].max() - r_w[c] * base))
        return worst, worst <= 1e-9

    r.run("core.resistance_contraction", "cell copies contract the resistance metric by r_w", contraction, 1e-9)

    def boundary_trace():
        met = ctx.metric()
        R0 = np.linalg.pinv(-np.asarray(S.harmonic.D, dtype=float), hermitian=True)
        bid = graph.boundary_ids
        dev = 0.0
        for a in range(S.n_boundary):
            for b in range(a + 1, S.n_boundary):
                expect = R0[a, a] + R0[b, b] - 2.0 * R0[a, b]
                dev = max(dev, abs(met.matrix()[bid[a], bid[b]] - expect))
        return dev, dev <= 1e-9

    r.run("core.boundary_trace", "level-m boundary resistances equal the level-0 network", boundary_trace, 1e-9)

    def ball_trivia():
        met = ctx.metric()
        x = ctx.interior_sample()
        ids_all, mass_all = met.ball(x, met.diameter() * 1.001 + 1e-12)
        row = met.from_vertex(x)
        eps_small = 0.5 * row[row > 0.0].min()
        ids_one, _ = met.ball(x, eps_small)
        ok = ids_all.size == graph.n_vertices and abs(mass_all - 1.0) <= 1e-12 and ids_one.tolist() == [x]
        return float(mass_all), ok

    r.run("core.ball_trivial", "oversized balls cover everything; tiny balls are singletons", ball_trivia, None)

    def scaling():
        met = ctx.metric()
        if ctx.preset == "interval":
            h = 2.0**-graph.level
            grid = [(j + 0.5) * h for j in (1, 2, 4, 8, 16, 32) if (j + 0.5) * h < 1.0]
            rep = scaling_constants(met, grid)
            ok = rep.A1 >= 0.5 - 1e-9 and rep.A2 <= 2.0 + 1e-9 and not rep.degenerate
        else:
            dia = met.diameter()
            grid = np.geomspace(0.05 * dia, 0.5 * dia, 8)
            rep = scaling_constants(met, grid, sample_vertices=ctx.sample_vertices())
            ok = 0.0 < rep.A1 <= rep.A2 < math.inf and not rep.degenerate
        return rep.A2 / rep.A1, ok

    r.run("core.scaling_constants", "ball measures scale like radius^d within two-sided constants", scaling, None)


def _spectral_suite(ctx: SuiteContext, r: _Runner) -> None:
    graph = ctx.graph()
    bD = ctx.basis("dirichlet")
    bN = ctx.basis("neumann")

    def residual():
        worst = max(bD.max_residual, bN.max_residual)
        return worst, worst <= 1e-8

    r.run("spectral.residual", "generalized eigen residual stays below 1e-8 (1 + lambda)", residual, 1e-8)

    def gram():
        dev = max(bD.gram_deviation(), bN.gram_deviation())
        return dev, dev <= 1e-8

    r.run("spectral.gram", "mass-orthonormality of the eigenvector family", gram, 1e-8)

    def neumann_ground():
        dev = float(np.abs(bN.vectors[:, 0] - 1.0).max())
        return dev, bN.eigenvalues[0] == 0.0 and dev <= 1e-8

    r.run("spectral.neumann_ground", "Neumann ground state is the unit constant at lambda 0", neumann_ground, 1e-8)

    r.run(
        "spectral.dirichlet_positive",
        "Dirichlet spectrum is strictly positive",
        lambda: (float(bD.eigenvalues[0]), bD.eigenvalues[0] > 0.0),
        None,
    )

    def interlacing():
        n = bD.n_modes
        worst = float((bN.eigenvalues[:n] - bD.eigenvalues).max())
        return worst, worst <= 1e-9

    r.run("spectral.interlacing", "Neumann eigenvalues never exceed Dirichlet ones", interlacing, 1e-9)

    def energy_trace():
        bv = ctx.rng().standard_normal(ctx.structure.n_boundary)
        h = spec.harmonic_extension(graph, bv)
        e0 = float(bv @ (-np.asarray(ctx.structure.harmonic.D, dtype=float)) @ bv)
        dev = abs(ctx.form().energy(h) - e0)
        return dev, dev <= 1e-9 * max(1.0, e0)

    r.run("spectral.energy_trace", "harmonic extension preserves the boundary energy", energy_trace, 1e-9)

    def mesh_cauchy():
        lvl = ctx.level
        levels = [max(1, lvl - 2), max(1, lvl - 1), lvl]
        if len(set(levels)) < 3:
            return 0.0, True
        l1 = [spec.rayleigh_quotient(ctx.basis("dirichlet", m)) for m in levels]
        d1, d2 = abs(l1[1] - l1[0]), abs(l1[2] - l1[1])
        return d2, d2 < d1

    r.run("spectral.mesh_cauchy", "ground eigenvalue differences shrink with the level", mesh_cauchy, None)

    d = ctx.structure.dim
    target = d / (d + 1.0)
    if ctx.preset in ("interval", "sierpinski") and ctx.level >= 5:
        def weyl():
            fit = spec.weyl_exponent(bD)
            return abs(fit.slope - target), abs(fit.slope - target) <= 0.05

        r.run("spectral.weyl", "eigenvalue counting grows like x^(d/(d+1))", weyl, 0.05)
    else:
        r.skip("spectral.weyl", "eigenvalue counting grows like x^(d/(d+1))",
               "slope tolerance calibrated for interval and sierpinski at level >= 5")

    def growth():
        c1, c2 = spec.eigen_growth_constants(bD)
        return c2 / c1, c1 > 0.0 and math.isfinite(c2)

    r.run("spectral.growth", "two-sided power growth of eigenvalues in the window", growth, None)

    def supnorm():
        c = spec.supnorm_ratio(bD)
        return c, math.isfinite(c) and c > 0.0

    r.run("spectral.supnorm", "eigenfunction sup norms obey the spectral power bound", supnorm, None)


def _kernels_suite(ctx: SuiteContext, r: _Runner) -> None:
    graph = ctx.graph()
    evD = ctx.evaluator("dirichlet")
    evN = ctx.evaluator("neumann")
    samples = ctx.sample_vertices()[:5]
    ladder = [0.4, 0.2, 0.1, 0.05]

    def scalar_identity():
        dev = 0.0
        for beta in (1.0, 5.0, 20.0):
            val = ker.subordination_transform(lambda s: math.exp(-beta * beta * s), 1.0, 1e-12)
            dev = max(dev, abs(val - math.exp(-beta)))
        return dev, dev <= 1e-10

    r.run("kernels.scalar_subordination", "subordination of a pure exponential has closed form", scalar_identity, 1e-10)

    agree_tol = max(1e-6, 10.0 * ctx.tol)

    def subordination():
        dev = 0.0
        for ev in (evD, evN):
            for t in (0.2, 0.5):
                for x in samples[:3]:
                    for y in samples[:2]:
                        dev = max(dev, abs(ev.poisson_via_subordination(t, x, y, 1e-8) - ev.poisson(t, x, y)))
        return dev, dev <= agree_tol

    r.run("kernels.subordination_agreement", "eigen-series and quadrature Poisson kernels agree", subordination, agree_tol)

    def neumann_mass():
        dev = max(abs(evN.kernel_mass(t, x) - 1.0) for t in ladder for x in samples)
        return dev, dev <= 1e-8

    r.run("kernels.neumann_mass", "Neumann kernel integrates to one at every time", neumann_mass, 1e-8)

    def dirichlet_mass():
        x = ctx.interior_sample()
        usable = [t for t in ladder if evD.resolvable(t)] or ladder[:2]
        masses = [evD.kernel_mass(t, x) for t in usable]
        ok = all(masses[i] < masses[i + 1] for i in range(len(masses) - 1))
        if ctx.preset == "interval" and ctx.level >= 8:
            ok = ok and masses[-1] > 0.9
        return masses[-1], ok

    r.run("kernels.dirichlet_mass", "Dirichlet kernel mass rises toward one as t drops", dirichlet_mass, None)

    def semigroup(kind):
        def body():
            dev = max(ker.semigroup_defect(ev, 0.2, 0.2, kind) for ev in (evD, evN))
            return dev, dev <= 1e-6
        return body

    r.run("kernels.semigroup_poisson", "Poisson kernels compose through the measure", semigroup("poisson"), 1e-6)
    r.run("kernels.semigroup_heat", "heat kernels compose through the measure", semigroup("heat"), 1e-6)

    if ctx.tol > 1e-4:
        r.skip("kernels.positivity", "kernels stay nonnegative up to the tail tolerance",
               "tail tolerance too loose to resolve the kernel sign")
    else:
        def positivity():
            low = 0.0
            for ev in (evD, evN):
                for t in ladder:
                    low = min(low, float(ev.poisson_matrix(t).min()), float(ev.heat_matrix(t).min()))
            return low, low >= -ctx.tol

        r.run("kernels.positivity", "kernels stay nonnegative up to the tail tolerance", positivity, ctx.tol)

    def kernel_harmonicity():
        x = ctx.interior_sample()
        resid = []
        for npts in (17, 33):
            fld = tb.tube_sample(evD, [(x, 1.0)], np.linspace(0.3, 1.1, npts))
            resid.append(tb.harmonic_residual(fld, ctx.form()).max_residual)
        ratio = resid[0] / max(resid[1], 1e-300)
        return ratio, 2.5 <= ratio <= 6.0

    r.run("kernels.kernel_harmonicity", "kernel time slices solve the tube equation at O(h^2)", kernel_harmonicity, None)

    def maximal_domination():
        met = ctx.metric()
        best = 0.0
        for _, f in ctx.function_family():
            mf = bnd.maximal_function(met, f)
            for ev in (evD, evN):
                u = ev.poisson_integral(f, ladder)[:, samples]
                best = max(best, float(np.max(np.abs(u) / mf[samples])))
        return best, math.isfinite(best)

    r.run("kernels.maximal_domination", "Poisson integrals are dominated by the maximal function", maximal_domination, None)

    def approx_identity():
        fam = []
        coord = graph.coords[:, 0] - float(np.sum(graph.vertex_mass * graph.coords[:, 0]))
        fam.append((evN, coord))
        phi2 = ctx.basis("dirichlet").vectors[:, 1]
        fam.append((evD, phi2))
        worst_break = 0.0
        for ev, f in fam:
            rep = ker.approx_identity_error(ev, f, [0.2, 0.1, 0.05, 0.02])
            diffs = np.diff(rep.sup_errors)
            worst_break = max(worst_break, float(diffs.max()))
        return worst_break, worst_break <= 1e-9

    r.run("kernels.approx_identity", "Poisson smoothing errors shrink along the time ladder", approx_identity, None)

    r.run(
        "kernels.truncation_floor",
        "resolvable-time floor for the configured tail tolerance",
        lambda: (evD.t_min(), True),
        None,
    )


def _boundary_suite(ctx: SuiteContext, r: _Runner) -> None:
    graph = ctx.graph()
    met = ctx.metric()
    d = ctx.structure.dim
    rng = ctx.rng()

    def maximal_one():
        dev = float(np.abs(bnd.maximal_function(met, np.ones(graph.n_vertices)) - 1.0).max())
        return dev, dev <= 1e-12

    r.run("boundary.maximal_one", "the maximal function fixes constants", maximal_one, 1e-12)

    def maximal_lower():
        worst = 0.0
        for _, f in ctx.function_family():
            mf = bnd.maximal_function(met, f)
            worst = max(worst, float((np.abs(f) - mf).max()))
        return worst, worst <= 1e-12

    r.run("boundary.maximal_lower", "Mf dominates |f| pointwise", maximal_lower, 1e-12)

    def sublinear():
        worst = -math.inf
        for _ in range(4):
            f = rng.standard_normal(graph.n_vertices)
            g = rng.standard_normal(graph.n_vertices)
            mfg = bnd.maximal_function(met, f + g)
            bound = bnd.maximal_function(met, f) + bnd.maximal_function(met, g)
            worst = max(worst, float((mfg - bound).max()))
        return worst, worst <= 1e-10

    r.run("boundary.maximal_sublinear", "M(f+g) <= Mf + Mg on every vertex", sublinear, 1e-10)

    def homogeneous():
        f = rng.standard_normal(graph.n_vertices)
        dev = float(np.abs(bnd.maximal_function(met, -3.5 * f) - 3.5 * bnd.maximal_function(met, f)).max())
        return dev, dev <= 1e-10

    r.run("boundary.maximal_homogeneous", "M(cf) = |c| Mf", homogeneous, 1e-10)

    def weak11():
        rep = bnd.weak11_check(met, np.ones(graph.n_vertices), [0.5])
        exact = abs(rep.per_alpha[0][1] - 0.5)
        best = rep.constant
        for _, f in ctx.function_family()[1:3]:
            rep2 = bnd.weak11_check(met, f, np.geomspace(0.1, 2.0, 6))
            best = max(best, rep2.constant)
        return best, exact <= 1e-12 and math.isfinite(best)

    r.run("boundary.weak11", "weak (1,1) ratios stay bounded by one constant", weak11, None)

    def l2_bound():
        worst = 0.0
        for _, f in ctx.function_family():
            if np.abs(f).max() == 0.0:
                continue
            worst = max(worst, bnd.weak11_check(met, f, [1.0]).l2_ratio)
        return worst, math.isfinite(worst)

    r.run("boundary.l2_bound", "the maximal operator is L^2 bounded", l2_bound, None)

    def nesting():
        x = ctx.interior_sample()
        row = met.from_vertex(x)
        ok = True
        for t in (0.05, 0.2, 0.8):
            prev: set[int] = set()
            for alpha in (0.25, 0.5, 1.0, 2.0):
                ids = set(bnd.Cone(x, alpha).members(row, d, t).tolist())
                ok = ok and prev.issubset(ids)
                prev = ids
        return 0.0, ok

    r.run("boundary.cone_nesting", "cones grow with aperture and height", nesting, None)

    if d > 1.0:
        def classical():
            x = ctx.interior_sample()
            row = met.from_vertex(x)
            ok = True
            for t in (0.05, 0.2, 0.8):
                for alpha in (0.5, 1.0, 2.0):
                    classical_ids = np.flatnonzero((row < math.sqrt(alpha) * t) & (row < 1.0))
                    cone_ids = set(bnd.Cone(x, alpha).members(row, d, t).tolist())
                    ok = ok and set(classical_ids.tolist()).issubset(cone_ids)
            return 0.0, ok

        r.run("boundary.cone_classical", "cones contain the unit-clipped classical cone when d > 1", classical, None)
    else:
        r.skip("boundary.cone_classical", "cones contain the unit-clipped classical cone when d > 1",
               "only meaningful for d > 1 presets")

    def cone_sup_const():
        evN = ctx.evaluator("neumann")
        x = ctx.interior_sample()
        fld = tb.tube_sample(evN, np.ones(graph.n_vertices), np.geomspace(0.05, 0.8, 6))
        mf = bnd.maximal_function(met, np.ones(graph.n_vertices))
        rep = bnd.cone_sup(fld, bnd.Cone(x, 1.0), met, mf_at_apex=float(mf[x]))
        return abs(rep.ratio - 1.0), abs(rep.ratio - 1.0) <= 1e-10

    r.run("boundary.cone_sup_constant", "constant data saturates the cone bound at ratio one", cone_sup_const, 1e-10)

    def nontangential():
        evN = ctx.evaluator("neumann")
        E = bnd.BoundarySet(graph, [(0,)])
        f = E.vertex_indicator.astype(float)
        x = graph.vertex_id((0, 0), 1) if ctx.preset == "interval" else int(graph.boundary_ids[0])
        ts, errs = bnd.nontangential_error(evN, f, x, bnd.Cone(x, 1.0), np.geomspace(0.02, 0.4, 7), met)
        monotone = bool(np.all(np.diff(errs) >= -1e-12))
        final = float(errs[0])
        ok = monotone and (final <= 0.1 if ctx.preset == "interval" and ctx.level >= 8 else True)
        return final, ok

    r.run("boundary.nontangential", "cone-restricted errors shrink toward the boundary value", nontangential, None)

    def shifted_kernel():
        evN = ctx.evaluator("neumann")
        x = ctx.interior_sample()
        val = bnd.shifted_kernel_constant(evN, met, x, bnd.Cone(x, 1.0), [0.1, 0.3])
        return val, math.isfinite(val)

    r.run("boundary.shifted_kernel", "shifted kernels obey the two-branch bound inside cones", shifted_kernel, None)

    def ball_mass():
        evN = ctx.evaluator("neumann")
        x = ctx.interior_sample()
        alphas = [0.25, 1.0, 4.0]
        minima = [float(bnd.ball_mass_lower(evN, met, x, a, [0.4, 0.2, 0.1]).min()) for a in alphas]
        _, ratios = bnd.alpha_scaling_fit(alphas, minima)
        ok = min(minima) > 0.0
        if ctx.preset in ("interval", "sierpinski"):
            ok = ok and bool(np.all((ratios >= 0.5) & (ratios <= 2.0)))
        return min(minima), ok

    r.run("boundary.ball_mass_lower", "kernel mass in matched balls is bounded below uniformly in t", ball_mass, None)

    def barrier_check():
        _, res = ctx.barrier()
        decayed = all(dec[0] <= dec[-1] + 1e-12 for dec in res.decay.values())
        ok = res.boundary_min > 0.0 and decayed
        finals = max(float(dec[0]) for dec in res.decay.values())
        if (ctx.preset == "sierpinski" and ctx.level >= 6) or (ctx.preset == "interval" and ctx.level >= 8):
            ok = ok and finals <= 0.05
        return finals, ok

    r.run("boundary.barrier", "the barrier stays positive on the lateral boundary and decays inside", barrier_check, None)

    def cover():
        E, x = ctx.cover_setup()
        rep = bnd.cone_cover_check(met, E, x, 4.0, 1)
        return float(rep.n_violations), rep.covered

    r.run("boundary.cover", "truncated cones over density points are covered by unit cones", cover, None)

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
        return worst, worst >= -1e-9

    r.run("boundary.barrier_comparison", "twice the barrier dominates the localized harmonic parts", comparison, 1e-9)


def _tube_suite(ctx: SuiteContext, r: _Runner) -> None:
    graph = ctx.graph()
    evD = ctx.evaluator("dirichlet")
    evN = ctx.evaluator("neumann")
    rng = ctx.rng()
    ladder = np.geomspace(0.1, 1.0, 9)

    def dirichlet_columns():
        f = rng.standard_normal(graph.n_vertices)
        f[graph.boundary_ids] = 0.0
        fld = tb.tube_sample(evD, f, ladder)
        return float(np.abs(fld.values[:, graph.boundary_ids]).max()), True

    r.run("tube.dirichlet_columns", "Dirichlet fields vanish on the boundary columns", dirichlet_columns, 1e-12)

    def positivity():
        worst = 0.0
        for _ in range(4):
            f = np.abs(rng.standard_normal(graph.n_vertices))
            fld = tb.tube_sample(evN, f, ladder)
            worst = min(worst, float(fld.values.min() / max(np.abs(fld.values).max(), 1e-300)))
        return worst, worst >= -1e-9

    r.run("tube.positivity", "nonnegative data propagates to nonnegative fields", positivity, 1e-9)

    def smoothness():
        phi2 = ctx.basis("dirichlet").vectors[:, 1]
        resid = []
        for npts in (17, 33):
            fld = tb.tube_sample(evD, phi2, np.linspace(0.3, 1.1, npts))
            resid.append(tb.harmonic_residual(fld, ctx.form()).max_residual)
        ratio = resid[0] / max(resid[1], 1e-300)
        return ratio, 2.5 <= ratio <= 6.0

    r.run("tube.smoothness", "divided differences converge at second order on eigenmodes", smoothness, None)

    def max_principle():
        violations = 0
        worst = 0.0
        for _ in range(16):
            f = rng.standard_normal(graph.n_vertices)
            f[graph.boundary_ids] = 0.0
            fld = tb.tube_sample(evD, f, ladder)
            rep = tb.max_principle_check(fld, float(ladder[0]), float(ladder[-1]))
            worst = max(worst, rep.max_excess, rep.min_deficit)
            violations += 0 if rep.ok else 1
        return worst, violations == 0

    r.run("tube.max_principle", "slab extrema sit on the time faces or the boundary columns", max_principle, None)

    def min_on_boundary():
        f = np.abs(rng.standard_normal(graph.n_vertices))
        f[graph.boundary_ids] = 0.0
        fld = tb.tube_sample(evD, f, ladder)
        rep = tb.max_principle_check(fld, float(ladder[0]), float(ladder[-1]))
        return rep.slab_min, rep.ok and rep.slab_min >= -1e-12

    r.run("tube.min_on_boundary", "nonnegative Dirichlet fields take their minimum on the boundary", min_on_boundary, None)

    def fatou():
        worst = max(tb.fatou_batch(evD, rng, 8)[0])
        return worst, worst <= 1e-6

    r.run("tube.fatou", "fields reconstruct as Poisson integrals of their own slices", fatou, 1e-6)

    def fatou_precondition():
        f = np.ones(graph.n_vertices)
        fld = tb.tube_sample(evN, f, np.array([0.1, 0.2, 0.3]))
        try:
            tb.fatou_consistency(evN, fld, 0.1, 0.1)
        except ValueError:
            return 0.0, True
        return 1.0, False

    r.run("tube.fatou_precondition", "the reconstruction identity rejects non-Dirichlet fields", fatou_precondition, None)

    def contraction():
        worst = 0.0
        mass = graph.vertex_mass
        for _ in range(4):
            f = rng.standard_normal(graph.n_vertices)
            f[graph.boundary_ids] = 0.0
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
        return worst, worst <= 1e-9

    r.run("tube.lp_contraction", "Poisson integrals contract every L^p norm", contraction, 1e-9)

    def l2_monotone():
        f = rng.standard_normal(graph.n_vertices)
        f[graph.boundary_ids] = 0.0
        fld = tb.tube_sample(evD, f, ladder)
        norms = tb.lp_profile(fld, 2).norms
        worst = float(np.diff(norms).max())
        return worst, worst <= 1e-12

    r.run("tube.l2_monotone", "Dirichlet L^2 profiles never increase in time", l2_monotone, 1e-12)

    def atomic_l1():
        x = ctx.interior_sample()
        vals = evD.poisson_integral([(x, 1.0)], ladder)
        fld = tb.TubeField(ladder, vals, "dirichlet", graph)
        prof = tb.lp_profile(fld, 1)
        return prof.sup, prof.sup <= 1.0 + 1e-9

    r.run("tube.atomic_l1", "atomic-measure integrals have uniformly bounded L^1 profiles", atomic_l1, None)

    def decay_exponent():
        x = ctx.interior_sample()
        vals = evD.poisson_integral([(x, 1.0)], ladder)
        fld = tb.TubeField(ladder, vals, "dirichlet", graph)
        return tb.lp_profile(fld, math.inf).fit_exponent, True

    r.run("tube.decay_exponent", "pointwise decay exponent recorded against the p-dependent envelope", decay_exponent, None)


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

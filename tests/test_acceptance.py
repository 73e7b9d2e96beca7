"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they execute.  Criteria with stated runtime budgets construct their
own artifacts inside the timed region instead of using shared fixtures.
"""

import math
import time

import numpy as np

from pcftube.boundary import (
    BoundarySet,
    Cone,
    alpha_scaling_fit,
    ball_mass_lower,
    barrier,
    cone_sup,
    maximal_function,
    nontangential_error,
)
from pcftube.core import build_level, load_structure
from pcftube.kernels import semigroup_defect, subordination_transform
from pcftube.spectral import eigensystem, energy_matrix, weyl_exponent
from pcftube.tube import TubeField, fatou_consistency, lp_profile, max_principle_check, tube_sample

from oracles import interval_poisson_dirichlet

np.random.seed(0)  # criteria use explicit generators; this guards stray randomness


def _crit(num: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_interval_eigenvalue_oracle():
    t0 = time.perf_counter()
    S = load_structure("interval")
    graph = build_level(S, 8)
    basis = eigensystem(energy_matrix(graph), "dirichlet")
    lam = basis.eigenvalues
    rel1 = abs(lam[0] - math.pi**2) / math.pi**2
    worst = max(abs(lam[k - 1] - (k * math.pi) ** 2) / (k * math.pi) ** 2 for k in range(1, 11))
    elapsed = time.perf_counter() - t0
    ok = rel1 <= 1e-3 and worst <= 1e-2 and elapsed < 10.0
    _crit(1, ok, f"lambda_1 off pi^2 by {rel1:.2e} (<=1e-3), worst k<=10 {worst:.2e} (<=1e-2), {elapsed:.2f}s (<10s)")


def test_criterion_02_interval_poisson_kernel_oracle():
    t0 = time.perf_counter()
    S = load_structure("interval")
    graph = build_level(S, 11)
    basis = eigensystem(energy_matrix(graph), "dirichlet")
    from pcftube.kernels import KernelEvaluator

    ev = KernelEvaluator(basis)
    pts = [
        graph.vertex_id((0, 0, 0), 1),  # 1/8
        graph.vertex_id((0, 0), 1),  # 1/4
        graph.vertex_id((0,), 1),  # 1/2
        graph.vertex_id((1, 1), 0),  # 3/4
        graph.vertex_id((1, 1, 1), 0),  # 7/8
    ]
    worst = 0.0
    for t in (0.1, 0.3, 1.0):
        for x in pts:
            for y in pts:
                oracle = interval_poisson_dirichlet(t, graph.coords[x, 0], graph.coords[y, 0])
                worst = max(worst, abs(ev.poisson(t, x, y) - oracle))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-4 and elapsed < 5.0
    _crit(2, ok, f"max |series - classical| {worst:.2e} (<=1e-4) on 5x5x3 grid, {elapsed:.2f}s (<5s)")


def test_criterion_03_subordination_equality(stacks):
    scalar_dev = max(
        abs(subordination_transform(lambda s, b=b: np.exp(-b * b * s), 1.0, 1e-12) - math.exp(-b))
        for b in (1.0, 5.0, 20.0)
    )
    worst = 0.0
    for preset, m in (("interval", 8), ("sierpinski", 5)):
        st = stacks(preset, m)
        ev = st.evaluator("dirichlet")
        evn = st.evaluator("neumann")
        ids = st.graph.cells[0].tolist() + st.graph.cells[-1].tolist()
        pts = []
        for t in (0.1, 0.2, 0.4, 0.8, 1.5):
            for k in range(4):
                pts.append((t, ids[k % len(ids)], ids[(k + 2) % len(ids)]))
        assert len(pts) == 20
        for t, x, y in pts:
            worst = max(worst, abs(ev.poisson_via_subordination(t, x, y, 1e-8) - ev.poisson(t, x, y)))
            worst = max(worst, abs(evn.poisson_via_subordination(t, x, y, 1e-8) - evn.poisson(t, x, y)))
    ok = worst <= 1e-6 and scalar_dev <= 1e-10
    _crit(3, ok, f"series vs quadrature {worst:.2e} (<=1e-6); scalar identity {scalar_dev:.2e} (<=1e-10)")


def test_criterion_04_semigroup_identities(stacks):
    worst = 0.0
    for preset, m in (("interval", 8), ("sierpinski", 5)):
        st = stacks(preset, m)
        for bc in ("dirichlet", "neumann"):
            ev = st.evaluator(bc)
            worst = max(worst, semigroup_defect(ev, 0.2, 0.2, "poisson"))
            worst = max(worst, semigroup_defect(ev, 0.2, 0.2, "heat"))
    ok = worst <= 1e-6
    _crit(4, ok, f"max composition defect {worst:.2e} (<=1e-6) at t=s=0.2, both presets and conditions")


def test_criterion_05_kernel_masses(stacks):
    ladder = [0.4, 0.2, 0.1, 0.05]
    worst_n = 0.0
    for preset, m in (("interval", 8), ("sierpinski", 5)):
        st = stacks(preset, m)
        evn = st.evaluator("neumann")
        for t in ladder:
            for x in range(0, st.graph.n_vertices, max(1, st.graph.n_vertices // 32)):
                worst_n = max(worst_n, abs(evn.kernel_mass(t, x) - 1.0))
    st = stacks("interval", 8)
    evd = st.evaluator("dirichlet")
    mid = st.graph.vertex_id((0,), 1)
    usable = [t for t in ladder if evd.resolvable(t)]
    masses = [evd.kernel_mass(t, mid) for t in usable]
    monotone = all(a < b for a, b in zip(masses, masses[1:]))
    ok = worst_n <= 1e-8 and monotone and masses[-1] > 0.9
    _crit(
        5,
        ok,
        f"Neumann mass dev {worst_n:.2e} (<=1e-8); Dirichlet mass rises to {masses[-1]:.4f} (>0.9) "
        f"at t={usable[-1]}",
    )


def test_criterion_06_weyl_exponents():
    t0 = time.perf_counter()
    results = []
    for preset, m, target in (
        ("interval", 8, 0.5),
        ("sierpinski", 5, math.log(3.0) / math.log(5.0)),
    ):
        graph = build_level(load_structure(preset), m)
        basis = eigensystem(energy_matrix(graph), "dirichlet")
        fit = weyl_exponent(basis)
        results.append((preset, fit.slope, target, abs(fit.slope - target)))
    elapsed = time.perf_counter() - t0
    ok = all(dev <= 0.05 for _, _, _, dev in results) and elapsed < 60.0
    detail = "; ".join(f"{p}: slope {s:.4f} vs {t:.4f} (dev {d:.3f})" for p, s, t, d in results)
    _crit(6, ok, f"{detail}; {elapsed:.1f}s (<60s)")


def _domination_constants(st, alphas, t_ladder):
    """Global vertical and cone constants over the address-defined family."""
    met = st.metric
    graph = st.graph
    samples = []
    S = st.structure
    for w in [(0,), (1,)] + [(a, b) for a in range(S.n_symbols) for b in (0, 1)]:
        for p in range(S.n_boundary):
            samples.append(graph.vertex_id(w, p))
    samples = sorted(set(samples))
    evN = st.evaluator("neumann")
    evD = st.evaluator("dirichlet")
    a_vert = 0.0
    a_cone = {alpha: 0.0 for alpha in alphas}
    fam = []
    fam.append(np.ones(graph.n_vertices))
    for s in range(S.n_symbols):
        ind = np.zeros(graph.n_vertices)
        ind[graph.cells[graph.cells_with_prefix((s,))].ravel()] = 1.0
        fam.append(ind)
    ind2 = np.zeros(graph.n_vertices)
    ind2[graph.cells[graph.cells_with_prefix((0, 0))].ravel()] = 1.0
    fam.append(ind2)
    fam.append(graph.coords[:, 0].copy())
    for f in fam:
        mf = maximal_function(met, f)
        for ev in (evN, evD):
            fld = tube_sample(ev, f, t_ladder)
            for x in samples:
                ray = float(np.abs(fld.values[:, x]).max())
                a_vert = max(a_vert, ray / mf[x])
                for alpha in alphas:
                    rep = cone_sup(fld, Cone(x, alpha), met, mf_at_apex=float(mf[x]))
                    a_cone[alpha] = max(a_cone[alpha], rep.ratio)
    return a_vert, a_cone


def test_criterion_07_maximal_domination_stability(stacks):
    alphas = (0.5, 1.0, 2.0)
    t_ladder = np.geomspace(0.05, 0.8, 6)
    details = []
    ok = True
    for preset, m in (("interval", 7), ("sierpinski", 4)):
        av0, ac0 = _domination_constants(stacks(preset, m), alphas, t_ladder)
        av1, ac1 = _domination_constants(stacks(preset, m + 1), alphas, t_ladder)
        ok = ok and math.isfinite(av1) and abs(av1 / av0 - 1.0) <= 0.3
        for alpha in alphas:
            ok = ok and abs(ac1[alpha] / ac0[alpha] - 1.0) <= 0.3
        worst_alpha = max(abs(ac1[a] / ac0[a] - 1.0) for a in alphas)
        details.append(f"{preset}: A {av0:.3f}->{av1:.3f}, cone drift <= {worst_alpha:.2%}")
    _crit(7, ok, "; ".join(details) + " (all drifts <=30%)")


def test_criterion_08_nontangential_decay(stacks):
    st = stacks("interval", 8)
    evn = st.evaluator("neumann")
    f = (st.graph.coords[:, 0] <= 0.5).astype(float)
    finals = []
    ok = True
    for word, p in (((0, 0, 0), 1), ((0, 0), 1), ((1, 1), 0), ((1, 1, 1), 0)):
        x = st.graph.vertex_id(word, p)
        ts, errs = nontangential_error(evn, f, x, Cone(x, 1.0), np.geomspace(0.02, 0.4, 7), st.metric)
        ok = ok and bool(np.all(np.diff(errs) >= -1e-12)) and errs[0] <= 0.1
        finals.append(float(errs[0]))
    _crit(8, ok, f"cone errors non-increasing at 4 proxy points, e(0.02) max {max(finals):.4f} (<=0.1)")


def test_criterion_09_maximum_principle_batch(stacks):
    st = stacks("interval", 8)
    evd = st.evaluator("dirichlet")
    rng = np.random.default_rng(7)
    grid = np.geomspace(0.1, 1.0, 9)
    violations = 0
    worst = 0.0
    for _ in range(16):
        f = rng.standard_normal(st.graph.n_vertices)
        f[st.graph.boundary_ids] = 0.0
        fld = tube_sample(evd, f, grid)
        rep = max_principle_check(fld, 0.1, 1.0)
        worst = max(worst, rep.max_excess, rep.min_deficit)
        violations += 0 if rep.ok else 1
    ok = violations == 0
    _crit(9, ok, f"{violations} violations over 16 seeded fields; worst interior excess {worst:.2e}")


def test_criterion_10_fatou_and_profiles(stacks):
    st = stacks("interval", 8)
    evd = st.evaluator("dirichlet")
    rng = np.random.default_rng(7)
    grid = np.array([0.1, 0.2, 0.3, 0.5])
    worst_defect = 0.0
    bounded = True
    mass = st.graph.vertex_mass
    for _ in range(16):
        f = rng.standard_normal(st.graph.n_vertices)
        f[st.graph.boundary_ids] = 0.0
        fld = tube_sample(evd, f, grid)
        worst_defect = max(worst_defect, fatou_consistency(evd, fld, 0.1, 0.2))
        for p, norm in (
            (1, float(np.sum(mass * np.abs(f)))),
            (2, math.sqrt(float(np.sum(mass * f * f)))),
            (math.inf, float(np.abs(f).max())),
        ):
            bounded = bounded and lp_profile(fld, p).sup <= norm * (1.0 + 1e-9)
    x = st.graph.vertex_id((0,), 1)
    tl = np.geomspace(0.05, 1.0, 8)
    atom_vals = np.vstack([evd.poisson_integral([(x, 1.0)], float(t)) for t in tl])
    atom_fld = TubeField(tl, atom_vals, "dirichlet", st.graph)
    atom_sup = lp_profile(atom_fld, 1).sup
    ok = worst_defect <= 1e-6 and bounded and atom_sup <= 1.0 + 1e-9
    _crit(
        10,
        ok,
        f"reconstruction defect {worst_defect:.2e} (<=1e-6); L^p profiles contractive; "
        f"atomic L^1 sup {atom_sup:.4f} (<=1)",
    )


def test_criterion_11_nested_lower_bound(stacks):
    alphas = [0.25, 0.5, 1.0, 2.0, 4.0]
    details = []
    ok = True
    for preset, m, addr in (("interval", 8, ((0,), 1)), ("sierpinski", 5, ((0, 1), 2))):
        st = stacks(preset, m)
        evn = st.evaluator("neumann")
        x = st.graph.vertex_id(*addr)
        minima = [float(ball_mass_lower(evn, st.metric, x, a, [0.4, 0.2, 0.1]).min()) for a in alphas]
        c, ratios = alpha_scaling_fit(alphas, minima)
        ok = ok and min(minima) > 0.0 and bool(np.all((ratios >= 0.5) & (ratios <= 2.0)))
        details.append(f"{preset}: min {min(minima):.3f} > 0, sqrt-alpha ratios in [{ratios.min():.2f}, {ratios.max():.2f}]")
    _crit(11, ok, "; ".join(details) + " (factor-2 band)")


def test_criterion_12_barrier(stacks):
    details = []
    ok = True
    for preset, m, words, t0 in (
        ("interval", 10, [(0,)], 0.01),
        ("sierpinski", 6, [(0,), (1, 0), (2, 0)], 0.02),
    ):
        st = stacks(preset, m)
        evn = st.evaluator("neumann")
        E = BoundarySet(st.graph, words)
        res = barrier(evn, E, 1.0, np.geomspace(t0, 0.9, 10), st.metric)
        finals = [float(dec[0]) for dec in res.decay.values()]
        decayed = all(dec[0] <= dec[-1] + 1e-12 for dec in res.decay.values())
        ok = ok and res.boundary_min > 0.0 and decayed and max(finals) <= 0.05
        details.append(f"{preset}: lateral min {res.boundary_min:.3f} > 0, interior decay to {max(finals):.4f}")
    _crit(12, ok, "; ".join(details) + " (<=0.05)")

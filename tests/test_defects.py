"""A catalogue of injected defects and the suite checks that catch them.

Each defect is monkeypatched into one layer, and ``verify --suite all`` runs
at sierpinski m=5, seed 7, where every check passes on the unpatched code.
The test asserts exactly which checks flip to ``fail``, so a later change to
a check's rule shows up here as a change in what it catches.  The three
defects that no check catches are strict xfails whose reasons name the law
that should catch them.
"""

import numpy as np
import pytest

import pcftube.boundary as bnd
from pcftube.core import ResistanceMetric
from pcftube.kernels import KernelEvaluator
from pcftube.suites import verify_suite


def _poisson_integral(transform):
    """``KernelEvaluator.poisson_integral`` with ``transform(ev, rate, a, ts)``
    applied to the rates, the mode coefficients and the times."""

    def poisson_integral(self, f, t):
        ts = np.asarray(t, dtype=float)
        rate, a, times = transform(self, self.sqrt_lam, self.coefficients(f), ts)
        out = np.array([self.vectors @ (np.exp(-rate * s) * a) for s in times.flat])
        return out.reshape(ts.shape + out.shape[1:])

    return poisson_integral


def _drop_top_modes(ev, rate, a, ts):
    a = a.copy()
    a[int(0.9 * a.size):] = 0.0
    return rate, a, ts


def _metric_transform(transform):
    """``ResistanceMetric.__init__`` followed by R -> transform(R, diam) on
    the held representative rows, hence on every row."""
    init = ResistanceMetric.__init__

    def patched(self, basis):
        init(self, basis)
        self._rows = transform(self._rows, self._diameter)

    return patched


def _cone_rule(rule):
    """``Cone.members`` with membership ``rule(r_row, d, aperture, t)``."""

    def members(self, r_row, d, t):
        if not 0.0 < t < self.height:
            return np.empty(0, dtype=int)
        return np.flatnonzero(rule(r_row, d, self.aperture, t))

    return members


def _maximal_over_smallest_radii(metric, weights):
    """``_maximal`` over the n // 20 smallest radii about each vertex only."""
    order, masses = metric.realizable_balls()
    k = max(1, order.shape[1] // 20)
    out = np.empty(order.shape[1])
    for g in metric.group:
        ratios = np.cumsum(weights[g][order[:, :k]], axis=1) / masses[:, :k]
        out[g[metric.reps]] = ratios.max(axis=1)
    return out


_maximal = bnd._maximal
_kernel = KernelEvaluator._kernel

DEFECTS = {
    "poisson_drops_top_modes": (KernelEvaluator, "poisson_integral", _poisson_integral(_drop_top_modes)),
    "cone_exponent_d": (bnd.Cone, "members", _cone_rule(lambda r, d, a, t: r**d < a * t * t)),
    "metric_power_1_2": (
        ResistanceMetric, "__init__", _metric_transform(lambda R, diam: R**1.2 * diam**-0.2)
    ),
    "cone_linear_in_t": (bnd.Cone, "members", _cone_rule(lambda r, d, a, t: r ** (d + 1.0) < a * t)),
    "maximal_smallest_radii": (bnd, "_maximal", _maximal_over_smallest_radii),
    "maximal_times_1_5": (bnd, "_maximal", lambda metric, weights: 1.5 * _maximal(metric, weights)),
    "metric_sqrt": (ResistanceMetric, "__init__", _metric_transform(lambda R, diam: np.sqrt(R * diam))),
    "poisson_rate_lambda": (
        KernelEvaluator, "poisson_integral", _poisson_integral(lambda ev, rate, a, ts: (ev.lam, a, ts))
    ),
    "poisson_integral_time_2t": (
        KernelEvaluator, "poisson_integral", _poisson_integral(lambda ev, rate, a, ts: (rate, a, 2.0 * ts))
    ),
    "kernel_time_2t": (
        KernelEvaluator, "_kernel", lambda self, rate, t, x=slice(None), y=None: _kernel(self, rate, 2.0 * t, x, y)
    ),
}

CAUGHT = {
    "cone_linear_in_t": {"boundary.cover"},
    # by accident: Mf vanishes where the smallest radii are ties, and the
    # domination ratio divides by it
    "maximal_smallest_radii": {"kernels.maximal_domination"},
    "maximal_times_1_5": {"boundary.maximal_one", "boundary.cone_sup_constant"},
    "metric_sqrt": {"core.resistance_contraction", "boundary.ball_mass_lower"},
    "poisson_rate_lambda": {"kernels.kernel_harmonicity", "tube.smoothness"},
    "poisson_integral_time_2t": {"kernels.kernel_harmonicity", "tube.smoothness"},
    "kernel_time_2t": {
        "kernels.subordination_agreement", "kernels.semigroup_poisson", "kernels.semigroup_heat"
    },
}

UNCAUGHT = {
    "poisson_drops_top_modes": "needs a quantitative rate for ||P_t f - f|| down to t_min",
    "cone_exponent_d": "needs the D-scaling relation: scaling D by c maps the aperture alpha to alpha c^d",
    "metric_power_1_2": "needs the triangle inequality of R",
}


def _failed(monkeypatch, defect):
    owner, name, replacement = DEFECTS[defect]
    monkeypatch.setattr(owner, name, replacement)
    rep = verify_suite("all", preset="sierpinski", level=5, seed=7)
    return {c.id for c in rep.checks if c.status == "fail"}


def test_catalogue_covers_every_defect():
    assert set(CAUGHT) | set(UNCAUGHT) == set(DEFECTS)
    assert not set(CAUGHT) & set(UNCAUGHT)


def test_unpatched_suite_passes():
    rep = verify_suite("all", preset="sierpinski", level=5, seed=7)
    assert rep.counts() == {"pass": 55, "fail": 0, "skip": 0}


@pytest.mark.parametrize("defect", sorted(CAUGHT))
def test_defect_flips_its_checks(monkeypatch, defect):
    assert _failed(monkeypatch, defect) == CAUGHT[defect]


@pytest.mark.parametrize(
    "defect", [pytest.param(d, marks=pytest.mark.xfail(reason=law, raises=AssertionError, strict=True)) for d, law in sorted(UNCAUGHT.items())]
)
def test_defect_no_check_catches_yet(monkeypatch, defect):
    assert _failed(monkeypatch, defect)

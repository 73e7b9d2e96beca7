"""Metamorphic relations: outputs of a transformed structure predicted from
the outputs of the original one.

Scaling the level-0 energy D by c scales the level-m energy form by c and
leaves the measure alone.  So every eigenvalue is multiplied by c, the
resistance metric R is divided by c, and the Poisson kernel of the scaled
structure at time t is the original one at time sqrt(c) t.  At c = 4 every
product involved is a multiplication by a power of two, so the relation holds
bit for bit.  At c = 3 the eigensolves round differently; measured at the
presets' default levels the eigenvalues agree to 9.5e-16 lambda_max, R to
5.8e-13 diam and the kernel rows to 2.6e-13 of their largest entry.
"""

import math

import numpy as np
import pytest

from pcftube import spectral
from pcftube.core import ResistanceMetric, build_level, load_structure
from pcftube.kernels import KernelEvaluator
from pcftube.suites import DEFAULT_LEVELS

EIG_TOL = 1e-14  # relative to lambda_max
METRIC_TOL = 1e-11  # relative to the diameter
KERNEL_TOL = 1e-11  # relative to the largest kernel entry


def _outputs(preset, c):
    """Eigenvalues and evaluators per bc, and R, for D scaled by c."""
    D = np.asarray(load_structure(preset).harmonic.D, dtype=float)
    structure = load_structure({"preset": preset, "D": (c * D).tolist()})
    form = spectral.energy_matrix(build_level(structure, DEFAULT_LEVELS[preset]))
    out = {}
    for bc in ("dirichlet", "neumann"):
        basis = spectral.eigensystem(form, bc)
        out[bc] = (basis.eigenvalues, KernelEvaluator(basis))
        if bc == "neumann":
            idx = np.arange(form.graph.n_vertices)
            out["R"] = ResistanceMetric(basis).pairs(idx[:, None], idx)
    return out


@pytest.mark.parametrize("preset", sorted(DEFAULT_LEVELS))
@pytest.mark.parametrize("c, slack", [(4.0, 0.0), (3.0, 1.0)], ids=["c4-exact", "c3"])
def test_scaling_d_scales_spectrum_metric_and_kernel_time(preset, c, slack):
    base, scaled = _outputs(preset, 1.0), _outputs(preset, c)

    def close(actual, expected, tol):
        np.testing.assert_allclose(actual, expected, rtol=0, atol=slack * tol)

    for bc in ("dirichlet", "neumann"):
        lam = base[bc][0]
        close(scaled[bc][0], c * lam, EIG_TOL * c * lam.max())
    R = base["R"]
    close(scaled["R"], R / c, METRIC_TOL * R.max() / c)
    xs = np.arange(0, R.shape[0], 7)
    for bc in ("dirichlet", "neumann"):
        for t in (0.05, 0.2, 0.5):
            P = base[bc][1].poisson_row(math.sqrt(c) * t, xs)
            close(scaled[bc][1].poisson_row(t, xs), P, KERNEL_TOL * np.abs(P).max())

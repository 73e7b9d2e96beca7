import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from pcftube.core import ResistanceMetric, build_level, load_structure
from pcftube.kernels import KernelEvaluator
from pcftube.spectral import eigensystem, energy_matrix


class Stack:
    """Built artifacts for one (preset, level), constructed lazily and cached."""

    def __init__(self, preset: str, level: int):
        self.preset = preset
        self.level = level
        self.structure = load_structure(preset)
        self.graph = build_level(self.structure, level)
        self.form = energy_matrix(self.graph)
        self._bases = {}
        self._metric = None
        self._evaluators = {}

    def basis(self, bc: str):
        if bc not in self._bases:
            self._bases[bc] = eigensystem(self.form, bc)
        return self._bases[bc]

    def evaluator(self, bc: str):
        if bc not in self._evaluators:
            self._evaluators[bc] = KernelEvaluator(self.basis(bc))
        return self._evaluators[bc]

    @property
    def metric(self) -> ResistanceMetric:
        if self._metric is None:
            self._metric = ResistanceMetric(self.basis("neumann"))
        return self._metric

    @property
    def table(self) -> np.ndarray:
        """The metric's whole n x n table, read through ``ResistanceMetric.pairs``."""
        idx = np.arange(self.graph.n_vertices)
        return self.metric.pairs(idx[:, None], idx)


@pytest.fixture(scope="session")
def stacks():
    cache = {}

    def get(preset: str, level: int) -> Stack:
        key = (preset, level)
        if key not in cache:
            cache[key] = Stack(preset, level)
        return cache[key]

    return get


@pytest.fixture()
def rng():
    return np.random.default_rng(7)

"""Noisy analytic environment: a known curve plus measurement noise.

Useful as a controlled testbed for the adaptive sampler, since the true
optimum is computable from the underlying curve.
"""

from __future__ import annotations

import numpy as np

from ..core import Allocation, PerformanceVector
from ..curves import AnalyticCurve
from ..errors import DomainError

__all__ = ["AnalyticEnvironment"]


class AnalyticEnvironment:
    """Wraps an analytic curve with i.i.d. Gaussian measurement noise.

    Observations are deterministic given the construction seed and the
    number of prior calls, so whole runs replay exactly.
    """

    def __init__(self, curve: AnalyticCurve, noise_sd: float = 0.0, rng_seed: int = 0):
        if not 0 <= noise_sd < np.inf:
            raise DomainError(f"noise_sd must be finite and non-negative, got {noise_sd}")
        self.curve = curve
        self.noise_sd = float(noise_sd)
        self._rng = np.random.default_rng(rng_seed)

    @property
    def num_groups(self) -> int:
        return self.curve.num_groups

    def perf_values(self, counts: np.ndarray) -> np.ndarray:
        """Measured group performances at a counts vector, with fresh noise
        added in place to the new array the curve returns."""
        perf = self.curve.perf_values(counts)
        if self.noise_sd:
            perf += self._rng.normal(0.0, self.noise_sd, size=self.num_groups)
        return perf

    def observe(self, alloc: Allocation) -> PerformanceVector:
        """:meth:`perf_values` at an allocation, as a typed vector."""
        return PerformanceVector(self.perf_values(alloc.counts))

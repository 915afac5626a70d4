"""Noisy analytic environment: a known curve plus measurement noise.

Useful as a controlled testbed for the adaptive sampler, since the true
optimum is computable from the underlying curve.
"""

from __future__ import annotations

import numpy as np

from ..core import Allocation, PerformanceVector
from ..curves import AnalyticCurve, eval_perf
from ..errors import DomainError

__all__ = ["AnalyticEnvironment"]


class AnalyticEnvironment:
    """Wraps an analytic curve with i.i.d. Gaussian measurement noise.

    Observations are deterministic given the construction seed and the
    number of prior calls, so whole runs replay exactly.
    """

    def __init__(self, curve: AnalyticCurve, noise_sd: float = 0.0, rng_seed: int = 0):
        if noise_sd < 0:
            raise DomainError("noise_sd must be non-negative")
        self.curve = curve
        self.noise_sd = float(noise_sd)
        self._rng = np.random.default_rng(rng_seed)

    @property
    def num_groups(self) -> int:
        return self.curve.num_groups

    def observe(self, alloc: Allocation) -> PerformanceVector:
        """Measure group performances at an allocation, with fresh noise."""
        truth = eval_perf(self.curve, alloc).values
        if self.noise_sd == 0:
            return PerformanceVector(truth)
        noise = self._rng.normal(0.0, self.noise_sd, size=self.num_groups)
        return PerformanceVector(truth + noise)

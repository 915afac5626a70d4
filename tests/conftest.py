import os

# One BLAS thread, as the README advises for the library's many small
# products; it must be set before numpy loads OpenBLAS.  A value already in
# the environment wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from equalloc import AnalyticCurve, CostModel, UtilitySpec  # noqa: E402

FOUR_GROUP_GAMMA = np.array(
    [
        [1.0, 0.3, 0.3, 0.3],
        [0.3, 0.5, 0.3, 0.3],
        [0.3, 0.3, 1.0, 0.3],
        [0.3, 0.3, 0.3, 1.0],
    ]
)


@pytest.fixture
def four_group_curve():
    return AnalyticCurve(gamma=FOUR_GROUP_GAMMA, form="sqrt")


@pytest.fixture
def four_group_cost():
    return CostModel(costs=[1.0, 1.0, 2.0, 1.0], budget=1000.0)


@pytest.fixture
def u_equal():
    return UtilitySpec(weights=[1.0, 1.0, 1.0, 1.0], normalize=True)


@pytest.fixture
def u_priority():
    return UtilitySpec(weights=[1.0, 1.0, 1.0, 1.5], normalize=True)

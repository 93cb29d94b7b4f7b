"""Fixtures shared by the test modules."""

import math

import numpy as np
import pytest


def power_of_ten(k):
    return float(10**k) if k >= 0 else 1 / 10**-k


@pytest.fixture(scope="session")
def kernel_edges():
    """Edge values of the CSV kernels: +-0.0, subnormals, the largest
    doubles, +-1e+-250, powers of ten and their neighbours, 2000 halves
    up to 2e16, +-1e153, NaNs and infinities."""
    return (
        [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308]
        + [s * v for s in (1.0, -1.0) for b in (1e250, 1e-250)
           for v in (b, np.nextafter(b, 0.0), np.nextafter(b, math.inf))]
        + [v for k in range(-30, 31) for v in (
            power_of_ten(k), np.nextafter(power_of_ten(k), 0.0), np.nextafter(power_of_ten(k), math.inf),
        )]
        + (np.arange(2000) * 1e13 + 0.5).tolist()
        + [1e153, -1e153, math.nan, -math.nan, math.inf, -math.inf]
    )

"""Property test: the array kernels of confdop.conformal agree with the
scalar kernels bit for bit, element by element, inside the domain.

Kept apart from test_conformal.py so that those tests do not depend on
hypothesis being installed.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from confdop import (
    Event,
    GroupParameter,
    conformal_factor,
    differential_map,
    transform_finite,
)
from confdop.conformal import (
    conformal_factor_array,
    differential_map_array,
    transform_finite_array,
)


def admissible_batches():
    """Lists of (beta4, r, x4, dr, dx4) with |beta4| <= 0.9 and
    |beta4|*(r + |x4|) <= 0.9, which keeps both null-coordinate factors at
    or above 0.1 and every intermediate term far from overflow."""
    unit = st.floats(-1.0, 1.0)
    case = st.tuples(unit, st.floats(0.0, 1e3), st.floats(-1e3, 1e3), unit, unit).map(
        lambda c: (c[0] * 0.9 / max(c[1] + abs(c[2]), 1.0),) + c[1:]
    )
    return st.lists(case, min_size=1, max_size=20)


def same_bits(a, b):
    def bits(x):
        return np.array(x, dtype=float).view(np.int64).tolist()

    return bits(a) == bits(b)


@given(admissible_batches())
def test_elements_equal_scalar_calls_bit_for_bit(batch):
    b, r, x4, dr, dx4 = (np.array(col) for col in zip(*batch))
    scalar = []
    for bi, ri, xi, dri, dxi in batch:
        p, e = GroupParameter(bi), Event(r=ri, x4=xi)
        out = transform_finite(p, e)
        drp, dx4p = differential_map(p, e, dri, dxi)
        scalar.append((conformal_factor(p, e), out.r, out.x4, drp, dx4p))
    g, rp, x4p, drp, dx4p = zip(*scalar)
    assert same_bits(conformal_factor_array(b, r, x4), g)
    assert same_bits(np.ravel(transform_finite_array(b, r, x4)), rp + x4p)
    assert same_bits(np.ravel(differential_map_array(b, r, x4, dr, dx4)), drp + dx4p)

"""Scale equivariance: weights c lambda_n give Z scaled by c.

Every scale-free quantity (the tail cumulants, the Berry-Esseen ratio, the
support bound and A_M(u) of the normalized tail) must not move with c, and
sigma_M and the Z table must move by exactly the factor c, over the whole
float range: the scale enters each routine as one factor, never through its
powers.
"""

import numpy as np
import pytest

from gammasum.cumulants import be_condition_ratio, cumulants, sigma_M, support_lower_bound
from gammasum.levy import re_log_cf
from gammasum.pipeline import PipelineConfig, z_cdf
from gammasum.weights import ExplicitWeights, GammaSumSpec, PowerLawWeights

SCALES = (1e-300, 1e-150, 1e-20, 1e20, 1e150, 1e300)
LIST = (1.0, 0.8, 0.55, 0.5, 0.3, 0.2, 0.12, 0.1, 0.07, 0.05)


def power_law(c):
    return GammaSumSpec(r=0.7, weights=PowerLawWeights(gamma=0.75, scale=c))


def explicit(c):
    return GammaSumSpec(r=1.5, weights=ExplicitWeights(tuple(c * v for v in LIST)))


FAMILIES = pytest.mark.parametrize("family", [power_law, explicit], ids=["power_law", "explicit"])


def scale_free_values(spec, m):
    return (
        *cumulants(spec, m, 8).kappa,
        be_condition_ratio(spec, m),
        support_lower_bound(spec, m),
        *(re_log_cf(spec, m, u) for u in (0.3, 1.0, 4.0)),
    )


@FAMILIES
@pytest.mark.parametrize("c", SCALES)
def test_scale_free_quantities_do_not_move(family, c):
    for m in (1, 3, 6):
        want = scale_free_values(family(1.0), m)
        assert scale_free_values(family(c), m) == pytest.approx(want, rel=1e-13)
        assert sigma_M(family(c), m) / c == pytest.approx(sigma_M(family(1.0), m), rel=1e-15)


@FAMILIES
def test_z_table_scales_with_c(family):
    base = family(1.0)
    grid = np.linspace(-8.0, 8.0, 401) * sigma_M(base, 1)
    want = z_cdf(PipelineConfig(spec=base, M=4, N=5, grid=grid))
    for c in SCALES:
        got = z_cdf(PipelineConfig(spec=family(c), M=4, N=5, grid=c * grid))
        np.testing.assert_allclose(got.cdf, want.cdf, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(c * got.pdf, want.pdf, rtol=0.0, atol=1e-12)

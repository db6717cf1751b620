"""Levy tail density, cumulants via integration, and the A_M log-sum.

Oracles: chunked long direct sums for the n-series, adaptive quadrature of
(1 - cos(ux)) against the density for the log-CF identity, hand-evaluable
single-weight cases, and the closed-form cumulants (themselves verified
against an mpmath oracle elsewhere) as the dual route.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from gammasum.cumulants import cumulants, sigma_M
from gammasum.errors import DomainError, NumericalError
from gammasum.levy import (
    LevyTailDensity,
    _exp_power_sum,
    _log1p_power_tail,
    cumulant_via_integral,
    levy_density,
    levy_tail_density,
    re_log_cf,
)
from gammasum.weights import (
    ExplicitWeights,
    GammaSumSpec,
    make_power_law_normalized,
)


def reference_spec():
    return make_power_law_normalized(gamma=0.75, r=0.5)


def brute_exp_power_sum(a, gamma, start, n_terms):
    """Direct sum of exp(-a n^gamma), chunked, fsum-accumulated."""
    partials = []
    n = start
    remaining = n_terms
    while remaining > 0:
        c = min(2_000_000, remaining)
        idx = np.arange(n, n + c, dtype=float)
        partials.append(float(np.exp(-a * idx**gamma).sum()))
        n += c
        remaining -= c
    return math.fsum(partials)


def brute_log1p_sum(b, gamma, start, n_terms):
    partials = []
    n = start
    remaining = n_terms
    while remaining > 0:
        c = min(2_000_000, remaining)
        idx = np.arange(n, n + c, dtype=float)
        partials.append(float(np.log1p(b * idx ** (-2.0 * gamma)).sum()))
        n += c
        remaining -= c
    return math.fsum(partials)


class TestExpPowerSum:
    # (a, gamma, n_terms) chosen so the brute tail beyond n_terms is < 1e-14
    # of the total: a * n_terms^gamma > 45 in every case.
    CASES = [
        (0.001, 0.75, 4_000_000),
        (0.05, 0.75, 200_000),
        (0.3, 0.75, 10_000),
        (2.0, 0.75, 100),
        (0.05, 0.6, 100_000),
        (0.3, 0.9, 300),
        (0.001, 1.0, 60_000),
        (0.5, 1.0, 200),
        (0.2, 1.5, 60),
    ]

    @pytest.mark.parametrize("a,gamma,n_terms", CASES)
    def test_against_long_direct_sum(self, a, gamma, n_terms):
        got = _exp_power_sum(a, gamma, 1)
        want = brute_exp_power_sum(a, gamma, 1, n_terms)
        assert got == pytest.approx(want, rel=1e-11)

    def test_start_offset(self):
        got = _exp_power_sum(0.05, 0.75, 37)
        want = brute_exp_power_sum(0.05, 0.75, 37, 200_000)
        assert got == pytest.approx(want, rel=1e-11)

    def test_large_a_underflows_to_zero(self):
        got = _exp_power_sum(2000.0, 0.75, 1)
        assert got == 0.0

    @given(
        st.floats(1e-3, 5.0), st.floats(0.55, 2.0), st.integers(1, 50)
    )
    @settings(max_examples=30, deadline=None)
    def test_positive_and_decreasing_in_start(self, a, gamma, start):
        v0 = _exp_power_sum(a, gamma, start)
        v1 = _exp_power_sum(a, gamma, start + 1)
        assert v0 >= v1 >= 0.0


class TestLog1pPowerTail:
    def test_against_long_direct_sum_fast_decay(self):
        # 2*gamma = 2.5 decays fast enough for an honest brute comparison
        for b in (0.3, 4.0, 250.0):
            got = _log1p_power_tail(b, 1.25, 1)
            want = brute_log1p_sum(b, 1.25, 1, 4_000_000)
            assert got == pytest.approx(want, rel=1e-9)

    def test_zero_b(self):
        assert _log1p_power_tail(0.0, 0.75, 5) == 0.0


class TestLevyDensity:
    def test_single_weight_hand_value(self):
        spec = GammaSumSpec(r=1.0, weights=ExplicitWeights((1.0,)), normalized=True)
        d = levy_tail_density(spec, 1)
        assert d.sigma_M == pytest.approx(1.0, rel=1e-14)
        assert levy_density(d, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-13)

    def test_power_law_against_long_sum(self):
        spec = reference_spec()
        m = 10
        d = levy_tail_density(spec, m)
        sig = sigma_M(spec, m)
        c_scale = spec.weights.scale
        for x in (0.5, 0.05, 1e-3):
            a = spec.r * x * sig / c_scale
            n_terms = int(min(6_000_000, (50.0 / a) ** (1.0 / 0.75))) + 10
            want = (spec.r / x) * brute_exp_power_sum(a, 0.75, m, n_terms)
            assert levy_density(d, x) == pytest.approx(want, rel=1e-10)

    def test_rapid_decay_at_large_x(self):
        d = levy_tail_density(reference_spec(), 10)
        assert 0.0 <= levy_density(d, 50.0) < 1e-60

    def test_domain(self):
        d = levy_tail_density(reference_spec(), 5)
        for bad in (0.0, -1.0):
            with pytest.raises(DomainError):
                levy_density(d, bad)

    def test_string_point_rejected(self):
        d = levy_tail_density(reference_spec(), 5)
        with pytest.raises(DomainError):
            levy_density(d, "a")

    def test_bool_point_rejected(self):
        # True is not the point x = 1
        d = levy_tail_density(reference_spec(), 5)
        with pytest.raises(DomainError):
            levy_density(d, True)

    @given(st.floats(0.01, 20.0))
    @settings(max_examples=40, deadline=None)
    def test_nonnegative(self, x):
        d = levy_tail_density(reference_spec(), 3)
        assert levy_density(d, x) >= 0.0


class TestCumulantViaIntegral:
    def test_second_cumulant_is_one(self):
        spec = reference_spec()
        for m in (1, 5, 10):
            assert cumulant_via_integral(spec, m, 2) == pytest.approx(1.0, abs=1e-8)
        geo = GammaSumSpec(
            r=0.5,
            weights=ExplicitWeights(tuple(2.0 ** -(n + 1) for n in range(40))),
            normalized=False,
        )
        assert cumulant_via_integral(geo, 3, 2) == pytest.approx(1.0, abs=1e-8)

    def test_matches_closed_form(self):
        # dual-route check: quadrature of the Levy integral against the
        # zeta-tail closed form, k = 2..6 at several truncations
        spec = reference_spec()
        for m in (1, 2, 5, 10):
            tc = cumulants(spec, m, 6)
            for k in range(2, 7):
                got = cumulant_via_integral(spec, m, k)
                assert got == pytest.approx(tc.kappa_k(k), rel=1e-7)

    def test_single_weight_third_cumulant(self):
        for r in (0.5, 2.0):
            lam = 0.7
            spec = GammaSumSpec(r=r, weights=ExplicitWeights((lam,)))
            got = cumulant_via_integral(spec, 1, 3)
            assert got == pytest.approx(2.0 / math.sqrt(r), rel=1e-8)

    def test_order_domain(self):
        with pytest.raises(DomainError):
            cumulant_via_integral(reference_spec(), 5, 1)

    def test_inaccurate_quadrature_is_numerical(self, monkeypatch):
        # quad reporting an error estimate above 1e-9 must not pass silently
        monkeypatch.setattr("gammasum.levy.quad", lambda *a, **kw: (0.5, 1e-6))
        with pytest.raises(NumericalError, match="quadrature reached only 2.000e-06"):
            cumulant_via_integral(reference_spec(), 5, 2)


class TestReLogCf:
    def test_zero_frequency(self):
        assert re_log_cf(reference_spec(), 5, 0.0) == 0.0

    def test_single_weight_closed_form(self):
        spec = GammaSumSpec(r=1.0, weights=ExplicitWeights((1.0,)), normalized=True)
        for u in (0.5, 1.0, 3.0):
            want = 0.5 * math.log1p(u * u)
            assert re_log_cf(spec, 1, u) == pytest.approx(want, rel=1e-13)

    def test_against_long_sum_fast_decay(self):
        spec = make_power_law_normalized(gamma=1.25, r=0.5)
        m = 3
        sig = sigma_M(spec, m)
        b = 4.0 * spec.weights.scale**2 / (spec.r**2 * sig**2)
        want = 0.5 * spec.r * brute_log1p_sum(b, 1.25, m, 4_000_000)
        assert re_log_cf(spec, m, 2.0) == pytest.approx(want, rel=1e-9)

    def test_one_minus_cos_integral_identity(self):
        # A_M(u) = integral of (1 - cos ux) against the tail Levy density
        spec = reference_spec()
        m = 5
        d = levy_tail_density(spec, m)

        def oracle(u):
            f = lambda x: (1.0 - math.cos(u * x)) * levy_density(d, x)
            v1, _ = quad(f, 0.0, 1.0, epsabs=1e-9, epsrel=1e-9, limit=400)
            v2, _ = quad(f, 1.0, 60.0, epsabs=1e-9, epsrel=1e-9, limit=400)
            return v1 + v2

        for u in (0.5, 1.0, 2.0, 5.0):
            assert re_log_cf(spec, m, u) == pytest.approx(oracle(u), abs=1e-7)

    def test_increasing_in_abs_u(self):
        spec = reference_spec()
        a1, a2 = re_log_cf(spec, 10, 1.0), re_log_cf(spec, 10, 2.0)
        assert 0.0 < a1 < a2
        assert re_log_cf(spec, 10, -2.0) == pytest.approx(a2, rel=1e-14)

    def test_infinite_frequency_rejected(self):
        with pytest.raises(DomainError):
            re_log_cf(reference_spec(), 5, math.inf)

    def test_overflowing_frequency_is_numerical(self):
        # u * u leaves the float range, so b = u^2 / (r s_2) reads inf
        with pytest.raises(NumericalError, match="overflows"):
            re_log_cf(reference_spec(), 5, 1e200)

    def test_direct_sum_budget_fails_early(self):
        # u = 1e6 would need about 2.6e8 explicit terms below the series cut
        with pytest.raises(NumericalError, match="budget"):
            re_log_cf(reference_spec(), 5, 1e6)

    def test_overflowing_explicit_frequency_is_numerical(self):
        spec = GammaSumSpec(r=1.0, weights=ExplicitWeights((1.0, 0.5)))
        with pytest.raises(NumericalError, match="overflows"):
            re_log_cf(spec, 1, 1e200)

    @given(st.floats(-30.0, 30.0))
    @settings(max_examples=40, deadline=None)
    def test_cf_modulus_bound(self, u):
        # exp(-A_M) is the modulus of a characteristic function
        a = re_log_cf(reference_spec(), 5, u)
        assert a >= 0.0
        assert math.exp(-a) <= 1.0

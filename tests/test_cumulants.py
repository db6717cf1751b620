"""Tail variance, cumulants, Berry-Esseen bound, and the normality condition.

The normalized tail is Y_tilde_M = (1/sigma_M) sum_{n>=M} lambda_n (eta_n - 1)
with cumulants kappa_{k,M} = (k-1)! / (r^{k-1} sigma_M^k) * S_k(M).

Oracles here: mpmath's zeta (an implementation independent of this package),
brute-force 1e7-term summation, and exact geometric closed forms for the
lambda_n = 2^-(n+1) counterexample.
"""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gammasum.cumulants
from gammasum.cumulants import (
    BERRY_ESSEEN_CONSTANT,
    TailCumulants,
    be_condition_ratio,
    berry_esseen_bound,
    cumulants,
    sigma_M,
    support_lower_bound,
)
from gammasum.errors import DegenerateTailError, DomainError, NumericalError
from gammasum.weights import (
    ExplicitWeights,
    GammaSumSpec,
    PowerLawWeights,
    make_power_law_normalized,
    tail_power_sum,
)

from oracles import brute_zeta_tail


def reference_spec():
    return make_power_law_normalized(gamma=0.75, r=0.5)


def geometric_spec(n_terms: int = 60, r: float = 0.5) -> GammaSumSpec:
    """lambda_n = 2^-(n+1); 60 terms leave a relative remainder ~ 4^-50."""
    return GammaSumSpec(
        r=r, weights=ExplicitWeights(values=tuple(2.0 ** -(n + 1) for n in range(1, n_terms + 1)))
    )


def mpmath_kappa(r, gamma, scale, m, k):
    """kappa_{k,M} for a power law via mpmath zeta tails (independent oracle)."""
    with mpmath.workdps(40):
        s2 = scale**2 * (mpmath.zeta(2 * gamma) - mpmath.nsum(lambda n: n ** (-2 * gamma), [1, m - 1])) if m > 1 else scale**2 * mpmath.zeta(2 * gamma)
        sk = scale**k * (mpmath.zeta(k * gamma) - mpmath.nsum(lambda n: n ** (-k * gamma), [1, m - 1])) if m > 1 else scale**k * mpmath.zeta(k * gamma)
        sigma = mpmath.sqrt(s2 / r)
        val = mpmath.factorial(k - 1) / (r ** (k - 1) * sigma**k) * sk
        return float(val)


class TestSigmaM:
    def test_normalized_spec_m1_is_one(self):
        assert sigma_M(reference_spec(), 1) == pytest.approx(1.0, rel=1e-12)

    def test_reference_m5_against_brute_sum(self):
        spec = reference_spec()
        c = spec.weights.scale
        oracle = math.sqrt(c**2 * brute_zeta_tail(1.5, start=5) / 0.5)
        assert sigma_M(spec, 5) == pytest.approx(oracle, abs=1e-9)

    def test_geometric_20_term_closed_form(self):
        lam = tuple(2.0 ** -(n + 1) for n in range(1, 21))
        spec = GammaSumSpec(r=1.0, weights=ExplicitWeights(values=lam))
        assert sigma_M(spec, 1) == pytest.approx(
            math.sqrt((1.0 - 4.0**-20) / 12.0), rel=1e-14
        )

    def test_strictly_decreasing_in_m(self):
        spec = reference_spec()
        vals = [sigma_M(spec, m) for m in range(1, 40)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_exhausted_explicit_list_raises(self):
        spec = GammaSumSpec(r=1.0, weights=ExplicitWeights(values=(1.0, 0.5)))
        with pytest.raises(DegenerateTailError):
            sigma_M(spec, 3)


class TestCumulants:
    def test_kappa2_is_one_for_any_spec(self):
        for spec in (reference_spec(), geometric_spec(), GammaSumSpec(r=3.0, weights=PowerLawWeights(gamma=0.8, scale=0.7))):
            for m in (1, 2, 7):
                tc = cumulants(spec, m, 4)
                assert tc.kappa[0] == pytest.approx(1.0, abs=1e-10)

    @given(gamma=st.floats(0.52, 2.5), r=st.floats(0.1, 8.0), m=st.integers(1, 30))
    @settings(max_examples=50, deadline=None)
    def test_kappa2_is_one_property(self, gamma, r, m):
        spec = GammaSumSpec(r=r, weights=PowerLawWeights(gamma=gamma, scale=1.1))
        assert cumulants(spec, m, 3).kappa[0] == pytest.approx(1.0, abs=1e-10)

    def test_reference_m2_k3_zeta_form(self):
        # kappa_{k,M} = 2^{k-1} (k-1)! sigma_M^{-k} C^k (zeta(k g) - sum_{n<M}),
        # the r = 1/2 closed form; at M=2, k=3 the bracket is zeta(9/4) - 1.
        spec = reference_spec()
        c = spec.weights.scale
        sig = sigma_M(spec, 2)
        with mpmath.workdps(30):
            expected = 4.0 * 2.0 * sig**-3 * c**3 * float(mpmath.zeta(2.25) - 1.0)
        tc = cumulants(spec, 2, 3)
        assert tc.kappa[1] == pytest.approx(expected, rel=1e-12)

    def test_against_mpmath_oracle_grid(self):
        spec = reference_spec()
        for m in (1, 2, 5, 10, 20):
            tc = cumulants(spec, m, 6)
            for k in range(3, 7):
                oracle = mpmath_kappa(0.5, 0.75, spec.weights.scale, m, k)
                assert tc.kappa[k - 2] == pytest.approx(oracle, rel=1e-9)

    def test_against_brute_force_sums(self):
        spec = reference_spec()
        c = spec.weights.scale
        r = 0.5
        for m in (1, 5):
            sig = math.sqrt(c**2 * brute_zeta_tail(1.5, start=m) / r)
            for k in (3, 6):
                sk = c**k * brute_zeta_tail(0.75 * k, start=m)
                oracle = math.factorial(k - 1) / (r ** (k - 1) * sig**k) * sk
                assert cumulants(spec, m, 6).kappa[k - 2] == pytest.approx(
                    oracle, rel=1e-9
                )

    def test_all_kappa_positive(self):
        tc = cumulants(reference_spec(), 3, 12)
        assert all(k > 0.0 for k in tc.kappa)

    def test_power_law_decay_rate_in_m(self):
        # kappa_{k,M} ~ C_k M^{1-k/2}: kappa_3 halves per 4x M, kappa_4 quarters.
        spec = reference_spec()
        k3 = [cumulants(spec, m, 4).kappa[1] for m in (10, 40, 160)]
        assert k3[0] / k3[1] == pytest.approx(2.0, rel=0.15)
        assert k3[1] / k3[2] == pytest.approx(2.0, rel=0.15)
        k4 = [cumulants(spec, m, 4).kappa[2] for m in (10, 40, 160)]
        assert k4[0] / k4[1] == pytest.approx(4.0, rel=0.15)

    def test_non_increasing_in_m_for_power_law(self):
        spec = reference_spec()
        for k in (3, 4, 5):
            vals = [cumulants(spec, m, 5).kappa[k - 2] for m in (1, 2, 5, 10, 30)]
            assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_k_validation(self):
        spec = reference_spec()
        with pytest.raises(DomainError):
            cumulants(spec, 1, 2)
        with pytest.raises(DomainError):
            cumulants(spec, 1, 21)
        tc = cumulants(spec, 1, 20)
        assert len(tc.kappa) == 19

    def test_scale_free(self):
        # kappa does not depend on the weights' scale; at scale 1e100 the raw
        # power sum S_4 = 1e400 zeta(3) is out of float range
        kappas = [
            cumulants(GammaSumSpec(r=0.5, weights=PowerLawWeights(0.75, scale)), 1, 4).kappa
            for scale in (1e-100, 1.0, 1e100)
        ]
        assert kappas[0] == kappas[1] == kappas[2]
        assert all(math.isfinite(v) for v in kappas[1])

    def test_near_divergent_power_law_at_huge_m(self):
        # s_2 = zs(2 gamma, M), about M / (2 gamma - 1) = 4.5e32 here: s_2^10
        # leaves the float range, while kappa_20 is 4.0e-291
        gamma, m = 0.5 + 2.0**-52, 10**17
        tc = cumulants(GammaSumSpec(r=1.0, weights=PowerLawWeights(gamma, 1.0)), m, 20)
        with mpmath.workdps(60):
            g, q = mpmath.mpf(gamma), mpmath.mpf(m)
            s2 = mpmath.zeta(2 * g, q)
            for k in (3, 20):
                want = mpmath.factorial(k - 1) * mpmath.zeta(k * g, q) / s2 ** (k / 2)
                assert tc.kappa_k(k) == pytest.approx(float(want), rel=1e-13)

    def test_explicit_list_scale_free(self):
        # lists are scaled by their first tail weight
        base = (1.0, 0.6, 0.25, 0.1)
        ref = cumulants(GammaSumSpec(r=0.5, weights=ExplicitWeights(base)), 2, 6).kappa
        for scale in (1e-150, 1e150):
            spec = GammaSumSpec(r=0.5, weights=ExplicitWeights(tuple(scale * v for v in base)))
            assert cumulants(spec, 2, 6).kappa == pytest.approx(ref, rel=1e-14)

    def test_single_term_tail_closed_form(self):
        # Tail of one weight lambda: sigma_M = lambda/sqrt(r), kappa_3 = 2/sqrt(r).
        for r, lam in ((0.5, 0.3), (2.0, 1.7)):
            spec = GammaSumSpec(r=r, weights=ExplicitWeights(values=(1.0, lam) if lam <= 1 else (lam, lam)))
            m = 2
            assert sigma_M(spec, m) == pytest.approx(lam / math.sqrt(r), rel=1e-13)
            assert cumulants(spec, m, 3).kappa[1] == pytest.approx(
                2.0 / math.sqrt(r), rel=1e-13
            )


class TestPowerSumReads:
    def test_one_read_of_s2_to_sK(self, monkeypatch):
        # sigma_M comes from the same read of s_2..s_K as the ratios
        seen = []

        def counting(spec, m, k):
            seen.append(k if np.ndim(k) == 0 else tuple(int(j) for j in k))
            return tail_power_sum(spec, m, k)

        monkeypatch.setattr(gammasum.cumulants, "tail_power_sum", counting)
        for K in (3, 20):
            seen.clear()
            cumulants(reference_spec(), 5, K)
            assert seen == [tuple(range(2, K + 1))]
        seen.clear()
        be_condition_ratio(reference_spec(), 5)
        assert seen == [(2, 3)]
        seen.clear()
        berry_esseen_bound(reference_spec(), 5)
        assert seen == [(2, 3)]

    def test_first_overflowing_order_is_named(self):
        # r = 1e-300: kappa_k carries r^(1 - k/2), which first overflows at k = 5
        spec = GammaSumSpec(r=1e-300, weights=PowerLawWeights(gamma=0.75, scale=1.0))
        assert cumulants(spec, 1, 4).kappa_k(4) < math.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="kappa_5 overflows at M = 1"):
                cumulants(spec, 1, 20)


class TestBerryEsseen:
    def test_bound_is_constant_times_kappa3(self):
        spec = reference_spec()
        tc = cumulants(spec, 10, 3)
        assert berry_esseen_bound(spec, 10) == pytest.approx(
            BERRY_ESSEEN_CONSTANT * tc.kappa[1], rel=1e-15
        )
        assert BERRY_ESSEEN_CONSTANT == 0.7056

    def test_half_rate_between_m10_and_m40(self):
        spec = reference_spec()
        ratio = berry_esseen_bound(spec, 10) / berry_esseen_bound(spec, 40)
        assert ratio == pytest.approx(2.0, rel=0.15)

    def test_geometric_bound_does_not_decay(self):
        spec = geometric_spec()
        bounds = [berry_esseen_bound(spec, m) for m in range(1, 11)]
        assert max(bounds) / min(bounds) < 1.01

    def test_condition_ratio_decays_for_power_law(self):
        spec = reference_spec()
        assert be_condition_ratio(spec, 100) < be_condition_ratio(spec, 10)

    def test_condition_ratio_constant_for_geometric(self):
        # lambda_n = 2^-(n+1): S2(M) = 4^-M/3 and S3(M) = 8^-M/7, so the
        # ratio S3/S2^{3/2} = 3^{3/2}/7 for every M (geometric self-similarity).
        spec = geometric_spec()
        expected = 3.0**1.5 / 7.0
        ratios = [be_condition_ratio(spec, m) for m in range(1, 9)]
        for val in ratios:
            assert val == pytest.approx(expected, rel=1e-12)

    def test_single_weight_ratio_is_one(self):
        spec = GammaSumSpec(r=1.0, weights=ExplicitWeights(values=(1.0,)))
        assert be_condition_ratio(spec, 1) == pytest.approx(1.0, rel=1e-15)


class TestSupportBound:
    def test_geometric_support_is_minus_sqrt_3r(self):
        for r in (0.5, 1.0, 2.0):
            spec = geometric_spec(r=r)
            for m in range(1, 11):
                assert support_lower_bound(spec, m) == pytest.approx(
                    -math.sqrt(3.0 * r), abs=1e-12
                )

    def test_power_law_gamma_below_one_unbounded(self):
        assert support_lower_bound(reference_spec(), 1) == -math.inf

    def test_summable_power_law_matches_brute_force(self):
        spec = GammaSumSpec(r=2.0, weights=PowerLawWeights(gamma=1.5, scale=1.0))
        s1 = brute_zeta_tail(1.5, start=3)
        s2 = brute_zeta_tail(3.0, start=3)
        assert support_lower_bound(spec, 3) == pytest.approx(
            -s1 / math.sqrt(s2 / 2.0), rel=1e-10
        )


class TestTailCumulantsType:
    def test_fields_and_kappa_accessor(self):
        tc = cumulants(reference_spec(), 5, 6)
        assert isinstance(tc, TailCumulants)
        assert tc.M == 5
        assert tc.sigma_M == pytest.approx(sigma_M(reference_spec(), 5), rel=1e-15)
        assert len(tc.kappa) == 5
        assert tc.kappa_k(2) == tc.kappa[0]
        assert tc.kappa_k(6) == tc.kappa[4]
        with pytest.raises(DomainError):
            tc.kappa_k(7)

"""Levy tail density, cumulants via integration, and the log-CF kernel.

Oracles: chunked long direct sums for the n-series and its geometric closed
form at gamma = 1, 40-digit mpmath sums of the log-CF cut far from the
kernel's own cut, adaptive quadrature of (1 - cos(ux)) against the density
for the log-CF identity, hand-evaluable single-weight cases, and the
closed-form cumulants (themselves verified against an mpmath oracle
elsewhere) as the dual route.
"""

import math
import time
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

import gammasum.levy
from gammasum.cumulants import cumulants, sigma_M
from gammasum.errors import DomainError, NumericalError
from gammasum.levy import (
    _EM_DERIV_CAP,
    LevyTailDensity,
    _exp_power_sum,
    cumulant_via_integral,
    levy_density,
    levy_tail_density,
    log_cf,
    re_log_cf,
)
from gammasum.weights import (
    ExplicitWeights,
    GammaSumSpec,
    PowerLawWeights,
    make_power_law_normalized,
    tail_power_sum,
)


def sweep_like_weights(n=2000, seed=3):
    """n decreasing weights n^-g times a random factor in [0.5, 1.5]."""
    rng = np.random.default_rng(seed)
    idx = np.arange(1, n + 1, dtype=float)
    return np.sort(idx ** -rng.uniform(0.6, 1.0) * rng.uniform(0.5, 1.5, n))[::-1].tolist()


def reference_spec():
    return make_power_law_normalized(gamma=0.75, r=0.5)


def steep_spec():
    """gamma = 100, scale 1e300: at M = 1300, M^gamma leaves the float range."""
    return GammaSumSpec(r=1.0, weights=PowerLawWeights(gamma=100.0, scale=1e300))


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


def kernel_exp_power_sum(a, gamma, start):
    """sum_{n >= start} exp(-a n^gamma) through the kernel's array route at
    the one point z0 = a start^gamma."""
    return float(_exp_power_sum(np.array([a * start**gamma]), gamma, start)[0])


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
        got = kernel_exp_power_sum(a, gamma, 1)
        want = brute_exp_power_sum(a, gamma, 1, n_terms)
        assert got == pytest.approx(want, rel=1e-11)

    def test_start_offset(self):
        got = kernel_exp_power_sum(0.05, 0.75, 37)
        want = brute_exp_power_sum(0.05, 0.75, 37, 200_000)
        assert got == pytest.approx(want, rel=1e-11)

    @pytest.mark.parametrize("gamma,start", [(0.6, 1), (1.0, 5), (3.0, 200)])
    def test_many_points_match_one_at_a_time(self, gamma, start):
        # 400 points hold 69k-536k direct terms together, so blocks of 2^16
        # terms end inside a point's run of terms
        z0 = np.geomspace(1e-3, 700.0, 400)
        got = _exp_power_sum(z0, gamma, start)
        one = [_exp_power_sum(z0[i : i + 1], gamma, start)[0] for i in range(z0.size)]
        np.testing.assert_allclose(got, one, rtol=1e-15, atol=0.0)

    def test_large_a_underflows_to_zero(self):
        got = kernel_exp_power_sum(2000.0, 0.75, 1)
        assert got == 0.0

    def test_geometric_closed_form_at_gamma_one(self):
        # sum_{n >= 5} e^(-a n) = e^(-5a) / (1 - e^(-a)); the largest a comes
        # first, so a route whose run time grows like 1/a fails before it stalls
        for a in (0.1, 1e-3, 1e-5, 1e-7, 1e-9):
            want = math.exp(-5.0 * a) / -math.expm1(-a)
            assert kernel_exp_power_sum(a, 1.0, 5) == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("gamma", range(1, 21))
    def test_near_the_euler_maclaurin_switch(self, gamma):
        # a puts the log-derivative a gamma L^(gamma-1) at the cut L = max(start,
        # 64) at or below the cap, where only the cap's check at the e^-36
        # point of the tail keeps Euler-Maclaurin away from a steep tail
        for start in (1, 64, 1000):
            for f in (1.0, 0.5, 0.1, 1e-3):
                a = f * _EM_DERIV_CAP / (gamma * max(start, 64) ** (gamma - 1.0))
                # brute terms up to a n^gamma = a start^gamma + 50
                end = math.ceil((start**gamma + 50.0 / a) ** (1.0 / gamma))
                want = brute_exp_power_sum(a, gamma, start, end - start + 1)
                got = kernel_exp_power_sum(a, float(gamma), start)
                assert got == pytest.approx(want, rel=1e-13)

    @given(
        st.floats(1e-3, 5.0), st.floats(0.55, 2.0), st.integers(1, 50)
    )
    @settings(max_examples=30, deadline=None)
    def test_positive_and_decreasing_in_start(self, a, gamma, start):
        v0 = kernel_exp_power_sum(a, gamma, start)
        v1 = kernel_exp_power_sum(a, gamma, start + 1)
        assert v0 >= v1 >= 0.0


def mp_zeta(s, q):
    """mpmath's Hurwitz zeta(s, q), which cancels about s log10(q + 1)
    digits, at 40 digits beyond that."""
    with mpmath.workdps(40 + math.ceil(s * math.log10(q + 1))):
        return mpmath.zeta(s, q)


def mp_log_cf(spec, lo, hi, u):
    """log_cf at one u with 40 digits: explicit terms up to a cut where
    |w_n| <= 1/10 (at least 300, far from the kernel's cut), then the
    series sum_j (i t)^j zeta(j gamma, cut) / j to 1e-42."""
    w = spec.weights
    with mpmath.workdps(40):
        r = mpmath.mpf(spec.r)
        u = mpmath.mpf(u)
        if isinstance(w, PowerLawWeights):
            t = u * mpmath.mpf(w.scale) / r
            if hi is None:
                cut = max(lo, 300, math.ceil(float(10 * abs(t)) ** (1.0 / w.gamma)))
            else:
                cut = hi
            lam = [mpmath.mpf(w.scale) * mpmath.mpf(n) ** -w.gamma for n in range(lo, cut)]
        else:
            stop = len(w.values) + 1 if hi is None else hi
            lam = [mpmath.mpf(v) for v in w.values[lo - 1 : stop - 1]]
        total = mpmath.mpc(0)
        for l in lam:
            wn = u * l / r
            total += -r * mpmath.log(1 - 1j * wn) - 1j * r * wn
        if isinstance(w, PowerLawWeights) and hi is None:
            for j in range(2, 200):
                term = r * (1j * t) ** j * mp_zeta(j * w.gamma, cut) / j
                total += term
                if abs(term) < mpmath.mpf(10) ** -42 * abs(total):
                    break
        return complex(total)


class TestLogCf:
    def test_against_long_direct_sum_fast_decay(self):
        # 2*gamma = 2.5 decays fast enough for an honest brute comparison;
        # at r = 1 and scale 1, -2 Re log_cf is sum log1p(u^2 n^(-2 gamma))
        spec = GammaSumSpec(r=1.0, weights=PowerLawWeights(gamma=1.25, scale=1.0))
        for b in (0.3, 4.0, 250.0):
            got = -2.0 * log_cf(spec, 1, None, math.sqrt(b)).real
            want = brute_log1p_sum(b, 1.25, 1, 4_000_000)
            assert got == pytest.approx(want, rel=1e-9)

    def test_zero_frequency(self):
        lists = GammaSumSpec(r=0.5, weights=ExplicitWeights((1.0, 0.5, 0.25)))
        for spec in (reference_spec(), lists):
            for lo, hi in ((5, None), (1, 3), (1, None)):
                assert log_cf(spec, lo, hi, 0.0) == 0.0
        assert np.all(log_cf(reference_spec(), 5, None, np.zeros(3)) == 0.0)

    @staticmethod
    def assert_close(spec, lo, hi, u, *got):
        # the imaginary part of each explicit term, r (atan w - w), may be
        # off by about 1e-16 r |w| in absolute terms (see log_cf); those
        # terms are n < max(lo, 64) for a power-law tail past its edge
        want = mp_log_cf(spec, lo, hi, u)
        w = spec.weights
        if isinstance(w, PowerLawWeights):
            stop = max(lo, 64) if hi is None else hi
            lam = w.scale * np.arange(lo, stop, dtype=float) ** -w.gamma
        else:
            lam = np.asarray(w.values[lo - 1 : None if hi is None else hi - 1])
        slack = 1e-15 * abs(u) * lam.sum()
        for g in got:
            assert g.real == pytest.approx(want.real, rel=1e-13)
            assert g.imag == pytest.approx(want.imag, rel=1e-12, abs=slack)

    # (gamma, r, M, u): series-only tails past the cut, long explicit runs,
    # and tails starting above the cut (M = 200)
    POWER_CASES = [
        (0.6, 0.5, 5, (0.05, 2.0, 8.0)),
        (0.75, 0.5, 1, (0.3, 5.0)),
        (0.75, 2.0, 200, (1.0, 40.0)),
        (1.5, 0.05, 3, (0.01, 1.0, 300.0)),
        (1.5, 10.0, 200, (0.5, 2000.0)),
    ]

    @pytest.mark.parametrize("gamma,r,m,us", POWER_CASES)
    def test_power_tail_against_mpmath(self, gamma, r, m, us):
        spec = GammaSumSpec(r=r, weights=PowerLawWeights(gamma=gamma, scale=0.8))
        got = log_cf(spec, m, None, np.array(us))
        assert got.shape == (len(us),)
        for g, u in zip(got, us):
            self.assert_close(spec, m, None, u, g, log_cf(spec, m, None, u))

    def test_power_head_against_mpmath(self):
        spec = make_power_law_normalized(gamma=0.75, r=0.5)
        us = np.array([-3.0, 0.2, 7.0])
        for g, u in zip(log_cf(spec, 2, 9, us), us):
            self.assert_close(spec, 2, 9, u, g)

    @pytest.mark.parametrize("lo,hi", [(1, 4), (4, None), (1, None), (2, 50)])
    def test_list_ranges_against_mpmath(self, lo, hi):
        values = tuple(1.0 / (1.0 + 0.3 * n) ** 2 for n in range(40))
        spec = GammaSumSpec(r=1.5, weights=ExplicitWeights(values))
        us = np.array([0.5, -4.0, 60.0])
        for g, u in zip(log_cf(spec, lo, hi, us), us):
            self.assert_close(spec, lo, hi, u, g)

    def test_steep_power_law_is_one_weight(self):
        # gamma = 1e12 leaves lambda_1 alone: lambda_cut underflows to 0, and
        # the series coefficients zs(j gamma, cut) are exactly 1
        spec = GammaSumSpec(r=1.0, weights=PowerLawWeights(gamma=1e12, scale=1.0))
        want = complex(-0.5 * math.log1p(4.0), math.atan(2.0) - 2.0)
        assert log_cf(spec, 1, None, 2.0) == pytest.approx(want, rel=1e-15)
        assert log_cf(spec, 2, None, 2.0) == 0.0

    def test_direct_term_budget(self):
        spec = reference_spec()
        with pytest.raises(NumericalError, match="budget"):
            log_cf(spec, 5, None, np.array([1.0, 1e6]))
        # a head with finite hi never takes the budget: it has no series
        assert math.isfinite(log_cf(spec, 1, 5, 1e6).real)


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

    def test_geometric_closed_form_at_small_x(self):
        # gamma = 1, M = 5: nu(x) = (r/x) e^(-5a) / (1 - e^(-a)), a = r x sigma_5
        # / scale; the largest x comes first, as in the sum's own test
        spec = GammaSumSpec(r=1.0, weights=PowerLawWeights(gamma=1.0, scale=1.0))
        d = levy_tail_density(spec, 5)
        begin = time.perf_counter()
        for x in (1e-1, 1e-3, 1e-5, 1e-7, 1e-9):
            a = x * d.sigma_M
            want = math.exp(-5.0 * a) / -math.expm1(-a) / x
            assert levy_density(d, x) == pytest.approx(want, rel=1e-14)
        assert time.perf_counter() - begin < 1.0

    def test_density_past_float_range_is_numerical(self):
        # gamma = 0.51: (r/x) * sum overflows at x = 1e-150, and the
        # Euler-Maclaurin integral's z^(-1/gamma) at x = 1e-160; a list's
        # r/x overflows at x = 1e-320.  None of them warns.
        power = levy_tail_density(GammaSumSpec(r=1.0, weights=PowerLawWeights(0.51, 1.0)), 5)
        listed = levy_tail_density(GammaSumSpec(r=1.0, weights=ExplicitWeights((1.0, 0.5))), 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for d, x in ((power, 1e-150), (power, 1e-160), (listed, 1e-320)):
                with pytest.raises(NumericalError, match="overflows"):
                    levy_density(d, x)

    def test_steep_tail_past_float_range(self):
        # gamma = 100 at M = 1300: M^gamma = 2.5e311 is past the float range,
        # but the series reads only z0 = x sqrt(r s_2) and the ratios n / M.
        # At n = 1700 the exponent z0 (n / M)^100 is 4e11 z0: 400 terms suffice.
        spec, m = steep_spec(), 1300
        d = levy_tail_density(spec, m)
        z1 = math.sqrt(spec.r * tail_power_sum(spec, m, 2)[1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for x in (0.5, 1.0):
                terms = (math.exp(-x * z1 * (n / m) ** 100.0) for n in range(m, m + 400))
                want = spec.r / x * math.fsum(terms)
                assert levy_density(d, x) == pytest.approx(want, rel=1e-13)
            assert levy_density(d, 1e7) == 0.0  # the first term is e^(-1e7)
            with pytest.raises(NumericalError, match="below"):
                levy_density(d, 1e-306)  # z0 = 2.6e-306 is below the floor

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

    def test_steep_tail_third_cumulant(self):
        spec = steep_spec()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = cumulant_via_integral(spec, 1300, 3)
        assert got == pytest.approx(cumulants(spec, 1300, 3).kappa_k(3), rel=1e-12)

    def test_inaccurate_quadrature_is_numerical(self, monkeypatch):
        # an error of 1e-3 planted on every other node moves the h = 0.05 sum
        # away from the h = 0.1 sum, which never reads those nodes
        density = gammasum.levy._density

        def planted(d, x):
            out = density(d, x)
            out[1::2] *= 1.001
            return out

        monkeypatch.setattr(gammasum.levy, "_density", planted)
        with pytest.raises(NumericalError, match="cumulant rule unresolved"):
            cumulant_via_integral(reference_spec(), 5, 2)

    def test_mass_below_first_node_is_numerical(self):
        # gamma = 0.55, k = 2: x^2 nu(x) ~ x^(2 - 1 - 1/0.55) near 0, so the
        # rule's first node at x = 2e-31 leaves out about 2e-6 of kappa_2
        spec = GammaSumSpec(r=1.0, weights=PowerLawWeights(0.55, 1.0))
        with pytest.raises(NumericalError, match="end terms"):
            cumulant_via_integral(spec, 3, 2)
        assert cumulant_via_integral(spec, 3, 3) == pytest.approx(
            cumulants(spec, 3, 3).kappa_k(3), rel=1e-12
        )

    @pytest.mark.parametrize("gamma,r,m,k", [(1.0, 0.1, 1, 4), (2.0, 0.1, 3, 3)])
    def test_cases_adaptive_quadrature_failed(self, gamma, r, m, k):
        # adaptive quadrature raised NumericalError here, after warning
        spec = GammaSumSpec(r=r, weights=PowerLawWeights(gamma, 1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = cumulant_via_integral(spec, m, k)
        assert got == pytest.approx(cumulants(spec, m, k).kappa_k(k), rel=1e-12)

    def test_domain_against_closed_form(self):
        # the domain the docstring states, at k = 3, 4
        lists = [
            GammaSumSpec(r=r, weights=ExplicitWeights(tuple(sweep_like_weights())))
            for r in (0.5, 2.0)
        ]
        lists.append(GammaSumSpec(r=0.5, weights=ExplicitWeights((1.0, 0.5, 0.25, 0.125))))
        cases = [(spec, m) for spec in lists for m in (1, 3)]
        cases += [
            (GammaSumSpec(r=r, weights=PowerLawWeights(gamma, 1.0)), m)
            for gamma in (0.55, 0.6, 1.0, 2.0, 6.0)
            for r in (0.1, 1.0, 10.0)
            for m in (1, 3, 50, 1000)
        ]
        begin = time.perf_counter()
        worst = 0.0
        for spec, m in cases:
            tc = cumulants(spec, m, 4)
            for k in (3, 4):
                worst = max(worst, abs(cumulant_via_integral(spec, m, k) / tc.kappa_k(k) - 1.0))
        assert worst <= 1e-12
        assert time.perf_counter() - begin < 2.0


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

    def test_steep_tail_against_mpmath(self):
        # the kernel cuts at 161, where w_cut = 0.705; zeta(3 j, 161)
        # underflows in float from j = 49 on, although w_cut^49 = 4e-8 is not
        # negligible, and the scaled coefficients zs(3 j, 161) keep every term
        spec, m, u = GammaSumSpec(r=0.05, weights=PowerLawWeights(3.0, 1.0)), 40, 30.0
        with mpmath.workdps(40):
            sig = mpmath.sqrt(mp_zeta(6.0, m) / mpmath.mpf(spec.r))
            want = -mp_log_cf(spec, m, None, u / sig).real
        assert re_log_cf(spec, m, u) == pytest.approx(want, rel=1e-13)

    def test_steep_tail_against_ratio_sum(self):
        # A_M(u) = (r/2) sum_{n >= M} log1p(u^2 (n / M)^(-2 gamma) / (r s_2));
        # at gamma = 100, M = 1300 the powers of M leave the float range and
        # 400 terms reach (1700 / 1300)^-200 = 5e-24 of the first
        spec, m = steep_spec(), 1300
        s2 = tail_power_sum(spec, m, 2)[1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for u in (0.1, 1.0):
                b = u * u / (spec.r * s2)
                terms = (math.log1p(b * (n / m) ** -200.0) for n in range(m, m + 400))
                want = 0.5 * spec.r * math.fsum(terms)
                assert re_log_cf(spec, m, u) == pytest.approx(want, rel=1e-13)

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

    def test_frequency_just_below_direct_term_budget(self):
        # edge - M = (2b)^(1/(2 gamma)) - M reaches the budget of 2^20 at
        # b = u^2 / (r zeta(2 gamma, M)) = (2^20 + M)^(2 gamma) / 2, where
        # zeta(2 gamma, M) = (c / scale)^2 s_2 is the raw sum of n^(-2 gamma)
        spec, m = reference_spec(), 5
        c, s2 = tail_power_sum(spec, m, 2)
        raw = (c / spec.weights.scale) ** 2 * s2
        u_max = math.sqrt((2**20 + m) ** 1.5 / 2.0 * spec.r * raw)
        a = re_log_cf(spec, m, 0.999 * u_max)
        assert math.isfinite(a) and a > re_log_cf(spec, m, 0.5 * u_max) > 0.0
        with pytest.raises(NumericalError, match="budget"):
            re_log_cf(spec, m, 1.001 * u_max)

    def test_overflowing_normalized_frequency_is_numerical(self):
        # b = u^2 / (r s_2) = 5e19 is finite, but u / sigma_M leaves the
        # float range when the weights are this small
        spec = GammaSumSpec(r=1.0, weights=ExplicitWeights((1e-300, 1e-300)))
        with pytest.raises(NumericalError, match="overflows"):
            re_log_cf(spec, 1, 1e10)

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

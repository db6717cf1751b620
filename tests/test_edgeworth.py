"""Edgeworth index sets, Hermite polynomials, and CDF/PDF evaluation.

Oracles: brute-force tuple enumeration for the index sets, exact integer
Hermite coefficients from the derivative definition (sympy-free, computed
with Python integers), Gauss-Hermite quadrature for moments, and central
finite differences for the CDF/PDF relation.
"""

import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial.hermite_e import hermeroots
from scipy import integrate, special

from gammasum.cumulants import TailCumulants, cumulants
from gammasum.edgeworth import (
    EdgeworthExpansion,
    IndexVector,
    build_expansion,
    edgeworth_cdf,
    edgeworth_pdf,
    enumerate_eta,
    hermite,
    negative_pdf_mass,
)
from gammasum.errors import DomainError
from gammasum.weights import ExplicitWeights, GammaSumSpec, make_power_law_normalized


def brute_eta(n_order):
    """All tuples (k_3..k_N) with 1 <= sum (m-2) k_m <= N-2, by brute filter.

    The per-coordinate range bound (N-2)//(m-2) is implied by the weight
    predicate itself, so the enumeration stays exhaustive.
    """
    if n_order == 2:
        return []
    ranges = [
        range((n_order - 2) // (m - 2) + 1) for m in range(3, n_order + 1)
    ]
    out = []
    for tup in itertools.product(*ranges):
        w = sum((m - 2) * k for m, k in zip(range(3, n_order + 1), tup))
        if 1 <= w <= n_order - 2:
            out.append(tup)
    return sorted(out)


def hermite_coeffs(k):
    """Integer coefficients of H_k (probabilists'), index = power of x."""
    coeffs = [[1], [0, 1]]
    for j in range(1, k):
        prev, cur = coeffs[j - 1], coeffs[j]
        nxt = [0] + cur
        for p, c in enumerate(prev):
            nxt[p] -= j * c
        coeffs.append(nxt)
    return coeffs[k]


def eval_hermite_exact(k, x):
    # exact rational arithmetic: the monomial sum cancels catastrophically in
    # float for k ~ 50, so the oracle must not be evaluated there
    xf = Fraction(x)
    return float(sum(c * xf**p for p, c in enumerate(hermite_coeffs(k))))


def hermite_rows(n, x):
    """H_0(x) .. H_n(x) by the three-term recurrence, one row per degree."""
    rows = [np.ones_like(x), x]
    for k in range(1, n):
        rows.append(x * rows[k] - k * rows[k - 1])
    return np.array(rows)


def reference_cumulants(m=10, K=6):
    return cumulants(make_power_law_normalized(gamma=0.75, r=0.5), m, K)


class TestEnumerateEta:
    def test_known_term_counts(self):
        assert [len(enumerate_eta(n)) for n in (2, 3, 4, 5)] == [0, 1, 3, 6]

    def test_explicit_small_orders(self):
        assert [iv.k for iv in enumerate_eta(3)] == [(1,)]
        assert [iv.k for iv in enumerate_eta(4)] == [(0, 1), (1, 0), (2, 0)]
        n5 = {iv.k for iv in enumerate_eta(5)}
        assert n5 == {
            (0, 0, 1),
            (0, 1, 0),
            (1, 0, 0),
            (1, 1, 0),
            (2, 0, 0),
            (3, 0, 0),
        }

    def test_matches_brute_force_through_n8(self):
        for n in range(2, 9):
            assert [iv.k for iv in enumerate_eta(n)] == brute_eta(n)

    def test_lexicographic_and_duplicate_free(self):
        for n in (5, 9, 13):
            ks = [iv.k for iv in enumerate_eta(n)]
            assert ks == sorted(ks)
            assert len(set(ks)) == len(ks)

    def test_index_vector_invariants(self):
        for n in (3, 6, 10):
            for iv in enumerate_eta(n):
                w = sum((m - 2) * k for m, k in zip(range(3, n + 1), iv.k))
                assert 1 <= w <= n - 2
                assert iv.weight == w
                assert iv.zeta_index == sum(
                    m * k for m, k in zip(range(3, n + 1), iv.k)
                ) - 1
                assert iv.zeta_index >= 2

    def test_order_domain(self):
        for bad in (1, 0, 21):
            with pytest.raises(DomainError):
                enumerate_eta(bad)


class TestHermite:
    def test_explicit_low_orders(self):
        assert hermite(0, 3.7) == 1.0
        assert hermite(1, 3.7) == pytest.approx(3.7)
        assert hermite(2, 2.0) == pytest.approx(3.0)
        assert hermite(5, 1.0) == pytest.approx(1 - 10 + 15)

    def test_against_exact_integer_coefficients(self):
        xs = [-3.0, -0.7, 0.0, 0.4, 1.9]
        for k in (3, 7, 12, 25, 40, 50):
            for x in xs:
                exact = eval_hermite_exact(k, x)
                assert hermite(k, x) == pytest.approx(exact, rel=1e-10)

    def test_vectorized(self):
        x = np.linspace(-2, 2, 11)
        np.testing.assert_allclose(hermite(2, x), x * x - 1.0, rtol=1e-14)

    def test_orthogonality_under_gaussian_weight(self):
        # integral phi(x) H_j H_k = j! delta_jk, via Gauss-Hermite quadrature.
        nodes, wts = np.polynomial.hermite.hermgauss(80)
        x = nodes * math.sqrt(2.0)
        w = wts / math.sqrt(math.pi)
        for j, k in ((3, 3), (3, 5), (6, 6), (2, 7)):
            val = float(np.sum(w * hermite(j, x) * hermite(k, x)))
            expected = math.factorial(j) if j == k else 0.0
            assert val == pytest.approx(expected, abs=1e-6 * math.factorial(max(j, k)))

    def test_degree_domain(self):
        with pytest.raises(DomainError):
            hermite(51, 0.0)
        with pytest.raises(DomainError):
            hermite(-1, 0.0)


class TestBuildExpansion:
    def test_n3_single_term(self):
        tc = reference_cumulants()
        exp = build_expansion(tc, 3)
        assert len(exp.terms) == 1
        iv, coeff, deg = exp.terms[0]
        assert iv.k == (1,)
        assert deg == 2
        assert coeff == pytest.approx(tc.kappa_k(3) / 6.0, rel=1e-15)

    def test_n4_adds_kappa4_and_kappa3_squared(self):
        tc = reference_cumulants()
        exp = build_expansion(tc, 4)
        by_k = {iv.k: (coeff, deg) for iv, coeff, deg in exp.terms}
        k3, k4 = tc.kappa_k(3), tc.kappa_k(4)
        assert by_k[(1, 0)] == (pytest.approx(k3 / 6.0), 2)
        assert by_k[(0, 1)] == (pytest.approx(k4 / 24.0), 3)
        assert by_k[(2, 0)] == (pytest.approx(k3**2 / 72.0), 5)

    def test_n5_exact_rational_coefficients(self):
        tc = reference_cumulants()
        exp = build_expansion(tc, 5)
        by_k = {iv.k: (coeff, deg) for iv, coeff, deg in exp.terms}
        k3, k4, k5 = (tc.kappa_k(i) for i in (3, 4, 5))
        assert by_k[(0, 0, 1)] == (pytest.approx(k5 / 120.0), 4)
        assert by_k[(1, 1, 0)] == (pytest.approx(k3 * k4 / 144.0), 6)
        assert by_k[(3, 0, 0)] == (pytest.approx(k3**3 / 1296.0), 8)

    def test_grouped_form_same_term_multiset(self):
        # The alternative grouped enumeration: for each n = 3..N, take the
        # tuples (k_3..k_n) with exact weight sum (m-2) k_m = n-2, zero-padded
        # to length N-2.  The disjoint union over n must equal eta(N).
        for n_order in (3, 4, 5):
            exp = build_expansion(reference_cumulants(K=6), n_order)
            grouped = []
            for n in range(3, n_order + 1):
                ranges = [range((n - 2) // (m - 2) + 1) for m in range(3, n + 1)]
                for tup in itertools.product(*ranges):
                    w = sum((m - 2) * k for m, k in zip(range(3, n + 1), tup))
                    if w == n - 2:
                        grouped.append(tup + (0,) * (n_order - n))
            assert sorted(grouped) == sorted(iv.k for iv, _, _ in exp.terms)

    def test_insufficient_cumulants_rejected(self):
        tc = reference_cumulants(K=4)
        with pytest.raises(DomainError):
            build_expansion(tc, 5)

    def test_term_count_through_n9(self):
        tc = cumulants(make_power_law_normalized(gamma=0.75, r=0.5), 10, 9)
        for n in range(2, 10):
            assert len(build_expansion(tc, n).terms) == len(brute_eta(n))


class TestEvaluation:
    def test_n2_is_standard_normal(self):
        tc = reference_cumulants()
        exp = build_expansion(tc, 2)
        x = np.linspace(-6, 6, 41)
        from scipy.stats import norm

        np.testing.assert_allclose(edgeworth_cdf(exp, x), norm.cdf(x), atol=1e-15)
        np.testing.assert_allclose(edgeworth_pdf(exp, x), norm.pdf(x), atol=1e-15)

    def test_hand_evaluated_n3_point(self):
        # Phi(0) - phi(0) (kappa3/6) H2(0) with kappa3 = 0.2 and H2(0) = -1.
        tc = TailCumulants(M=1, sigma_M=1.0, kappa=(1.0, 0.2))
        exp = build_expansion(tc, 3)
        expected = 0.5 + (0.2 / 6.0) / math.sqrt(2.0 * math.pi)
        assert edgeworth_cdf(exp, 0.0) == pytest.approx(expected, abs=1e-15)
        assert expected == pytest.approx(0.5 + 0.0132980760, abs=1e-9)

    def test_tail_limits(self):
        tc = reference_cumulants(m=2)
        for n in (3, 5):
            exp = build_expansion(tc, n)
            assert edgeworth_cdf(exp, -12.0) == pytest.approx(0.0, abs=1e-12)
            assert edgeworth_cdf(exp, 12.0) == pytest.approx(1.0, abs=1e-12)

    def test_pdf_is_cdf_derivative(self):
        tc = reference_cumulants(m=5)
        exp = build_expansion(tc, 5)
        x = np.linspace(-5.0, 5.0, 50)
        h = 1e-5
        fd = (edgeworth_cdf(exp, x + h) - edgeworth_cdf(exp, x - h)) / (2.0 * h)
        np.testing.assert_allclose(edgeworth_pdf(exp, x), fd, atol=1e-6)

    def test_pdf_integrates_to_one(self):
        tc = reference_cumulants(m=2)
        for n in (3, 4, 5):
            exp = build_expansion(tc, n)
            val, err = integrate.quad(
                lambda x: edgeworth_pdf(exp, x), -12.0, 12.0, epsabs=1e-11, limit=200
            )
            assert val == pytest.approx(1.0, abs=1e-8)

    def test_first_three_moments(self):
        # Gauss-Hermite integrates poly * phi exactly: moments are (0, 1, kappa3).
        tc = reference_cumulants(m=5)
        nodes, wts = np.polynomial.hermite.hermgauss(64)
        x = nodes * math.sqrt(2.0)
        w = wts / math.sqrt(math.pi)
        for n in (3, 4, 5):
            exp = build_expansion(tc, n)
            dens = edgeworth_pdf(exp, x) / (np.exp(-x * x / 2.0) / math.sqrt(2 * math.pi))
            m1 = float(np.sum(w * x * dens))
            m2 = float(np.sum(w * x * x * dens))
            m3 = float(np.sum(w * x**3 * dens))
            assert m1 == pytest.approx(0.0, abs=1e-7)
            assert m2 == pytest.approx(1.0, abs=1e-7)
            assert m3 == pytest.approx(tc.kappa_k(3), abs=1e-7)

    def test_zero_higher_cumulants_reduce_to_phi(self):
        from scipy.stats import norm

        tc = TailCumulants(M=1, sigma_M=1.0, kappa=(1.0, 0.0, 0.0, 0.0))
        exp = build_expansion(tc, 5)
        x = np.linspace(-4, 4, 30)
        np.testing.assert_allclose(edgeworth_cdf(exp, x), norm.cdf(x), atol=1e-15)

    def test_berry_esseen_consistency_of_n3(self):
        # sup |F_3 - Phi| = kappa3/6 sup phi|H2| and sup phi|H2| = phi(0) < 0.4,
        # comfortably below 6 * 0.7056.
        tc = reference_cumulants(m=10)
        exp = build_expansion(tc, 3)
        x = np.linspace(-10, 10, 20001)
        from scipy.stats import norm

        gap = np.max(np.abs(edgeworth_cdf(exp, x) - norm.cdf(x)))
        assert gap <= 0.7056 * tc.kappa_k(3) + 1e-15

    @given(st.integers(2, 9))
    @settings(max_examples=8, deadline=None)
    def test_cdf_monotone_for_reference_m10(self, n_order):
        tc = cumulants(make_power_law_normalized(gamma=0.75, r=0.5), 10, 9)
        exp = build_expansion(tc, n_order)
        # Truncated expansions genuinely decrease a little where the Hermite
        # correction overwhelms phi (only beyond |x| ~ 3.2 here, worst case
        # ~3.5e-6 per grid step at N=3).  The bulk must still be strictly
        # increasing.
        x = np.linspace(-8, 8, 1601)
        f = edgeworth_cdf(exp, x)
        assert np.min(np.diff(f)) > -1e-5
        bulk = np.linspace(-3, 3, 601)
        assert np.all(np.diff(edgeworth_cdf(exp, bulk)) > 0)

    def test_coefficient_vector_matches_term_sums(self):
        # the expansion sums its coefficients by degree once; that must equal
        # the term-by-term sums.  N = 20 needs H_54, beyond hermite()'s
        # degree cap, so the oracle runs the recurrence itself.
        tc = reference_cumulants(m=10, K=20)
        x = np.linspace(-8.0, 8.0, 1601)
        h = hermite_rows(55, x)
        phi = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
        for n in range(3, 21):
            exp = build_expansion(tc, n)
            cdf_sum = sum(c * h[deg] for _, c, deg in exp.terms)
            pdf_sum = sum(c * h[deg + 1] for _, c, deg in exp.terms)
            np.testing.assert_allclose(
                edgeworth_cdf(exp, x), special.ndtr(x) - phi * cdf_sum, rtol=0, atol=1e-13
            )
            np.testing.assert_allclose(
                edgeworth_pdf(exp, x), phi * (1.0 + pdf_sum), rtol=0, atol=1e-13
            )

    def test_huge_arguments_are_exact(self):
        # phi underflows to 0 long before the degree-54 Hermite sum overflows
        exp = build_expansion(reference_cumulants(m=10, K=20), 20)
        x = np.array([-1e15, -1e6, 1e6, 1e15])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cdf = edgeworth_cdf(exp, x)
            pdf = edgeworth_pdf(exp, x)
        assert cdf.tolist() == [0.0, 0.0, 1.0, 1.0]
        assert pdf.tolist() == [0.0, 0.0, 0.0, 0.0]


class TestQualityDiagnostics:
    def test_negative_mass_small_for_moderate_m(self):
        # measured 1.4e-5 for this configuration, far under the 1e-3 level
        # that marks an expansion as untrustworthy downstream
        tc = reference_cumulants(m=10)
        exp = build_expansion(tc, 5)
        assert negative_pdf_mass(exp) < 1e-4

    def test_negative_mass_against_exact_drops(self):
        # The density is phi(x) (1 + sum coef_d He_{d+1}(x)); between the
        # roots of that series it keeps one sign, and the mass of an interval
        # is the exact drop of the CDF across it.  Every root's real part is
        # a breakpoint: a spurious one only splits an interval of one sign.
        # Measured worst: 1.2e-4 relative (1.4e-4 for Simpson's rule).
        specs = [
            make_power_law_normalized(0.75, 0.5),
            make_power_law_normalized(2.0, 3.0),
            make_power_law_normalized(0.55, 0.2),
            GammaSumSpec(r=1.0, weights=ExplicitWeights(tuple(0.8**n for n in range(60)))),
        ]
        for spec in specs:
            for m in (1, 2, 5, 10, 20):
                tc = cumulants(spec, m, 12)
                for n in range(3, 13):
                    exp = build_expansion(tc, n)
                    roots = hermeroots(np.concatenate(([1.0], exp.coef))).real
                    x = np.unique(np.concatenate(([-12.0, 12.0], roots[np.abs(roots) < 12.0])))
                    neg = edgeworth_pdf(exp, 0.5 * (x[1:] + x[:-1])) < 0.0
                    want = math.fsum(-np.diff(edgeworth_cdf(exp, x))[neg])
                    assert negative_pdf_mass(exp) == pytest.approx(want, rel=5e-4, abs=0.0)

    def test_negative_mass_detects_bad_expansion(self):
        # Huge artificial kappa3 forces visible negativity.
        tc = TailCumulants(M=1, sigma_M=1.0, kappa=(1.0, 3.0))
        exp = build_expansion(tc, 3)
        assert negative_pdf_mass(exp) > 1e-3

    def test_scalar_and_array_shapes(self):
        exp = build_expansion(reference_cumulants(), 5)
        assert np.isscalar(edgeworth_cdf(exp, 0.5))
        assert edgeworth_cdf(exp, np.zeros((2, 3))).shape == (2, 3)
        assert np.isscalar(edgeworth_pdf(exp, -0.5))

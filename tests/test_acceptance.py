"""Acceptance gate: ten go/no-go checks, one test (and one result line) each.

Runs the shipped reference configuration (r = 1/2, power-law decay 3/4)
end to end: normalization, combinatorics, dual-route cumulants, expansion
self-consistency, Berry-Esseen bands against Monte Carlo, the geometric
counterexample's support bound, the assembled distribution against a
sampling oracle, robustness across truncation levels, and closed-form
head inversion.  Numbers quoted in asserts are the contract; loosening
them is not a fix.
"""

import math
import time
import warnings
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad
from scipy.special import erfc, gammainc

from gammasum.cumulants import berry_esseen_bound, cumulants, sigma_M, support_lower_bound
from gammasum.edgeworth import (
    build_expansion,
    edgeworth_cdf,
    edgeworth_pdf,
    enumerate_eta,
)
from gammasum.finite_sum import invert_to_table, make_head_cf
from gammasum.levy import (
    cumulant_via_integral,
    levy_density,
    levy_tail_density,
    log_cf,
    re_log_cf,
)
from gammasum.mc_oracle import ks_distance, sample_tail, sample_z
from gammasum.pipeline import PipelineConfig, default_z_grid, z_cdf
from gammasum.weights import ExplicitWeights, GammaSumSpec, make_power_law_normalized

SPEC = make_power_law_normalized(0.75, 0.5)

# recorded from the first passing run; deterministic thereafter
GOLDEN_ROBUSTNESS = 0.0017061580334128967

_Z_GRID = default_z_grid(SPEC, 2001)


@lru_cache(maxsize=None)
def _z_table(m):
    return z_cdf(PipelineConfig(spec=SPEC, M=m, N=5, grid=_Z_GRID))


def norm_cdf(x):
    return 0.5 * erfc(-np.asarray(x) / math.sqrt(2.0))


def _report(num, detail):
    print(f"criterion {num:2d}: PASS  {detail}")


def test_criterion_01_normalization_constant():
    t0 = time.perf_counter()
    c = make_power_law_normalized(0.75, 0.5).weights.scale
    elapsed = time.perf_counter() - t0
    assert abs(c - 0.4375) < 5e-5
    assert elapsed < 1.0
    _report(1, f"C = {c:.6f} vs 0.4375, {elapsed * 1e3:.1f} ms")


def test_criterion_02_index_set_combinatorics():
    assert enumerate_eta(2) == []

    n3 = enumerate_eta(3)
    assert [v.k for v in n3] == [(1,)]
    assert n3[0].zeta_index == 2

    n4 = {v.k for v in enumerate_eta(4)}
    assert n4 == {(1, 0), (2, 0), (0, 1)}

    # top-weight terms of the order-5 expansion, with exact coefficients
    def exact_coeff(vec):
        c = Fraction(1)
        for m, km in zip(range(3, vec.N + 1), vec.k):
            c *= Fraction(1, math.factorial(km)) * Fraction(1, math.factorial(m)) ** km
        return c

    top = {
        (v.zeta_index, exact_coeff(v))
        for v in enumerate_eta(5)
        if v.weight == 3
    }
    assert top == {
        (4, Fraction(1, math.factorial(5))),
        (6, Fraction(1, math.factorial(3) * math.factorial(4))),
        (8, Fraction(1, math.factorial(3) ** 4)),
    }

    # the built expansion carries the same coefficients (kappa = product form)
    tc = cumulants(SPEC, 10, 5)
    ex = build_expansion(tc, 5)
    by_vec = {v.k: coeff for v, coeff, _ in ex.terms}
    k3, k4, k5 = tc.kappa_k(3), tc.kappa_k(4), tc.kappa_k(5)
    assert by_vec[(0, 0, 1)] == pytest.approx(k5 / 120.0, rel=1e-14)
    assert by_vec[(1, 1, 0)] == pytest.approx(k3 * k4 / 144.0, rel=1e-14)
    assert by_vec[(3, 0, 0)] == pytest.approx(k3**3 / 1296.0, rel=1e-14)
    _report(2, "index sets for N=2..5 and exact rational coefficients")


def test_criterion_03_cumulant_oracle_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    for m in (1, 2, 5, 10):
        tc = cumulants(SPEC, m, 6)
        assert tc.kappa_k(2) == pytest.approx(1.0, abs=1e-10)
        for k in range(2, 7):
            closed = tc.kappa_k(k)
            from_integral = cumulant_via_integral(SPEC, m, k)
            rel = abs(from_integral - closed) / abs(closed)
            worst = max(worst, rel)
            assert rel <= 1e-7, (m, k, closed, from_integral)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(3, f"k=2..6, M in {{1,2,5,10}}, worst rel dev {worst:.2e}, {elapsed:.1f} s")


def test_criterion_04_a_m_identity():
    density = levy_tail_density(SPEC, 5)
    worst = worst_im = 0.0
    for u in (0.5, 1.0, 2.0, 5.0):
        direct = re_log_cf(SPEC, 5, u)
        direct_im = log_cf(SPEC, 5, None, u / density.sigma_M).imag

        def integrand(x):
            return (1.0 - math.cos(u * x)) * levy_density(density, x)

        def integrand_im(x):
            return (math.sin(u * x) - u * x) * levy_density(density, x)

        # quad can hit its roundoff floor chasing 1e-10 on the middle panel;
        # the 1e-7 assert below is the accuracy requirement that matters
        val = val_im = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IntegrationWarning)
            for a, b in ((0.0, 1.0), (1.0, 10.0), (10.0, 200.0)):
                part, _ = quad(integrand, a, b, limit=400, epsabs=1e-10, epsrel=1e-10)
                val += part
                part, _ = quad(integrand_im, a, b, limit=400, epsabs=1e-10, epsrel=1e-10)
                val_im += part
        dev = abs(val - direct)
        worst = max(worst, dev)
        assert dev <= 1e-7, (u, direct, val)
        dev_im = abs(val_im - direct_im)
        worst_im = max(worst_im, dev_im)
        assert dev_im <= 1e-7, (u, direct_im, val_im)
    _report(
        4,
        f"log-CF vs jump-measure integrals, worst dev {worst:.2e} (real), "
        f"{worst_im:.2e} (imaginary)",
    )


def test_criterion_05_edgeworth_consistency():
    ex = build_expansion(cumulants(SPEC, 10, 5), 5)

    x = np.linspace(-5.0, 5.0, 201)
    h = 1e-5
    fd = (edgeworth_cdf(ex, x + h) - edgeworth_cdf(ex, x - h)) / (2.0 * h)
    fd_dev = float(np.max(np.abs(fd - edgeworth_pdf(ex, x))))
    assert fd_dev <= 1e-6

    # Gauss-Hermite is exact for phi times any polynomial of this degree
    nodes, wts = np.polynomial.hermite.hermgauss(80)
    t = nodes * math.sqrt(2.0)
    w = wts / math.sqrt(math.pi)
    dens_ratio = edgeworth_pdf(ex, t) * math.sqrt(2.0 * math.pi) * np.exp(t**2 / 2.0)
    mass = float(np.sum(w * dens_ratio))
    m1 = float(np.sum(w * t * dens_ratio))
    m2 = float(np.sum(w * t**2 * dens_ratio))
    m3 = float(np.sum(w * t**3 * dens_ratio))
    assert abs(mass - 1.0) <= 1e-8
    assert abs(m1) <= 1e-7
    assert abs(m2 - 1.0) <= 1e-7
    k3 = cumulants(SPEC, 10, 5).kappa_k(3)
    assert abs(m3 - k3) <= 1e-7
    _report(5, f"FD dev {fd_dev:.2e}, mass-1 {mass - 1:.1e}, m3-k3 {m3 - k3:.1e}")


def test_criterion_06_berry_esseen_verification():
    t0 = time.perf_counter()
    n = 10**6
    band = 3.0 * 1.63 / math.sqrt(n)
    details = []
    for m, seed in ((10, 606), (20, 607), (40, 608)):
        batch = sample_tail(SPEC, m, "normal_tail", n, seed=seed, n_terms=1024)
        d = ks_distance(batch, norm_cdf)
        bound = berry_esseen_bound(SPEC, m) + band
        assert d <= bound, (m, d, bound)
        details.append(f"M={m}: {d:.4f} <= {bound:.4f}")
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _report(6, "; ".join(details) + f", {elapsed:.0f} s")


def test_criterion_07_counterexample_support_bound():
    for r in (0.5, 2.0):
        spec = GammaSumSpec(
            r=r, weights=ExplicitWeights(tuple(2.0 ** -(n + 1) for n in range(1, 61)))
        )
        target = -math.sqrt(3.0 * r)
        for m in range(1, 11):
            assert abs(support_lower_bound(spec, m) - target) <= 1e-12
        for m in (1, 5, 10):
            batch = sample_tail(spec, m, "truncate", 100_000, seed=70 + m)
            assert float(batch.values.min()) >= target - 1e-12
    _report(7, "lower support -sqrt(3r) to 1e-12 for M=1..10; no sample below")


def test_criterion_08_pipeline_vs_oracle():
    t0 = time.perf_counter()
    tab = _z_table(10)
    batch = sample_z(SPEC, "normal_tail", 10**6, seed=909)
    d = ks_distance(batch, lambda v: np.interp(v, tab.grid, tab.cdf))
    elapsed = time.perf_counter() - t0
    assert d < 0.002
    assert elapsed < 600.0
    _report(8, f"KS(table, 1e6 MC) = {d:.5f} < 0.002, {elapsed:.0f} s")


def test_criterion_09_m_robustness():
    ms = (2, 5, 10, 20)
    tabs = [_z_table(m) for m in ms]
    worst = 0.0
    for i in range(len(ms)):
        for j in range(i + 1, len(ms)):
            worst = max(worst, float(np.max(np.abs(tabs[i].cdf - tabs[j].cdf))))
    assert worst < 0.005
    assert abs(worst - GOLDEN_ROBUSTNESS) < 1e-6
    _report(9, f"sup pairwise diff {worst:.6f} < 0.005, matches golden")


def test_criterion_10_head_inversion_closed_form():
    lam = SPEC.weights.value(1)
    grid = np.linspace(-0.6, 4.5, 50)
    tab = invert_to_table(make_head_cf(SPEC, 2), grid)
    exact = gammainc(SPEC.r, np.maximum(SPEC.r * (grid / lam + 1.0), 0.0))
    dev = float(np.max(np.abs(tab.cdf - exact)))
    assert dev <= 1e-8
    _report(10, f"M=2 head vs shifted-gamma closed form, sup dev {dev:.2e}")

"""Head characteristic function and its exact gamma-mixture tables.

Oracles: the closed-form shifted-gamma distribution for a one-term head, the
hypoexponential closed form for distinct weights at r = 1, the Kummer-form
density of a two-weight head integrated by mpmath, the closed-form CF (per
factor, and against the mixture's own CF), the per-term incomplete gamma
sum of the mixture CDF, the per-factor Levy integral evaluated by quadrature,
and the Monte-Carlo sampler.
"""

import cmath
import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy import special
from scipy.integrate import quad
from scipy.stats import gamma as gamma_dist

from gammasum.cumulants import sigma_M
from gammasum.errors import DomainError, NumericalError
from gammasum.finite_sum import (
    DistributionTable,
    HeadCF,
    _mixture_weights,
    default_grid,
    invert_to_table,
    make_head_cf,
)
from gammasum.mc_oracle import ks_distance, sample_head
from gammasum.weights import (
    ExplicitWeights,
    GammaSumSpec,
    PowerLawWeights,
    make_power_law_normalized,
)


def reference_spec():
    return make_power_law_normalized(gamma=0.75, r=0.5)


def single_weight_spec(lam, r):
    return GammaSumSpec(r=r, weights=ExplicitWeights((lam,)))


def shifted_gamma_cdf(x, lam, r):
    """CDF of lam*(eta - 1), eta ~ gamma(shape r, mean 1)."""
    z = r * (np.asarray(x) / lam + 1.0)
    return special.gammainc(r, np.maximum(z, 0.0))


def shifted_gamma_pdf(x, lam, r):
    return gamma_dist.pdf(np.asarray(x) / lam + 1.0, a=r, scale=1.0 / r) / lam


def mp_two_weight_cdf(q, lam, r):
    """CDF at q of lam_1 eta_1 + lam_2 eta_2 via mpmath, dps 40.

    With theta_i = lam_i / r the density is the Kummer form
    q^(2r-1) e^(-q/theta_2) 1F1(r; 2r; -q (1/theta_1 - 1/theta_2))
    / (Gamma(2r) (theta_1 theta_2)^r), integrated from whichever end is nearer.
    """
    if q <= 0.0:
        return 0.0
    with mpmath.workdps(40):
        t1, t2 = (mpmath.mpf(l) / r for l in lam)
        a = mpmath.mpf(r)
        rate = 1 / t1 - 1 / t2
        norm = mpmath.gamma(2 * a) * (t1 * t2) ** a

        def pdf(s):
            kummer = mpmath.hyp1f1(a, 2 * a, -s * rate)
            return s ** (2 * a - 1) * mpmath.exp(-s / t2) * kummer / norm

        if q <= sum(lam):
            return float(mpmath.quad(pdf, [0, q]))
        return float(1 - mpmath.quad(pdf, [q, mpmath.inf]))


def mixture_cf(hcf, u):
    """sum_k p_k (1 - i u theta_1)^{-(R+k)} e^{-i u sum lambda}: the CF of the mixture."""
    lam = np.asarray(hcf.lam)
    r = hcf.spec.r
    theta = lam / r
    p, _ = _mixture_weights(theta, r)
    shape = r * lam.size + np.arange(p.size)
    base = 1.0 - 1j * u * theta.min()
    return np.sum(p * np.exp(-shape * np.log(base))) * cmath.exp(-1j * u * lam.sum())


class TestHeadCF:
    def test_unit_at_zero(self):
        assert make_head_cf(reference_spec(), 5).cf(0.0) == 1.0 + 0.0j

    def test_empty_head_is_one(self):
        for u in (-3.0, 0.0, 7.7):
            assert make_head_cf(reference_spec(), 1).cf(u) == 1.0 + 0.0j

    def test_modulus_closed_form(self):
        spec = reference_spec()
        u = 3.0
        lam = [spec.weights.value(n) for n in range(1, 5)]
        want = math.prod((1.0 + u * u * l * l / spec.r**2) ** (-spec.r / 2) for l in lam)
        assert abs(make_head_cf(spec, 5).cf(u)) == pytest.approx(want, rel=1e-12)

    def test_single_factor_formula(self):
        lam, r = 0.6, 0.8
        spec = single_weight_spec(lam, r)
        for u in (-2.0, 0.3, 5.0):
            want = (1.0 - 1j * u * lam / r) ** -r * cmath.exp(-1j * u * lam)
            assert make_head_cf(spec, 2).cf(u) == pytest.approx(want, rel=1e-13)

    def test_levy_integral_equivalence(self):
        # per-factor log CF equals the integral of (e^{iux} - 1 - iux)
        # against the factor's Levy density (r/x) e^{-rx/lambda}
        r = 0.5
        for lam in (0.4375, 0.26):
            for u in (0.7, 2.0):
                re_int, _ = quad(
                    lambda x: (math.cos(u * x) - 1.0) * (r / x) * math.exp(-r * x / lam),
                    0.0, np.inf, epsabs=1e-12, limit=300,
                )
                im_int, _ = quad(
                    lambda x: (math.sin(u * x) - u * x) * (r / x) * math.exp(-r * x / lam),
                    0.0, np.inf, epsabs=1e-12, limit=300,
                )
                want = complex(re_int, im_int)
                got = -r * cmath.log(1.0 - 1j * u * lam / r) - 1j * u * lam
                assert got == pytest.approx(want, abs=1e-8)

    def test_conjugate_symmetry_and_modulus_bound(self):
        spec = reference_spec()
        u = np.linspace(-40, 40, 81)
        vals = make_head_cf(spec, 8).cf(u)
        assert vals.shape == u.shape
        np.testing.assert_allclose(vals[::-1], np.conj(vals), rtol=1e-13)
        assert np.all(np.abs(vals) <= 1.0 + 1e-12)

    def test_mean_zero_by_finite_difference(self):
        spec = reference_spec()
        h = 1e-5
        hcf = make_head_cf(spec, 10)
        d = (hcf.cf(h) - hcf.cf(-h)) / (2.0 * h)
        assert abs(d) < 1e-9

    def test_factor_object(self):
        hcf = make_head_cf(reference_spec(), 5)
        assert isinstance(hcf, HeadCF)
        assert hcf.M == 5
        assert len(hcf.lam) == 4
        u = np.array([0.5, 2.0])
        r = hcf.spec.r
        want = [
            math.prod((1.0 - 1j * v * l / r) ** -r * cmath.exp(-1j * v * l) for l in hcf.lam)
            for v in u
        ]
        np.testing.assert_allclose(hcf.cf(u), want, rtol=1e-14)


class TestTailIntegralsLadder:
    # the table is a ladder of incomplete gamma integrals of shape R + k;
    # a two-weight head with R = 2r = p0 is checked against its Kummer-form
    # density integrated by mpmath, from the left edge (qu = 0) through the
    # lower tail and the bulk (qu = 8 is the mean) into the upper tail
    @pytest.mark.parametrize("p0", [1.3, 2.5, 4.5, 11.5])
    @pytest.mark.parametrize("qu", [0.0, 0.3, 3.0, 7.9, 8.1, 40.0, 500.0])
    def test_against_mpmath(self, p0, qu):
        lam = (1.0, 0.4)
        spec = GammaSumSpec(r=p0 / 2.0, weights=ExplicitWeights(lam))
        q = qu / 8.0 * sum(lam)
        x = q - sum(lam)
        grid = np.union1d(np.linspace(-2.0, 40.0, 4001), [x])
        table = invert_to_table(make_head_cf(spec, 3), grid)
        got = table.cdf[np.searchsorted(grid, x)]
        want = mp_two_weight_cdf(q, lam, spec.r)
        assert got == pytest.approx(want, rel=1e-10, abs=1e-300)

    def test_negative_q_conjugate(self):
        # the mixture's CF at -u is the conjugate of the closed form at u
        hcf = make_head_cf(make_power_law_normalized(gamma=0.75, r=1.25), 5)
        for u in (0.05, 0.5, 5.0):
            got = mixture_cf(hcf, -u)
            assert got == pytest.approx(np.conj(hcf.cf(u)), rel=1e-13)

    def test_large_u_scale(self):
        # weights of order 512: theta_1 and the grid scale up together
        lam = (512.0, 204.8)
        spec = GammaSumSpec(r=1.75, weights=ExplicitWeights(lam))
        q = np.array([0.02, 0.5, 2.0]) * sum(lam)
        grid = np.union1d(np.linspace(-1.1, 20.0, 4001) * sum(lam), q - sum(lam))
        table = invert_to_table(make_head_cf(spec, 3), grid)
        got = table.cdf[np.searchsorted(grid, q - sum(lam))]
        for j in range(3):
            want = mp_two_weight_cdf(q[j], lam, spec.r)
            assert got[j] == pytest.approx(want, rel=1e-10)


class TestInversionSingleTerm:
    def test_cdf_matches_shifted_gamma_r_half(self):
        # r = 1/2: one-term head of the headline spec; density unbounded at
        # the left support edge, so only the CDF is tabulated
        spec = reference_spec()
        lam = spec.weights.scale
        grid = np.linspace(-0.6, 5.0, 1401)
        table = invert_to_table(make_head_cf(spec, 2), grid)
        want = shifted_gamma_cdf(grid, lam, spec.r)
        assert np.max(np.abs(np.asarray(table.cdf) - want)) < 1e-8
        assert table.pdf is None
        assert any("density" in w for w in table.warnings)

    @pytest.mark.parametrize("m,reason", [(2, "unbounded"), (3, "jump")])
    def test_omission_warning_names_the_left_end_behaviour(self, m, reason):
        # r = 1/2: r (M-1) is 1/2 at M = 2 and exactly 1 at M = 3
        spec = reference_spec()
        table = invert_to_table(make_head_cf(spec, m), default_grid(spec, m, 401))
        assert table.pdf is None
        assert any(reason in w for w in table.warnings)

    def test_left_of_support_is_zero(self):
        spec = reference_spec()
        grid = np.linspace(-0.9, 5.0, 801)
        table = invert_to_table(make_head_cf(spec, 2), grid)
        assert table.cdf[0] <= 1e-6

    def test_cdf_and_pdf_r_two(self):
        # r = 2 makes the one-term density bounded and integrable: both
        # outputs present and matching closed forms
        lam, r = 0.7, 2.0
        spec = single_weight_spec(lam, r)
        grid = np.linspace(-0.75, 3.2, 1201)
        table = invert_to_table(make_head_cf(spec, 2), grid)
        assert np.max(np.abs(table.cdf - shifted_gamma_cdf(grid, lam, r))) < 1e-8
        assert table.pdf is not None
        assert np.max(np.abs(table.pdf - shifted_gamma_pdf(grid, lam, r))) < 1e-7

    def test_coarse_grid_drops_density_keeps_cdf(self):
        # 9 points cover the bulk of the CDF, but the trapezoid mass of the
        # density is 0.85, so the density is omitted rather than the table
        lam, r = 0.7, 2.0
        spec = single_weight_spec(lam, r)
        grid = np.linspace(-0.7, 3.2, 9)
        table = invert_to_table(make_head_cf(spec, 2), grid)
        assert table.pdf is None
        assert any("density omitted" in w for w in table.warnings)
        assert np.max(np.abs(table.cdf - shifted_gamma_cdf(grid, lam, r))) < 1e-8

    def test_refinement_diagnostic(self):
        spec = reference_spec()
        grid = np.linspace(-0.6, 5.0, 401)
        table = invert_to_table(make_head_cf(spec, 2), grid)
        assert table.diagnostics["series_tail_mass"] < 1e-14


class TestInversionManyTerms:
    def test_table_invariants_m10(self):
        spec = reference_spec()
        table = invert_to_table(make_head_cf(spec, 10), default_grid(spec, 10))
        cdf = np.asarray(table.cdf)
        assert np.all(np.diff(cdf) >= 0.0)
        assert cdf[0] <= 0.001 and cdf[-1] >= 0.999
        assert table.pdf is not None and np.all(np.asarray(table.pdf) >= 0.0)

    def test_variance_and_skew_from_table(self):
        spec = reference_spec()
        m = 10
        grid = default_grid(spec, m)
        table = invert_to_table(make_head_cf(spec, m), grid)
        pdf = np.asarray(table.pdf)
        mean = np.trapezoid(grid * pdf, grid)
        var = np.trapezoid(grid**2 * pdf, grid) - mean**2
        third = np.trapezoid((grid - mean) ** 3 * pdf, grid)
        assert var == pytest.approx(1.0 - sigma_M(spec, m) ** 2, rel=0.01)
        assert third > 0.0

    def test_ks_against_monte_carlo(self):
        spec = reference_spec()
        m = 10
        grid = default_grid(spec, m)
        table = invert_to_table(make_head_cf(spec, m), grid)
        batch = sample_head(spec, m, 1_000_000, seed=77)
        d = ks_distance(batch, lambda x: np.interp(x, grid, table.cdf))
        assert d < 0.002

    def test_uniform_and_generic_paths_agree(self):
        spec = reference_spec()
        m = 5
        base = default_grid(spec, m, 801)
        bumpy = np.append(base, base[-1] + 0.373)
        t_uniform = invert_to_table(make_head_cf(spec, m), base)
        t_generic = invert_to_table(make_head_cf(spec, m), bumpy)
        assert np.max(np.abs(t_generic.cdf[:-1] - t_uniform.cdf)) < 1e-10

    def test_degenerate_head_rejected(self):
        with pytest.raises(DomainError):
            invert_to_table(make_head_cf(reference_spec(), 1), np.linspace(-1, 1, 11))


class TestMixtureOracles:
    def test_hypoexponential_closed_form(self):
        # r = 1 and distinct weights: G = sum theta_i Exp(1) has
        # F(q) = 1 - sum_i A_i e^{-q/theta_i}, A_i = prod_{j != i} theta_i / (theta_i - theta_j)
        spec = make_power_law_normalized(gamma=0.75, r=1.0)
        m = 5
        grid = default_grid(spec, m)
        table = invert_to_table(make_head_cf(spec, m), grid)
        lam = spec.weights.head(m)
        theta = lam / spec.r
        amp = np.array(
            [np.prod([ti / (ti - tj) for tj in theta if tj != ti]) for ti in theta]
        )
        q = grid + lam.sum()
        pos = q > 0.0
        decay = np.exp(-q[pos, None] / theta[None, :])
        cdf = np.zeros(grid.size)
        pdf = np.zeros(grid.size)
        cdf[pos] = 1.0 - decay @ amp
        pdf[pos] = decay @ (amp / theta)
        assert np.max(np.abs(table.cdf - cdf)) <= 1e-13
        assert np.max(np.abs(table.pdf - pdf)) <= 1e-12

    @pytest.mark.parametrize("r", [0.5, 2.0])
    @pytest.mark.parametrize("m", [3, 20])
    def test_mixture_cf_matches_closed_form(self, r, m):
        # sum_k p_k (1 - i u theta_1)^{-(R+k)} e^{-i u sum lambda} is the
        # CF of the mixture; it must equal the closed-form head CF
        hcf = make_head_cf(make_power_law_normalized(gamma=0.75, r=r), m)
        for u in (0.1, 1.0, 10.0, 100.0):
            assert abs(mixture_cf(hcf, u) - hcf.cf(u)) <= 1e-12

    @pytest.mark.parametrize(
        "spec, m, rtol",
        [
            (make_power_law_normalized(gamma=0.75, r=2.0), 20, 1e-12),  # K = 453
            (GammaSumSpec(r=1.0, weights=PowerLawWeights(3.5, 1.0)), 6, 1e-10),  # K = 12288
        ],
    )
    def test_cdf_matches_per_term_incomplete_gamma_sum(self, spec, m, rtol):
        # the table's CDF takes one incomplete gamma call per point and the
        # gamma densities; the second route sums p_k P(R + k, y) term by
        # term, on the bulk grid plus points from 0.5 down to 1e-6 times
        # sum lambda right of the support's left end, where the CDF falls
        # as low as about 1e-210
        hcf = make_head_cf(spec, m)
        lam = np.asarray(hcf.lam)
        grid = np.union1d(
            default_grid(spec, m, 201), lam.sum() * (np.geomspace(1e-6, 0.5, 200) - 1.0)
        )
        table = invert_to_table(hcf, grid)
        theta = lam / spec.r
        p, _ = _mixture_weights(theta, spec.r)
        shape = (spec.r * lam.size + np.arange(p.size))[:, None]
        y = (grid + lam.sum()) / theta.min()
        ref = np.zeros(grid.size)
        pos = y > 0.0
        ref[pos] = np.concatenate(
            [p @ special.gammainc(shape, part) for part in np.array_split(y[pos], 8)]
        )
        keep = ref > 1e-300
        assert keep.sum() > 300
        assert np.max(np.abs(table.cdf[keep] / ref[keep] - 1.0)) <= rtol

    def test_term_budget_fails_early(self):
        # c = 1 - 1e-9 needs about 4.2e10 terms
        spec = GammaSumSpec(r=0.5, weights=ExplicitWeights((1.0, 1e-9)))
        with pytest.raises(NumericalError, match="terms"):
            invert_to_table(make_head_cf(spec, 3), np.linspace(-2.0, 2.0, 11))


class TestFormerlyFailingHeads:
    # the Fourier inversion failed on these (series divergence, overflow)
    @pytest.mark.parametrize("r, m", [(0.5, 100), (50.0, 20)])
    def test_ks_against_monte_carlo(self, r, m):
        spec = make_power_law_normalized(gamma=0.75, r=r)
        grid = default_grid(spec, m)
        table = invert_to_table(make_head_cf(spec, m), grid)
        assert table.pdf is not None
        n = 100_000
        batch = sample_head(spec, m, n, seed=2024)
        d = ks_distance(batch, lambda x: np.interp(x, grid, table.cdf))
        assert d < 1.95 / math.sqrt(n)


class TestFloatRangeEdges:
    def test_overflowed_y_gives_cdf_one_and_zero_density(self):
        # theta_1 = 1e-300: y = (x + 2e-300) / theta_1 overflows at x = 1e9, while
        # the dense part resolves the Gamma(2) density on y in [0, 800]
        spec = GammaSumSpec(r=1.0, weights=ExplicitWeights((1e-300, 1e-300)))
        grid = np.append(np.linspace(-2e-300, 8e-298, 8001), 1e9)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tab = invert_to_table(make_head_cf(spec, 3), grid)
        assert tab.pdf is not None
        assert tab.cdf[-1] == 1.0 and tab.pdf[-1] == 0.0
        y = (grid[:-1] + 2e-300) / 1e-300
        np.testing.assert_allclose(tab.cdf[:-1], gamma_dist.cdf(y, 2.0), rtol=0, atol=1e-14)

    @pytest.mark.parametrize(
        "r, lam, m, match",
        [
            (1e-300, (1e10, 1e10), 3, "lambda_1 / r overflows"),
            (1e300, (1e-300, 1e-300), 3, "lambda_1 / r underflows to 0"),
            (1e308, (1.0, 1.0), 2, "overflows log Gamma"),
            (1e10, (1.0, 1e-300), 3, "K = inf terms"),
        ],
    )
    def test_out_of_range_scales_fail_cleanly(self, r, lam, m, match):
        spec = GammaSumSpec(r=r, weights=ExplicitWeights(lam))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match=match):
                invert_to_table(make_head_cf(spec, m), np.linspace(-1.0, 1.0, 11))


class TestDistributionTable:
    def test_grid_must_increase(self):
        with pytest.raises(DomainError):
            DistributionTable(
                grid=np.array([0.0, 0.0, 1.0]),
                cdf=np.array([0.0, 0.5, 1.0]),
            )

    def test_bulk_coverage_enforced(self):
        with pytest.raises(DomainError):
            DistributionTable(
                grid=np.array([-1.0, 0.0, 1.0]),
                cdf=np.array([0.2, 0.5, 0.8]),
            )

    def test_pdf_mass_window(self):
        grid = np.linspace(-8, 8, 1001)
        cdf = special.ndtr(grid)
        pdf = np.exp(-grid * grid / 2.0) / math.sqrt(2 * math.pi)
        t = DistributionTable(grid=grid, cdf=cdf, pdf=pdf)
        assert t.pdf is not None
        with pytest.raises(Exception):
            DistributionTable(grid=grid, cdf=cdf, pdf=3.0 * pdf)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("column", ["cdf", "pdf"])
    def test_non_finite_entries_rejected(self, column, bad):
        # a NaN fails every < and > comparison, so it needs its own test
        grid = np.linspace(-8, 8, 1001)
        cols = {"cdf": special.ndtr(grid), "pdf": np.exp(-grid * grid / 2.0) / math.sqrt(2 * math.pi)}
        cols[column][500] = bad
        with pytest.raises(NumericalError, match="finite"):
            DistributionTable(grid=grid, **cols)

    def test_monotone_enforced(self):
        grid = np.linspace(-8, 8, 101)
        cdf = special.ndtr(grid).copy()
        cdf[50] = cdf[49] - 1e-4
        with pytest.raises(Exception):
            DistributionTable(grid=grid, cdf=cdf)

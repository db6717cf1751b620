"""Tests for the head/tail assembly pipeline.

The convolution quadrature is checked against adaptive quadrature of the
same integrand and, at M = 2, of the closed-form head; the M = 1 path
against the plain normal limit, and the degenerate-tail branch against the
bare head inversion.
"""

import math

import numpy as np
import pytest
from numpy.polynomial.hermite_e import hermeval
from scipy.integrate import quad
from scipy.interpolate import PchipInterpolator
from scipy.special import erf, erfc, gammainc

import gammasum.pipeline as pipeline_module
from gammasum.cumulants import cumulants, sigma_M
from gammasum.edgeworth import build_expansion, edgeworth_pdf
from gammasum.errors import DomainError
from gammasum.finite_sum import invert_to_table, make_head_cf
from gammasum.mc_oracle import ks_distance, sample_z
from gammasum.pipeline import PipelineConfig, default_z_grid, m_robustness, z_cdf
from gammasum.weights import (
    ExplicitWeights,
    GammaSumSpec,
    PowerLawWeights,
    make_power_law_normalized,
)

SPEC = make_power_law_normalized(0.75, 0.5)


def norm_cdf(x):
    return 0.5 * erfc(-np.asarray(x) / math.sqrt(2.0))


def table_mean_var(tab):
    """Mean and second moment from the CDF alone (integration by parts)."""
    g, f = tab.grid, tab.cdf
    upper = np.trapezoid(np.where(g >= 0, 1.0 - f, 0.0), g)
    lower = np.trapezoid(np.where(g < 0, f, 0.0), g)
    mean = float(upper - lower)
    m2 = float(
        np.trapezoid(np.where(g >= 0, 2.0 * g * (1.0 - f), 0.0), g)
        - np.trapezoid(np.where(g < 0, 2.0 * g * f, 0.0), g)
    )
    return mean, m2


class TestPipelineConfig:
    def test_valid_config(self):
        cfg = PipelineConfig(spec=SPEC, M=5, N=3, grid=default_z_grid(SPEC, 801))
        assert cfg.grid.shape == (801,)

    def test_m_zero_rejected(self):
        with pytest.raises(DomainError):
            PipelineConfig(spec=SPEC, M=0, N=3, grid=default_z_grid(SPEC, 801))

    def test_order_one_rejected(self):
        with pytest.raises(DomainError):
            PipelineConfig(spec=SPEC, M=5, N=1, grid=default_z_grid(SPEC, 801))

    def test_grid_must_cover_eight_sd(self):
        # total sd is 1 for a normalized spec; +/- 6 is not enough
        with pytest.raises(DomainError):
            PipelineConfig(spec=SPEC, M=5, N=3, grid=np.linspace(-6.0, 6.0, 801))

    def test_grid_must_be_uniform(self):
        grid = default_z_grid(SPEC, 801)
        PipelineConfig(spec=SPEC, M=5, N=3, grid=grid * (1.0 + 1e-12 * np.sin(grid)))
        bumped = grid.copy()
        bumped[400] += 1e-6 * (grid[1] - grid[0])
        with pytest.raises(DomainError, match="uniform"):
            PipelineConfig(spec=SPEC, M=5, N=3, grid=bumped)

    def test_default_grid_spans_eight_sd(self):
        g = default_z_grid(SPEC, 1001)
        assert g[0] == pytest.approx(-8.0, rel=1e-12)
        assert g[-1] == pytest.approx(8.0, rel=1e-12)


class TestTrivialLimits:
    def test_m1_order2_is_standard_normal(self):
        # empty head plus a zero-correction expansion: F_Z must be Phi
        cfg = PipelineConfig(spec=SPEC, M=1, N=2, grid=default_z_grid(SPEC, 801))
        tab = z_cdf(cfg)
        assert np.max(np.abs(tab.cdf - norm_cdf(tab.grid))) < 1e-12
        assert tab.pdf is not None
        phi = np.exp(-tab.grid**2 / 2.0) / math.sqrt(2.0 * math.pi)
        assert np.max(np.abs(tab.pdf - phi)) < 1e-12

    def test_m1_higher_order_matches_rescaled_expansion(self):
        # large r keeps the cumulants small enough that the density survives
        spec = GammaSumSpec(r=20.0, weights=ExplicitWeights((1.0, 0.6, 0.3)))
        sig = sigma_M(spec, 1)
        cfg = PipelineConfig(
            spec=spec, M=1, N=4, grid=np.linspace(-9.0 * sig, 9.0 * sig, 901)
        )
        tab = z_cdf(cfg)
        # cross-check the density path at the origin against the expansion
        ex = build_expansion(cumulants(spec, 1, 4), 4)
        mid = 450
        assert tab.grid[mid] == pytest.approx(0.0, abs=1e-12)
        assert tab.pdf[mid] == pytest.approx(edgeworth_pdf(ex, 0.0) / sig, rel=1e-9)
        mean, m2 = table_mean_var(tab)
        assert abs(mean) < 0.01 * sig
        assert m2 == pytest.approx(sig**2, rel=0.01)


class TestPointMassTail:
    def test_stubbed_sigma_reduces_to_head(self, monkeypatch):
        grid = default_z_grid(SPEC, 1201)
        head = invert_to_table(make_head_cf(SPEC, 6), grid)
        monkeypatch.setattr(pipeline_module, "_tail_sd", lambda s, m: 0.0)
        cfg = PipelineConfig(spec=SPEC, M=6, N=5, grid=grid)
        tab = z_cdf(cfg)
        assert np.max(np.abs(tab.cdf - head.cdf)) == 0.0
        assert np.max(np.abs(tab.pdf - head.pdf)) == 0.0

    def test_exhausted_explicit_weights_reduce_to_head(self):
        spec = GammaSumSpec(r=0.5, weights=ExplicitWeights((1.0, 0.7, 0.5, 0.3)))
        sd = sigma_M(spec, 1)
        grid = np.linspace(-8.5 * sd, 8.5 * sd, 1001)
        cfg = PipelineConfig(spec=spec, M=5, N=3, grid=grid)
        tab = z_cdf(cfg)
        head = invert_to_table(make_head_cf(spec, 5), grid)
        assert np.max(np.abs(tab.cdf - head.cdf)) == 0.0


class TestDiagnostics:
    # explicit weights (1, 0.7, 0.5, 0.3): M = 1 has an empty head, M = 3 a
    # head and a tail, M = 5 a head and an exhausted tail
    @pytest.mark.parametrize("m", [1, 3, 5])
    def test_z_tables_share_one_key_set(self, m):
        spec = GammaSumSpec(r=0.5, weights=ExplicitWeights((1.0, 0.7, 0.5, 0.3)))
        sd = sigma_M(spec, 1)
        grid = np.linspace(-8.5 * sd, 8.5 * sd, 1001)
        tab = z_cdf(PipelineConfig(spec=spec, M=m, N=3, grid=grid))
        want = {"tail_mass", "negative_tail_mass", "monotone_violation"}
        if m >= 2:
            want.add("head_series_tail_mass")
        assert set(tab.diagnostics) == want
        assert tab.diagnostics["tail_mass"] == (0.0 if m == 5 else pytest.approx(1.0))

    def test_head_table_keys(self):
        tab = invert_to_table(make_head_cf(SPEC, 5), default_z_grid(SPEC, 401))
        assert set(tab.diagnostics) == {
            "series_terms", "series_tail_mass", "monotone_violation"
        }


class TestConvolutionQuadrature:
    def test_against_adaptive_quadrature(self):
        """Fixed-rule convolution vs scipy.integrate.quad at spot checks."""
        m, n_order = 10, 5
        sig = sigma_M(SPEC, m)
        grid = default_z_grid(SPEC, 801)
        cfg = PipelineConfig(spec=SPEC, M=m, N=n_order, grid=grid)
        tab = z_cdf(cfg)

        ex = build_expansion(cumulants(SPEC, m, n_order), n_order)
        lo = grid[0] - 10.0 * sig
        hi = grid[-1] + 10.0 * sig
        head = invert_to_table(
            make_head_cf(SPEC, m), np.linspace(lo, hi, 4001)
        )
        interp = PchipInterpolator(head.grid, head.cdf, extrapolate=True)

        def integrand(y, x):
            return float(interp(x - y)) * edgeworth_pdf(ex, y / sig) / sig

        for idx in (100, 290, 400, 520, 700):
            x = grid[idx]
            val, err = quad(
                integrand, -10.0 * sig, 10.0 * sig, args=(x,),
                limit=200, epsabs=1e-10, epsrel=1e-10,
            )
            assert err < 1e-8
            assert tab.cdf[idx] == pytest.approx(val, abs=5e-7)

    def test_m2_against_closed_form_head_quadrature(self):
        """M = 2: the head is lambda_1 (eta_1 - 1), with the closed-form CDF
        gammainc(r, r (1 + x / lambda_1)), whose density has a square-root
        kink at x = -lambda_1.  quad of that CDF times the tail density,
        split at the kink, is independent of the lattice and the mixture."""
        m, n_order = 2, 5
        sig = sigma_M(SPEC, m)
        lam1 = float(SPEC.weights.head(m)[0])
        r = SPEC.r
        grid = default_z_grid(SPEC, 2001)
        tab = z_cdf(PipelineConfig(spec=SPEC, M=m, N=n_order, grid=grid))
        ex = build_expansion(cumulants(SPEC, m, n_order), n_order)

        def integrand(t, x):
            head = gammainc(r, r * (1.0 + (x - sig * t) / lam1))
            return head * edgeworth_pdf(ex, t)

        idx = np.arange(0, grid.size, 50)
        want = []
        for x in grid[idx]:
            # the head CDF is 0 for t past the support edge
            edge = min((x + lam1) / sig, 12.0)
            val = 0.0
            if edge > -12.0:
                val = quad(
                    integrand, -12.0, edge, args=(x,),
                    limit=500, epsabs=1e-13, epsrel=1e-12,
                )[0]
            want.append(val)
        # the table's own repair: clamp into [0, 1] and running maximum
        want = np.minimum(np.maximum.accumulate(np.maximum(want, 0.0)), 1.0)
        assert idx.size >= 41
        assert np.max(np.abs(tab.cdf[idx] - want)) < 2e-6

    def test_refinement_stability(self, monkeypatch):
        # halving the lattice step moves the CDF by < 1e-6
        cfg = PipelineConfig(spec=SPEC, M=5, N=5, grid=default_z_grid(SPEC, 401))
        base = z_cdf(cfg)
        steps = pipeline_module._lattice_steps
        monkeypatch.setattr(
            pipeline_module, "_lattice_steps", lambda n, h, sig: 2 * steps(n, h, sig)
        )
        fine = z_cdf(cfg)
        assert np.max(np.abs(base.cdf - fine.cdf)) < 1e-6

    def test_narrow_tail_lattice_budget(self, monkeypatch):
        # sigma_M = 6.8e-5 sd: at sigma_M / 200 the lattice would hold 41
        # windows of about 4000 points; the budget widens the step instead
        spec = GammaSumSpec(r=1.0, weights=PowerLawWeights(6.0, 1.0))
        cfg = PipelineConfig(spec=spec, M=5, N=4, grid=default_z_grid(spec, 41))
        sizes = []

        def counted(hcf, grid):
            sizes.append(len(grid))
            return invert_to_table(hcf, grid)

        monkeypatch.setattr(pipeline_module, "invert_to_table", counted)
        base = z_cdf(cfg)
        assert sizes and max(sizes) <= max(1 << 14, 41 * cfg.grid.size)
        budget = pipeline_module._LATTICE_BUDGET
        monkeypatch.setattr(pipeline_module, "_LATTICE_BUDGET", 4 * budget)
        wide = z_cdf(cfg)
        assert np.max(np.abs(base.cdf - wide.cdf)) < 1e-9

    def test_lattice_step_below_float_spacing(self):
        # at x = +/- 1e30 the lattice step sigma_M / 2 = 3.4e-5 vanishes in
        # rounding, so lattice points repeat; x = 0 keeps its full window
        spec = GammaSumSpec(r=1.0, weights=PowerLawWeights(6.0, 1.0))
        far_grid = np.linspace(-1e30, 1e30, 9)
        far = z_cdf(PipelineConfig(spec=spec, M=5, N=4, grid=far_grid))
        near = z_cdf(PipelineConfig(spec=spec, M=5, N=4, grid=default_z_grid(spec, 41)))
        assert far.cdf[0] == 0.0
        assert far.cdf[-1] == pytest.approx(1.0, abs=1e-9)
        assert far.cdf[4] == pytest.approx(near.cdf[20], abs=1e-9)


_NARROW_TAIL = GammaSumSpec(r=1.0, weights=PowerLawWeights(6.0, 1.0))
# (spec, M, N, grid, columns convolved): the M = 2 head, one gamma factor at
# r = 1/2, has no density, and the narrow tail's lattice head table drops it
_FFT_CASES = {
    **{
        f"reference_M{m}": (SPEC, m, 5, default_z_grid(SPEC, 2001), 1 if m == 2 else 2)
        for m in (2, 5, 10, 20)
    },
    "narrow_tail": (_NARROW_TAIL, 5, 4, default_z_grid(_NARROW_TAIL, 41), 1),
    "far_grid": (_NARROW_TAIL, 5, 4, np.linspace(-1e30, 1e30, 9), 1),
}


class TestWindowedSums:
    @pytest.mark.parametrize("case", list(_FFT_CASES), ids=list(_FFT_CASES))
    def test_fft_matches_direct_windowed_sum(self, case, monkeypatch):
        """Every window sum of a Z table, CDF and PDF columns, against the
        direct sum of the same lattice values and weights."""
        spec, m, n_order, grid, columns = _FFT_CASES[case]
        windowed_sums, calls = pipeline_module._windowed_sums, []

        def recorded(v, w, stride):
            calls.append((v, w, stride, windowed_sums(v, w, stride)))
            return calls[-1][-1]

        monkeypatch.setattr(pipeline_module, "_windowed_sums", recorded)
        z_cdf(PipelineConfig(spec=spec, M=m, N=n_order, grid=grid))
        assert len(calls) == columns
        for v, w, stride, out in calls:
            rows = np.lib.stride_tricks.sliding_window_view(v, w.size)[::stride]
            direct = rows @ w[::-1]
            assert out.shape == direct.shape == grid.shape
            assert np.max(np.abs(out - direct)) < 1e-13


class TestTableQuality:
    @pytest.mark.parametrize("m", [2, 10])
    def test_moments_conserved(self, m):
        tab = z_cdf(PipelineConfig(spec=SPEC, M=m, N=5, grid=default_z_grid(SPEC, 1501)))
        mean, m2 = table_mean_var(tab)
        assert abs(mean) < 0.01
        assert m2 == pytest.approx(1.0, rel=0.01)

    def test_density_present_when_head_has_one(self):
        tab = z_cdf(PipelineConfig(spec=SPEC, M=10, N=5, grid=default_z_grid(SPEC, 801)))
        assert tab.pdf is not None
        assert float(np.min(tab.pdf)) >= 0.0
        assert "tail_mass" in tab.diagnostics

    def test_density_omitted_when_dense_head_table_drops_it(self):
        # a 10-sd grid step: the lattice head table keeps its density, the
        # dense table of 8001 points over +/- 1e4 sd cannot integrate it
        grid = np.linspace(-1e4, 1e4, 2001)
        tab = z_cdf(PipelineConfig(spec=SPEC, M=10, N=5, grid=grid))
        assert tab.pdf is None
        assert any(w.startswith("density omitted: its grid mass") for w in tab.warnings)

    def test_density_omitted_for_single_factor_head(self):
        # M=2 at r=1/2 leaves a head density unbounded at its left end
        tab = z_cdf(PipelineConfig(spec=SPEC, M=2, N=5, grid=default_z_grid(SPEC, 801)))
        assert tab.pdf is None
        assert any("density" in w for w in tab.warnings)

    def test_negative_mass_warning_tracks_expansion(self):
        # shape r=0.2 with a lopsided tail pushes the third cumulant high
        # enough that the expansion's negative mass crosses the 1e-3 gate
        spec = GammaSumSpec(
            r=0.2, weights=ExplicitWeights((1.0, 0.9, 0.22, 0.2, 0.18, 0.16))
        )
        sd = sigma_M(spec, 1)
        grid = np.linspace(-9.0 * sd, 9.0 * sd, 1001)
        tab = z_cdf(PipelineConfig(spec=spec, M=3, N=3, grid=grid))
        assert any("negative" in w for w in tab.warnings)
        clean = z_cdf(PipelineConfig(spec=SPEC, M=10, N=5, grid=default_z_grid(SPEC, 801)))
        assert not any("negative" in w for w in clean.warnings)

    def test_tail_mass_warning_matches_closed_form(self):
        # one tail weight at r = 5 and N = 18: the expansion density
        # integrates over +/- 10 sd to 1 + 2.3e-6, past the 1e-6 gate, while
        # its negative mass (0.13) stays repairable.  Each Hermite term
        # phi H_{d+1} integrates over [-10, 10] to -phi(10) (H_d(10) - H_d(-10))
        spec = GammaSumSpec(r=5.0, weights=ExplicitWeights((1.0, 1.0)))
        tab = z_cdf(PipelineConfig(spec=spec, M=2, N=18, grid=default_z_grid(spec, 201)))
        coef = build_expansion(cumulants(spec, 2, 18), 18).coef
        phi10 = math.exp(-50.0) / math.sqrt(2.0 * math.pi)
        want = erf(10.0 / math.sqrt(2.0)) - phi10 * (hermeval(10.0, coef) - hermeval(-10.0, coef))
        mass = tab.diagnostics["tail_mass"]
        assert mass == pytest.approx(want, abs=1e-9)
        assert mass - 1.0 > 1e-6
        assert f"tail density mass deviates from 1 by {mass - 1.0:.2e}" in tab.warnings


class TestAgainstSampler:
    def test_ks_distance_to_monte_carlo(self):
        tab = z_cdf(PipelineConfig(spec=SPEC, M=10, N=5, grid=default_z_grid(SPEC, 1001)))
        batch = sample_z(SPEC, "normal_tail", 100_000, seed=2024, n_terms=512)
        d = ks_distance(batch, lambda v: np.interp(v, tab.grid, tab.cdf))
        assert d < 0.01


class TestMRobustness:
    def test_identical_levels_give_zero(self):
        cfg = PipelineConfig(spec=SPEC, M=10, N=3, grid=default_z_grid(SPEC, 401))
        spread, tables = m_robustness(cfg, [10, 10])
        assert spread == 0.0
        assert list(tables) == [10]

    def test_needs_two_levels(self):
        cfg = PipelineConfig(spec=SPEC, M=10, N=3, grid=default_z_grid(SPEC, 401))
        with pytest.raises(DomainError):
            m_robustness(cfg, [10])

    def test_small_across_adjacent_levels(self):
        cfg = PipelineConfig(spec=SPEC, M=5, N=5, grid=default_z_grid(SPEC, 401))
        assert m_robustness(cfg, [5, 10])[0] < 0.01

    def test_higher_order_absorbs_truncation_better(self):
        grid = default_z_grid(SPEC, 401)
        rob = {
            n: m_robustness(PipelineConfig(spec=SPEC, M=2, N=n, grid=grid), [2, 20])[0]
            for n in (2, 5)
        }
        assert rob[5] <= rob[2]

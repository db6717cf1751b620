"""Monte-Carlo sampling of Z, the head, and the normalized tail, plus KS.

Oracles here are classical statistics: LLN/CLT moment bands with 4-sigma
slack at fixed seeds, the asymptotic KS quantile for samples that really do
come from the reference CDF, and exact support constraints.
"""

import math

import numpy as np
import pytest
from scipy.stats import gamma as gamma_dist, norm

from gammasum import mc_oracle
from gammasum.cumulants import berry_esseen_bound, cumulants, sigma_M
from gammasum.errors import DomainError
from gammasum.mc_oracle import (
    SampleBatch,
    ks_distance,
    sample_head,
    sample_tail,
    sample_z,
)
from gammasum.weights import (
    ExplicitWeights,
    GammaSumSpec,
    PowerLawWeights,
    make_power_law_normalized,
)


def reference_spec():
    return make_power_law_normalized(gamma=0.75, r=0.5)


def geometric_spec(n_terms=60, r=0.5):
    values = tuple(2.0 ** -(n + 1) for n in range(n_terms))
    return GammaSumSpec(r=r, weights=ExplicitWeights(values))


class TestSampler:
    def test_single_weight_moments(self):
        # lambda (eta - 1) with eta ~ gamma(shape r, mean 1): mean 0, var
        # lambda^2 / r = 2.  Bands are ~4 sigma at n = 10^6.
        spec = GammaSumSpec(r=0.5, weights=ExplicitWeights((1.0,)))
        batch = sample_z(spec, "truncate", 1_000_000, seed=7)
        assert batch.n_samples == 1_000_000
        assert abs(float(np.mean(batch.values))) < 0.006
        assert float(np.var(batch.values)) == pytest.approx(2.0, abs=0.02)

    def test_determinism(self):
        spec = reference_spec()
        a = sample_z(spec, "normal_tail", 2000, seed=42, n_terms=64)
        b = sample_z(spec, "normal_tail", 2000, seed=42, n_terms=64)
        np.testing.assert_array_equal(a.values, b.values)
        c = sample_z(spec, "normal_tail", 2000, seed=43, n_terms=64)
        assert not np.array_equal(a.values, c.values)

    def test_mode_changes_variance(self):
        # with the series cut at 256 terms the neglected variance is ~4.8%;
        # normal_tail restores it, truncate leaves it missing
        spec = reference_spec()
        n, L = 100_000, 256
        missing = sigma_M(spec, L + 1) ** 2
        assert missing > 0.03
        v_nt = float(np.var(sample_z(spec, "normal_tail", n, seed=5, n_terms=L).values))
        v_tr = float(np.var(sample_z(spec, "truncate", n, seed=5, n_terms=L).values))
        assert v_nt == pytest.approx(1.0, abs=0.02)
        assert v_tr == pytest.approx(1.0 - missing, abs=0.02)

    def test_metadata_recorded(self):
        spec = reference_spec()
        batch = sample_z(spec, "normal_tail", 100, seed=1, n_terms=50)
        assert batch.seed == 1
        assert batch.n_terms == 50
        assert batch.mode == "normal_tail"
        assert batch.neglected_sd == pytest.approx(sigma_M(spec, 51), rel=1e-12)
        assert isinstance(batch.rng_algorithm, str) and batch.rng_algorithm

    def test_default_term_rule_capped(self):
        # gamma = 3/4 would need ~10^15 terms for a 1e-4 neglected sd; the
        # default must cap and record what was actually neglected
        batch = sample_z(reference_spec(), "normal_tail", 10, seed=0)
        assert batch.n_terms == 4096
        assert batch.neglected_sd == pytest.approx(
            sigma_M(reference_spec(), 4097), rel=1e-12
        )

    def test_default_term_rule_with_underflowed_tail(self):
        # zeta(100, 4097) underflows to 0, so the tail sd at the cap reads 0:
        # that meets the target instead of reading as an empty tail
        spec = GammaSumSpec(r=0.5, weights=PowerLawWeights(gamma=50.0, scale=1.0))
        batch = sample_z(spec, "normal_tail", 10, seed=0)
        assert batch.n_terms == 1
        assert 0.0 < batch.neglected_sd <= 1e-4
        assert np.all(np.isfinite(batch.values))

    def test_default_term_rule_met_when_feasible(self):
        values = tuple(2.0 ** -(n + 1) for n in range(30))
        spec = GammaSumSpec(r=1.0, weights=ExplicitWeights(values))
        batch = sample_z(spec, "truncate", 10, seed=0)
        assert batch.n_terms == 30
        assert batch.neglected_sd == 0.0

    def test_exact_chi_square_at_half(self):
        # at r = 1/2, lambda = 1: Z + 1 ~ Gamma(1/2, scale 2) exactly; the
        # fixed seed sits inside the 99% KS quantile
        spec = GammaSumSpec(r=0.5, weights=ExplicitWeights((1.0,)))
        n = 1_000_000
        batch = sample_z(spec, "truncate", n, seed=2)
        d = ks_distance(batch, lambda v: gamma_dist.cdf(v + 1.0, 0.5, scale=2.0))
        assert d < 1.63 / math.sqrt(n)

    def test_values_do_not_depend_on_worker_count(self, monkeypatch):
        args = (reference_spec(), "normal_tail", 3 * 2048 + 5, 8, 600)
        default = sample_z(*args).values
        monkeypatch.setattr(mc_oracle, "_WORKERS", 1)
        np.testing.assert_array_equal(sample_z(*args).values, default)

    def test_ragged_sizes(self):
        # neither size a multiple of its chunk; mean 0 and unit variance
        # within ~4 sigma, and whole chunks do not depend on the sample count
        spec = reference_spec()
        n, terms = 200_001, 777
        batch = sample_z(spec, "normal_tail", n, seed=29, n_terms=terms)
        assert batch.values.shape == (n,)
        assert float(np.mean(batch.values)) == pytest.approx(0.0, abs=0.01)
        assert float(np.var(batch.values)) == pytest.approx(1.0, abs=0.02)
        short = sample_z(spec, "normal_tail", 4096, seed=29, n_terms=terms)
        np.testing.assert_array_equal(short.values, batch.values[:4096])

    def test_mode_validation(self):
        with pytest.raises(DomainError):
            sample_z(reference_spec(), "bogus", 10, seed=0)


class TestHeadAndTail:
    def test_head_exact_moments(self):
        spec = reference_spec()
        m = 5
        batch = sample_head(spec, m, 400_000, seed=11)
        assert batch.n_terms == m - 1
        assert batch.neglected_sd == 0.0
        head_var = 1.0 - sigma_M(spec, m) ** 2
        assert float(np.mean(batch.values)) == pytest.approx(0.0, abs=0.01)
        assert float(np.var(batch.values)) == pytest.approx(head_var, abs=0.01)

    def test_empty_head(self):
        batch = sample_head(reference_spec(), 1, 100, seed=3)
        assert np.all(batch.values == 0.0)

    def test_tail_normalized_variance(self):
        spec = reference_spec()
        batch = sample_tail(spec, 10, "normal_tail", 200_000, seed=17, n_terms=512)
        assert float(np.mean(batch.values)) == pytest.approx(0.0, abs=0.01)
        assert float(np.var(batch.values)) == pytest.approx(1.0, abs=0.02)

    def test_tail_berry_esseen_band(self):
        # normal approximation error at MC resolution: KS to Phi within the
        # Berry-Esseen bound plus 3 KS bands
        spec = reference_spec()
        m, n = 10, 100_000
        batch = sample_tail(spec, m, "normal_tail", n, seed=23, n_terms=512)
        band = 1.63 / math.sqrt(n)
        assert ks_distance(batch, norm.cdf) <= berry_esseen_bound(spec, m) + 3 * band

    def test_geometric_support_bound(self):
        # lambda_n = 2^(-n-1): the normalized tail never goes below -sqrt(3r)
        for r in (0.5, 2.0):
            spec = geometric_spec(r=r)
            bound = -math.sqrt(3.0 * r)
            for m in (1, 3, 7):
                batch = sample_tail(spec, m, "truncate", 200_000, seed=m)
                assert float(batch.values.min()) >= bound - 1e-12


class TestKsDistance:
    def test_true_normal_sample(self):
        rng = np.random.default_rng(123)
        batch = SampleBatch(
            values=rng.standard_normal(1_000_000),
            seed=123,
            n_terms=0,
            n_samples=1_000_000,
            mode="external",
            neglected_sd=0.0,
        )
        # 1.63/sqrt(n) is the 99% KS quantile; this fixed seed sits inside
        assert ks_distance(batch, norm.cdf) < 0.0017

    def test_against_own_empirical_cdf(self):
        rng = np.random.default_rng(9)
        vals = rng.standard_normal(1000)
        batch = SampleBatch(
            values=vals, seed=9, n_terms=0, n_samples=1000,
            mode="external", neglected_sd=0.0,
        )
        srt = np.sort(vals)

        def emp(x):
            return np.searchsorted(srt, x, side="right") / srt.size

        assert ks_distance(batch, emp) <= 1.0 / 1000 + 1e-12

    def test_scalar_only_callable(self):
        batch = SampleBatch(
            values=np.array([-1.0, 0.0, 1.0]), seed=0, n_terms=0,
            n_samples=3, mode="external", neglected_sd=0.0,
        )
        d_scalar = ks_distance(batch, lambda x: float(norm.cdf(x)))
        d_vec = ks_distance(batch, norm.cdf)
        assert d_scalar == pytest.approx(d_vec, abs=1e-15)

    def test_shifted_cdf_detected(self):
        rng = np.random.default_rng(31)
        batch = SampleBatch(
            values=rng.standard_normal(100_000) + 0.5,
            seed=31, n_terms=0, n_samples=100_000,
            mode="external", neglected_sd=0.0,
        )
        d = ks_distance(batch, norm.cdf)
        # true sup gap for a 0.5 shift is Phi(0.25) - Phi(-0.25) ~ 0.197
        assert d == pytest.approx(0.197, abs=0.01)

    def test_empty_rejected(self):
        batch = SampleBatch(
            values=np.array([]), seed=0, n_terms=0, n_samples=0,
            mode="external", neglected_sd=0.0,
        )
        with pytest.raises(DomainError):
            ks_distance(batch, norm.cdf)

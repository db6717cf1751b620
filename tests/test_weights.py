"""Weight sequences and exact tail power sums.

Oracle strategy: every zeta-based closed form is checked against brute-force
partial sums of 10^7 terms with an independent midpoint-rule tail estimate
and a rigorous integral bracket; no code path of the library is reused in
the oracles.
"""

import json
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gammasum.errors import DomainError, SpecFormatError
from oracles import brute_zeta_bracket, brute_zeta_tail
from gammasum.weights import (
    ExplicitWeights,
    GammaSumSpec,
    PowerLawWeights,
    make_power_law_normalized,
    spec_from_dict,
    spec_to_dict,
    tail_power_sum,
    tail_weight_sum,
    zeta,
    _zs,
)


def raw_sum(pair, k):
    """S_k(M) = c**k * s from the (c, s) pair of a tail power sum."""
    c, s = pair
    return c**k * s


class TestZeta:
    def test_against_brute_force_oracle(self):
        for s in (1.1, 1.5, 2.0, 3.0, 6.0):
            assert zeta(s) == pytest.approx(brute_zeta_tail(s), abs=1e-10)

    def test_within_rigorous_bracket(self):
        for s in (1.1, 1.5, 3.0):
            lower, upper = brute_zeta_bracket(s)
            assert lower - 1e-12 <= zeta(s) <= upper + 1e-12

    def test_classical_closed_forms(self):
        assert zeta(2.0) == pytest.approx(math.pi**2 / 6.0, abs=1e-13)
        assert zeta(4.0) == pytest.approx(math.pi**4 / 90.0, abs=1e-13)
        # Apery's constant, standard reference value.
        assert zeta(3.0) == pytest.approx(1.2020569031595943, abs=1e-13)

    @pytest.mark.parametrize("m", [1, 2, 49, 50, 51, 500, 4097])
    def test_hurwitz_tail_relative_error_against_mpmath(self, m):
        # the error of zs(s, m) = m^s zeta(s, m) must stay relative as s
        # grows; m = 4097 is where the sampler's term count evaluates
        # sigma_M.  mpmath cancels about s log10(m + 1) digits, hence the
        # working precision
        ss = np.concatenate([np.linspace(1.001, 60.0, 60), [1.0001, 12.0, 30.0]])
        got = _zs(ss, m)
        for s, g in zip(ss.tolist(), got.tolist()):
            with mpmath.workdps(40 + math.ceil(s * math.log10(m + 1))):
                want = mpmath.mpf(m) ** s * mpmath.zeta(s, m)
                rel = float(abs(g - want) / want)
            assert rel <= 1e-14, (s, m, rel)

    def test_underflowed_tail_is_zero(self):
        # every term past the first underflows here, so zs is exactly 1
        assert _zs(1e14, 2) == 1.0
        assert _zs(1e14, 1) == 1.0

    def test_scaled_hurwitz_grid_against_mpmath(self):
        # s and q from 1.1 and 1 up to 1000 and 1e5, where scipy's
        # zeta(s, q) is 0 or NaN; s = inf, from gamma = 1e308, gives 1
        ss = np.array([1.1, 1.5, 2.0, 3.0, 6.0, 12.0, 30.0, 60.0, 200.0, 1000.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for q in (1, 2, 3, 49, 50, 64, 200, 1000, 4097, 100_000):
                got = _zs(ss, q)
                assert _zs(math.inf, q) == 1.0
                assert _zs(1e308, q) == 1.0
                for s, g in zip(ss.tolist(), got.tolist()):
                    assert _zs(s, q) == g
                    with mpmath.workdps(40 + math.ceil(s * math.log10(q + 1))):
                        want = mpmath.mpf(q) ** s * mpmath.zeta(s, q)
                        rel = float(abs(g - want) / want)
                    assert rel <= 1e-15, (s, q, rel)

    def test_large_s_approaches_one(self):
        assert zeta(30.0) == pytest.approx(1.0 + 2.0**-30, rel=1e-9)

    def test_domain(self):
        with pytest.raises(DomainError):
            zeta(1.0)
        with pytest.raises(DomainError):
            zeta(0.5)


class TestPowerLawWeights:
    def test_value_and_head(self):
        w = PowerLawWeights(gamma=0.75, scale=2.0)
        assert w.value(1) == pytest.approx(2.0)
        assert w.value(16) == pytest.approx(2.0 * 16**-0.75)
        np.testing.assert_allclose(w.head(4), 2.0 * np.arange(1, 4) ** -0.75)
        assert w.head(1).size == 0

    def test_gamma_domain(self):
        with pytest.raises(DomainError):
            PowerLawWeights(gamma=0.5, scale=1.0)
        with pytest.raises(DomainError):
            PowerLawWeights(gamma=0.75, scale=-1.0)


class TestExplicitWeights:
    def test_requires_positive_non_increasing(self):
        ExplicitWeights(values=(0.5, 0.5, 0.25))
        with pytest.raises(DomainError):
            ExplicitWeights(values=(0.25, 0.5))
        with pytest.raises(DomainError):
            ExplicitWeights(values=(0.5, 0.0))
        with pytest.raises(DomainError):
            ExplicitWeights(values=())

    def test_values_held_once_as_read_only_array(self):
        w = ExplicitWeights((1.0, 0.5, 0.25))
        assert w.array.dtype == np.float64 and w.array.tolist() == [1.0, 0.5, 0.25]
        assert not w.array.flags.writeable
        assert not w.head(3).flags.writeable  # a view, not a copy
        # the array is derived: equality, hashing and repr read the tuple
        other = ExplicitWeights((1, 0.5, 0.25))
        assert w == other and hash(w) == hash(other)
        assert repr(w) == "ExplicitWeights(values=(1.0, 0.5, 0.25))"

    def test_tail_beyond_list_is_zero(self):
        spec = GammaSumSpec(r=1.0, weights=ExplicitWeights(values=(1.0,)))
        assert tail_power_sum(spec, 2, 2) == (0.0, 0.0)


class TestTailPowerSum:
    def test_normalized_m1_k2_recovers_r(self):
        spec = make_power_law_normalized(gamma=0.75, r=0.5)
        assert raw_sum(tail_power_sum(spec, 1, 2), 2) == pytest.approx(0.5, rel=1e-12)

    def test_reference_m5_k3_against_brute_sum(self):
        spec = make_power_law_normalized(gamma=0.75, r=0.5)
        c = spec.weights.scale
        oracle = c**3 * brute_zeta_tail(2.25, start=5)
        assert raw_sum(tail_power_sum(spec, 5, 3), 3) == pytest.approx(oracle, abs=1e-10)

    def test_near_divergent_exponent_against_brute_sum(self):
        # k*gamma = 1.02: slowly converging tail exercises the correction terms.
        spec = GammaSumSpec(r=1.0, weights=PowerLawWeights(gamma=0.51, scale=1.0))
        oracle = brute_zeta_tail(1.02, start=7, n_terms=2 * 10**7)
        assert raw_sum(tail_power_sum(spec, 7, 2), 2) == pytest.approx(oracle, rel=1e-9)

    def test_explicit_tail_sums(self):
        spec = GammaSumSpec(r=1.0, weights=ExplicitWeights(values=(1.0, 0.5, 0.25)))
        assert raw_sum(tail_power_sum(spec, 1, 2), 2) == pytest.approx(1.0 + 0.25 + 0.0625)
        assert raw_sum(tail_power_sum(spec, 2, 3), 3) == pytest.approx(0.125 + 0.015625)
        assert raw_sum(tail_power_sum(spec, 4, 2), 2) == 0.0

    def test_overflowing_explicit_sum_is_infinite(self):
        # 1e308^2 leaves the float range, but the pair (c, s) stays in it and
        # c * c * s reads inf, not an errno error (c**2 would raise)
        spec = GammaSumSpec(r=0.5, weights=ExplicitWeights(values=(1e308, 1e308)))
        c, s = tail_power_sum(spec, 1, 2)
        assert (c, s) == (1e308, 2.0) and c * c * s == math.inf
        c, s = spec.weights.tail_power_sum(1, 1)
        assert c * s == math.inf
        doc = {"r": 0.5, "weights": {"kind": "explicit", "values": [1e308, 1e308]}}
        assert not spec_from_dict(doc).normalized

    def test_strictly_decreasing_in_m_for_power_law(self):
        spec = make_power_law_normalized(gamma=0.75, r=0.5)
        vals = [raw_sum(tail_power_sum(spec, m, 3), 3) for m in range(1, 30)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_rejects_divergent_power_law(self):
        spec = GammaSumSpec(r=1.0, weights=PowerLawWeights(gamma=0.51, scale=1.0))
        # k = 2 converges (s = 1.02); a direct request below the bar must fail.
        with pytest.raises(DomainError):
            spec.weights.tail_power_sum(1, 1)

    def test_argument_validation(self):
        spec = make_power_law_normalized(gamma=0.75, r=0.5)
        with pytest.raises(DomainError):
            tail_power_sum(spec, 0, 2)
        with pytest.raises(DomainError):
            tail_power_sum(spec, 1, 1)

    @pytest.mark.parametrize(
        "weights, m",
        [
            (PowerLawWeights(gamma=0.51, scale=1.0), 7),
            (PowerLawWeights(gamma=2.5, scale=3.0), 200),
            (PowerLawWeights(gamma=1e308, scale=1.0), 3),  # k gamma = inf
            (ExplicitWeights(values=tuple(np.linspace(2.0, 0.01, 300))), 5),
            (ExplicitWeights(values=(1.0, 0.5)), 3),  # empty tail
        ],
    )
    def test_sequence_of_k_matches_scalar_reads(self, weights, m):
        spec = GammaSumSpec(r=1.0, weights=weights)
        ks = range(2, 21)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            c, s = tail_power_sum(spec, m, ks)
            scalar = [tail_power_sum(spec, m, k) for k in ks]
        assert isinstance(s, np.ndarray) and s.shape == (len(ks),)
        assert [pair[0] for pair in scalar] == [c] * len(ks)
        np.testing.assert_allclose(s, [pair[1] for pair in scalar], rtol=1e-15, atol=0.0)

    def test_sequence_of_k_is_checked_per_entry(self):
        spec = make_power_law_normalized(gamma=0.75, r=0.5)
        for bad in ([2, 1], [2, 3.0], [2, True], ["2"]):
            with pytest.raises(DomainError, match="power k"):
                tail_power_sum(spec, 3, bad)

    @given(
        gamma=st.floats(0.55, 3.0),
        m=st.integers(1, 60),
        k=st.integers(2, 8),
    )
    @settings(max_examples=60, deadline=None)
    def test_telescoping_power_law(self, gamma, m, k):
        spec = GammaSumSpec(r=1.0, weights=PowerLawWeights(gamma=gamma, scale=1.3))
        s_m = raw_sum(tail_power_sum(spec, m, k), k)
        s_next = raw_sum(tail_power_sum(spec, m + 1, k), k)
        lam_m = spec.weights.value(m)
        assert s_m == pytest.approx(s_next + lam_m**k, rel=1e-12, abs=1e-300)

    @given(
        values=st.lists(st.floats(1e-3, 10.0), min_size=1, max_size=12),
        m=st.integers(1, 14),
        k=st.integers(2, 6),
    )
    @settings(max_examples=60, deadline=None)
    def test_telescoping_explicit(self, values, m, k):
        ordered = tuple(sorted(values, reverse=True))
        spec = GammaSumSpec(r=2.0, weights=ExplicitWeights(values=ordered))
        s_m = raw_sum(tail_power_sum(spec, m, k), k)
        s_next = raw_sum(tail_power_sum(spec, m + 1, k), k)
        lam_m = ordered[m - 1] if m <= len(ordered) else 0.0
        assert s_m == pytest.approx(s_next + lam_m**k, rel=1e-12, abs=0.0)


class TestTailWeightSum:
    def test_geometric_closed_form(self):
        lam = tuple(2.0 ** -(n + 1) for n in range(1, 41))
        spec = GammaSumSpec(r=0.5, weights=ExplicitWeights(values=lam))
        assert tail_weight_sum(spec, 3) == pytest.approx(sum(lam[2:]), rel=1e-15)

    def test_power_law_against_brute_sum(self):
        spec = GammaSumSpec(r=1.0, weights=PowerLawWeights(gamma=1.5, scale=2.0))
        oracle = 2.0 * brute_zeta_tail(1.5, start=4)
        assert tail_weight_sum(spec, 4) == pytest.approx(oracle, abs=1e-10)

    def test_divergent_power_law_is_infinite(self):
        spec = make_power_law_normalized(gamma=0.75, r=0.5)
        assert tail_weight_sum(spec, 1) == math.inf


class TestNormalization:
    def test_c_constant_reference_value(self):
        # r = 1/2, gamma = 3/4: C = (2 zeta(3/2))^(-1/2), tabulated 0.4375.
        spec = make_power_law_normalized(gamma=0.75, r=0.5)
        assert spec.weights.scale == pytest.approx(0.4375, abs=5e-5)
        assert spec.weights.scale == pytest.approx(
            (2.0 * zeta(1.5)) ** -0.5, rel=1e-14
        )

    def test_unit_gamma_unit_r_closed_form(self):
        spec = make_power_law_normalized(gamma=1.0, r=1.0)
        assert spec.weights.scale == pytest.approx(
            (math.pi**2 / 6.0) ** -0.5, rel=1e-13
        )

    @given(gamma=st.floats(0.51, 4.0), r=st.floats(0.05, 20.0))
    @settings(max_examples=80, deadline=None)
    def test_variance_normalization_holds(self, gamma, r):
        spec = make_power_law_normalized(gamma=gamma, r=r)
        assert spec.normalized
        assert raw_sum(tail_power_sum(spec, 1, 2), 2) / r == pytest.approx(1.0, rel=1e-12)

    def test_normalized_flag_is_checked(self):
        with pytest.raises(DomainError):
            GammaSumSpec(
                r=1.0, weights=PowerLawWeights(gamma=0.75, scale=1.0), normalized=True
            )

    def test_r_domain(self):
        with pytest.raises(DomainError):
            GammaSumSpec(r=0.0, weights=PowerLawWeights(gamma=0.75, scale=1.0))


class TestSerialization:
    def test_power_law_round_trip(self):
        spec = make_power_law_normalized(gamma=0.75, r=0.5)
        d = spec_to_dict(spec)
        assert d["weights"]["kind"] == "power_law"
        back = spec_from_dict(json.loads(json.dumps(d)))
        assert back.r == spec.r
        assert back.weights == spec.weights
        assert back.normalized  # carried by the stored flag

    def test_explicit_round_trip(self):
        spec = GammaSumSpec(r=2.0, weights=ExplicitWeights(values=(0.5, 0.25)))
        back = spec_from_dict(spec_to_dict(spec))
        assert back.weights.values == (0.5, 0.25)
        assert not back.normalized

    def test_malformed_dicts_rejected(self):
        for bad in (
            {},
            {"r": 1.0},
            {"r": 1.0, "weights": {"kind": "unknown"}},
            {"r": 1.0, "weights": {"kind": "power_law", "gamma": 0.75}},
            {"r": "x", "weights": {"kind": "explicit", "values": [1.0]}},
            {"r": 1.0, "weights": {"kind": "explicit", "values": []}},
            {"r": 1.0, "weights": {"kind": "explicit", "values": [1.0]}, "extra": 1},
            {"r": 1.0, "weights": {"kind": "explicit", "values": [1.0], "gamma": 2}},
            {"r": 1.0, "weights": {"kind": "power_law", "gamma": 0.75, "scale": 1,
                                   "values": [1.0]}},
            {"r": 1.0, "weights": {"kind": "explicit", "values": [1.0]}, "normalized": 1},
            {"r": True, "weights": {"kind": "explicit", "values": [1.0]}},
        ):
            with pytest.raises(SpecFormatError):
                spec_from_dict(bad)

    def test_spec_format_error_is_a_domain_error(self):
        assert issubclass(SpecFormatError, DomainError)

    def test_normalized_flag_is_honoured_and_checked(self):
        spec = make_power_law_normalized(gamma=0.75, r=0.5)
        d = spec_to_dict(spec)
        assert d["normalized"] is True
        assert not spec_from_dict({**d, "normalized": False}).normalized
        off = {"r": 1.0, "weights": d["weights"]}
        assert not spec_from_dict(off).normalized
        with pytest.raises(DomainError):
            spec_from_dict({**off, "normalized": True})

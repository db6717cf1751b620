"""One input rule per argument kind, checked over the public entry points.

Every integer argument accepts Python and numpy integers and rejects bools
and floats; every real-number argument accepts any finite real (numpy
scalars included, stored as Python floats) and rejects bools and
non-numbers; every grid is 1-D, finite and strictly increasing.  A rejected
value always raises DomainError, never a TypeError.
"""

import json
import math

import numpy as np
import pytest

from gammasum import (
    DistributionTable,
    DomainError,
    ExplicitWeights,
    GammaSumSpec,
    PipelineConfig,
    PowerLawWeights,
    build_expansion,
    cumulant_via_integral,
    default_grid,
    default_z_grid,
    enumerate_eta,
    hermite,
    invert_to_table,
    levy_tail_density,
    m_robustness,
    make_head_cf,
    make_power_law_normalized,
    sample_head,
    sample_tail,
    sample_z,
    sigma_M,
    tail_cumulants,
    tail_power_sum,
)
from gammasum.weights import spec_to_dict, zeta

SPEC = make_power_law_normalized(0.75, 0.5)
EXPLICIT = GammaSumSpec(r=1.0, weights=ExplicitWeights((1.0, 0.5, 0.25, 0.125)))
TC = tail_cumulants(SPEC, 5, 6)
Z_GRID = default_z_grid(SPEC, 101)
CFG = PipelineConfig(spec=SPEC, M=1, N=3, grid=Z_GRID)

# (entry point and argument, call taking the argument, a valid value)
INTEGER_ARGS = [
    ("tail_power_sum M", lambda v: tail_power_sum(SPEC, v, 2), 3),
    ("tail_power_sum k", lambda v: tail_power_sum(SPEC, 3, v), 2),
    ("sigma_M M", lambda v: sigma_M(SPEC, v), 2),
    ("cumulants M", lambda v: tail_cumulants(SPEC, v, 5), 1),
    ("cumulants K", lambda v: tail_cumulants(SPEC, 5, v), 5),
    ("TailCumulants.kappa_k k", lambda v: TC.kappa_k(v), 3),
    ("enumerate_eta N", enumerate_eta, 4),
    ("build_expansion N", lambda v: build_expansion(TC, v), 4),
    ("hermite k", lambda v: hermite(v, 0.5), 1),
    ("levy_tail_density M", lambda v: levy_tail_density(EXPLICIT, v), 1),
    ("cumulant_via_integral k", lambda v: cumulant_via_integral(EXPLICIT, 2, v), 3),
    ("make_head_cf M", lambda v: make_head_cf(SPEC, v), 3),
    ("default_grid M", lambda v: default_grid(SPEC, v), 3),
    ("default_grid points", lambda v: default_grid(SPEC, 3, v), 11),
    ("default_z_grid points", lambda v: default_z_grid(SPEC, v), 11),
    ("PipelineConfig M", lambda v: PipelineConfig(spec=SPEC, M=v, N=3, grid=Z_GRID), 1),
    ("PipelineConfig N", lambda v: PipelineConfig(spec=SPEC, M=5, N=v, grid=Z_GRID), 3),
    ("m_robustness M", lambda v: m_robustness(CFG, [v, 1]), 1),
    ("sample_z n_samples", lambda v: sample_z(SPEC, "normal_tail", v, 1, n_terms=8), 5),
    ("sample_z seed", lambda v: sample_z(SPEC, "normal_tail", 5, v, n_terms=8), 1),
    ("sample_z n_terms", lambda v: sample_z(SPEC, "normal_tail", 5, 1, n_terms=v), 8),
    ("sample_head M", lambda v: sample_head(SPEC, v, 5, 1), 3),
    ("sample_tail M", lambda v: sample_tail(SPEC, v, "truncate", 5, 1, n_terms=8), 3),
    ("PowerLawWeights.value n", SPEC.weights.value, 1),
    ("ExplicitWeights.value n", EXPLICIT.weights.value, 1),
]

REAL_ARGS = [
    ("zeta s", zeta, 2.0),
    ("PowerLawWeights gamma", lambda v: PowerLawWeights(v, 1.0), 0.75),
    ("PowerLawWeights scale", lambda v: PowerLawWeights(0.75, v), 1.0),
    ("GammaSumSpec r", lambda v: GammaSumSpec(r=v, weights=EXPLICIT.weights), 1.0),
    ("make_power_law_normalized gamma", lambda v: make_power_law_normalized(v, 0.5), 0.75),
    ("make_power_law_normalized r", lambda v: make_power_law_normalized(0.75, v), 0.5),
    ("ExplicitWeights value", lambda v: ExplicitWeights((v, 0.5)), 1.0),
]


def _outcome(call, value):
    """What ``call(value)`` does: accepted, DomainError, or another exception's name."""
    try:
        call(value)
    except DomainError:
        return "DomainError"
    except Exception as exc:
        return type(exc).__name__
    return "accepted"


def _outcomes(table, make_value):
    return {name: _outcome(call, make_value(good)) for name, call, good in table}


class TestArgumentRules:
    def test_bool_is_rejected(self):
        got = _outcomes(INTEGER_ARGS + REAL_ARGS, lambda good: True)
        assert got == dict.fromkeys(got, "DomainError")

    def test_integers_are_accepted(self):
        for kind in (int, np.int64):
            got = _outcomes(INTEGER_ARGS, kind)
            assert got == dict.fromkeys(got, "accepted")

    def test_float_is_rejected_where_an_integer_is_wanted(self):
        got = _outcomes(INTEGER_ARGS, float)
        assert got == dict.fromkeys(got, "DomainError")

    def test_non_number_is_rejected_where_a_real_is_wanted(self):
        for bad in ("0.75", None, [1.0], math.nan, math.inf, 10**400):
            got = _outcomes(REAL_ARGS, lambda good: bad)
            assert got == dict.fromkeys(got, "DomainError")

    def test_reals_are_accepted_and_stored_as_floats(self):
        for kind in (float, np.float32):
            got = _outcomes(REAL_ARGS, kind)
            assert got == dict.fromkeys(got, "accepted")
        for spec in (
            make_power_law_normalized(np.float32(0.75), np.float32(0.5)),
            GammaSumSpec(r=np.float32(1.0), weights=PowerLawWeights(np.float32(0.75), 1.0)),
            GammaSumSpec(r=1.0, weights=ExplicitWeights((np.float32(1.0), np.float64(0.5)))),
        ):
            doc = json.loads(json.dumps(spec_to_dict(spec)))
            assert type(spec.r) is float and doc["r"] == spec.r

    def test_configs_keep_the_checked_values(self):
        cfg = PipelineConfig(spec=SPEC, M=np.int64(5), N=np.int64(3), grid=list(Z_GRID))
        assert type(cfg.M) is int and type(cfg.N) is int
        assert isinstance(cfg.grid, np.ndarray) and cfg.grid.dtype == float
        batch = sample_z(SPEC, "truncate", np.int64(3), np.int64(4), n_terms=8)
        assert type(batch.seed) is int and type(batch.n_samples) is int


BAD_GRIDS = {
    "2-D": lambda g: np.vstack([g, g]),
    "NaN": lambda g: np.where(np.arange(g.size) == 3, np.nan, g),
    "repeated point": lambda g: np.insert(g, 3, g[3]),
    "infinite end": lambda g: np.append(g, np.inf),
    "one point": lambda g: g[:1],
    "non-numeric": lambda g: ["a"] * g.size,
}

UNIT_GRID = np.linspace(-1.0, 1.0, 11)
UNIT_CDF = (UNIT_GRID + 1.0) / 2.0
HEAD_CF = make_head_cf(SPEC, 3)
GRID_ARGS = [
    ("invert_to_table", lambda g: invert_to_table(HEAD_CF, g), default_grid(SPEC, 3)),
    ("DistributionTable", lambda g: DistributionTable(grid=g, cdf=UNIT_CDF), UNIT_GRID),
    ("PipelineConfig", lambda g: PipelineConfig(spec=SPEC, M=5, N=3, grid=g), Z_GRID),
]


@pytest.mark.parametrize("name, call, good", GRID_ARGS, ids=[a[0] for a in GRID_ARGS])
def test_grid_rule(name, call, good):
    assert _outcome(call, good) == "accepted"
    got = {damage: _outcome(call, damaged(good)) for damage, damaged in BAD_GRIDS.items()}
    assert got == dict.fromkeys(got, "DomainError")

"""Monte-Carlo ground truth for the weighted gamma sum and its pieces.

Samples Z = sum lambda_n (eta_n - 1) truncated at a finite number of terms,
the exact head X_M, and the normalized tail Y_M / sigma_M.  Two truncation
modes: ``truncate`` drops the neglected series outright, ``normal_tail``
completes it with an independent N(0, sigma^2) draw carrying exactly the
neglected variance.  Every batch records what was neglected so error budgets
stay explicit.

Draws come from numpy's default generator (PCG64).  Within one version of
this module identical (config, seed) pairs reproduce bit-for-bit; streams are
not portable across implementations.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .cumulants import sigma_M
from .errors import DomainError
from .weights import PowerLawWeights, _check_m

_MODES = ("truncate", "normal_tail")

# neglected-sd target for the default term count, and the hard cap; shallow
# power-law decay can push the target beyond 10^15 terms, so the cap binds
# and the batch records the sd actually neglected
_NEGLECTED_SD_TARGET = 1e-4
_TERM_CAP = 4096

# chunk shapes fix the draw order; changing them changes the streams
_SAMPLE_CHUNK = 16384
_TERM_BLOCK = 512

_RNG_ALGORITHM = "numpy default_rng (PCG64)"


@dataclass(frozen=True)
class SampleBatch:
    """Sampled values plus the configuration that produced them."""

    values: np.ndarray
    seed: int
    n_terms: int
    n_samples: int
    mode: str
    neglected_sd: float
    rng_algorithm: str = _RNG_ALGORITHM


def _check_mode(mode):
    if mode not in _MODES:
        raise DomainError(f"mode must be one of {_MODES}, got {mode!r}")


def _check_n_samples(n_samples):
    if not isinstance(n_samples, (int, np.integer)) or n_samples < 1:
        raise DomainError(f"n_samples must be a positive integer, got {n_samples!r}")


def _default_terms(spec, start):
    """Smallest term count from ``start`` meeting the neglected-sd target,
    capped at _TERM_CAP."""
    if not isinstance(spec.weights, PowerLawWeights):
        return len(spec.weights.values) - (start - 1)
    lo, hi = 1, _TERM_CAP
    if sigma_M(spec, start + hi) > _NEGLECTED_SD_TARGET:
        return _TERM_CAP
    while lo < hi:
        mid = (lo + hi) // 2
        if sigma_M(spec, start + mid) <= _NEGLECTED_SD_TARGET:
            hi = mid
        else:
            lo = mid + 1
    return lo


def _neglected_sigma(spec, first_neglected):
    if not isinstance(spec.weights, PowerLawWeights):
        if first_neglected > len(spec.weights.values):
            return 0.0
    return sigma_M(spec, first_neglected)


def _draw_weighted_sums(lam, r, tail_sd, n_samples, seed):
    """sum lambda_n (eta_n - 1) over ``lam`` plus an optional normal tail."""
    rng = np.random.default_rng(seed)
    lam = np.asarray(lam, dtype=float)
    shift = float(lam.sum())
    out = np.empty(n_samples)
    for s0 in range(0, n_samples, _SAMPLE_CHUNK):
        s1 = min(s0 + _SAMPLE_CHUNK, n_samples)
        acc = np.zeros(s1 - s0)
        for t0 in range(0, lam.size, _TERM_BLOCK):
            block = lam[t0 : t0 + _TERM_BLOCK]
            draws = rng.gamma(r, 1.0 / r, size=(block.size, s1 - s0))
            acc += block @ draws
        acc -= shift
        if tail_sd > 0.0:
            acc += tail_sd * rng.standard_normal(s1 - s0)
        out[s0:s1] = acc
    return out


def _sample(spec, start, n_terms, mode, n_samples, seed):
    """Batch of sum lambda_n (eta_n - 1) over ``n_terms`` indices from
    ``start``; normal_tail mode adds a normal draw carrying the sd of the
    neglected rest of the series, exact mode neglects nothing."""
    _check_n_samples(n_samples)
    lam = spec.weights.head(start + n_terms)[start - 1 :]
    neglected = 0.0 if mode == "exact" else _neglected_sigma(spec, start + lam.size)
    tail_sd = neglected if mode == "normal_tail" else 0.0
    return SampleBatch(
        values=_draw_weighted_sums(lam, spec.r, tail_sd, n_samples, seed),
        seed=seed,
        n_terms=int(lam.size),
        n_samples=int(n_samples),
        mode=mode,
        neglected_sd=neglected,
    )


def sample_z(spec, mode, n_samples, seed, n_terms=None):
    """Sample the full sum Z, truncated at ``n_terms`` series terms.

    The default term count targets a neglected standard deviation below 1e-4
    and is capped at 4096; the achieved value is recorded on the batch.
    """
    _check_mode(mode)
    if n_terms is None:
        n_terms = _default_terms(spec, 1)
    return _sample(spec, 1, n_terms, mode, n_samples, seed)


def sample_head(spec, m, n_samples, seed):
    """Sample the exact finite head X_M (indices below ``m``); no truncation
    error."""
    _check_m(m)
    return _sample(spec, 1, m - 1, "exact", n_samples, seed)


def sample_tail(spec, m, mode, n_samples, seed, n_terms=None):
    """Sample the normalized tail (sum from ``m`` on) / sigma_M."""
    _check_m(m)
    _check_mode(mode)
    sig = sigma_M(spec, m)
    if n_terms is None:
        n_terms = _default_terms(spec, m)
    batch = _sample(spec, m, n_terms, mode, n_samples, seed)
    return replace(batch, values=batch.values / sig)


def ks_distance(batch, cdf):
    """Two-sided Kolmogorov-Smirnov statistic of the batch against ``cdf``.

    ``cdf`` may be vectorized or scalar-only.
    """
    values = np.asarray(batch.values, dtype=float)
    if values.size == 0:
        raise DomainError("KS distance needs a non-empty batch")
    srt = np.sort(values)
    try:
        f = np.asarray(cdf(srt), dtype=float)
        if f.shape != srt.shape:
            raise TypeError
    except (TypeError, ValueError):
        f = np.fromiter((float(cdf(v)) for v in srt), dtype=float, count=srt.size)
    n = srt.size
    steps = np.arange(n, dtype=float)
    return float(max((f - steps / n).max(), ((steps + 1.0) / n - f).max()))

"""Monte-Carlo ground truth for the weighted gamma sum and its pieces.

Samples Z = sum lambda_n (eta_n - 1) truncated at a finite number of terms,
the exact head X_M, and the normalized tail Y_M / sigma_M.  Two truncation
modes: ``truncate`` drops the neglected series outright, ``normal_tail``
completes it with an independent N(0, sigma^2) draw carrying exactly the
neglected variance.  Every batch records what was neglected so error budgets
stay explicit.

Each eta_n ~ Gamma(shape r, mean 1) is drawn exactly; at r = 1/2 it is a
squared standard normal, which numpy draws about four times faster than its
shape < 1 gamma sampler.  The samples are cut into fixed chunks, and chunk i
draws term-major from its own PCG64 generator seeded by child i of
``SeedSequence(seed)``, so the seed and the chunk length fix every draw; a
worker holds one fresh block of 64 terms at a time.  The chunks run on a
thread pool as wide as the cores this process may use; the workers call numpy
only, whose draws and einsum products release the GIL and use no BLAS thread
pool.  The values therefore depend on (config, seed) alone, never on the core
count.  Within one version of this module identical (config, seed) pairs
reproduce bit-for-bit; streams are not portable across implementations.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .cumulants import _tail_sd, sigma_M
from .errors import DomainError, NumericalError
from .weights import PowerLawWeights, _check_int, _check_m

_MODES = ("truncate", "normal_tail")

# neglected-sd target for the default term count, and the hard cap; shallow
# power-law decay can push the target beyond 10^15 terms, so the cap binds
# and the batch records the sd actually neglected
_NEGLECTED_SD_TARGET = 1e-4
_TERM_CAP = 4096

# with the seed, the chunk length fixes the streams; the term block (1 MiB at
# 2048 samples) sets a worker's memory and moves values by rounding only
_SAMPLE_CHUNK = 2048
_TERM_BLOCK = 64

# chunks drawn at once; the streams do not depend on it
_WORKERS = (
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
)

_RNG_ALGORITHM = (
    f"numpy default_rng (PCG64); chunk i of {_SAMPLE_CHUNK} samples draws from "
    "SeedSequence(seed).spawn(n_chunks)[i]"
)


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


def _default_terms(spec, start):
    """Smallest term count from ``start`` meeting the neglected-sd target,
    capped at _TERM_CAP; a tail sd that underflows to 0 meets it."""
    if not isinstance(spec.weights, PowerLawWeights):
        return len(spec.weights.values) - (start - 1)
    lo, hi = 1, _TERM_CAP
    if _tail_sd(spec, start + hi) > _NEGLECTED_SD_TARGET:
        return _TERM_CAP
    while lo < hi:
        mid = (lo + hi) // 2
        if _tail_sd(spec, start + mid) <= _NEGLECTED_SD_TARGET:
            hi = mid
        else:
            lo = mid + 1
    return lo


def _eta(rng, r, shape):
    """A fresh array of i.i.d. Gamma(shape r, mean 1) draws."""
    if r == 0.5:
        draws = rng.standard_normal(shape)
        return np.square(draws, out=draws)
    draws = rng.standard_gamma(r, shape)
    draws *= 1.0 / r
    return draws


def _draw_chunk(lam, r, tail_sd, seed_seq, out):
    """One chunk of sum lambda_n (eta_n - 1), written into ``out``; numpy only,
    so it runs on a worker thread.  errstate is per thread, hence set here."""
    rng = np.random.default_rng(seed_seq)
    with np.errstate(over="ignore", invalid="ignore"):
        out[:] = 0.0
        for t0 in range(0, lam.size, _TERM_BLOCK):
            block = lam[t0 : t0 + _TERM_BLOCK]
            out += np.einsum("i,ij->j", block, _eta(rng, r, (block.size, out.size)))
        out -= lam.sum()
        if tail_sd > 0.0:
            out += tail_sd * rng.standard_normal(out.size)


def _draw_weighted_sums(lam, r, tail_sd, n_samples, seed):
    """sum lambda_n (eta_n - 1) over ``lam`` plus an optional normal tail."""
    out = np.empty(n_samples)
    chunks = [out[s0 : s0 + _SAMPLE_CHUNK] for s0 in range(0, n_samples, _SAMPLE_CHUNK)]
    seeds = np.random.SeedSequence(seed).spawn(len(chunks))
    with ThreadPoolExecutor(max_workers=min(_WORKERS, len(chunks))) as pool:
        list(pool.map(partial(_draw_chunk, lam, r, tail_sd), seeds, chunks))
    if not np.all(np.isfinite(out)):
        raise NumericalError("Monte-Carlo sample of the weighted sum leaves the float range")
    return out


def _sample(spec, start, n_terms, mode, n_samples, seed):
    """Batch of sum lambda_n (eta_n - 1) over ``n_terms`` indices from
    ``start``; normal_tail mode adds a normal draw carrying the sd of the
    neglected rest of the series, exact mode neglects nothing."""
    n_samples = _check_int(n_samples, "n_samples", 1)
    seed = _check_int(seed, "seed", 0)
    lam = spec.weights.head(start + _check_int(n_terms, "n_terms", 0))[start - 1 :]
    neglected = 0.0 if mode == "exact" else _tail_sd(spec, start + lam.size)
    tail_sd = neglected if mode == "normal_tail" else 0.0
    return SampleBatch(
        values=_draw_weighted_sums(lam, spec.r, tail_sd, n_samples, seed),
        seed=seed,
        n_terms=int(lam.size),
        n_samples=n_samples,
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
    return _sample(spec, 1, _check_m(m) - 1, "exact", n_samples, seed)


def sample_tail(spec, m, mode, n_samples, seed, n_terms=None):
    """Sample the normalized tail (sum from ``m`` on) / sigma_M."""
    m = _check_m(m)
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

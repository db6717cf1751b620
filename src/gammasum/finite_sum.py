"""Exact characteristic function and distribution of the finite head.

The head X_M = sum_{n<M} lambda_n (eta_n - 1) has the closed-form CF

    cf(u) = prod_{n<M} (1 - i u lambda_n / r)^{-r} exp(-i u lambda_n),

each factor the CF of a scaled centered gamma variate.  Its distribution
needs no Fourier inversion.  The positive part G = sum lambda_n eta_n is a
sum of Gamma(r, theta_n) variates, theta_n = lambda_n / r, and Moschopoulos
(1985, Ann. Inst. Stat. Math. 37:541) shows that it is exactly the mixture

    G ~ sum_k p_k Gamma(R + k, theta_1),   R = r (M-1), theta_1 = min theta_n,

with weights p_k >= 0 read off the generating function

    sum_k p_k z^k = prod_n ((1 - c_n) / (1 - c_n z))^r,   c_n = 1 - theta_1 / theta_n.

The mixing index is a sum of independent negative binomials NegBin(r, c_n),
so a Chernoff bound P(t) t^{-K} sizes the number of terms K and bounds the
omitted weight mass.  The weights come from an FFT of the generating
function on K roots of unity, where |P| <= 1, so nothing underflows.

With y = (x + sum lambda_n) / theta_1, e_a(y) = y^{a-1} e^{-y} / Gamma(a)
the Gamma(a) density and P the regularized lower incomplete gamma function,
the PDF is f(x) = sum_k p_k e_{R+k}(y) / theta_1 and the CDF is
F(x) = sum_k p_k P(R + k, y).  The recurrence P(a, y) = P(a + 1, y) +
e_{a+1}(y) turns that sum into one incomplete gamma call plus the densities
the PDF already needs:

    F(x) = P(R + K - 1, y) sum_k p_k + sum_{i=1}^{K-1} e_{R+i}(y) (p_0 + ... + p_{i-1}).

Every term of either sum is non-negative, so neither cancels and the lower
tail keeps its relative accuracy.  Each e_a(y) is exp((a-1) log y - y -
log Gamma(a)), whose rounding grows with the exponent's size: the CDF's
relative error is about that size times machine epsilon, up to about 4e-11
at K near 1e5.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from .errors import DomainError, NumericalError
from .weights import GammaSumSpec, _check_int, _check_m

_REPAIR_TOL = 1e-9
# omitted mixture weight mass the term count K is sized for
_TAIL_EPS = 1e-17
# largest K accepted; larger needs fail before anything K-sized is allocated
_MAX_TERMS = 100_000
# float64 elements in one (terms x grid points) block of the series
_BLOCK = 1 << 18


@dataclass(frozen=True)
class HeadCF:
    """Closed-form CF factors of the head below truncation ``M``."""

    spec: GammaSumSpec
    M: int
    lam: tuple

    def cf(self, u):
        """CF of the head at ``u`` (scalar or array); exactly 1 for M = 1.

        Each factor uses the principal log of 1 - i u lambda / r, whose real
        part is 1 > 0, so the per-factor argument stays in (-pi/2, pi/2) and
        the product needs no winding correction.
        """
        ua = np.asarray(u, dtype=float)
        lam = np.asarray(self.lam, dtype=float)
        r = self.spec.r
        log_cf = np.zeros(ua.shape, dtype=complex)
        for l in lam:
            log_cf -= r * np.log(1.0 - 1j * ua * (l / r))
        out = np.exp(log_cf) * np.exp(-1j * ua * lam.sum())
        return complex(out) if ua.ndim == 0 else out


def make_head_cf(spec, m):
    m = _check_m(m)
    return HeadCF(spec=spec, M=m, lam=tuple(spec.weights.head(m)))


def _check_grid(grid, min_points=2):
    """``grid`` as a 1-D, finite, strictly increasing float array of at least
    ``min_points`` points."""
    try:
        grid = np.asarray(grid, dtype=float)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"grid must be numeric: {exc}") from exc
    ok = grid.ndim == 1 and grid.size >= min_points and np.all(np.isfinite(grid))
    if not (ok and np.all(np.diff(grid) > 0.0)):
        raise DomainError(
            f"grid must be 1-D, finite and strictly increasing, >= {min_points} points"
        )
    return grid


@dataclass(frozen=True)
class DistributionTable:
    """Tabulated CDF (and optional PDF) on a strictly increasing grid."""

    grid: np.ndarray
    cdf: np.ndarray
    pdf: np.ndarray | None = None
    warnings: tuple = ()
    diagnostics: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        grid = _check_grid(self.grid)
        cdf = np.asarray(self.cdf, dtype=float)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "cdf", cdf)
        if cdf.shape != grid.shape:
            raise DomainError("cdf length must match the grid")
        # written so that a NaN, which fails every comparison, fails the test
        if not (np.all((cdf >= 0.0) & (cdf <= 1.0)) and np.all(np.diff(cdf) >= 0.0)):
            raise NumericalError("cdf must be finite and non-decreasing within [0, 1]")
        if cdf[0] > 0.001 or cdf[-1] < 0.999:
            raise DomainError(
                "grid does not cover the bulk: need cdf <= 0.001 at the left "
                "end and >= 0.999 at the right"
            )
        if self.pdf is not None:
            pdf = np.asarray(self.pdf, dtype=float)
            object.__setattr__(self, "pdf", pdf)
            if pdf.shape != grid.shape or not np.all((pdf >= 0.0) & (pdf < math.inf)):
                raise NumericalError("pdf must be finite and non-negative on the grid")
            mass = float(np.trapezoid(pdf, grid))
            if not 0.998 <= mass <= 1.002:
                raise NumericalError(f"pdf mass {mass:.6f} outside [0.998, 1.002]")


def default_grid(spec, m, points=2001):
    """Uniform grid over mean +/- 8 head standard deviations."""
    lam = spec.weights.head(_check_m(m))
    if lam.size == 0:
        raise DomainError("empty head has no distribution grid")
    half = 8.0 * math.sqrt(float(np.sum(lam * lam)) / spec.r)
    return np.linspace(-half, half, _check_int(points, "grid points", 2))


def _mixture_weights(theta, r):
    """(p, tail): mixture weights p_0..p_{K-1} and a bound on the omitted mass.

    For 1 < t < 1/c_max, P(N >= K) <= P(t) t^{-K}.  K is the least count
    that brings this bound below _TAIL_EPS on a log grid of w = 1 - c_max t
    in (0, 1 - c_max); the smallest bound at that K is returned as ``tail``.
    """
    log_b = np.log(theta.min()) - np.log(theta)  # log(1 - c_n)
    c = -np.expm1(log_b)
    c_max = float(c.max())
    if c_max == 0.0:
        return np.ones(1), 0.0
    # 1 - c_max, kept apart because c_max rounds to 1 once the weights span 1e16
    b_min = math.exp(float(log_b.min()))
    rho = (c / c_max)[:, None]
    w = b_min * np.logspace(-16.0, 0.0, 161)[:-1]
    # K is infinite once b_min underflows to 0 (the weights span 1e308) or
    # the bound's exponent overflows
    with np.errstate(divide="ignore", over="ignore"):
        log_pt = r * (log_b[:, None] - np.log((1.0 - rho) + rho * w)).sum(axis=0)
        log_t = np.log1p(-w) - math.log1p(-b_min)
        need = float(np.min((log_pt - math.log(_TAIL_EPS)) / log_t))
    if not need <= _MAX_TERMS:
        raise NumericalError(
            f"head mixture series needs K = {need:.3g} terms, over the budget "
            f"of {_MAX_TERMS}"
        )
    k = max(1, math.ceil(need))
    tail = float(np.exp(np.min(log_pt - k * log_t)))

    # P at z_j = exp(-2 pi i j / K) is the DFT of p; Re(1 - c z) > 0 keeps
    # every principal log on one branch
    z = np.exp(-2j * math.pi * np.arange(k // 2 + 1) / k)
    log_p = np.zeros(z.shape, dtype=complex)
    for lb, cn in zip(log_b, c):
        log_p += r * (lb - np.log(1.0 - cn * z))
    p = np.fft.irfft(np.exp(log_p), n=k)
    return np.maximum(p, 0.0), tail


def _finish_table(grid, cdf, pdf, warnings, diagnostics, tol=_REPAIR_TOL):
    """The table for raw CDF and PDF values on ``grid``.

    CDF decrements up to ``tol`` are repaired by clamping into [0, 1] and
    taking the running maximum; a larger one raises NumericalError.  The
    largest decrement is recorded as ``monotone_violation``.  The PDF, if
    given, is clipped at zero and omitted with a warning when its trapezoid
    mass on the grid then falls outside [0.998, 1.002].
    """
    worst = float(np.max(-np.diff(cdf), initial=0.0))
    if worst > tol:
        raise NumericalError(f"CDF non-monotone by {worst:.3e} (tolerance {tol:.3e})")
    cdf = np.minimum(np.maximum.accumulate(np.maximum(cdf, 0.0)), 1.0)
    if pdf is not None:
        pdf = np.maximum(pdf, 0.0)
        with np.errstate(over="ignore"):
            mass = float(np.trapezoid(pdf, grid))
        if not 0.998 <= mass <= 1.002:
            pdf = None
            warnings += (
                f"density omitted: its grid mass after clipping at zero is {mass:.4f}",
            )
    return DistributionTable(
        grid=grid,
        cdf=cdf,
        pdf=pdf,
        warnings=warnings,
        diagnostics={**diagnostics, "monotone_violation": worst},
    )


def invert_to_table(hcf, grid):
    """Tabulate the head CDF (and PDF when bounded and continuous) on ``grid``.

    The series is evaluated in blocks of grid points, so memory stays
    O(K * block).  The PDF is omitted, with a warning on the table, when
    the total gamma exponent R = r (M-1) is at most 1: the density is then
    unbounded (R < 1) or jumps (R = 1) at the left end of the support.  It
    is also omitted when the grid is too coarse to integrate it to within
    2e-3.  CDF decrements larger than 1e-9 abort rather than being repaired.
    """
    if hcf.M < 2:
        raise DomainError("head is empty for M = 1; nothing to invert")
    grid = _check_grid(grid)
    lam = np.asarray(hcf.lam, dtype=float)
    r = hcf.spec.r
    with np.errstate(over="ignore"):
        theta = lam / r
    for bad, what in (
        (lam == 0.0, "head weight lambda_{} underflows to 0"),
        (theta == 0.0, "head gamma scale lambda_{} / r underflows to 0"),
        (np.isinf(theta), "head gamma scale lambda_{} / r overflows"),
    ):
        if bad.any():
            raise NumericalError(what.format(int(np.argmax(bad)) + 1))
    theta_1 = float(theta.min())
    big_r = r * lam.size
    with_pdf = big_r > 1.0

    p, tail = _mixture_weights(theta, r)
    a = (big_r + np.arange(p.size))[:, None]
    log_gamma_a = special.gammaln(a)
    if not np.isfinite(log_gamma_a).all():
        raise NumericalError(f"gamma exponent r (M-1) = {big_r:g} overflows log Gamma")

    pdf = np.zeros(grid.size) if with_pdf else None
    # a tiny theta_1 can overflow y (past the support: CDF 1, density 0) and
    # the density, which the mass gate then omits
    with np.errstate(over="ignore"):
        y_all = (grid + lam.sum()) / theta_1
        cdf = np.where(y_all == np.inf, 1.0, 0.0)
        pos = np.nonzero((y_all > 0.0) & (y_all < np.inf))[0]
        step = max(1, _BLOCK // p.size)
        p_total, p_cum = p.sum(), np.cumsum(p)[:-1]
        for i0 in range(0, pos.size, step):
            idx = pos[i0 : i0 + step]
            y = y_all[idx]
            dens = np.exp((a - 1.0) * np.log(y) - y - log_gamma_a)
            cdf[idx] = special.gammainc(a[-1], y) * p_total + p_cum @ dens[1:]
            if with_pdf:
                pdf[idx] = p @ dens / theta_1

    warnings = () if with_pdf else (
        f"density omitted: total gamma exponent r (M-1) = {big_r:g} makes it "
        + ("unbounded" if big_r < 1.0 else "jump")
        + " at the left end of the support",
    )
    diagnostics = {"series_terms": int(p.size), "series_tail_mass": tail}
    return _finish_table(grid, cdf, pdf, warnings, diagnostics)

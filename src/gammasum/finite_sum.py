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
omitted weight mass; K is then rounded up to a 5-smooth count, a fast FFT
length.  The weights come from an FFT of the generating function on K roots
of unity, where |P| <= 1, so nothing underflows.

With y = (x + sum lambda_n) / theta_1, e_a(y) = y^{a-1} e^{-y} / Gamma(a)
the Gamma(a) density and P = 1 - Q the regularized lower incomplete gamma
function, the PDF is f(x) = sum_k p_k e_{R+k}(y) / theta_1 and the CDF is
F(x) = sum_k p_k P(R + k, y).  As a function of k, e_{R+k}(y) is a
Poisson-like bump near k = y - R, about sqrt(y) wide, so each block of about
128 neighbouring grid points, y_0 <= y <= y_1, sums only a window lo <= k < hi
of terms: it starts 10 sqrt(y + 1) + 10 either side of max(0, y - R).  Terms
left of the window count with P = 1, and the recurrence P(a, y) =
P(a + 1, y) + e_{a+1}(y) turns the window into one incomplete gamma call plus
the densities the PDF already needs:

    F(x) = C_lo + P(R + hi - 1, y) S_hi + sum_{i=lo+1}^{hi-1} e_{R+i}(y) S_i,

with C_lo = p_0 + ... + p_{lo-1} and S_i = p_lo + ... + p_{i-1}; the PDF sums
p_k e_{R+k}(y) over the same window.  The window leaves out at most
Q(R + lo - 1, y_0) C_lo on the left and P(R + hi, y_1) (p_hi + ... + p_{K-1})
on the right.  hi - lo doubles until the right bound is at most 1e-17 F(y_0),
and the larger bound over all blocks is added to ``series_tail_mass``.  A
small K gives one window over every term.

Every term of either sum is non-negative, so neither cancels.  Each e_a(y)
is exp((a-1) log y - y - log Gamma(a)), whose rounding grows with the
exponent's size: the CDF's relative error is about that size times machine
epsilon, 3e-12 at K = 2e5 (power law gamma = 3.5, r = 1, M = 12).  The lower
tail is only as accurate as the weights, though: the FFT gives each p_k to
about 1e-17 absolute, so a small p_0 carries its relative error into F near
the left end of the support.  At r = 2, M = 20 of the reference power law,
p_0 = 1.5e-11 and F(y = 0.5) are both about 1.5e-7 off in relative terms.

The K-sized arrays (the weights' FFT and its real factors, the weights,
their two running sums and log Gamma) take about 40 bytes per term, so the
cap of 2^22 terms holds them in about 170 MB; the blocks of densities add
2 MB.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import fft, special

from .errors import DomainError, NumericalError
from .weights import GammaSumSpec, _check_int, _check_m

_REPAIR_TOL = 1e-9
# omitted mixture weight mass the term count K is sized for
_TAIL_EPS = 1e-17
# largest K accepted, set by memory: the K-sized arrays take about 40 bytes
# per term, 170 MB at 2^22; larger needs fail before anything K-sized is
# allocated
_MAX_TERMS = 1 << 22
# float64 elements in one (window terms x grid points) block of the series
_BLOCK = 1 << 18
# grid points in one block, fewer when the window is wide
_BLOCK_POINTS = 128


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


def _mass_outside_window(grid, pdf):
    """The trapezoid mass of ``pdf`` on ``grid`` if outside [0.998, 1.002],
    else None; past the float range it reads inf, without a RuntimeWarning."""
    with np.errstate(over="ignore"):
        mass = float(np.trapezoid(pdf, grid))
    return None if 0.998 <= mass <= 1.002 else mass


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
            mass = _mass_outside_window(grid, pdf)
            if mass is not None:
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
    # a 5-smooth K: an FFT length with a large prime factor takes Bluestein's
    # route: on a 2-core VM the inverse FFT took 2.0 s and 500 MB more
    # resident memory at the prime K = 3948853, against 0.2 s at K = 3981312
    k = fft.next_fast_len(max(1, math.ceil(need)), real=True)
    tail = float(np.exp(np.min(log_pt - k * log_t)))

    # P at z_j = exp(-i phi_j), phi_j = 2 pi j / K, is the DFT of p.  With
    # b = 1 - c and h_j = sin^2(phi_j / 2), |1 - c z_j|^2 = b^2 + 4 c h_j and
    # arg(1 - c z_j) = atan2(c sin phi_j, b + 2 c h_j): real arithmetic, and
    # no cancellation as c -> 1
    phi = (2.0 * math.pi / k) * np.arange(k // 2 + 1)
    half_sq = np.sin(0.5 * phi) ** 2
    sin_phi = np.sin(phi)
    log_mod = np.zeros(phi.size)
    arg = np.zeros(phi.size)
    for lb, cn in zip(log_b, c):
        b = math.exp(lb)
        log_mod += lb - 0.5 * np.log(b * b + 4.0 * cn * half_sq)
        arg += np.arctan2(cn * sin_phi, b + 2.0 * cn * half_sq)
    p = np.fft.irfft(np.exp(r * log_mod - 1j * (r * arg)), n=k)
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
        mass = _mass_outside_window(grid, pdf)
        if mass is not None:
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


def _term_window(y0, y1, big_r, k):
    """[lo, hi): the terms 10 sqrt(y + 1) + 10 either side of max(0, y - R)
    for every y in [y0, y1], cut to [0, K) and never empty."""
    lo = math.floor(y0 - big_r - 10.0 * math.sqrt(y0 + 1.0) - 10.0)
    hi = math.ceil(max(0.0, y1 - big_r) + 10.0 * math.sqrt(y1 + 1.0) + 10.0)
    lo = min(k - 1, max(0, lo))
    return lo, max(lo + 1, min(k, hi))


def _window_sums(p, below, above, log_gamma_a, big_r, y, with_pdf):
    """(n, F, g, bound) at the first n of the increasing points ``y``.

    One window [lo, hi) of terms serves the n points: F is the mixture CDF,
    g = sum_k p_k e_{R+k}(y) (None unless ``with_pdf``), and ``bound``
    bounds the error of F from the terms outside the window.  n shrinks
    until the block holds at most _BLOCK densities, and hi - lo doubles
    until the right bound is at most _TAIL_EPS F(y_0).
    """
    k, n = p.size, y.size
    lo, hi = _term_window(y[0], y[-1], big_r, k)
    while (hi - lo) * n > _BLOCK and n > 1:
        n = max(1, _BLOCK // (hi - lo))
        lo, hi = _term_window(y[0], y[n - 1], big_r, k)
    while True:
        a = (big_r + np.arange(lo, hi))[:, None]
        dens = np.exp((a - 1.0) * np.log(y[:n]) - y[:n] - log_gamma_a[lo:hi, None])
        # a fresh running sum: differences of one global cumsum lose the
        # relative accuracy of a small F
        s = np.cumsum(p[lo:hi])
        f = below[lo] + special.gammainc(a[-1], y[:n]) * s[-1] + s[:-1] @ dens[1:]
        right = float(special.gammainc(big_r + hi, y[n - 1]) * above[hi])
        if right <= _TAIL_EPS * f[0]:
            break
        hi = min(k, lo + 2 * (hi - lo))
        n = max(1, min(n, _BLOCK // (hi - lo)))
    left = float(special.gammaincc(big_r + lo - 1, y[0]) * below[lo]) if lo else 0.0
    return n, f, p[lo:hi] @ dens if with_pdf else None, max(left, right)


def invert_to_table(hcf, grid):
    """Tabulate the head CDF (and PDF when bounded and continuous) on ``grid``.

    The series is evaluated in blocks of grid points, each over one window
    of terms (see the module docstring), so a block holds at most _BLOCK
    densities.  The PDF is omitted, with a warning on the table, when
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
    log_gamma_a = special.gammaln(big_r + np.arange(p.size))
    if not np.isfinite(log_gamma_a).all():
        raise NumericalError(f"gamma exponent r (M-1) = {big_r:g} overflows log Gamma")
    # below[i] = p_0 + ... + p_{i-1} and above[i] = p_i + ... + p_{K-1}
    below = np.concatenate(([0.0], np.cumsum(p)))
    above = np.append(np.cumsum(p[::-1])[::-1], 0.0)

    pdf = np.zeros(grid.size) if with_pdf else None
    window_bound = 0.0
    # a tiny theta_1 can overflow y (past the support: CDF 1, density 0) and
    # the density, which the mass gate then omits
    with np.errstate(over="ignore"):
        y_all = (grid + lam.sum()) / theta_1
        cdf = np.where(y_all == np.inf, 1.0, 0.0)
        pos = np.nonzero((y_all > 0.0) & (y_all < np.inf))[0]
        i0 = 0
        while i0 < pos.size:
            idx = pos[i0 : i0 + _BLOCK_POINTS]
            n, f, g, bound = _window_sums(
                p, below, above, log_gamma_a, big_r, y_all[idx], with_pdf
            )
            cdf[idx[:n]] = f
            if with_pdf:
                pdf[idx[:n]] = g / theta_1
            window_bound = max(window_bound, bound)
            i0 += n

    warnings = () if with_pdf else (
        f"density omitted: total gamma exponent r (M-1) = {big_r:g} makes it "
        + ("unbounded" if big_r < 1.0 else "jump")
        + " at the left end of the support",
    )
    diagnostics = {"series_terms": int(p.size), "series_tail_mass": tail + window_bound}
    return _finish_table(grid, cdf, pdf, warnings, diagnostics)

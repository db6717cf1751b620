"""Assembly of the full distribution from the exact head and tail expansion.

Z splits at a truncation level M into an exact head X_M (a finite gamma
convolution, tabulated as a gamma mixture) and a tail Y_M handled by a
cumulant expansion of order N.  The CDF of Z is the convolution

    F_Z(x) = integral F_{X_M}(x - y) f_{Y_M}(y) dy,

with f_{Y_M}(y) = edgeworth_pdf(y / sigma_M) / sigma_M, taken over the tail
window |y| <= 10 sigma_M (a little more, below) by the trapezoid rule.  The
integrand decays below machine precision before the window ends, which
kills the boundary terms in the Euler-Maclaurin expansion, so the rule
converges much faster than its nominal order.

The output grid must be uniform, x_i = x_0 + i h.  The rule's nodes are
y_j = (j - J) delta, j = 0 .. 2J, on a lattice of step delta = h / m, so
every x_i - y_j is a point of one lattice, z_l = x_0 - J delta + l delta,
and the window of output i is the W = 2J + 1 lattice points from l = i m.
The head CDF is tabulated once, exactly (the mixture of finite_sum), at
every lattice point that some window covers, and each output value is one
dot product of W head values with the trapezoid-times-Edgeworth weights.
Windows overlap when m < W; otherwise the lattice is W points around each
output point.  Either way the points are taken with stride s = min(m, W),
U = (n - 1) s + W of them for n output points.

m is the least step count with delta <= sigma_M / 200, and J is
ceil(10 sigma_M / delta).  When that makes U larger than 2^13 or 8 n,
whichever is more, m is halved until it fits, but never below the step
count with delta <= sigma_M / 2 (at least 41 points per window): a narrow
tail, sigma_M = 7e-5 sd at power law gamma = 6, M = 5, would otherwise ask
for 2^20 head points.  Halving lands U between about half the budget and
the budget.  The reference tables (M = 2 .. 20 on 2001 points) stay within
it at m = 3 or 4, with 10,500 to 13,000 head points each.  The head cost
per point, not the dot products, sets the time of a narrow-tail table, so
the budget keeps it near the 4001 to 8001 points of the dense table below.

The PDF column still enters through a monotone cubic (PCHIP) interpolant of
a dense head table, evaluated at the lattice points, because the recorded
benchmark density pins that interpolant's own error (see _convolve).  That
table spans the output grid widened by the tail window; its step is at most
min(grid step, sigma_1 / 250), with at most 8001 nodes.  The lattice, the
interpolant and their points are taken in units of sigma_1 = sd(Z), so a
table on the grid c x for weights c lambda_n is the table on x, to
rounding, for every c the float range holds.

A head whose density is unbounded or jumps at its left end (total gamma
exponent r (M-1) <= 1) puts a kink into the integrand and drags the rule
back to about delta^1.5.  With exact head values at the reference spec's
M = 2 (r = 1/2), that costs at most 9e-7 against adaptive quadrature split
at the kink; the earlier PCHIP head CDF cost about 3e-5 there.  Refinement
claims should be checked per case in that regime.

M = 1 has an empty head and returns the rescaled expansion itself; a tail
whose sd is below 1e-12 sigma_1 (explicit weight list exhausted, an
underflowed power-law tail, or a degenerate stub) collapses the
convolution to the bare head table.

The expansion density integrates as-is where it dips negative; when the
negative part exceeds 1e-3 in mass a quality warning is attached and the
monotone-repair tolerance widens to twice that mass, since dips of that
size are properties of the expansion, not quadrature failures.  A mass of
1/2 or more (or a NaN) is a numerical failure, raised before any head
table is built: a repair that wide could absorb any CDF.  Every table is
finished by the same repair and density gate as a head table, and carries
the diagnostics tail_mass, negative_tail_mass and monotone_violation, plus
head_series_tail_mass when M >= 2.  tail_mass is the expansion's mass over
+/- 10 sigma_M in closed form, edgeworth_cdf(10) - edgeworth_cdf(-10), not
the sum of the rule's weights, whose window ends at J delta >= 10 sigma_M;
it is warned about when it deviates from 1 by more than 1e-6.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import combinations

import numpy as np
from scipy.interpolate import PchipInterpolator

from .cumulants import _tail_sd, cumulants, sigma_M
from .edgeworth import (
    MAX_EXPANSION_ORDER,
    build_expansion,
    edgeworth_cdf,
    edgeworth_pdf,
    negative_pdf_mass,
)
from .errors import DomainError, NumericalError
from .finite_sum import _REPAIR_TOL, _check_grid, _finish_table, invert_to_table, make_head_cf
from .weights import GammaSumSpec, _check_int, _check_m

_TAIL_HALF_WIDTH = 10.0
_POINT_MASS_EPS = 1e-12
_NEG_MASS_WARN = 1e-3
_MASS_DEV_WARN = 1e-6
# output points in one block of windowed dot products
_GRID_CHUNK = 256
# lattice nodes per tail sd: the lattice step is at most sigma_M / 200, and
# never more than sigma_M / 2 when the budget lowers it
_NODES_PER_SD = 200
_MIN_NODES_PER_SD = 2
# head points one convolution may evaluate before the lattice step grows:
# _LATTICE_BUDGET, or _LATTICE_PER_POINT per output point if that is more
_LATTICE_BUDGET = 1 << 13
_LATTICE_PER_POINT = 8


@dataclass(frozen=True, eq=False)
class PipelineConfig:
    """Everything needed to tabulate F_Z: model, split point, order, grids."""

    spec: GammaSumSpec
    M: int
    N: int
    grid: np.ndarray

    def __post_init__(self):
        m = _check_m(self.M)
        n_order = _check_int(self.N, "expansion order N", 2, MAX_EXPANSION_ORDER)
        grid = _check_grid(self.grid, min_points=9)
        step = (grid[-1] - grid[0]) / (grid.size - 1)
        if np.max(np.abs(np.diff(grid) - step)) > 1e-9 * step:
            raise DomainError("grid must be uniform: steps equal to 1e-9 relative")
        for name, value in (("M", m), ("N", n_order), ("grid", grid)):
            object.__setattr__(self, name, value)
        sd = sigma_M(self.spec, 1)
        slack = 1e-9 * sd
        if grid[0] > -8.0 * sd + slack or grid[-1] < 8.0 * sd - slack:
            raise DomainError(
                "grid must cover the mean +/- 8 total standard deviations "
                f"(+/- {8.0 * sd:.6g})"
            )


def default_z_grid(spec, points=2001):
    """Uniform grid over +/- 8 total standard deviations."""
    sd = sigma_M(spec, 1)
    return np.linspace(-8.0 * sd, 8.0 * sd, _check_int(points, "grid points", 2))


def _expansion_for(spec, m, n_order):
    # the cumulant builder starts at order 3; N = 2 needs none beyond that
    return build_expansion(cumulants(spec, m, max(n_order, 3)), n_order)


def _head_table(cfg, sig, sd):
    lo = cfg.grid[0] - _TAIL_HALF_WIDTH * sig
    hi = cfg.grid[-1] + _TAIL_HALF_WIDTH * sig
    h_target = min(float(np.min(np.diff(cfg.grid))), sd / 250.0)
    n = min(math.ceil((hi - lo) / h_target) + 1, 8001)
    return invert_to_table(make_head_cf(cfg.spec, cfg.M), np.linspace(lo, hi, n))


def _window(n, h, sig, m):
    """(J, s, U) for the lattice step h / m: window half-width J steps, union
    stride s and union size U, for n output points of step h."""
    half = math.ceil(_TAIL_HALF_WIDTH * sig * m / h)
    stride = min(m, 2 * half + 1)
    return half, stride, (n - 1) * stride + 2 * half + 1


def _lattice_steps(n, h, sig):
    """m, the lattice steps per output step: delta <= sigma_M / 200, halved
    toward delta <= sigma_M / 2 while the union exceeds the budget."""
    m = math.ceil(_NODES_PER_SD * h / sig)
    floor = math.ceil(_MIN_NODES_PER_SD * h / sig)
    budget = max(_LATTICE_BUDGET, _LATTICE_PER_POINT * n)
    while m > floor and _window(n, h, sig, m)[2] > budget:
        m = max(floor, m // 2)
    return m


def _convolve(cfg, ex, sig, sd):
    """(lattice head table, warnings, CDF, PDF or None): the head convolved
    with the tail density by the trapezoid rule on the lattice, in units of
    ``sd`` (see the module docstring)."""
    xs, sig_u = cfg.grid / sd, sig / sd
    n = xs.size
    # Python floats: a step too large for the lattice overflows m to inf,
    # which math.ceil rejects with OverflowError, without a RuntimeWarning
    h = float(xs[-1] - xs[0]) / (n - 1)
    m = _lattice_steps(n, h, sig_u)
    half, stride, size = _window(n, h, sig_u, m)
    delta = h / m
    y = delta * np.arange(-half, half + 1)
    wf = np.full(y.size, delta)
    wf[0] = wf[-1] = 0.5 * delta
    # reversed: window position k of output i holds x_i - y_{2J-k}
    wf = (wf * edgeworth_pdf(ex, y / sig_u) / sig_u)[::-1]
    block, pos = np.divmod(np.arange(size), stride)
    z = xs[0] + block * h + (pos - half) * delta

    def windowed(v):
        rows = np.lib.stride_tricks.sliding_window_view(v, y.size)[::stride]
        out = np.empty(n)
        for i0 in range(0, n, _GRID_CHUNK):
            out[i0 : i0 + _GRID_CHUNK] = rows[i0 : i0 + _GRID_CHUNK] @ wf
        return out

    # a lattice step below the float spacing of a far grid repeats points
    points, back = np.unique(sd * z, return_inverse=True)
    head = invert_to_table(make_head_cf(cfg.spec, cfg.M), points)
    cdf, pdf, warnings = windowed(head.cdf[back]), None, head.warnings
    if head.pdf is None:
        return head, warnings, cdf, pdf
    # the PDF still reads a PCHIP interpolant of the dense head table, not
    # head.pdf: benchmark/data/recorded.npz:sec6_M5_pdf pins that
    # interpolant's 2.5e-6 error at 1e-6.  Once ROADMAP item 1 records that
    # table again from an independent route, the PDF takes the lattice's
    # exact values, and _head_table and the scipy.interpolate import go
    dense = _head_table(cfg, sig, sd)
    if dense.pdf is not None:
        # a PCHIP slope is a weighted harmonic mean of secants, the
        # reciprocal of sum w / secant: a subnormal secant overflows that sum
        # to inf, and its reciprocal, slope 0, is the correct limit
        with np.errstate(divide="ignore", over="ignore"):
            interp = PchipInterpolator(dense.grid / sd, dense.pdf, extrapolate=True)
            pdf = windowed(interp(z))
    return head, warnings + dense.warnings, cdf, pdf


def z_cdf(cfg):
    """Tabulate F_Z on the configured grid; PDF included when the head has one."""
    sig = _tail_sd(cfg.spec, cfg.M)
    sd = sigma_M(cfg.spec, 1)
    if cfg.M > 1 and sig < _POINT_MASS_EPS * sd:
        head = invert_to_table(make_head_cf(cfg.spec, cfg.M), cfg.grid)
        diagnostics = {
            "tail_mass": 0.0,
            "negative_tail_mass": 0.0,
            "monotone_violation": head.diagnostics["monotone_violation"],
            "head_series_tail_mass": head.diagnostics["series_tail_mass"],
        }
        return replace(head, diagnostics=diagnostics)

    ex = _expansion_for(cfg.spec, cfg.M, cfg.N)
    neg_mass = negative_pdf_mass(ex)
    tol = max(_REPAIR_TOL, 2.0 * neg_mass)
    if not tol < 1.0:  # NaN included
        raise NumericalError(
            f"tail expansion carries negative density mass {neg_mass!r}, "
            "too much for the monotone repair"
        )
    if cfg.M == 1:
        t = cfg.grid / sig
        cdf, pdf = edgeworth_cdf(ex, t), edgeworth_pdf(ex, t) / sig
        warnings, tail_mass, head_part = (), 1.0, {}
    else:
        head, warnings, cdf, pdf = _convolve(cfg, ex, sig, sd)
        tail_mass = float(
            edgeworth_cdf(ex, _TAIL_HALF_WIDTH) - edgeworth_cdf(ex, -_TAIL_HALF_WIDTH)
        )
        head_part = {"head_series_tail_mass": head.diagnostics["series_tail_mass"]}
    if neg_mass > _NEG_MASS_WARN:
        warnings += (f"tail expansion carries negative density mass {neg_mass:.2e}",)
    if abs(tail_mass - 1.0) > _MASS_DEV_WARN:
        warnings += (f"tail density mass deviates from 1 by {tail_mass - 1.0:.2e}",)
    diagnostics = {"tail_mass": tail_mass, "negative_tail_mass": neg_mass, **head_part}
    return _finish_table(cfg.grid, cdf, pdf, warnings, diagnostics, tol=tol)


def m_robustness(cfg_base, ms):
    """(spread, tables): the max pairwise sup-difference of F_Z across the
    truncation levels ``ms``, and the table for each distinct level, keyed
    by M in first-seen order."""
    ms = list(ms)
    if len(ms) < 2:
        raise DomainError("robustness needs at least two truncation levels")
    tables = {}
    for m in ms:
        m = _check_m(m)
        if m not in tables:
            tables[m] = z_cdf(replace(cfg_base, M=m))
    pairs = combinations(tables.values(), 2)
    worst = max((float(np.max(np.abs(a.cdf - b.cdf))) for a, b in pairs), default=0.0)
    return worst, tables

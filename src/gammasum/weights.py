"""Weight sequences lambda_n and exact infinite tail power sums.

The model throughout the package is

    Z = sum_{n>=1} lambda_n (eta_n - 1),

where eta_n are i.i.d. gamma variables with shape r and mean 1 (density
r^r x^{r-1} e^{-rx} / Gamma(r), so Var eta_n = 1/r).  Every downstream
quantity (variances, cumulants, Berry-Esseen bounds, characteristic
functions) reduces to power sums of the weights

    S_k(M) = sum_{n>=M} lambda_n^k,

which this module computes to near machine precision for two families.
A sum is returned as a pair (c, s) with S_k(M) = c^k s: c = lambda_M, the
first tail weight, carries all magnitude, and s = sum_{n>=M} (lambda_n / c)^k
>= 1 is scale-free, so no scale or decay whose powers overflow enters s.
A sequence of k gives an array s from one read.

* ``PowerLawWeights``: lambda_n = C n^{-gamma} with gamma > 1/2 (square
  summability).  Then c = C M^{-gamma} and s = zs(k gamma, M), where
  zs(s, q) = q^s zeta(s, q) = sum_{j>=0} (q / (q + j))^s is the scaled
  Hurwitz zeta function (``_zs``), which never underflows.
* ``ExplicitWeights``: a finite non-increasing list of positive weights;
  the sequence is exactly zero beyond the list, so all sums are finite.
  Every term of s is at most 1; an empty tail gives (0.0, 0.0).

Choosing (1/r) S_2(1) = 1 gives Var Z = 1; ``make_power_law_normalized``
enforces this in closed form via C = (zeta(2 gamma)/r)^{-1/2}.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace
from typing import Union

import numpy as np
from scipy import special

from .errors import DomainError, SpecFormatError

__all__ = [
    "PowerLawWeights",
    "ExplicitWeights",
    "WeightSequence",
    "GammaSumSpec",
    "zeta",
    "make_power_law_normalized",
    "tail_power_sum",
    "tail_weight_sum",
    "spec_to_dict",
    "spec_from_dict",
]


def _check_int(value, name: str, lo: int, hi: int | None = None) -> int:
    """``value`` as an int: a Python or numpy integer, not a bool, in [lo, hi]."""
    ok = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if not (ok and lo <= value and (hi is None or value <= hi)):
        span = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise DomainError(f"{name} must be an integer {span}, got {value!r}")
    return int(value)


def _check_real(value, name: str, above: float) -> float:
    """``value`` as a float: a finite real number, not a bool, above ``above``."""
    ok = isinstance(value, numbers.Real) and not isinstance(value, bool)
    try:
        x = float(value) if ok else math.nan
    except OverflowError:  # an int beyond the float range
        x = math.nan
    if not (math.isfinite(x) and x > above):
        raise DomainError(f"{name} must be a finite real number > {above:g}, got {value!r}")
    return x


# _zs sums the terms j < _ZS_DIRECT directly, smallest first, and the rest
# by Euler-Maclaurin with the ratios B_2l / (2l)!, l = 1..6
_ZS_DIRECT = 64
_ZS_J = np.arange(_ZS_DIRECT - 1.0, 0.0, -1.0)
_ZS_BERNOULLI = special.bernoulli(12)[2::2] / special.factorial(np.arange(2, 13, 2))


def _zs(s, q):
    """zs(s, q) = q^s zeta(s, q) = sum_{j >= 0} (q / (q + j))^s >= 1 for s > 1,
    elementwise in s (s = inf gives 1), to 1e-15 relative.

    The terms j >= 64 sum to f [a / (s - 1) + 1/2 + sum_l B_2l / (2l)!
    (s)_{2l-1} / a^{2l-1}], with a = q + 64, f = (q / a)^s and (s)_n the
    rising factorial.  Past s = a, f < e^-64 and the bracket is taken at
    s = a, where it cannot overflow; s log1p(j / q) overflows only to inf,
    where exp(-inf) = 0 is the limit.
    """
    s = np.asarray(s, dtype=float)
    a = q + _ZS_DIRECT
    x = np.minimum(s, a)
    rise = np.cumprod((x[..., None] + np.arange(11.0)) / a, axis=-1)[..., ::2]
    with np.errstate(over="ignore"):
        terms = np.exp(-s[..., None] * np.log1p(_ZS_J / q))
        f = np.exp(-s * math.log1p(_ZS_DIRECT / q))
    return 1.0 + (f * (a / (x - 1.0) + 0.5 + rise @ _ZS_BERNOULLI) + terms.sum(axis=-1))


def zeta(s: float) -> float:
    """Riemann zeta(s) = sum_{n>=1} n^(-s) = zs(s, 1) for s > 1, to 1e-15 relative."""
    return float(_zs(_check_real(s, "zeta argument s", 1.0), 1))


@dataclass(frozen=True)
class PowerLawWeights:
    """lambda_n = scale * n^(-gamma), gamma > 1/2."""

    gamma: float
    scale: float

    def __post_init__(self):
        # gamma > 1/2 makes the weights square summable
        object.__setattr__(self, "gamma", _check_real(self.gamma, "exponent gamma", 0.5))
        object.__setattr__(self, "scale", _check_real(self.scale, "scale", 0.0))

    def value(self, n):
        """lambda_n for one 1-based index n."""
        return self.scale * _check_int(n, "weight index n", 1) ** -self.gamma

    def head(self, m: int) -> np.ndarray:
        """Array (lambda_1, ..., lambda_{m-1})."""
        return self.scale * np.arange(1, m, dtype=np.float64) ** (-self.gamma)

    def tail_power_sum(self, m: int, k) -> tuple:
        """(lambda_M, zs(k gamma, M)) = (scale M^-gamma, M^(k gamma) zeta(k gamma, M));
        an array of k gives an array of zs from one ``_zs`` call."""
        with np.errstate(over="ignore"):  # k gamma = inf gives zs = 1
            s = np.multiply(k, self.gamma, dtype=float)
        if (s <= 1.0).any():
            raise DomainError(f"sum of lambda_n^{np.min(k)} diverges: k*gamma = {np.min(s)} <= 1")
        zs = _zs(s, m)
        return self.scale * m**-self.gamma, (zs if zs.ndim else float(zs))


@dataclass(frozen=True)
class ExplicitWeights:
    """Finite list lambda_1 >= lambda_2 >= ... > 0; zero beyond the list.

    ``array`` holds the values once as a read-only float64 array, which every
    array computation slices.
    """

    values: tuple
    array: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        vals = tuple(_check_real(v, "explicit weight", 0.0) for v in self.values)
        object.__setattr__(self, "values", vals)
        if not vals:
            raise DomainError("explicit weight list must be non-empty")
        if any(a < b for a, b in zip(vals, vals[1:])):
            raise DomainError("explicit weights must be non-increasing")
        arr = np.array(vals, dtype=np.float64)
        arr.flags.writeable = False
        object.__setattr__(self, "array", arr)

    def value(self, n):
        """lambda_n for one 1-based index n; 0 beyond the list."""
        n = _check_int(n, "weight index n", 1)
        return self.values[n - 1] if n <= len(self.values) else 0.0

    def head(self, m: int) -> np.ndarray:
        return self.array[: m - 1]

    def tail_power_sum(self, m: int, k) -> tuple:
        """(lambda_M, sum of (lambda_n / lambda_M)^k from index m on); an array
        of k gives an array of sums, from one array power and an fsum per k."""
        tail = self.array[m - 1 :]
        c = float(tail[0]) if tail.size else 0.0
        s = [math.fsum(row) for row in (tail / c) ** np.reshape(k, (-1, 1))]
        return c, (np.array(s) if np.ndim(k) else s[0])


WeightSequence = Union[PowerLawWeights, ExplicitWeights]

_NORMALIZATION_RTOL = 1e-12


def _is_normalized(weights: WeightSequence, r: float) -> bool:
    """Whether Var Z = (1/r) sum lambda_n^2 is 1 to within _NORMALIZATION_RTOL."""
    c, s = weights.tail_power_sum(1, 2)
    return abs(c * c * s / r - 1.0) <= _NORMALIZATION_RTOL


@dataclass(frozen=True)
class GammaSumSpec:
    """Shape parameter r plus a weight sequence; the full model of Z."""

    r: float
    weights: WeightSequence
    normalized: bool = False

    def __post_init__(self):
        object.__setattr__(self, "r", _check_real(self.r, "gamma shape r", 0.0))
        if self.normalized and not _is_normalized(self.weights, self.r):
            raise DomainError(
                "normalized flag set but (1/r) sum lambda_n^2 is not 1 "
                f"to within {_NORMALIZATION_RTOL:g}"
            )


def make_power_law_normalized(gamma: float, r: float) -> GammaSumSpec:
    """Power-law spec with C = (zeta(2 gamma)/r)^(-1/2), so Var Z = 1 exactly."""
    gamma = _check_real(gamma, "exponent gamma", 0.5)
    r = _check_real(r, "gamma shape r", 0.0)
    scale = math.sqrt(r / zeta(2.0 * gamma))
    return GammaSumSpec(
        r=r,
        weights=PowerLawWeights(gamma=gamma, scale=scale),
        normalized=True,
    )


def _check_m(m: int) -> int:
    return _check_int(m, "truncation index M", 1)


def tail_power_sum(spec: GammaSumSpec, m: int, k) -> tuple:
    """(c, s) with S_k(M) = sum_{n>=M} lambda_n^k = c^k s for k >= 2 (exact
    tail, not truncated); c = lambda_M for every k, s >= 1 for a non-empty tail.
    A sequence of such k gives an array s, one entry per k, in one read."""
    m = _check_m(m)
    ks = [_check_int(j, "power k", 2) for j in k] if np.ndim(k) else _check_int(k, "power k", 2)
    return spec.weights.tail_power_sum(m, ks)


def tail_weight_sum(spec: GammaSumSpec, m: int) -> float:
    """S_1(M) = sum_{n>=M} lambda_n; +inf for power laws with gamma <= 1."""
    m = _check_m(m)
    w = spec.weights
    if isinstance(w, PowerLawWeights) and w.gamma <= 1.0:
        return math.inf
    c, s = w.tail_power_sum(m, 1)
    return c * s


def spec_to_dict(spec: GammaSumSpec) -> dict:
    """Serialize to the interchange form {"r", "weights", "normalized"}."""
    w = spec.weights
    if isinstance(w, PowerLawWeights):
        wd = {"kind": "power_law", "gamma": w.gamma, "scale": w.scale}
    else:
        wd = {"kind": "explicit", "values": list(w.values)}
    return {"r": spec.r, "weights": wd, "normalized": spec.normalized}


def _require_number(v, name: str):
    """``v`` if it is a JSON number; the spec classes check its value."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise SpecFormatError(f"{name} must be a number, got {v!r}")
    return v


def spec_from_dict(d: dict) -> GammaSumSpec:
    """Parse the interchange form; unknown fields are rejected.

    An explicit boolean "normalized" is checked against the weights; when
    absent, the flag is detected numerically at 1e-12.
    """
    if not isinstance(d, dict) or "r" not in d or "weights" not in d:
        raise SpecFormatError("spec must be an object with 'r' and 'weights'")
    extra = set(d) - {"r", "weights", "normalized"}
    if extra:
        raise SpecFormatError(f"unrecognized spec fields: {sorted(extra)}")
    wd = d["weights"]
    if not isinstance(wd, dict):
        raise SpecFormatError("'weights' must be an object")
    kind = wd.get("kind")
    if kind == "power_law":
        if set(wd) != {"kind", "gamma", "scale"}:
            raise SpecFormatError("power_law weights need exactly 'gamma' and 'scale'")
        weights = PowerLawWeights(
            gamma=_require_number(wd["gamma"], "'gamma'"),
            scale=_require_number(wd["scale"], "'scale'"),
        )
    elif kind == "explicit":
        vals = wd.get("values")
        if set(wd) != {"kind", "values"} or not isinstance(vals, (list, tuple)) or not vals:
            raise SpecFormatError("explicit weights need exactly a non-empty 'values'")
        weights = ExplicitWeights(tuple(_require_number(v, "a weight") for v in vals))
    else:
        raise SpecFormatError(f"unknown weights kind {kind!r}")
    spec = GammaSumSpec(r=_require_number(d["r"], "'r'"), weights=weights)
    if "normalized" not in d:
        return replace(spec, normalized=_is_normalized(weights, spec.r))
    if not isinstance(d["normalized"], bool):
        raise SpecFormatError("field 'normalized' must be a boolean")
    return replace(spec, normalized=d["normalized"])

"""Weight sequences lambda_n and exact infinite tail power sums.

The model throughout the package is

    Z = sum_{n>=1} lambda_n (eta_n - 1),

where eta_n are i.i.d. gamma variables with shape r and mean 1 (density
r^r x^{r-1} e^{-rx} / Gamma(r), so Var eta_n = 1/r).  Every downstream
quantity (variances, cumulants, Berry-Esseen bounds, characteristic
functions) reduces to power sums of the weights

    S_k(M) = sum_{n>=M} lambda_n^k,

which this module computes to near machine precision for two families:

* ``PowerLawWeights``: lambda_n = C n^{-gamma} with gamma > 1/2 (square
  summability).  Then S_k(M) = C^k sum_{n>=M} n^{-k gamma}, the Hurwitz
  zeta function zeta(k gamma, M), computed by ``scipy.special.zeta``.
* ``ExplicitWeights``: a finite non-increasing list of positive weights;
  the sequence is exactly zero beyond the list, so all sums are finite.

Choosing (1/r) S_2(1) = 1 gives Var Z = 1; ``make_power_law_normalized``
enforces this in closed form via C = (zeta(2 gamma)/r)^{-1/2}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
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


def _zeta_tail(s: float, start: int) -> float:
    """sum_{n >= start} n^(-s) for s > 1: the Hurwitz zeta function.

    scipy returns NaN instead of 0 once s exceeds about 2.5e13 and the sum
    underflows (start >= 2); that NaN is mapped to 0.
    """
    if not s > 1.0:
        raise DomainError(f"zeta tail requires s > 1, got s = {s}")
    out = float(special.zeta(s, start))
    return 0.0 if math.isnan(out) else out


def zeta(s: float) -> float:
    """Riemann zeta(s) = sum_{n>=1} n^(-s) for s > 1, absolute error < 1e-12."""
    if not (isinstance(s, (int, float)) and math.isfinite(s)):
        raise DomainError(f"zeta requires a finite real argument, got {s!r}")
    if s <= 1.0:
        raise DomainError(f"zeta(s) diverges for s <= 1, got s = {s}")
    return _zeta_tail(float(s), 1)


@dataclass(frozen=True)
class PowerLawWeights:
    """lambda_n = scale * n^(-gamma), gamma > 1/2."""

    gamma: float
    scale: float

    def __post_init__(self):
        if not (math.isfinite(self.gamma) and self.gamma > 0.5):
            raise DomainError(
                f"power-law exponent must satisfy gamma > 1/2 for square "
                f"summability, got gamma = {self.gamma}"
            )
        if not (math.isfinite(self.scale) and self.scale > 0.0):
            raise DomainError(f"scale must be positive, got {self.scale}")

    def value(self, n):
        """lambda_n; scalar or array n (1-based indices)."""
        out = self.scale * np.asarray(n, dtype=np.float64) ** (-self.gamma)
        return float(out) if np.ndim(n) == 0 else out

    def head(self, m: int) -> np.ndarray:
        """Array (lambda_1, ..., lambda_{m-1})."""
        return self.scale * np.arange(1, m, dtype=np.float64) ** (-self.gamma)

    def tail_power_sum(self, m: int, k: int) -> float:
        s = k * self.gamma
        if s <= 1.0:
            raise DomainError(
                f"sum of lambda_n^{k} diverges: k*gamma = {s} <= 1"
            )
        return self.scale**k * _zeta_tail(s, m)


@dataclass(frozen=True)
class ExplicitWeights:
    """Finite list lambda_1 >= lambda_2 >= ... > 0; zero beyond the list."""

    values: tuple

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if not vals:
            raise DomainError("explicit weight list must be non-empty")
        if not all(math.isfinite(v) and v > 0.0 for v in vals):
            raise DomainError("explicit weights must be positive and finite")
        if any(a < b for a, b in zip(vals, vals[1:])):
            raise DomainError("explicit weights must be non-increasing")

    def value(self, n):
        """lambda_n for one 1-based index n; 0 beyond the list."""
        n = int(n)
        return self.values[n - 1] if 1 <= n <= len(self.values) else 0.0

    def head(self, m: int) -> np.ndarray:
        return np.asarray(self.values[: m - 1], dtype=np.float64)

    def tail_power_sum(self, m: int, k: int) -> float:
        return math.fsum(v**k for v in self.values[m - 1 :])


WeightSequence = Union[PowerLawWeights, ExplicitWeights]

_NORMALIZATION_RTOL = 1e-12


@dataclass(frozen=True)
class GammaSumSpec:
    """Shape parameter r plus a weight sequence; the full model of Z."""

    r: float
    weights: WeightSequence
    normalized: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.r) and self.r > 0.0):
            raise DomainError(f"gamma shape r must be positive, got {self.r}")
        if self.normalized:
            s2 = self.weights.tail_power_sum(1, 2)
            if abs(s2 / self.r - 1.0) > _NORMALIZATION_RTOL:
                raise DomainError(
                    f"normalized flag set but (1/r) sum lambda_n^2 = {s2 / self.r!r}"
                )


def make_power_law_normalized(gamma: float, r: float) -> GammaSumSpec:
    """Power-law spec with C = (zeta(2 gamma)/r)^(-1/2), so Var Z = 1 exactly."""
    if not (isinstance(gamma, (int, float)) and math.isfinite(gamma) and gamma > 0.5):
        raise DomainError(f"gamma must exceed 1/2, got {gamma!r}")
    if not (isinstance(r, (int, float)) and math.isfinite(r) and r > 0.0):
        raise DomainError(f"r must be positive, got {r!r}")
    scale = math.sqrt(r / zeta(2.0 * gamma))
    return GammaSumSpec(
        r=float(r),
        weights=PowerLawWeights(gamma=float(gamma), scale=scale),
        normalized=True,
    )


def _check_m(m: int) -> int:
    if not (isinstance(m, (int, np.integer)) and m >= 1):
        raise DomainError(f"truncation index M must be a positive integer, got {m!r}")
    return int(m)


def tail_power_sum(spec: GammaSumSpec, m: int, k: int) -> float:
    """S_k(M) = sum_{n>=M} lambda_n^k for k >= 2 (exact tail, not truncated)."""
    m = _check_m(m)
    if not (isinstance(k, (int, np.integer)) and k >= 2):
        raise DomainError(f"power k must be an integer >= 2, got {k!r}")
    return spec.weights.tail_power_sum(m, int(k))


def tail_weight_sum(spec: GammaSumSpec, m: int) -> float:
    """S_1(M) = sum_{n>=M} lambda_n; +inf for power laws with gamma <= 1."""
    m = _check_m(m)
    w = spec.weights
    if isinstance(w, PowerLawWeights) and w.gamma <= 1.0:
        return math.inf
    return w.tail_power_sum(m, 1)


def spec_to_dict(spec: GammaSumSpec) -> dict:
    """Serialize to the interchange form {"r", "weights", "normalized"}."""
    w = spec.weights
    if isinstance(w, PowerLawWeights):
        wd = {"kind": "power_law", "gamma": w.gamma, "scale": w.scale}
    else:
        wd = {"kind": "explicit", "values": list(w.values)}
    return {"r": spec.r, "weights": wd, "normalized": spec.normalized}


def _require_number(v, name: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise SpecFormatError(f"{name} must be a number, got {v!r}")
    return float(v)


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
        s2 = weights.tail_power_sum(1, 2)
        return replace(spec, normalized=abs(s2 / spec.r - 1.0) <= _NORMALIZATION_RTOL)
    if not isinstance(d["normalized"], bool):
        raise SpecFormatError("field 'normalized' must be a boolean")
    return replace(spec, normalized=d["normalized"])

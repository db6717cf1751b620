"""Edgeworth expansions of a standardized distribution from its cumulants.

An order-N expansion corrects the standard normal CDF with a finite sum of
Hermite-polynomial terms indexed by integer vectors (k_3, ..., k_N):

    F_N(x) = Phi(x) - phi(x) * sum_eta  c(k) * H_{zeta(k)}(x),

with one term per index vector in the set

    eta(N) = { (k_3..k_N) : k_m >= 0,  1 <= sum_m (m-2) k_m <= N-2 },

coefficient c(k) = prod_m (1/k_m!) (kappa_m/m!)^{k_m} and Hermite degree
zeta(k) = sum_m m k_m - 1.  Differentiating term by term gives the matching
density phi(x) (1 + sum c(k) H_{zeta+1}(x)).

Hermite polynomials are the probabilists' family, H_{k+1} = x H_k - k H_{k-1}.
The expansion adds up its term coefficients by Hermite degree once, and both
sums are evaluated by ``numpy.polynomial.hermite_e.hermeval``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.hermite_e import hermeval
from scipy import integrate, special

from .cumulants import TailCumulants
from .errors import DomainError

MAX_EXPANSION_ORDER = 20
MAX_HERMITE_DEGREE = 50

# phi and the Hermite sums are evaluated at x clipped to +-40: phi(+-40) is
# exactly 0.0, so phi is unchanged and 0 * sum never makes a NaN
_X_CLIP = 40.0

# negative_pdf_mass integrates over [-12, 12] with this many Simpson nodes
_NEG_MASS_HALF_WIDTH = 12.0
_NEG_MASS_POINTS = 4001

_SQRT2 = math.sqrt(2.0)
_SQRT2PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class IndexVector:
    """One Edgeworth index (k_3, ..., k_N) for an order-N expansion."""

    N: int
    k: tuple

    @property
    def weight(self):
        """sum (m-2) k_m, the order of the term in the expansion parameter."""
        return sum((m - 2) * km for m, km in zip(range(3, self.N + 1), self.k))

    @property
    def zeta_index(self):
        """Hermite degree sum m k_m - 1 attached to this index in the CDF."""
        return sum(m * km for m, km in zip(range(3, self.N + 1), self.k)) - 1


@dataclass(frozen=True)
class EdgeworthExpansion:
    """Order-N expansion: terms are (index, coefficient, hermite_degree).

    ``coef[d]`` is the sum of the coefficients of the degree-d terms.
    """

    N: int
    terms: tuple
    cumulants: TailCumulants
    coef: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        coef = np.zeros(1 + max((deg for _, _, deg in self.terms), default=0))
        for _, c, deg in self.terms:
            coef[deg] += c
        object.__setattr__(self, "coef", coef)


def enumerate_eta(n_order):
    """Index vectors of the order-``n_order`` expansion, lexicographic.

    Returns a list of :class:`IndexVector` sorted by the tuple ``k``.
    """
    if not isinstance(n_order, (int, np.integer)) or isinstance(n_order, bool):
        raise DomainError(f"expansion order must be an integer, got {n_order!r}")
    if not 2 <= n_order <= MAX_EXPANSION_ORDER:
        raise DomainError(
            f"expansion order must be in [2, {MAX_EXPANSION_ORDER}], got {n_order}"
        )
    budget = n_order - 2
    tuples = []

    def extend(prefix, used):
        m = 3 + len(prefix)
        if m > n_order:
            if used >= 1:
                tuples.append(tuple(prefix))
            return
        # k_m beyond (budget - used) // (m - 2) would overshoot the weight cap
        for km in range((budget - used) // (m - 2) + 1):
            prefix.append(km)
            extend(prefix, used + (m - 2) * km)
            prefix.pop()

    extend([], 0)
    tuples.sort()
    return [IndexVector(N=n_order, k=k) for k in tuples]


def hermite(k, x):
    """Probabilists' Hermite polynomial H_k(x), scalar or array.

    Degrees up to 50 are supported; ``hermeval`` loses no accuracy in that
    range for the arguments of interest (|x| up to ~15).
    """
    if not isinstance(k, (int, np.integer)) or isinstance(k, bool):
        raise DomainError(f"Hermite degree must be an integer, got {k!r}")
    if not 0 <= k <= MAX_HERMITE_DEGREE:
        raise DomainError(
            f"Hermite degree must be in [0, {MAX_HERMITE_DEGREE}], got {k}"
        )
    xa = np.asarray(x, dtype=float)
    out = hermeval(xa, np.eye(k + 1)[k])
    return float(out) if xa.ndim == 0 else out


def build_expansion(tc, n_order):
    """Assemble the order-``n_order`` expansion from tail cumulants ``tc``."""
    if not 2 <= n_order <= MAX_EXPANSION_ORDER:
        raise DomainError(
            f"expansion order must be in [2, {MAX_EXPANSION_ORDER}], got {n_order}"
        )
    if tc.max_order < n_order:
        raise DomainError(
            f"order-{n_order} expansion needs cumulants through order "
            f"{n_order}, have {tc.max_order}"
        )
    terms = []
    for iv in enumerate_eta(n_order):
        coeff = 1.0
        for m, km in zip(range(3, n_order + 1), iv.k):
            if km:
                coeff *= (tc.kappa_k(m) / math.factorial(m)) ** km
                coeff /= math.factorial(km)
        terms.append((iv, coeff, iv.zeta_index))
    return EdgeworthExpansion(N=n_order, terms=tuple(terms), cumulants=tc)


def edgeworth_cdf(expansion, x):
    """CDF of the expansion: Phi(x) minus the Hermite correction.

    Not clamped to [0, 1]; truncation can push values slightly outside near
    the tails and callers decide how to treat that.
    """
    xa = np.asarray(x, dtype=float)
    xc = np.clip(xa, -_X_CLIP, _X_CLIP)
    phi = np.exp(-0.5 * xc * xc) / _SQRT2PI
    out = 0.5 * special.erfc(-xa / _SQRT2) - phi * hermeval(xc, expansion.coef)
    return float(out) if xa.ndim == 0 else out


def edgeworth_pdf(expansion, x):
    """Density of the expansion, the term-by-term derivative of the CDF."""
    xa = np.asarray(x, dtype=float)
    xc = np.clip(xa, -_X_CLIP, _X_CLIP)
    phi = np.exp(-0.5 * xc * xc) / _SQRT2PI
    out = phi * hermeval(xc, np.concatenate(([1.0], expansion.coef)))
    return float(out) if xa.ndim == 0 else out


def negative_pdf_mass(expansion):
    """Integral of the negative part of the density over [-12, 12].

    A truncated expansion need not be nonnegative; this measures how much
    mass sits below zero, as a quality diagnostic.
    """
    x = np.linspace(-_NEG_MASS_HALF_WIDTH, _NEG_MASS_HALF_WIDTH, _NEG_MASS_POINTS)
    neg = np.clip(-edgeworth_pdf(expansion, x), 0.0, None)
    return float(integrate.simpson(neg, x=x))

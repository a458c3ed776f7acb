"""Interference Laplace exponents and the conditional-coverage kernel.

For shot-noise interference I from a planar Poisson field of transmitters
with Nakagami fading, E[exp(-s I)] = exp(-eta(s)). Two exponent shapes cover
every closed form in this package:

* ``RadialTailExponent`` -- the population beyond a 3-D exclusion distance d0:

      eta(s) = 2 pi lam Int_{d0}^inf (1 - (1 + s P l^(-aI) / mI)^(-mI)) l dl

  which l = d0 u^(-1/aI) turns into Gauss hypergeometric functions of
  -z, z = s P / (mI d0^aI) (DLMF 15.6.1); ``scipy.special.hyp2f1`` gives
  eta and each exact s-derivative over the whole range of z, down to
  aI -> 2.

* ``NearestRingExponent`` -- one dominant interferer at 3-D distance d0,
  averaged over a thin ring, giving the elementary exponent

      eta(s) = w (1 - (1 + s P / (mI d0^aI))^(-mI))

  with weight w = d0 / R; its derivatives are closed-form.

``conditional_coverage`` turns a sum of exponents into the coverage
probability of a Nakagami-m link at a given decode coefficient: with
g ~ Gamma(m)/m,

  P[g > M (noise + I) d^alpha] = sum_{n<m} ((-c)^n / n!) D_n(c),
  D_n = d^n/dc^n exp(-f(c)),  f(c) = c noise + eta(c),

at c = m M d^alpha. The D_n follow from the derivatives of f by the
recursion of ``exp_composition_derivatives``, and every term of the sum is
non-negative, so nothing cancels.

Everything here works elementwise: s, d0, the ring weight, the decode
coefficient and the serving distance may be numpy arrays that broadcast
together, and a whole quadrature grid is one call (``hyp2f1`` runs once per
order over the array). Scalar inputs give floats.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
from scipy.special import hyp2f1

from .errors import NumericalError
from .specfun import exp_composition_derivatives, rising_pochhammer

# Every exponent reports SERIES; the benchmark tracer reads ``method`` and
# counts QUADRATURE results.
SERIES = "series"
QUADRATURE = "quadrature"

# a coverage value may leave [0, 1] by rounding only
_PROBABILITY_SLACK = 4.0 * math.ulp(1.0)


def check_probability(values, what: str) -> None:
    """Raise ``NumericalError`` unless every value lies in [0, 1] up to rounding.

    NaN fails the check too.
    """
    values = np.asarray(values)
    inside = (values >= -_PROBABILITY_SLACK) & (values <= 1.0 + _PROBABILITY_SLACK)
    if not np.all(inside):
        worst = values[~inside].flat[0]
        raise NumericalError(f"{what} {float(worst)!r} outside [0, 1]")


class ExponentDerivatives(NamedTuple):
    """eta^(k)(s) for k = 0..order, plus an evaluation-path tag (always SERIES)."""

    values: tuple
    method: str


class LaplaceExponentBase:
    """Shared surface of every interference Laplace exponent."""

    def derivatives(self, s, order: int) -> ExponentDerivatives:
        raise NotImplementedError

    def value_at(self, s):
        return self.derivatives(s, 0).values[0]


class RadialTailExponent(LaplaceExponentBase):
    """Exponent of the interferer population beyond a 3-D exclusion distance."""

    def __init__(
        self,
        density: float,
        tx_power: float,
        alpha_interf: float,
        m_interf: int,
        lower_dist3d,
    ):
        self.density = density
        self.tx_power = tx_power
        self.alpha_interf = alpha_interf
        self.m_interf = m_interf
        self.lower_dist3d = lower_dist3d

    def derivatives(self, s, order: int) -> ExponentDerivatives:
        # With dI = 2/aI, q = P/(mI d0^aI), z = s q and C = pi lam d0^2,
        # u = (d0/l)^aI gives Euler integrals Int_0^1 u^(b-1) (1+zu)^(-a) du
        # = 2F1(a, b; b+1; -z)/b, hence
        #   k = 0:  C z dI/(1-dI) sum_{i<=mI} 2F1(i, 1-dI; 2-dI; -z)
        #   k >= 1: C q^k (-1)^k (mI)_k (-dI)/(k-dI) 2F1(mI+k, k-dI; k+1-dI; -z)
        # The k = 0 sum comes from 1 - (1+y)^(-m) = y sum_{i<=m} (1+y)^(-i),
        # so every term is positive; the shorter C [2F1(mI, -dI; 1-dI; -z) - 1]
        # cancels to exactly 0 at small z.
        if np.any(np.asarray(s) < 0.0):
            raise NumericalError("Laplace exponent requires s >= 0")
        m_i = self.m_interf
        delta = 2.0 / self.alpha_interf
        d0 = self.lower_dist3d
        # d0^aI overflows in sparse networks; q -> 0 is the exponent's limit
        with np.errstate(over="ignore"):
            q = self.tx_power / (m_i * d0**self.alpha_interf)
        z = s * q
        scale = math.pi * self.density * d0 * d0
        tail = sum(hyp2f1(i, 1.0 - delta, 2.0 - delta, -z) for i in range(1, m_i + 1))
        values = [scale * z * delta / (1.0 - delta) * tail]
        for k in range(1, order + 1):
            values.append(
                scale
                * q**k
                * (-1.0) ** (k + 1)
                * rising_pochhammer(m_i, k)
                * delta
                / (k - delta)
                * hyp2f1(m_i + k, k - delta, k + 1.0 - delta, -z)
            )
        return ExponentDerivatives(tuple(values), SERIES)


class NearestRingExponent(LaplaceExponentBase):
    """Exponent of a single dominant interferer averaged over a thin ring."""

    def __init__(
        self,
        weight,
        tx_power: float,
        alpha_interf: float,
        m_interf: int,
        dist3d,
    ):
        self.weight = weight
        self.tx_power = tx_power
        self.alpha_interf = alpha_interf
        self.m_interf = m_interf
        self.dist3d = dist3d

    def derivatives(self, s, order: int) -> ExponentDerivatives:
        # as for the radial tail, q -> 0 where d0^aI overflows
        with np.errstate(over="ignore"):
            q = self.tx_power / (self.m_interf * self.dist3d**self.alpha_interf)
        values = [-self.weight * np.expm1(-self.m_interf * np.log1p(s * q))]
        for k in range(1, order + 1):
            values.append(
                self.weight
                * (-1.0) ** (k + 1)
                * rising_pochhammer(self.m_interf, k)
                * q**k
                * (1.0 + s * q) ** (-self.m_interf - k)
            )
        return ExponentDerivatives(tuple(values), SERIES)


def conditional_coverage(
    fading_order: int,
    decode_coeff,
    noise_power: float,
    dist3d,
    alpha: float,
    *exponents: LaplaceExponentBase,
):
    """Coverage P[g > M (noise + I) d^alpha] for a unit-mean Nakagami link.

    The interference exponent is the sum of ``exponents`` (independent
    interferer populations). ``decode_coeff``, ``dist3d`` and the exponents'
    distances may be arrays; the result has their broadcast shape, or is a
    float for scalar input. An infeasible (infinite) decode coefficient gives
    exactly 0, and so does a noise term exp(-c noise) that underflows. A
    value outside [0, 1] by more than rounding raises ``NumericalError``.
    """
    # an infinite c (steep or distant serving link) is a dead element
    with np.errstate(over="ignore"):
        c = fading_order * np.asarray(decode_coeff, dtype=float) * np.asarray(dist3d) ** alpha
    with np.errstate(invalid="ignore"):
        live = np.isfinite(c) & (np.exp(-c * noise_power) > 0.0)
    # dead elements are evaluated at s = 0, then zeroed
    s = np.where(live, c, 0.0)[()]
    f = [0.0] * fading_order
    for exponent in exponents:
        for k, value in enumerate(exponent.derivatives(s, fading_order - 1).values):
            f[k] = f[k] + value
    f[0] = f[0] + s * noise_power
    if fading_order > 1:
        f[1] = f[1] + noise_power
    transform_derivs = exp_composition_derivatives(f, fading_order - 1)
    total = 0.0
    for n in range(fading_order):
        total = total + (-s) ** n / math.factorial(n) * transform_derivs[n]
    total = np.where(live, total, 0.0)
    check_probability(total, "conditional coverage")
    return total if total.ndim else float(total)

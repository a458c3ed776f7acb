"""Interference Laplace exponents and the conditional-coverage kernel.

For shot-noise interference I from a planar Poisson field of transmitters
with Nakagami fading, E[exp(-s I)] = exp(-eta(s)). Two exponent shapes cover
every closed form in this package:

* ``RadialTailExponent`` -- the population beyond a 3-D exclusion distance d0:

      eta(s) = 2 pi lam Int_{d0}^inf (1 - (1 + s P l^(-aI) / mI)^(-mI)) l dl

  evaluated through the Pochhammer power series in z = s P / (mI d0^aI)
  (converges for z < 1) with an adaptive-quadrature fallback, both with exact
  s-derivatives up to any requested order. The quadrature maps [d0, inf)
  onto [0, 1] by l = d0 x^(-1/(aI-2)), which leaves bounded integrands even
  as aI approaches 2.

* ``NearestRingExponent`` -- one dominant interferer at 3-D distance d0,
  averaged over a thin ring, giving the elementary exponent

      eta(s) = w (1 - (1 + s P / (mI d0^aI))^(-mI))

  with weight w = d0 / R; its derivatives are closed-form.

``conditional_coverage`` turns an exponent into the coverage probability of a
Nakagami-m link at a given decode coefficient: with g ~ Gamma(m)/m,

  P[g > M (noise + I) d^alpha]
    = sum_{n<m} (c^n/n!) e^(-c noise) sum_{p<=n} C(n,p) noise^p (-1)^(n-p) L^(n-p)(c)

at c = m M d^alpha, where the L-derivatives come from Faa di Bruno applied to
the exponent derivatives.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from scipy import integrate

from .errors import NumericalError
from .specfun import exp_composition_derivatives, rising_pochhammer

SERIES = "series"
QUADRATURE = "quadrature"

_SERIES_REL_TOL = 1e-10
_SERIES_MAX_TERMS = 200
_SERIES_Z_LIMIT = 0.95


class ExponentDerivatives(NamedTuple):
    """eta^(k)(s) for k = 0..order, plus the evaluation path that produced them."""

    values: tuple[float, ...]
    method: str


class LaplaceExponentBase:
    """Shared surface of every interference Laplace exponent."""

    def derivatives(self, s: float, order: int) -> ExponentDerivatives:
        raise NotImplementedError

    def value_at(self, s: float) -> float:
        return self.derivatives(s, 0).values[0]

    def transform_at(self, s: float) -> float:
        """L(s) = exp(-eta(s))."""
        return math.exp(-self.value_at(s))


class RadialTailExponent(LaplaceExponentBase):
    """Exponent of the interferer population beyond a 3-D exclusion distance."""

    def __init__(
        self,
        density: float,
        tx_power: float,
        alpha_interf: float,
        m_interf: int,
        lower_dist3d: float,
        series_rel_tol: float = _SERIES_REL_TOL,
    ):
        self.density = density
        self.tx_power = tx_power
        self.alpha_interf = alpha_interf
        self.m_interf = m_interf
        self.lower_dist3d = lower_dist3d
        self.series_rel_tol = series_rel_tol

    def _z(self, s: float) -> float:
        return (
            s
            * self.tx_power
            / (self.m_interf * self.lower_dist3d**self.alpha_interf)
        )

    def method_for(self, s: float) -> str:
        return SERIES if self._z(s) < _SERIES_Z_LIMIT else QUADRATURE

    def derivatives(self, s: float, order: int) -> ExponentDerivatives:
        if s < 0.0:
            raise NumericalError("Laplace exponent requires s >= 0")
        if self._z(s) < _SERIES_Z_LIMIT:
            values = self._series(s, order)
            if values is not None:
                return ExponentDerivatives(tuple(values), SERIES)
        return ExponentDerivatives(tuple(self._quadrature(s, order)), QUADRATURE)

    def _series(self, s: float, order: int) -> list[float] | None:
        # eta(s) = (2 pi lam d0^2 / aI) sum_{i=1}^{mI} C(mI,i)
        #            sum_a (mI)_a (-1)^a / (a! (i + a - dI)) z^(i+a)
        # with z = s P / (mI d0^aI); the k-th s-derivative of z^p is
        # p (p-1) ... (p-k+1) z^(p-k) q^k with q = z/s held in dimensionless
        # form so no intermediate leaves double range. Terms shrink
        # geometrically in z once a is past the low orders.
        m_i = self.m_interf
        delta = 2.0 / self.alpha_interf
        d0 = self.lower_dist3d
        q = self.tx_power / (m_i * d0**self.alpha_interf)
        z = s * q
        q_pow = [q**k for k in range(order + 1)]
        prefactor = 2.0 * math.pi * self.density * d0 * d0 / self.alpha_interf
        acc = [0.0] * (order + 1)
        for i in range(1, m_i + 1):
            # base_a = C(mI,i) (mI)_a (-1)^a / (a! (i+a-dI)), updated by ratio
            # so neither the Pochhammer symbol nor the factorial is formed
            # alone (they overflow individually near 170 terms)
            base = math.comb(m_i, i) / (i - delta)
            converged = False
            for a in range(_SERIES_MAX_TERMS):
                power = i + a
                if a > 0:
                    base *= -(m_i + a - 1) / a * (power - 1.0 - delta) / (
                        power - delta
                    )
                increments = []
                for k in range(order + 1):
                    if power < k:
                        increments.append(0.0)
                        continue
                    falling = 1.0
                    for j in range(k):
                        falling *= power - j
                    increments.append(base * falling * z ** (power - k) * q_pow[k])
                for k in range(order + 1):
                    acc[k] += increments[k]
                # |t_{a+1}|/|t_a| <= ratio below; terms grow while it exceeds
                # 1, so stop only once the geometric tail bound is inside the
                # tolerance
                if power > order:
                    ratio = z * (m_i + a) / (a + 1.0)
                    if order:
                        ratio *= (power + 1.0) / (power + 1.0 - order)
                    if ratio < 0.999:
                        tail_scale = ratio / (1.0 - ratio)
                        if all(
                            abs(inc) * tail_scale
                            <= self.series_rel_tol * abs(total)
                            for inc, total in zip(increments, acc)
                        ):
                            converged = True
                            break
            if not converged or not all(math.isfinite(v) for v in acc):
                return None
        return [prefactor * v for v in acc]

    def _quadrature(self, s: float, order: int) -> list[float]:
        # l = d0 x^(-1/(aI-2)) maps [d0, inf) onto (0, 1] and turns the
        # heavy l^(1-aI) tail into the bounded powers of x below; with
        # p = aI/(aI-2), q = P/(mI d0^aI) and z = s q the k-th derivative is
        #   k = 0:  scale Int_0^1 z phi(y)/y dx,  y = z x^p,
        #           phi(y) = 1 - (1+y)^(-mI) (phi(y)/y -> mI at y = 0)
        #   k >= 1: scale sign_k q^k Int_0^1 x^(p(k-1)) (1 + z x^p)^(-mI-k) dx
        # with scale = 2 pi lam d0^2/(aI-2); no factor leaves double range
        # down to aI = 2.001.
        m_i = self.m_interf
        a_i = self.alpha_interf
        d0 = self.lower_dist3d
        p = a_i / (a_i - 2.0)
        q = self.tx_power / (m_i * d0**a_i)
        z = s * q
        scale = 2.0 * math.pi * self.density * d0 * d0 / (a_i - 2.0)

        def phi_over_y(y):
            # -expm1(-m log1p(y)) avoids the 1 - (1+y)^(-m) cancellation
            return -math.expm1(-m_i * math.log1p(y)) / y if y > 0.0 else m_i

        values = []
        for k in range(order + 1):
            if k == 0:
                f = lambda x: z * phi_over_y(z * x**p)
                factor = 1.0
            else:
                f = lambda x, _k=k: x ** (p * (_k - 1)) * (1.0 + z * x**p) ** (
                    -m_i - _k
                )
                factor = (-1.0) ** (k + 1) * rising_pochhammer(m_i, k) * q**k
            value, err = integrate.quad(
                f, 0.0, 1.0, epsabs=0.0, epsrel=1e-11, limit=300, full_output=1
            )[:2]
            if value != 0.0 and err > 1e-8 * abs(value):
                raise NumericalError(
                    "interference exponent quadrature out of tolerance", err
                )
            values.append(factor * scale * value)
        return values


class NearestRingExponent(LaplaceExponentBase):
    """Exponent of a single dominant interferer averaged over a thin ring."""

    def __init__(
        self,
        weight: float,
        tx_power: float,
        alpha_interf: float,
        m_interf: int,
        dist3d: float,
    ):
        self.weight = weight
        self.tx_power = tx_power
        self.alpha_interf = alpha_interf
        self.m_interf = m_interf
        self.dist3d = dist3d

    def derivatives(self, s: float, order: int) -> ExponentDerivatives:
        q = self.tx_power / (self.m_interf * self.dist3d**self.alpha_interf)
        values = [-self.weight * math.expm1(-self.m_interf * math.log1p(s * q))]
        for k in range(1, order + 1):
            values.append(
                self.weight
                * (-1.0) ** (k + 1)
                * rising_pochhammer(self.m_interf, k)
                * q**k
                * (1.0 + s * q) ** (-self.m_interf - k)
            )
        return ExponentDerivatives(tuple(values), SERIES)


class SumExponent(LaplaceExponentBase):
    """Exponent of independent interference components: eta = sum of parts."""

    def __init__(self, parts: Sequence[LaplaceExponentBase]):
        self.parts = tuple(parts)

    def derivatives(self, s: float, order: int) -> ExponentDerivatives:
        totals = [0.0] * (order + 1)
        methods = []
        for part in self.parts:
            values, method = part.derivatives(s, order)
            methods.append(method)
            for k in range(order + 1):
                totals[k] += values[k]
        tag = QUADRATURE if QUADRATURE in methods else SERIES
        return ExponentDerivatives(tuple(totals), tag)


def conditional_coverage(
    fading_order: int,
    decode_coeff: float,
    noise_power: float,
    dist3d: float,
    alpha: float,
    exponent: LaplaceExponentBase,
) -> float:
    """Coverage P[g > M (noise + I) d^alpha] for a unit-mean Nakagami link.

    An infeasible (infinite) decode coefficient gives exactly 0.
    """
    if not math.isfinite(decode_coeff):
        return 0.0
    c = fading_order * decode_coeff * dist3d**alpha
    noise_factor = math.exp(-c * noise_power)
    if noise_factor == 0.0:
        return 0.0
    etas = exponent.derivatives(c, fading_order - 1).values
    transform_derivs = exp_composition_derivatives(list(etas), fading_order - 1)
    total = 0.0
    for n in range(fading_order):
        outer = c**n / math.factorial(n)
        inner = 0.0
        for p in range(n + 1):
            inner += (
                math.comb(n, p)
                * noise_power**p
                * (-1.0) ** (n - p)
                * transform_derivs[n - p]
            )
        total += outer * inner
    return min(max(total * noise_factor, 0.0), 1.0)

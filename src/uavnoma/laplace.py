"""Interference Laplace exponents and the conditional-coverage kernel.

For shot-noise interference I_1 from a planar Poisson field of transmitters
of unit power with Nakagami fading, E[exp(-s I_1)] = exp(-eta(s)); at
transmit power P the exponent of s is eta(s P). Two exponent shapes cover
every closed form in this package:

* ``RadialTailExponent`` -- the population beyond a 3-D exclusion distance d0:

      eta(s) = 2 pi lam Int_{d0}^inf (1 - (1 + s l^(-aI) / mI)^(-mI)) l dl

  which l = d0 u^(-1/aI) turns into Gauss hypergeometric functions of
  -z, z = s / (mI d0^aI) (DLMF 15.6.1); ``scipy.special.hyp2f1`` gives
  eta and each Taylor coefficient over the whole range of z, down to
  aI -> 2. Orders 0 and 1 share b = 1 - 2/aI, and one call gives both
  through a contiguous recurrence (``_hyp2f1_run``); at a top order K >= 2
  one call at K gives every lower order through a backward recurrence in k
  whose terms are non-negative (``_tail_run``).

* ``NearestRingExponent`` -- one dominant interferer at 3-D distance d0,
  averaged over a thin ring, giving the elementary exponent

      eta(s) = w (1 - (1 + s / (mI d0^aI))^(-mI))

  with weight w = d0 / R; its Taylor coefficients are closed-form.

Each exponent hands over the Taylor coefficients a_k = s^k eta^(k)(s)/k! of
eta(s(1 + x)) in x, not the derivatives eta^(k), which leave the double
range at high order. ``conditional_coverage`` turns a sum of exponents into
the coverage probability of a Nakagami-m link at a given decode
coefficient: with g ~ Gamma(m)/m and f(s) = s noise + eta(s),

  P[g > M (noise + I) d^alpha] = sum_{n<m} ((-s)^n / n!) d^n/ds^n exp(-f(s))
                               = sum_{n<m} (-1)^n E_n

at s = m M d^alpha, E_n being the Taylor coefficients of exp(-f(s(1 + x))).
``exp_composition_derivatives`` takes them from the a_k by one normalized
recursion; every term (-1)^n E_n is non-negative, so nothing cancels and no
factor overflows at any m.

The closed forms call the kernel at unit power, with the decode coefficient
kappa of ``scenario.thresholds`` and the noise N/P: M (N + P I_1) = kappa
(N/P + I_1), so transmit power enters as N/P alone and no exponent reads
it. An ``ExponentSum`` kept on equal distances and density serves every
power: its memo of the last (s, order) decides whether it reuses
coefficients.

Everything here works elementwise: s, d0, the ring weight, the decode
coefficient, the noise and the serving distance may be numpy arrays that
broadcast together, and a whole quadrature grid is one call (``hyp2f1`` runs
once at every top order). Scalar inputs give floats.

``scipy.special`` is loaded at the first ``hyp2f1`` or ``beta`` value, not
with this module, so a process that computes no closed form (``uavnoma mc``,
a sweep in mode ``mc``) never imports scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, NumericalError

# Every exponent reports SERIES; the benchmark tracer reads ``method`` and
# counts QUADRATURE results.
SERIES = "series"
QUADRATURE = "quadrature"

# A coverage value of fading order m is a sum of m non-negative terms
# (-1)^n E_n of at most 1, or an average of such sums under a probability
# weight. Each term carries a few ulp of rounding from its recursion and its
# addition, so the value may leave [0, 1] by rounding of 4 ulp per term.
_SLACK_PER_TERM = 4.0 * math.ulp(1.0)


def check_probability(values, what: str, fading_order: int, error=0.0) -> None:
    """Raise ``NumericalError`` unless every value lies in [0, 1] up to the
    rounding of its ``fading_order`` terms and, for an integrated value, its
    own error estimate ``error`` (one per value, or one for all). The values
    are checked, not clamped.

    NaN fails the check too.
    """
    values = np.asarray(values)
    slack = fading_order * _SLACK_PER_TERM + np.asarray(error)
    inside = (values >= -slack) & (values <= 1.0 + slack)
    if not np.all(inside):
        worst = values[~inside].flat[0]
        raise NumericalError(f"{what} {float(worst)!r} outside [0, 1]")


def hyp2f1(a, b, c, z):
    """``scipy.special.hyp2f1``, imported at the call."""
    from scipy import special

    return special.hyp2f1(a, b, c, z)


def beta(a, b):
    """``scipy.special.beta``, imported at the call."""
    from scipy import special

    return special.beta(a, b)


class ExponentDerivatives(NamedTuple):
    """a_k = s^k eta^(k)(s)/k!, k = 0..order, plus a path tag (always SERIES)."""

    values: tuple
    method: str


class LaplaceExponentBase:
    """Shared surface of every interference Laplace exponent."""

    def derivatives(self, s, order: int) -> ExponentDerivatives:
        raise NotImplementedError

    def value_at(self, s):
        return self.derivatives(s, 0).values[0]


@dataclass(eq=False)
class RadialTailExponent(LaplaceExponentBase):
    """Exponent of the unit-power interferer population beyond a 3-D
    exclusion distance."""

    density: float
    alpha_interf: float
    m_interf: int
    lower_dist3d: object  # float or array

    def derivatives(self, s, order: int) -> ExponentDerivatives:
        # With dI = 2/aI, q = 1/(mI d0^aI), z = s q and C = pi lam d0^2,
        # u = (d0/l)^aI gives Euler integrals Int_0^1 u^(b-1) (1+zu)^(-a) du
        # = 2F1(a, b; b+1; -z)/b, hence the coefficients
        #   k = 0:  C z dI/(1-dI) sum_{i<=mI} 2F1(i, 1-dI; 2-dI; -z)
        #   k >= 1: C (-1)^(k+1) binom(mI+k-1, k) dI/(k-dI) z^k
        #           2F1(mI+k, k-dI; k+1-dI; -z)
        # The k = 0 sum comes from 1 - (1+y)^(-m) = y sum_{i<=m} (1+y)^(-i),
        # so every term is positive; the shorter C [2F1(mI, -dI; 1-dI; -z) - 1]
        # cancels to exactly 0 at small z. Up to order 1 the 2F1 are
        # F(1)..F(mI+1) of ``_hyp2f1_run``, one call and a recurrence; from
        # order 2 on one call at the top order gives them all (``_tail_run``).
        if np.any(np.asarray(s) < 0.0):
            raise NumericalError("Laplace exponent requires s >= 0")
        m_i = self.m_interf
        delta = 2.0 / self.alpha_interf
        d0 = self.lower_dist3d
        # d0^aI overflows in sparse networks; q -> 0 is the exponent's limit
        with np.errstate(over="ignore"):
            q = 1.0 / (m_i * d0**self.alpha_interf)
        z = s * q
        scale = math.pi * self.density * d0 * d0
        if order < 2:
            hyp = _hyp2f1_run(m_i + (order > 0), 1.0 - delta, z)
            values = [scale * z * delta / (1.0 - delta) * sum(hyp[:m_i])]
            powers = [z * hyp[m_i]] if order else []
        else:
            head, powers = _tail_run(m_i, order, delta, z)
            values = [scale * delta / (1.0 - delta) * head]
        for k, power_hyp in enumerate(powers, 1):
            sign_binom = (-1.0) ** (k + 1) * math.comb(m_i + k - 1, k)
            values.append(scale * sign_binom * delta / (k - delta) * power_hyp)
        return ExponentDerivatives(tuple(values), SERIES)


def _hyp2f1_run(n: int, b: float, z) -> list:
    """F(a) = 2F1(a, b; b+1; -z), a = 1..n, 0 < b < 1, from one 2F1 call and
    F(a+1) = [b (1+z)^(-a) + (a-b) F(a)] / a, which comes from integrating
    d/du [u^b (1+zu)^(-a)] over [0, 1], F(a) being b Int_0^1 u^(b-1)
    (1+zu)^(-a) du. Both terms are non-negative for a > b: nothing cancels."""
    run = [hyp2f1(1.0, b, b + 1.0, -z)]
    for a in range(1, n):
        run.append((b * (1.0 + z) ** -a + (a - b) * run[-1]) / a)
    return run


def _tail_run(m_i: int, order: int, delta: float, z):
    """z sum_{a<=mI} 2F1(a, 1-dI; 2-dI; -z) and P_1..P_order, P_k = z^k
    2F1(mI+k, k-dI; k+1-dI; -z), from one 2F1 call at the top order.

    Integrating d/du [u^(k-dI) (1+zu)^(-mI-k)] over [0, 1] in the Euler
    integral of P_k gives the backward recurrence

        P_k = (mI+k)/(k+1-dI) P_(k+1) + v^k (1+z)^(-mI),  v = z/(1+z),

    both of whose terms are non-negative (W. Gautschi, SIAM Review 9(1),
    1967). G(a) = z 2F1(a, 1-dI; 2-dI; -z) then runs down from G(mI+1) = P_1
    by the recurrence of ``_hyp2f1_run`` read backwards,

        G(a) = [a G(a+1) - (1-dI) z (1+z)^(-a)] / (a-1+dI),

    whose one subtraction amplifies rounding by at most 1/dI.
    """
    powers = [_power_hyp2f1(m_i, order, delta, z)]
    v, base = z / (1.0 + z), (1.0 + z) ** -m_i
    for k in range(order - 1, 0, -1):
        powers.append((m_i + k) / (k + 1.0 - delta) * powers[-1] + v**k * base)
    powers.reverse()
    run = [powers[0]]
    for a in range(m_i, 0, -1):
        step = (1.0 - delta) * z * (1.0 + z) ** -a
        run.append((a * run[-1] - step) / (a - 1.0 + delta))
    return sum(run[:0:-1]), powers


# z^k beyond which the 1/z connection takes over: z > 10 there for k <= 150,
# and below it the direct 2F1 stays far above the subnormal range
_CONNECTION_POWER = 1e150


def _power_hyp2f1(m_i: int, k: int, delta: float, z):
    """z^k 2F1(mI+k, k-dI; k+1-dI; -z), which tends to G z^dI as z -> inf.

    The direct product overflows where z^k does. Where z^k exceeds 1e150 the
    1/z connection (DLMF 15.8.2, whose second 2F1 is 1 as b - c + 1 = 0)

        G z^dI - (k-dI)/(mI+dI) z^(-mI) 2F1(mI+k, mI+dI; mI+dI+1; -1/z),
        G = Gamma(k+1-dI) Gamma(mI+dI)/Gamma(mI+k) = (mI+k) B(k+1-dI, mI+dI),

    takes over. Against mpmath it holds to 1e-11 there (k <= 99), but it
    cancels below z = 10.
    """
    z = np.asarray(z)
    with np.errstate(over="ignore"):
        power = z**k
    far = power > _CONNECTION_POWER
    if not np.any(far):
        return power * hyp2f1(m_i + k, k - delta, k + 1.0 - delta, -z)
    out = np.empty(z.shape)
    out[~far] = power[~far] * hyp2f1(m_i + k, k - delta, k + 1.0 - delta, -z[~far])
    y = z[far]
    series = hyp2f1(m_i + k, m_i + delta, m_i + delta + 1.0, -1.0 / y)
    out[far] = (m_i + k) * beta(k + 1.0 - delta, m_i + delta) * y**delta - (
        k - delta
    ) / (m_i + delta) * y ** (-m_i) * series
    return out[()]


@dataclass(eq=False)
class NearestRingExponent(LaplaceExponentBase):
    """Exponent of a single dominant unit-power interferer averaged over a
    thin ring."""

    weight: object  # float or array, as dist3d
    alpha_interf: float
    m_interf: int
    dist3d: object

    def derivatives(self, s, order: int) -> ExponentDerivatives:
        # as for the radial tail, q -> 0 where d0^aI overflows
        with np.errstate(over="ignore"):
            q = 1.0 / (self.m_interf * self.dist3d**self.alpha_interf)
        m_i = self.m_interf
        sq = s * q
        values = [-self.weight * np.expm1(-m_i * np.log1p(sq))]
        if order:
            # a_k = w (-1)^(k+1) binom(mI+k-1, k) v^k (1+sq)^(-mI), v = sq/(1+sq)
            v = sq / (1.0 + sq)
            base = self.weight * (1.0 + sq) ** (-m_i)
            values += [
                (-1.0) ** (k + 1) * math.comb(m_i + k - 1, k) * v**k * base
                for k in range(1, order + 1)
            ]
        return ExponentDerivatives(tuple(values), SERIES)


class ExponentSum(LaplaceExponentBase):
    """The exponent of independent populations ``parts``, their sum. It keeps
    the coefficients of its last call for the next call at equal s and order."""

    def __init__(self, *parts: LaplaceExponentBase):
        self.parts = parts
        self.kept = None  # (s, order, coefficients)

    def derivatives(self, s, order: int) -> ExponentDerivatives:
        kept = self.kept
        if kept is not None and kept[1] == order and np.array_equal(kept[0], s):
            return kept[2]
        # let the last coefficients go before the new ones are formed
        self.kept = kept = None
        values = [0.0] * (order + 1)
        for part in self.parts:
            for k, value in enumerate(part.derivatives(s, order).values):
                values[k] = values[k] + value
        self.kept = s, order, ExponentDerivatives(tuple(values), SERIES)
        return self.kept[2]


def exp_composition_derivatives(coeffs, n: int) -> list:
    """Taylor coefficients E_0..E_n of exp(-f) from those of f, a_0..a_n.

    The derivative of exp(-f) = sum E_k x^k is -f' exp(-f), hence

        E_0 = exp(-a_0),  E_k = -(1/k) sum_{j=1..k} j a_j E_(k-j).

    With a_k = s^k f^(k)(s)/k! this is E_k = s^k D_k/k!, D_k = d^k/ds^k
    exp(-f), without forming s^k, k! or D_k. When f is a Bernstein function
    (f' >= 0 completely monotone), every term of (-1)^k E_k is non-negative,
    so the sum never cancels (X. Yu, J. Zhang, M. Haenggi, K. B. Letaief,
    IEEE JSAC 35(7), 2017). The coefficients may be arrays of one shape,
    giving arrays; where exp(-a_0) underflows every E_k is 0.
    """
    if len(coeffs) < n + 1:
        raise DomainError(f"need coefficients up to order {n}, got {len(coeffs) - 1}")
    out = [np.exp(-np.asarray(coeffs[0], dtype=float))]
    for k in range(1, n + 1):
        out.append(-sum(j * coeffs[j] * out[k - j] for j in range(1, k + 1)) / k)
    return out


def conditional_coverage(
    fading_order: int,
    decode_coeff,
    noise_power,
    dist3d,
    alpha: float,
    *exponents: LaplaceExponentBase,
):
    """Coverage P[g > M (noise + I) d^alpha] for a unit-mean Nakagami link.

    The interference exponent is the sum of ``exponents`` (independent
    interferer populations). ``decode_coeff``, ``noise_power``, ``dist3d``
    and the exponents' distances may be arrays; the result has their
    broadcast shape, or is a float for scalar input. An infeasible (infinite)
    decode coefficient gives exactly 0, and so does a noise term exp(-c
    noise) that underflows. A value outside [0, 1] by more than rounding
    raises ``NumericalError``. The closed forms call it at unit power: the
    coefficient kappa, the noise N/P and unit-power exponents.
    """
    # an infinite c (steep or distant serving link) is a dead element
    with np.errstate(over="ignore"):
        c = fading_order * np.asarray(decode_coeff, dtype=float) * np.asarray(dist3d) ** alpha
    finite = np.isfinite(c)
    # dead elements are evaluated at s = 0, then zeroed; the noise test masks
    # the sum alone, so that s, and the exponents' coefficients, hold no noise
    s = np.where(finite, c, 0.0)[()]
    a = list(ExponentSum(*exponents).derivatives(s, fading_order - 1).values)
    # the noise term s noise (1 + x) adds s noise to a_0 and a_1
    a[0] = a[0] + s * noise_power
    if fading_order > 1:
        a[1] = a[1] + s * noise_power
    terms = exp_composition_derivatives(a, fading_order - 1)
    with np.errstate(invalid="ignore"):
        live = finite & (np.exp(-c * noise_power) > 0.0)
    total = np.where(live, sum((-1.0) ** n * term for n, term in enumerate(terms)), 0.0)
    check_probability(total, "conditional coverage", fading_order)
    return total if total.ndim else float(total)

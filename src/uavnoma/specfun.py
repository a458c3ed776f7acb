"""Special functions behind the coverage closed forms.

Two building blocks live here:

* the rising factorial ``rising_pochhammer``,
* derivatives of exp(-eta(s)) of arbitrary order from the derivatives of
  eta(s), via a lower-triangular recursion.

Both functions are pure and reentrant.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import DomainError


def rising_pochhammer(a: float, n: int) -> float:
    """Rising factorial a (a+1) ... (a+n-1); the empty product (n=0) is 1."""
    if n < 0:
        raise DomainError(f"rising_pochhammer requires n >= 0, got {n}")
    out = 1.0
    for k in range(n):
        out *= a + k
    return out


def exp_composition_derivatives(eta_derivs: Sequence, n: int) -> list:
    """Derivatives d^k/ds^k exp(-eta(s)) for k = 0..n from (eta, eta', ..., eta^(n)).

    D = exp(-eta) satisfies D' = -eta' D; Leibniz's rule on that product gives

        D_0 = exp(-eta),  D_k = -sum_{j=1..k} C(k-1, j-1) eta^(j) D_(k-j).

    When eta is a Bernstein function (eta' >= 0 completely monotone), every
    term of (-1)^k D_k is non-negative, so the sum never cancels (X. Yu,
    J. Zhang, M. Haenggi, K. B. Letaief, IEEE JSAC 35(7), 2017).

    The derivatives may be arrays of one shape, giving arrays; where exp(-eta)
    underflows every derivative is numerically zero and is returned as 0.
    """
    if len(eta_derivs) < n + 1:
        raise DomainError(
            f"need eta derivatives up to order {n}, got {len(eta_derivs) - 1}"
        )
    base = np.exp(-np.asarray(eta_derivs[0], dtype=float))
    underflow = base == 0.0
    if np.all(underflow):
        return [np.zeros(base.shape) if base.ndim else 0.0] * (n + 1)
    out = [base]
    for k in range(1, n + 1):
        out.append(
            -sum(
                math.comb(k - 1, j - 1) * eta_derivs[j] * out[k - j]
                for j in range(1, k + 1)
            )
        )
    if np.any(underflow):
        out = [np.where(underflow, 0.0, d) for d in out]
    return out

"""Special functions and combinatorial machinery behind the coverage closed forms.

Four building blocks live here:

* gamma-family helpers (``ln_gamma``, ``rising_pochhammer``),
* integer-partition multisets and their enumeration (``partitions``),
* a Gauss hypergeometric function restricted to non-positive argument, the
  shape that actually occurs in interference Laplace transforms,
* derivatives of exp(-eta(s)) of arbitrary order from the derivatives of
  eta(s), via Faa di Bruno's formula over partition multisets.

All functions are pure and reentrant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .errors import DomainError, NumericalError, PartitionCapError

# Orders above this make the partition count (and Faa di Bruno sums) explode;
# fading orders in practice stay at or below 5.
PARTITION_CAP = 12


def ln_gamma(x: float) -> float:
    """Natural log of the Gamma function for x > 0.

    For integer x this reproduces ln((x-1)!) to machine precision.
    """
    if x <= 0.0:
        raise DomainError(f"ln_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def rising_pochhammer(a: float, n: int) -> float:
    """Rising factorial a (a+1) ... (a+n-1); the empty product (n=0) is 1."""
    if n < 0:
        raise DomainError(f"rising_pochhammer requires n >= 0, got {n}")
    out = 1.0
    for k in range(n):
        out *= a + k
    return out


@dataclass(frozen=True)
class PartitionMultiset:
    """Multiplicity vector (q_1, ..., q_p) of an integer partition of p.

    q_j counts how many parts equal j; the defining constraint is
    1*q_1 + 2*q_2 + ... + p*q_p = p with p = len(multiplicities).
    """

    multiplicities: tuple[int, ...]

    def __post_init__(self):
        if any(q < 0 for q in self.multiplicities):
            raise ValueError("multiplicities must be non-negative")
        if self.weight != len(self.multiplicities):
            raise ValueError(
                f"weighted sum {self.weight} != order {len(self.multiplicities)}"
            )

    @property
    def weight(self) -> int:
        return sum(j * q for j, q in enumerate(self.multiplicities, start=1))

    @property
    def order(self) -> int:
        return len(self.multiplicities)


@lru_cache(maxsize=None)
def _partitions_cached(p: int) -> tuple[PartitionMultiset, ...]:
    def gen(remaining: int, max_part: int):
        if remaining == 0:
            yield {}
            return
        top = min(max_part, remaining)
        for part in range(top, 0, -1):
            for count in range(remaining // part, 0, -1):
                for rest in gen(remaining - count * part, part - 1):
                    out = dict(rest)
                    out[part] = count
                    yield out

    result = []
    for counts in gen(p, p):
        mult = tuple(counts.get(j, 0) for j in range(1, p + 1))
        result.append(PartitionMultiset(mult))
    return tuple(result)


def partitions(p: int, cap: int = PARTITION_CAP) -> tuple[PartitionMultiset, ...]:
    """All partition multisets of p (each exactly once).

    p=0 yields the single empty multiset. Raises PartitionCapError above
    ``cap`` to guard against factorial blowup in downstream sums.
    """
    if p < 0:
        raise DomainError(f"partitions requires p >= 0, got {p}")
    if p > cap:
        raise PartitionCapError(f"partition order {p} exceeds cap {cap}")
    return _partitions_cached(p)


def gauss_2f1_negz(a: float, b: float, c: float, z: float) -> float:
    """Gauss hypergeometric 2F1(a, b; c; z) for z <= 0.

    The argument is mapped into [0, 1) by the Pfaff transformation

        2F1(a, b; c; z) = (1-z)^(-a) 2F1(a, c-b; c; z/(z-1)),

    after which the power series converges; terms are accumulated until one
    falls below 1e-15 of the partial sum. Arguments a and b are ordered
    canonically first, so the a<->b symmetry holds exactly.
    """
    if z > 0.0:
        raise DomainError(f"gauss_2f1_negz requires z <= 0, got {z}")
    if c <= 0.0 and c == int(c):
        raise DomainError(f"c must not be a non-positive integer, got {c}")
    if z == 0.0:
        return 1.0
    a, b = sorted((a, b))
    w = z / (z - 1.0)
    series = _hyp_series(a, c - b, c, w)
    return (1.0 - z) ** (-a) * series


def _hyp_series(p: float, q: float, c: float, w: float, max_terms: int = 50_000) -> float:
    total = 1.0
    term = 1.0
    for k in range(max_terms):
        term *= (p + k) * (q + k) / ((c + k) * (k + 1.0)) * w
        total += term
        if abs(term) <= 1e-15 * abs(total):
            return total
    raise NumericalError("2F1 series did not converge", abs(term))


def exp_composition_derivatives(eta_derivs: Sequence[float], n: int) -> list[float]:
    """Derivatives d^k/ds^k exp(-eta(s)) for k = 0..n from (eta, eta', ..., eta^(n)).

    Faa di Bruno over partition multisets of k:

        d^k e^(-eta) = e^(-eta) * sum_{q |- k} k! / prod_j q_j! (j!)^q_j
                                   * prod_j (-eta^(j))^q_j.
    """
    if len(eta_derivs) < n + 1:
        raise DomainError(
            f"need eta derivatives up to order {n}, got {len(eta_derivs) - 1}"
        )
    base = math.exp(-eta_derivs[0])
    out = [base]
    if base == 0.0:
        # exp underflow: every derivative is numerically zero as well
        return [0.0] * (n + 1)
    for k in range(1, n + 1):
        total = 0.0
        for part in partitions(k):
            coeff = math.factorial(k)
            product = 1.0
            for j, qj in enumerate(part.multiplicities, start=1):
                if qj == 0:
                    continue
                coeff //= math.factorial(qj) * math.factorial(j) ** qj
                product *= (-eta_derivs[j]) ** qj
            total += coeff * product
        out.append(base * total)
    return out

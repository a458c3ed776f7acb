"""Fading and the SINR family.

The small-scale power gain of every link is Nakagami-m: a Gamma draw with
shape m and unit mean, so m = 1 recovers Rayleigh power fading and larger m
approximates line-of-sight conditions.

Every SINR in both association strategies shares one algebraic shape,

    received * split_own
    -------------------------------------------------
    noise + residue * received * split_other + I

with ``received = gain * dist^(-alpha) * P``. ``residue`` selects the
intra-pair term: 1 while decoding the partner signal ahead of SIC (the
UAV-centric cross decode keeps the ipSIC fraction here instead), the ipSIC
fraction while decoding the own signal after SIC, and 0 under OMA, where the
whole power serves one user (split 1).

These are the Monte Carlo engine's own primitives: every fading draw goes
through ``sample_nakagami_power`` and every success test through ``sinr``.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError


def sample_nakagami_power(m: int, rng: np.random.Generator, size=None, out=None):
    """Unit-mean power gain of a Nakagami-m link: Gamma(shape m) / m, drawn
    into the float array ``out`` when one is given (in place of ``size``)."""
    if m < 1 or m != int(m):
        raise DomainError(f"fading order must be a positive integer, got {m}")
    if m == 1:
        # numpy's standard_gamma(1.0) is this same draw, and / 1 is exact
        return rng.standard_exponential(size, out=out)
    gain = rng.standard_gamma(m, size, out=out)
    gain /= m
    return gain


def sinr(received, split_own, split_other, residue, noise, interference):
    """Evaluate the unified SINR elementwise (scalars or numpy arrays).

    ``received`` is the unsplit received power gain * dist^(-alpha) * P and
    ``interference`` the aggregate co-channel power, both in watts.
    """
    return received * split_own / (
        noise + residue * received * split_other + interference
    )

"""Point-process sampling of the network model.

UAVs form a homogeneous Poisson point process on a finite disc. The nearest
point of an (infinite) HPPP at distance r from a fixed location has density
f(r) = 2 pi lam r exp(-pi lam r^2); in the cell-interior strategy the paired
users are placed with linear densities 32 r / R^2 on [0, R/4] (near user) and
32 r / (3 R^2) on [R/4, R/2] (far user), all written out in ``validation``.

These samplers are the Monte Carlo engine's own. The engine draws a block of
trials at a time from one generator: ``sample_hppp_disc`` draws the UAV
fields of every trial in the block as one ragged sample (all per-trial counts,
then all radii as one flat array, trial after trial), and in the UAV-centric
strategy ``sample_near_user`` / ``sample_far_user`` place one paired user per
cell radius of an array. Only radii are drawn here: the field is isotropic,
so a strategy that needs azimuths draws them itself. All samplers take an
explicit numpy Generator; independent generators may be used concurrently.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import DomainError


def sample_hppp_disc(
    density: float,
    radius: float,
    trials: int,
    rng: np.random.Generator,
    alloc: Callable[[int], np.ndarray] = np.empty,
) -> tuple[np.ndarray, np.ndarray]:
    """Sample ``trials`` independent HPPPs of the given density on a disc
    centered at the origin, as one ragged sample.

    Returns ``(counts, radii)``: the per-trial point counts, each Poisson with
    mean density * pi * radius^2, and the distances from the origin of all
    points, uniform on the disc, flat and trial after trial (trial t owns
    ``radii[sum(counts[:t]):sum(counts[:t + 1])]``). Draws, in order: the
    ``trials`` counts, then the ``sum(counts)`` radii. Draws no angles.
    Deterministic under a fixed generator state. The radii fill the float
    array ``alloc(sum(counts))``, a new one unless the caller passes its own
    ``alloc`` (the engine reuses one buffer from block to block).
    """
    if density <= 0.0 or radius <= 0.0:
        raise DomainError("density and radius must be positive")
    counts = rng.poisson(density * math.pi * radius**2, trials)
    # radius * sqrt(uniform(0, 1)), in place: uniform(0, 1) is random() exactly
    radii = rng.random(out=alloc(int(counts.sum())))
    np.sqrt(radii, out=radii)
    radii *= radius
    return counts, radii


def sample_near_user(R, rng: np.random.Generator) -> np.ndarray:
    """Horizontal radius of a near user in each cell radius of ``R``: density
    32 r / R^2 on [0, R/4]. Draws one uniform per element of ``R``, in order."""
    R = _cell_radii(R)
    return 0.25 * R * np.sqrt(rng.uniform(0.0, 1.0, R.shape))


def sample_far_user(R, rng: np.random.Generator) -> np.ndarray:
    """Horizontal radius of a far user in each cell radius of ``R``: density
    32 r / (3 R^2) on [R/4, R/2]. Draws one uniform per element of ``R``."""
    R = _cell_radii(R)
    return 0.25 * R * np.sqrt(1.0 + 3.0 * rng.uniform(0.0, 1.0, R.shape))


def _cell_radii(R) -> np.ndarray:
    R = np.asarray(R, dtype=float)
    if not np.all(R > 0.0):
        raise DomainError("R must be positive")
    return R

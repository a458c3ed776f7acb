"""Point-process sampling and the distance distributions of the network model.

UAVs form a homogeneous Poisson point process on a finite disc. The nearest
point of an (infinite) HPPP at distance r from a fixed location has density
f(r) = 2 pi lam r exp(-pi lam r^2); in the cell-interior strategy the paired
users are placed with linear densities 32 r / R^2 on [0, R/4] (near user) and
32 r / (3 R^2) on [R/4, R/2] (far user).

These samplers are the Monte Carlo engine's own: every trial draws its UAV
field with ``sample_hppp_disc`` and, in the UAV-centric strategy, its paired
users with ``sample_near_user`` / ``sample_far_user``. All samplers take an
explicit numpy Generator; independent generators may be used concurrently.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError


def sample_hppp_disc(
    density: float, radius: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Sample an HPPP of the given density on a disc centered at the origin.

    Returns polar coordinates ``(radii, angles)`` of N ~ Poisson(density * pi
    * radius^2) points uniform on the disc. Draws, in order: the count, the N
    radii, the N angles. Deterministic under a fixed generator state.
    """
    if density <= 0.0 or radius <= 0.0:
        raise DomainError("density and radius must be positive")
    count = rng.poisson(density * math.pi * radius**2)
    radii = radius * np.sqrt(rng.uniform(0.0, 1.0, count))
    angles = rng.uniform(0.0, 2.0 * math.pi, count)
    return radii, angles


def nearest_distance_pdf(r, density: float):
    """Density of the horizontal distance to the nearest HPPP point."""
    if density <= 0.0:
        raise DomainError("density must be positive")
    r = np.asarray(r, dtype=float)
    return 2.0 * math.pi * density * r * np.exp(-math.pi * density * r * r)


def nearest_distance_cdf(r, density: float):
    """CDF of the nearest-point distance: 1 - exp(-pi lam r^2)."""
    r = np.asarray(r, dtype=float)
    return -np.expm1(-math.pi * density * r * r)


def nearest_distance_sample(
    density: float, rng: np.random.Generator, size=None
):
    """Inverse-CDF sample of the nearest-point distance: sqrt(-ln U / (pi lam))."""
    if density <= 0.0:
        raise DomainError("density must be positive")
    u = rng.uniform(0.0, 1.0, size)
    return np.sqrt(-np.log1p(-u) / (math.pi * density))


def sample_near_user(R: float, rng: np.random.Generator, size=None):
    """Horizontal radius of a near user: density 32 r / R^2 on [0, R/4]."""
    if R <= 0.0:
        raise DomainError("R must be positive")
    return 0.25 * R * np.sqrt(rng.uniform(0.0, 1.0, size))


def sample_far_user(R: float, rng: np.random.Generator, size=None):
    """Horizontal radius of a far user: density 32 r / (3 R^2) on [R/4, R/2]."""
    if R <= 0.0:
        raise DomainError("R must be positive")
    return 0.25 * R * np.sqrt(1.0 + 3.0 * rng.uniform(0.0, 1.0, size))


def near_user_pdf(r, R: float):
    """Density 32 r / R^2 on [0, R/4], zero elsewhere."""
    r = np.asarray(r, dtype=float)
    inside = (r >= 0.0) & (r <= 0.25 * R)
    return np.where(inside, 32.0 * r / (R * R), 0.0)


def far_user_pdf(r, R: float):
    """Density 32 r / (3 R^2) on [R/4, R/2], zero elsewhere."""
    r = np.asarray(r, dtype=float)
    inside = (r >= 0.25 * R) & (r <= 0.5 * R)
    return np.where(inside, 32.0 * r / (3.0 * R * R), 0.0)

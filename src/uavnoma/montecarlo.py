"""Seeded Monte Carlo estimation of every coverage probability.

Reproducibility contract: trials are drawn in blocks of ``_BLOCK`` and each
block owns a random stream, SFC64 seeded by child b of the run seed's
``SeedSequence`` (``SeedSequence(seed, spawn_key=(b,))`` for block b), so a
rerun with the same seed reproduces every draw, and an n-trial run is the
prefix of any longer run: a run whose trial count is not a multiple of
``_BLOCK`` draws its last block in full and keeps the first trials. (A flat
``SeedSequence((seed, b))`` would give seed 2**32 at block 0 the stream of
seed 0 at block 1.) A batch's blocks are cut into contiguous ranges, drawn on
threads, at most one per core this process may use (its CPU affinity: under
``taskset -c 0`` every batch is drawn on one thread). A block's draws do not
depend on the thread that makes them, so a batch is the same on any number
of threads. Only the block functions and the samplers
they call run on those threads.

Each run is split into two phases. The geometry phase draws everything that
does not depend on transmit power, rates, power split, or SIC quality: UAV
positions, user placement, fading, and the per-receiver interference sums at
unit transmit power. The evaluation phase applies a specific link/power
configuration to a finished batch, so one batch serves every point that
shares its geometry key (same answer as re-simulating with the same seed, at
a fraction of the cost). The three steps take the strategy as an argument:
``geometry_key``, ``simulate`` and ``estimate`` (batch to the two coverage
estimates, in ``scenario.ROLES`` order); ``run`` is simulate-then-estimate
for one point. The CLI's ``run_sweep`` groups a sweep's points by geometry
key and simulates each group once; ``run`` and a point evaluated alone
simulate afresh.

A batch of either strategy is one ``Trials``, drawn by one function and
counted by one ``evaluate``. ``simulate`` and ``estimate`` call them at call
time by module-level name, as the strategy's ``simulate_*`` and
``evaluate_*``: the benchmark's tracer wraps those four names.

Both strategies run the geometry phase on one skeleton, ``_simulate``: per
block it builds the block's stream, draws the UAV fields of all its trials
with ``spatial.sample_hppp_disc`` (the ``_BLOCK`` counts, then every radius
as one flat array) and hands stream and fields to the strategy's block
function, which draws the rest of the block from the same stream, in whole
arrays, and reduces each trial's segment of the flat arrays with
``reduceat``. Per block, after the counts and radii, the draws are:

* user-centric: one half angle per UAV (its azimuth relative to the fixed
  user is twice that, and its cosine is formed from the half angle's
  tangent), one fixed-user azimuth per trial, the typical and the fixed
  user's desired gains per trial, then their interferer gains per UAV;
* UAV-centric: the near and the far user's radius per trial, their desired
  gains per trial, then their interferer gains per UAV (no azimuths: nothing
  in this strategy depends on them).

Every per-UAV array that lives through a block (the radii, the half angles
and their cosines, the interferer gains, the 3-D distances and the masks) is
drawn (``out=``) or computed into scratch of the thread drawing the block,
``_Scratch``, which the block function reaches through its ``_Field`` and
the thread's next block reuses. Fresh arrays of about 1 MB per block made
glibc trim its heap after each block and fault it back in at the next: a
5k-trial user-centric batch took 9k-22k minor page faults in a process that
had not imported scipy (importing scipy happens to raise glibc's trim
threshold), against about 100-400 with the scratch. The per-trial spreads
(``np.repeat``) stay fresh arrays, each used at once.

The 99% Wilson interval of every estimate uses z = ``ndtri(0.995)`` as a
literal, so a process that only simulates imports no scipy.

Fading goes through ``channel.sample_nakagami_power``, UAV-centric user
placement through ``spatial.sample_near_user`` / ``sample_far_user``, and
every success test in the evaluation phase through ``channel.sinr``, so no
part of the model is defined twice.

The evaluation phase decodes each user with one helper, ``_decodes``, on
the point's link, as the subject or its partner and in the role that
``scenario.ROLE_TABLE`` gives it: user-centric, the typical user near and
the fixed user far where the typical user's serving distance lies below the
fixed user's (in 3-D), the other way round beyond. The helper counts success twice on
the shared fading draw: through the SINR chain at physical power, which
gives the count, and through the unit-power decode coefficient kappa of
``scenario.thresholds``, as ``gain > kappa (N/P + I_1) d^alpha``, the
condition the closed forms integrate; a disagreement raises immediately.

Interference conventions (mirroring the analytic conditioning):

* user-centric: each receiver sums over all non-serving UAVs strictly beyond
  its own 3-D serving distance, with distances measured from itself;
* UAV-centric: path loss of every interferer, the nearest neighbor
  included, is referenced to the cell center at its drawn distance. The
  thin ring around the nearest neighbor is a device of the closed form only;
  the simulated field is the exact-ring model, one UAV exactly at R.

A trial whose disc holds no UAV (its nearest UAV lies at infinity;
``empty_disc_trials`` counts them) answers a different model: under
user-centric association its serving distance is infinite, so neither user
has a desired link; under UAV-centric association the cell is the whole disc
and sees no interference.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .channel import sample_nakagami_power, sinr
from .errors import DomainError
from .scenario import (
    OMA,
    ROLE_TABLE,
    ROLES,
    USER_CENTRIC,
    NetworkConfig,
    NomaLink,
    Role,
    cross_residue,
    thresholds,
)
from .spatial import sample_far_user, sample_hppp_disc, sample_near_user


@dataclass(frozen=True)
class CoverageEstimate:
    """One Monte Carlo coverage estimate with its 99% Wilson interval."""

    p_hat: float
    trials: int
    ci_low: float
    ci_high: float
    strategy: str
    user_role: str
    access: str
    seed: int


# the 99% two-sided normal quantile, scipy.special.ndtri(0.995) to the bit
_Z99 = 2.5758293035489004


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """99% Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise DomainError("wilson_interval requires at least one trial")
    if not 0 <= successes <= trials:
        raise DomainError("successes must lie in [0, trials]")
    z = _Z99
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2.0 * trials)) / denom
    halfwidth = (
        z * math.sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials * trials)) / denom
    )
    return max(center - halfwidth, 0.0), min(center + halfwidth, 1.0)


# trials per random stream; fixes the memory of the geometry phase whatever
# the trial count
_BLOCK = 32

# shortest block range worth a thread of its own (1,024 trials): on a 2-core
# host, in five runs of 21 timed pairs per strategy, two ranges of 32 blocks
# beat one thread in 19-21 pairs user-centric and 14-20 UAV-centric (9 in
# one run); two ranges of 16 blocks won 17-21 in four runs but 2 and 4 in
# the fifth, so the shorter range is not the safer one
_MIN_RANGE_BLOCKS = 32


def _check_seed(seed: int):
    if not 0 <= seed < 2**64:
        raise DomainError("seed must be a 64-bit unsigned integer")


# ---------------------------------------------------------------------------
# one surface for both strategies
# ---------------------------------------------------------------------------


def _is_user_centric(strategy: str) -> bool:
    if strategy not in ROLES:
        raise DomainError(f"unknown strategy {strategy!r}")
    return strategy == USER_CENTRIC


def geometry_key(cfg: NetworkConfig, link: NomaLink, strategy: str) -> tuple:
    """What a batch of ``strategy`` depends on: points with equal keys (and
    equal trials and seed) can be estimated from one batch. Both depend on
    the UAV field and the fading orders, a user-centric batch also on the
    fixed user's distance."""
    key = (
        strategy,
        cfg.uav_density,
        cfg.sim_disc_radius,
        cfg.uav_height,
        cfg.m_desired,
        cfg.m_interf,
        cfg.alpha_interf,
    )
    return key + (link.fixed_user_dist,) if _is_user_centric(strategy) else key


def simulate(cfg: NetworkConfig, link: NomaLink, strategy: str, trials: int, seed: int):
    """The geometry phase of ``strategy``: a batch of ``trials`` trials."""
    entry = simulate_user_centric if _is_user_centric(strategy) else simulate_uav_centric
    return entry(cfg, link, strategy, trials, seed)


def estimate(
    batch, cfg: NetworkConfig, link: NomaLink, access: str
) -> tuple[CoverageEstimate, CoverageEstimate]:
    """The two coverage estimates of one point from a batch, in
    ``ROLES[strategy]`` order of the batch's strategy."""
    strategy, trials = batch.geometry_key[0], batch.trials
    entry = evaluate_user_centric if _is_user_centric(strategy) else evaluate_uav_centric
    counts = entry(batch, cfg, link, access)
    return tuple(
        CoverageEstimate(
            k / trials, trials, *wilson_interval(k, trials),
            strategy, role, access, batch.seed,
        )
        for k, role in zip(counts, ROLES[strategy])
    )


def run(
    cfg: NetworkConfig,
    link: NomaLink,
    strategy: str,
    access: str,
    trials: int,
    seed: int,
) -> tuple[CoverageEstimate, CoverageEstimate]:
    """The two coverage estimates of one point from fresh trials."""
    return estimate(simulate(cfg, link, strategy, trials, seed), cfg, link, access)


@dataclass(frozen=True)
class Trials:
    """Geometry/fading batch of either strategy, at unit transmit power.

    ``distance`` holds, per trial, the horizontal distance from the origin
    (the typical user, or the serving UAV) to the nearest UAV of the field,
    inf where the disc holds none. The other fields hold one row per user,
    in ``ROLES`` order: its 3-D serving distance, its interference sum
    g d^-aI at unit power and its desired gain.
    """

    geometry_key: tuple
    seed: int
    distance: np.ndarray
    dist3d: np.ndarray
    interference: np.ndarray
    gain: np.ndarray

    @property
    def trials(self) -> int:
        return len(self.distance)


def _geometry_phase(
    cfg: NetworkConfig, link: NomaLink, strategy: str, trials: int, seed: int
) -> Trials:
    """A batch of ``strategy``. User-centric: the typical user at the origin,
    its serving UAV the nearest, the fixed user at ``link.fixed_user_dist``
    from it at uniform azimuth. UAV-centric: the serving UAV at the origin,
    its neighbors the interference field, the paired users drawn from their
    placement densities."""
    if strategy == USER_CENTRIC:
        block, args = _user_centric_block, (link.fixed_user_dist,)
    else:
        block, args = _uav_centric_block, ()
    rows = _simulate(cfg, trials, seed, 7, block, *args)
    key = geometry_key(cfg, link, strategy)
    return Trials(key, seed, rows[0], rows[1:3], rows[3:5], rows[5:7])


# ---------------------------------------------------------------------------
# user-centric strategy
# ---------------------------------------------------------------------------


def _user_centric_block(rng, field, cfg, fixed_user_dist):
    height_sq = cfg.uav_height**2
    half = cfg.alpha_interf / 2.0
    # The field is isotropic, so each UAV's azimuth is drawn in the frame
    # that puts the fixed user on the positive x axis, as twice a half angle.
    # uniform(-pi/2, pi/2) in place: numpy computes -pi/2 + pi u, exactly
    # this; then the azimuths' cosines replace the half angles
    cos_angle = rng.random(out=field.points("angle"))
    cos_angle *= math.pi
    cos_angle += -0.5 * math.pi
    _cos_twice(cos_angle, out=cos_angle)
    azimuth = rng.uniform(0.0, 2.0 * math.pi, _BLOCK)
    h_t = sample_nakagami_power(cfg.m_desired, rng, _BLOCK)
    h_f = sample_nakagami_power(cfg.m_desired, rng, _BLOCK)
    g_t = sample_nakagami_power(cfg.m_interf, rng, out=field.points("g_t"))
    g_f = sample_nakagami_power(cfg.m_interf, rng, out=field.points("g_f"))
    # typical user at the origin: non-serving UAVs are all beyond r
    d3_typ_sq = np.square(field.radii, out=field.points("d3_typ_sq"))
    d3_typ_sq += height_sq
    # (a tie for nearest, of probability about 1e-11 per trial, marks every
    # tied point)
    is_nearest = np.equal(
        field.radii, field.spread(field.nearest), out=field.points("nearest", bool)
    )
    path = np.power(d3_typ_sq, -half, out=field.points("path"))
    g_t *= path
    g_t[is_nearest] = 0.0
    j_typ = field.sum(g_t)
    # fixed user hangs off the serving UAV, at distance rho from the origin;
    # its exclusion is its own serving distance
    r = np.where(field.occupied, field.nearest, 0.0)
    rho_sq = r * r + fixed_user_dist**2 + 2.0 * r * fixed_user_dist * np.cos(azimuth)
    d3_fix_sq = np.multiply(
        field.spread(np.sqrt(rho_sq)), field.radii, out=field.points("d3_fix_sq")
    )
    d3_fix_sq *= cos_angle
    d3_fix_sq *= -2.0
    d3_fix_sq += d3_typ_sq
    d3_fix_sq += field.spread(rho_sq)
    # the serving UAV, and every UAV not beyond the fixed user's exclusion
    excluded = np.greater(
        d3_fix_sq, fixed_user_dist**2 + height_sq, out=field.points("excluded", bool)
    )
    np.logical_not(excluded, out=excluded)
    excluded |= is_nearest
    g_f *= np.power(d3_fix_sq, -half, out=path)
    g_f[excluded] = 0.0
    j_fix = field.sum(g_f)
    # an empty disc has no serving UAV, so neither user has a desired link
    h_t, h_f = (np.where(field.occupied, h, 0.0) for h in (h_t, h_f))
    d3_fix = np.full(_BLOCK, math.hypot(fixed_user_dist, cfg.uav_height))
    d3_typ = np.hypot(field.nearest, cfg.uav_height)
    return field.nearest, d3_typ, d3_fix, j_typ, j_fix, h_t, h_f


def _cos_twice(half_angle: np.ndarray, out=None) -> np.ndarray:
    """cos(2 phi) of each half angle phi in [-pi/2, pi/2], as
    2 / (1 + tan^2 phi) - 1, within 1e-15 of ``np.cos(2 phi)``, into ``out``
    when given (``half_angle`` itself may be ``out``). numpy's float64
    ``tan`` is vectorised and its ``cos`` is not: this costs 4.8 ns per
    element against ``cos``'s 18.5 ns on an x86-64 (AVX2) host. At
    phi = -pi/2, tan^2 is about 2.7e32 and the result is -1."""
    out = np.tan(half_angle, out=out)
    np.square(out, out=out)
    out += 1.0
    np.divide(2.0, out, out=out)
    out -= 1.0
    return out


# ---------------------------------------------------------------------------
# UAV-centric strategy
# ---------------------------------------------------------------------------


def _uav_centric_block(rng, field, cfg):
    height = cfg.uav_height
    half = cfg.alpha_interf / 2.0
    # no neighbor inside the disc: the cell extends to the disc edge and
    # sees no interference
    big_r = np.minimum(field.nearest, cfg.sim_disc_radius)
    d_near = np.hypot(sample_near_user(big_r, rng), height)
    d_far = np.hypot(sample_far_user(big_r, rng), height)
    h_w = sample_nakagami_power(cfg.m_desired, rng, _BLOCK)
    h_v = sample_nakagami_power(cfg.m_desired, rng, _BLOCK)
    g_w = sample_nakagami_power(cfg.m_interf, rng, out=field.points("g_w"))
    g_v = sample_nakagami_power(cfg.m_interf, rng, out=field.points("g_v"))
    path = np.square(field.radii, out=field.points("path"))
    path += height**2
    np.power(path, -half, out=path)
    g_w *= path
    g_v *= path
    return field.nearest, d_near, d_far, field.sum(g_w), field.sum(g_v), h_w, h_v


# ---------------------------------------------------------------------------
# the evaluation phase of both strategies
# ---------------------------------------------------------------------------


def evaluate(
    batch: Trials, cfg: NetworkConfig, link: NomaLink, access: str
) -> tuple[int, int]:
    """Count each user's coverage successes at one configuration point, in
    ``ROLES`` order."""
    strategy = batch.geometry_key[0]
    if batch.geometry_key != geometry_key(cfg, link, strategy):
        raise DomainError("trial batch was simulated under different geometry")
    # where the typical user's serving distance lies below the fixed user's;
    # a UAV-centric user plays one role and reads none of it
    below = batch.dist3d[0] < batch.dist3d[1]
    users = zip(ROLE_TABLE[strategy], batch.gain, batch.dist3d, batch.interference)
    return tuple(
        _decodes(role, *rows, role.plays_near(below), cfg, link, access)
        for role, *rows in users
    )


# each strategy's two phases, by the names the benchmark's tracer wraps
simulate_user_centric = simulate_uav_centric = _geometry_phase
evaluate_user_centric = evaluate_uav_centric = evaluate


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------


def _usable_cores() -> int:
    # the cores this process may run on, not the host's (os.cpu_count), where
    # the platform can tell (macOS and Windows have no sched_getaffinity)
    if not hasattr(os, "sched_getaffinity"):
        return os.cpu_count() or 1
    return len(os.sched_getaffinity(0))


def empty_disc_trials(batch) -> int:
    """Trials of ``batch`` whose disc holds no UAV."""
    return int(np.count_nonzero(np.isinf(batch.distance)))


def _simulate(
    cfg: NetworkConfig, trials: int, seed: int, fields: int, block, *args
) -> np.ndarray:
    """Geometry-phase skeleton of both strategies; returns ``fields`` rows of
    ``trials`` batch values.

    Block b builds its own stream, draws the UAV fields of its ``_BLOCK``
    trials and calls ``block(rng, field, cfg, *args)``, which draws the rest
    of the block from that stream and returns ``fields`` arrays of ``_BLOCK``
    values. The last block is drawn in full and truncated. The radii and
    every per-point array a block takes from ``field.points`` live in the
    scratch of the thread drawing the block, reused by its next block.

    The blocks are cut into contiguous ranges of at least
    ``_MIN_RANGE_BLOCKS`` blocks, one per thread, and each thread fills its
    own columns of the result; a block's draws do not depend on which thread
    draws it, so every batch is bit-identical to the one-thread batch.
    """
    if trials < 1:
        raise DomainError("trials must be at least 1")
    _check_seed(seed)
    # a block draws its radii as one flat array of about _BLOCK * mean
    # doubles; past numpy's index range of 2**63 bytes (and its Poisson
    # sampler's limit) no block can be drawn
    mean = cfg.uav_density * math.pi * cfg.sim_disc_radius**2
    if 8 * _BLOCK * mean >= 2**63:
        raise MemoryError(
            f"a UAV field of {mean:.3g} points per trial does not fit in memory"
        )
    try:
        rows = np.empty((fields, trials))
    except (ValueError, MemoryError):
        # numpy refuses a shape past its index range with ValueError
        raise MemoryError(
            f"a batch of {trials} trials does not fit in memory"
        ) from None

    def fill(first: int, end: int):
        scratch = _Scratch()
        for b in range(first, end):
            stream = np.random.SeedSequence(seed, spawn_key=(b,))
            rng = np.random.Generator(np.random.SFC64(stream))
            counts, radii = sample_hppp_disc(
                cfg.uav_density, cfg.sim_disc_radius, _BLOCK, rng,
                lambda n: scratch.take("radii", n),
            )
            values = block(rng, _Field(counts, radii, scratch), cfg, *args)
            start, stop = b * _BLOCK, min((b + 1) * _BLOCK, trials)
            rows[:, start:stop] = np.array(values)[:, : stop - start]

    blocks = -(-trials // _BLOCK)
    threads = min(_usable_cores(), blocks // _MIN_RANGE_BLOCKS)
    if threads <= 1:
        fill(0, blocks)
        return rows
    edges = [blocks * k // threads for k in range(threads + 1)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        list(pool.map(fill, edges[:-1], edges[1:]))
    return rows


class _Scratch:
    """Named arrays that one thread's blocks reuse, one block after another.

    ``take(name, n)`` is the first n elements of the named buffer, whose
    values are left from an earlier block; the buffer grows, with a quarter
    to spare, only when a block holds more than it does.
    """

    def __init__(self):
        self._buffers: dict[str, np.ndarray] = {}

    def take(self, name: str, n: int, dtype=float) -> np.ndarray:
        buffer = self._buffers.get(name)
        if buffer is None or buffer.size < n:
            buffer = self._buffers[name] = np.empty(n + n // 4, dtype)
        return buffer[:n]


class _Field:
    """The UAV fields of one block, as ``sample_hppp_disc`` draws them: the
    per-trial ``counts`` and the flat ``radii``, trial after trial, with the
    drawing thread's scratch."""

    def __init__(self, counts: np.ndarray, radii: np.ndarray, scratch: _Scratch):
        self.counts = counts
        self.radii = radii
        self._scratch = scratch
        self.occupied = counts > 0
        # reduceat over the occupied trials' segment starts only: an empty
        # segment would reduce to the next trial's first point
        self._starts = (np.cumsum(counts) - counts)[self.occupied]
        self.nearest = np.full(len(counts), math.inf)  # inf on an empty disc
        self.nearest[self.occupied] = np.minimum.reduceat(radii, self._starts)

    def points(self, name: str, dtype=float) -> np.ndarray:
        """An array of one unset value per point, from the scratch."""
        return self._scratch.take(name, self.radii.size, dtype)

    def spread(self, per_trial: np.ndarray) -> np.ndarray:
        """One value per trial, repeated onto each of that trial's points."""
        return np.repeat(per_trial, self.counts)

    def sum(self, per_point: np.ndarray) -> np.ndarray:
        """Sum of a value per point over each trial; 0 on an empty disc."""
        out = np.zeros(len(self.counts))
        out[self.occupied] = np.add.reduceat(per_point, self._starts)
        return out


def _decodes(
    role: Role, gain, dist3d, unit_interference, near, cfg: NetworkConfig,
    link: NomaLink, access: str,
) -> int:
    """Trials in which ``role``'s user, the subject or (``role.partner``) its
    partner, decodes its signal on the point's link.

    ``near`` says where the user plays the near role: a bool array over the
    trials, or True or False for all of them. Success is counted through the
    SINR chain of ``channel.sinr`` at transmit power P, and checked on the
    same fading draw against the unit-power rule of ``thresholds``,
    ``gain > kappa (N/P + I_1) d^alpha``; a disagreement raises
    ``RuntimeError``.
    """
    p, noise, alpha = cfg.tx_power, cfg.noise_power, cfg.alpha_desired
    interference = p * unit_interference
    received = gain * dist3d**-alpha * p
    ts = thresholds(link, role.strategy, access, role.partner)
    if access == OMA:
        ok = sinr(received, 1.0, 1.0, 0.0, noise, interference) > ts.eps_own
    elif near is False:
        ok = sinr(received, link.pw_far, link.pw_near, 1.0, noise, interference) > ts.eps_own
    else:
        # near is an array only under user-centric association, whose cross
        # residue of 1 makes the partner decode the far role's direct decode
        residue = cross_residue(link, role.strategy)
        cross = sinr(received, link.pw_far, link.pw_near, residue, noise, interference)
        own = sinr(received, link.pw_near, link.pw_far, link.ipsic, noise, interference)
        ok = (cross > ts.eps_other) & (own > ts.eps_own)
        if near is not True:
            ok = np.where(near, ok, cross > ts.eps_own)
    # the coefficient of the role played in each trial
    coeff = np.where(near, ts.near, ts.far)
    # an infinite d^alpha fails the rule, as its SINR of 0 fails the chain
    with np.errstate(over="ignore"):
        path = np.power(dist3d, alpha)
        identity = gain > coeff * (noise / p + unit_interference) * path
    mismatches = int(np.sum(ok != identity))
    if mismatches:
        raise RuntimeError(
            f"SINR chain and decode coefficient disagree on {mismatches} "
            f"{role.user} trials"
        )
    return int(np.sum(ok))

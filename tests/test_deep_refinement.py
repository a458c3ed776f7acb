"""UAV-centric closed forms that refine deep converge: a fixed random sample.

``SEED`` draws 60 UAV-centric points of sparse, low UAVs: the density
log-uniform in 1e-12 to 1e-8 per m^2, h uniform in 1 to 100 m, m_d from
{1, 2, 3, 5, 12}, alpha_d uniform in 2 to 6, alpha_I from {2.05, 3, 4, 6}
and -60 to +30 dBm, on the default link under NOMA. Where the near user's
coverage sits in the first few percent of the placement axis, every
bisection quadruples its cells. ``DEEP`` are the points whose refinement
takes more than 500,000 nodes in one round, spread over many passes of at
most ``quadrature._PASS_NODES``. No point may raise, and each value of a
deep point must lie within 1e-6 of its tight reference in ``REFERENCES``,
``uavnoma.validation.adaptive_coverage_pair``. A near user's reference
takes 22 to 80 s, so they are pinned; regenerate them from the repository
root with

    PYTHONPATH=src python tests/test_deep_refinement.py

The seed and the design are fixed, and no point is ever dropped.
"""

import numpy as np
import pytest

from uavnoma import quadrature
from uavnoma.analytic_uav_centric import FAR, FORM, NEAR
from uavnoma.scenario import NOMA, NetworkConfig, NomaLink, dbm_to_watts

SEED = 31
POINTS = 60
LINK = NomaLink()


def draw_points(seed: int = SEED, count: int = POINTS) -> list[NetworkConfig]:
    rng = np.random.default_rng(seed)
    points = []
    for _ in range(count):
        density = 10.0 ** rng.uniform(-12.0, -8.0)
        height = rng.uniform(1.0, 100.0)
        m_desired = int(rng.choice([1, 2, 3, 5, 12]))
        alpha_desired = rng.uniform(2.0, 6.0)
        alpha_interf = float(rng.choice([2.05, 3.0, 4.0, 6.0]))
        power = dbm_to_watts(rng.uniform(-60.0, 30.0))
        points.append(NetworkConfig(
            uav_density=density, tx_power=power, alpha_desired=alpha_desired,
            uav_height=height, alpha_interf=alpha_interf, m_desired=m_desired,
        ))
    return points


def closed_forms(cfg: NetworkConfig) -> list[float]:
    """The near and far users' coverage of one point, from one call."""
    values = [(NEAR, cfg, LINK), (FAR, cfg, LINK)]
    return [q.value for q in quadrature.coverage_quadratures(FORM, values, NOMA)]


def reference(cfg: NetworkConfig) -> list[float]:
    from uavnoma.validation import adaptive_coverage_pair

    return [adaptive_coverage_pair(role, cfg, LINK, NOMA) for role in (NEAR, FAR)]


DRAWN = draw_points()
DEEP = (1, 15, 18, 42, 57)
# the near and far users' references of each deep point
REFERENCES = {
    1: (3.3693553824742776e-07, 9.436851024568519e-09),
    15: (2.1972484896802726e-05, 9.064667125048188e-07),
    18: (7.505956175084552e-05, 2.9198589358641184e-06),
    42: (5.151534470294563e-05, 1.1309941552084787e-06),
    57: (6.0634464748634206e-06, 1.8603156801987272e-07),
}


def test_deep_points_are_fully_pinned():
    assert len(DRAWN) == POINTS and sorted(REFERENCES) == list(DEEP)


@pytest.mark.parametrize("index", range(POINTS), ids=[f"point-{i:02d}" for i in range(POINTS)])
def test_converges(monkeypatch, index):
    rounds, passes = [], []  # the most nodes of one integral a round; of a pass
    cut = quadrature._cut

    def recorded(bounds, owner, nodes, cell_nodes):
        rounds.append(nodes.max())
        for span in cut(bounds, owner, nodes, cell_nodes):
            passes.append(cell_nodes[span].sum())
            yield span

    monkeypatch.setattr(quadrature, "_cut", recorded)
    values = closed_forms(DRAWN[index])
    assert max(passes) <= quadrature._PASS_NODES
    assert (max(rounds) > 500_000) == (index in DEEP)
    if index in DEEP:
        assert np.abs(np.subtract(values, REFERENCES[index])).max() < 1e-6


if __name__ == "__main__":
    import sys

    print("REFERENCES = {")
    for index in DEEP:
        near, far = reference(DRAWN[index])
        print(f"    {index}: ({near!r}, {far!r}),", flush=True)
        print(f"{index} done", file=sys.stderr, flush=True)
    print("}")

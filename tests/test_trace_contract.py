"""The benchmark's tracer still sees every layer of a sweep point.

``perfbench/tracing.py`` wraps the package's layer functions by module
attribute (``montecarlo.simulate_user_centric``, ``laplace``'s exponents and
so on). A refactor that renamed one of them, or bound it where the wrapper
cannot reach, would leave its span at zero calls and the benchmark blind to
that layer without failing. These tests load the tracer by path, without
changing or writing anything under ``perfbench/``, and trace one point of
each strategy in each mode, and one sweep of each strategy. A point is a
one-point sweep: both reach the kernel through ``quadrature.coverage_sweep``,
so neither calls the single-value functions (``coverage_pair``,
``coverage_typical``, ``coverage_fixed``) that the tracer also wraps.
"""

import importlib.util
from pathlib import Path

import pytest

from uavnoma import cli
from uavnoma.scenario import UAV_CENTRIC, USER_CENTRIC

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

NETWORK = {"uav_density_per_m2": 1.2732395447351628e-06, "alpha_desired": 3.5}
LINK = {"rate_near_bpcu": 1.0, "rate_far_bpcu": 0.5, "fixed_user_dist_m": 300.0}

# the kernel spans of each strategy's closed forms; the Taylor-coefficient
# recursion lives in ``laplace``, and the tracer reaches it as
# ``laplace.exp_composition_derivatives`` under the span "specfun.faa"
KERNEL_SPANS = {
    USER_CENTRIC: ("laplace.cond_cov", "laplace.radial", "specfun.faa"),
    UAV_CENTRIC: ("laplace.cond_cov", "laplace.radial", "laplace.ring", "specfun.faa"),
}
MC_SPANS = ("mc.geometry", "mc.evaluate")


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("mode", ["analytic", "mc"])
@pytest.mark.parametrize("strategy", [USER_CENTRIC, UAV_CENTRIC])
def test_every_span_on_the_point_path_is_called(tracing, strategy, mode):
    cfg, link = cli.parse_network(NETWORK), cli.parse_link(LINK)
    spec = cli.parse_sweep(
        {
            "axis": "tx_power_dbm",
            "values": [-30.0],
            "strategy": strategy,
            "mode": mode,
            "trials": 200,
        }
    )
    with tracing.Tracer().patched() as tracer:
        rows = cli.evaluate_point(cfg, link, spec, -30.0)
    assert len(rows) == 2
    summary = tracer.summary()
    expected = KERNEL_SPANS[strategy] if mode == "analytic" else MC_SPANS
    for span in ("cli.evaluate_point", *expected):
        assert summary["layers"][span][0] > 0, span
    if mode == "mc":
        assert summary["geometry_trials"] == summary["evaluate_trials"] == 200


@pytest.mark.parametrize("strategy", [USER_CENTRIC, UAV_CENTRIC])
def test_every_kernel_span_on_the_sweep_path_is_called(tracing, tmp_path, strategy):
    cfg, link = cli.parse_network(NETWORK), cli.parse_link(LINK)
    spec = cli.parse_sweep(
        {
            "axis": "tx_power_dbm",
            "values": [-40.0, -30.0],
            "strategy": strategy,
            "mode": "both",
            "trials": 200,
        }
    )
    with tracing.Tracer().patched() as tracer:
        batches = cli.run_sweep(cfg, link, spec, str(tmp_path / "sweep.csv"))
    layers = tracer.summary()["layers"]
    for span in KERNEL_SPANS[strategy]:
        assert layers[span][0] > 0, span
    # one geometry batch serves both points
    assert batches == 1
    assert (layers["mc.geometry"][0], layers["mc.evaluate"][0]) == (1, 2)
    assert tracer.geometry_trials == 200 and tracer.evaluate_trials == 400

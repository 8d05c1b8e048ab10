"""Shared fixtures.

The scenario fixtures mirror the bundled config files exactly (positions at
integer/half wavelength multiples, obstacle at 150 wavelengths) but are built
programmatically so unit tests do not depend on file parsing. Expensive
sweep results are session-scoped: the shadow scan, the robustness sweep and
the full mixed optimization each run once and are shared between the module
tests and the acceptance gate.
"""

from __future__ import annotations

import numpy as np
import pytest

from airylink import (
    ArrayGeometry,
    Carrier,
    GridSpec,
    KnifeEdgeObstacle,
    ScenarioConfig,
    UserPosition,
    remark1_calibration,
    run_mixed_optimization,
    run_robustness_sweep,
    run_shadow_scan,
)

LINK = {"noise_power": 1e-3, "tx_power": 1.0e4, "rzf_epsilon": 1e-10}


@pytest.fixture(scope="session")
def carrier() -> Carrier:
    return Carrier(frequency_hz=28e9)


@pytest.fixture(scope="session")
def lam(carrier) -> float:
    return carrier.wavelength


@pytest.fixture(scope="session")
def array64(lam) -> ArrayGeometry:
    return ArrayGeometry(n=64, spacing=0.49 * lam)


@pytest.fixture(scope="session")
def grid_std(lam) -> GridSpec:
    """The production grid: 4096 samples over 256 wavelengths."""
    return GridSpec(nx=4096, window=256 * lam, apod_width=25.6 * lam)


@pytest.fixture(scope="session")
def grid_bare(lam) -> GridSpec:
    """Production-size grid with the absorber disabled (conservation tests)."""
    return GridSpec(nx=4096, window=256 * lam, apod_width=0.0)


@pytest.fixture(scope="session")
def grid_small(lam) -> GridSpec:
    """Fast grid for pure-propagation tests: same lambda/16 sampling."""
    return GridSpec(nx=1024, window=64 * lam, apod_width=0.0)


@pytest.fixture(scope="session")
def edge_obstacle(lam) -> KnifeEdgeObstacle:
    return KnifeEdgeObstacle(depth=150 * lam, edge_x=0.0, blocked_side="below_edge")


def _scenario(carrier, array64, grid_std, users, obstacle=None) -> ScenarioConfig:
    return ScenarioConfig(
        carrier=carrier,
        array=array64,
        users=users,
        grid=grid_std,
        obstacle=obstacle,
        **LINK,
    )


@pytest.fixture(scope="session")
def baseline_scenario(carrier, array64, grid_std, lam) -> ScenarioConfig:
    """Free space, two well-separated users."""
    users = (
        UserPosition(-5 * lam, 250 * lam, "ue1"),
        UserPosition(10 * lam, 300 * lam, "ue2"),
    )
    return _scenario(carrier, array64, grid_std, users)


@pytest.fixture(scope="session")
def shadow_scenario(carrier, array64, grid_std, lam, edge_obstacle) -> ScenarioConfig:
    """Knife edge at 150 wavelengths, both users behind it."""
    users = (
        UserPosition(-5 * lam, 250 * lam, "ue1"),
        UserPosition(-10 * lam, 300 * lam, "ue2"),
    )
    return _scenario(carrier, array64, grid_std, users, edge_obstacle)


@pytest.fixture(scope="session")
def mixed_scenario(carrier, array64, grid_std, lam, edge_obstacle) -> ScenarioConfig:
    """One shadowed user, one bright user."""
    users = (
        UserPosition(-5 * lam, 250 * lam, "ue1"),
        UserPosition(3.5 * lam, 300 * lam, "ue2"),
    )
    return _scenario(carrier, array64, grid_std, users, edge_obstacle)


@pytest.fixture(scope="session")
def baseline_calibration(baseline_scenario):
    """(scale, residual) of the cross-model fit on the free-space geometry."""
    return remark1_calibration(baseline_scenario)


@pytest.fixture(scope="session")
def shadow_sweep(shadow_scenario):
    """Full shadow scan at the default half-wavelength step (29 points)."""
    return run_shadow_scan(shadow_scenario)


@pytest.fixture(scope="session")
def robustness_result(mixed_scenario):
    """Positioning-error sweep with frozen nominal codebooks (25 points)."""
    return run_robustness_sweep(mixed_scenario)


@pytest.fixture(scope="session")
def mixed_opt_result(mixed_scenario):
    """The full coarse-to-fine search plus diagnostics (the slow fixture)."""
    return run_mixed_optimization(mixed_scenario)


@pytest.fixture()
def rng() -> np.random.Generator:
    """Fresh deterministic generator per test."""
    return np.random.default_rng(20260819)

import numpy as np
import pytest

from lvsim.channel import NetworkGeometry, build_covariance
from lvsim.experiments import _random_geometry

FIG1_BS = [[-250.0, 10.0], [0.0, -10.0], [250.0, 10.0]]
FIG3_BS = [[0.0, 10.0], [131.4, -9.3], [20.6, -0.9]]
CLAIMED = [50.0, 5.0]


def make_geometry(bs, claimed=CLAIMED, p=-10.0, d=1.0, gamma=3.0):
    return NetworkGeometry(
        bs_positions=np.asarray(bs, dtype=float),
        claimed_location=np.asarray(claimed, dtype=float),
        ref_power_db=p,
        ref_distance_m=d,
        path_loss_exponent=gamma,
    )


def random_setup(rng):
    """Random geometry, attacker location outside the 100 m disc, and model."""
    geometry, x_t, sigma, dc, _ = _random_geometry(rng)
    return geometry, build_covariance(geometry, sigma, dc), x_t


@pytest.fixture(scope="session")
def fig1_geometry():
    return make_geometry(FIG1_BS)


@pytest.fixture(scope="session")
def fig1_model(fig1_geometry):
    return build_covariance(fig1_geometry, 7.5, 50.0)


@pytest.fixture(scope="session")
def fig3_geometry():
    return make_geometry(FIG3_BS)


@pytest.fixture(scope="session")
def fig3_model(fig3_geometry):
    return build_covariance(fig3_geometry, 5.0, 50.0)

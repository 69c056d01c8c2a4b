import numpy as np
import pytest

from shadowpse.gamma_solver import GammaOptions, fit_gamma
from shadowpse.series_regression import SampleDesigns
from shadowpse.sieve_basis import build_spec_bundle
from shadowpse.simulation import DgpConfig, generate

from support import seq


@pytest.fixture(scope="session")
def pair2000():
    """(full, observed) benchmark draw at n=2000 shared across modules."""
    return generate(DgpConfig(n=2000, seed=seq(1)))


@pytest.fixture(scope="session")
def obs20000():
    """Observed draw at n=20000, tall enough that a span is built over
    its design in several row blocks."""
    return generate(DgpConfig(n=20000, seed=seq(3)))[1]


@pytest.fixture(scope="session")
def obs2000(pair2000):
    return pair2000[1]


@pytest.fixture(scope="session")
def full2000(pair2000):
    return pair2000[0]


@pytest.fixture(scope="session")
def comp2000(full2000):
    return full2000.with_r_set_to_one()


@pytest.fixture(scope="session")
def bundle2000(obs2000):
    return build_spec_bundle(obs2000)


@pytest.fixture(scope="session")
def gamma2000(obs2000, bundle2000):
    """Fitted odds model and report on the shared n=2000 draw."""
    return fit_gamma(SampleDesigns(obs2000, bundle2000), GammaOptions())


@pytest.fixture(scope="session")
def comp600(comp2000):
    return comp2000.subset(np.arange(comp2000.n) < 600)


@pytest.fixture(scope="session")
def obs600(obs2000):
    return obs2000.subset(np.arange(obs2000.n) < 600)

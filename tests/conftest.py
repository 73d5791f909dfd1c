import pytest
from hypothesis import HealthCheck, settings

from fieldlab.coupling import cdf_table, scheme_variances
from fieldlab.fields import iid_model, linear_ma_model

from reference import run_coupling

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=50,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def ma_model():
    """d=1 kernel {0: 1, 1: -0.5}: c(0)=1.25, c(+-1)=-0.5, sigma^2=0.25."""
    return linear_ma_model(1, {(0,): 1.0, (1,): -0.5})


@pytest.fixture(scope="session")
def assoc_model():
    """Nonnegative kernel, hence associated; sigma^2 = 2.25."""
    return linear_ma_model(1, {(0,): 1.0, (1,): 0.5})


@pytest.fixture(scope="session")
def exp_model():
    """Associated kernel driven by centered exponential innovations."""
    return linear_ma_model(1, {(0,): 1.0, (1,): 0.5}, innovation="exponential")


@pytest.fixture(scope="session")
def gauss_model():
    return iid_model(1)


def couple_run(model, scheme, seed, replicate=0, m_cdf=10_000, exact_phi=False):
    """One coupled replicate on the variances and CDF table that the
    S - sigma W study builds for the scheme."""
    variances = scheme_variances(model, scheme)
    cdfs = cdf_table(model, scheme, variances, m_cdf, seed, exact_phi)
    return run_coupling(model, scheme, seed, replicate, variances, cdfs)

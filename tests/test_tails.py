import numpy as np
import pytest
from scipy import stats as sps

from pagaudit.tails import chi2_sf, normal_sf


def test_normal_sf_reference_values():
    assert normal_sf(0.0) == pytest.approx(0.5, abs=1e-15)
    assert normal_sf(1.959963984540054) == pytest.approx(0.025, rel=1e-12)
    assert normal_sf(-3.0) == pytest.approx(1.0 - normal_sf(3.0), rel=1e-14)


def test_normal_sf_matches_scipy_to_1e10():
    for z in np.linspace(-8, 8, 161):
        ours = normal_sf(float(z))
        ref = float(sps.norm.sf(z))
        assert ours == pytest.approx(ref, rel=1e-10, abs=1e-300)


def test_chi2_sf_matches_scipy_to_1e10():
    for dof in (1, 2, 3, 5, 10, 40, 100):
        for x in (0.001, 0.5, 1.0, 3.84, 10.0, 35.0, 120.0):
            assert chi2_sf(x, dof) == pytest.approx(
                float(sps.chi2.sf(x, dof)), rel=1e-10, abs=1e-280
            )


def test_chi2_sf_boundaries():
    assert chi2_sf(0.0, 3) == 1.0
    assert chi2_sf(-1.0, 3) == 1.0
    assert 0.0 < chi2_sf(500.0, 1) < 1e-100
    assert chi2_sf(1e4, 1) == 0.0  # underflows like the reference implementation
    with pytest.raises(ValueError):
        chi2_sf(1.0, 0)


@pytest.mark.parametrize("dof", [*range(1, 61), 100, 500, 2_000, 20_000])
def test_chi2_sf_matches_scipy_across_quantiles(dof):
    # at the upper-tail quantile of each p, and at half and twice it
    for p in (1e-12, 1e-6, 1e-3, 0.05, 0.5, 0.95, 1 - 1e-6):
        q = float(sps.chi2.isf(p, dof))
        for x in (0.5 * q, q, 2.0 * q):
            assert chi2_sf(x, dof) == pytest.approx(
                float(sps.chi2.sf(x, dof)), rel=1e-10, abs=1e-280
            ), (x, dof)


@pytest.mark.parametrize("dof", [2.5, 0, -2, float("nan")])
def test_chi2_sf_rejects_dof_that_is_not_a_positive_whole_number(dof):
    with pytest.raises(ValueError, match="positive whole number"):
        chi2_sf(3.0, dof)

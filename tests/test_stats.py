"""Chi-square cell pooling (Cochran's rule) in cwflab.stats, and its
chi-square tail and normal CDF against scipy.special as the oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from cwflab.stats import (MIN_EXPECTED, _pool, chi2_gof, chi2_tail,
                          chi2_two_sample, normal_cdf)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 40), st.floats(0.0, 40.0)),
                min_size=1, max_size=30))
def test_pooled_cells_reach_min_expected(cells):
    counts = np.array([c for c, _ in cells], dtype=float)
    expected = np.array([e for _, e in cells])
    c, e = _pool(counts, expected)
    assert c.shape == e.shape
    assert c.sum() == pytest.approx(counts.sum())
    assert e.sum() == pytest.approx(expected.sum())
    if e.size > 1:
        assert np.all(e >= MIN_EXPECTED)


def test_single_count_in_a_tiny_tail_cell():
    # the tail cell expects 0.03 counts; pooled on its own, its one count
    # would add ~31 to chi-square (p ~ 1e-7)
    probs = np.array([0.5, 0.3, 0.2 - 3e-6, 3e-6])
    counts = np.array([5000, 3000, 1999, 1])
    test = chi2_gof(counts, probs)
    assert test["dof"] == 2
    assert test["chi2"] < 1e-3
    assert test["p_value"] > 0.99


def test_two_samples_share_the_pooled_binning():
    a = np.array([500, 400, 100, 3, 1])
    b = np.array([480, 420, 99, 0, 1])
    test = chi2_two_sample(a, b)
    assert test["dof"] == 2
    assert test["p_value"] > 1e-3


@pytest.mark.parametrize("dofs, rtol", [(range(1, 201), 1e-12),
                                        ((500, 1000), 1e-12),
                                        ((10_000,), 1e-10)])
def test_chi2_tail_matches_scipy(dofs, rtol):
    for dof in dofs:
        # the grid, plus the points where the tail reaches 1e-200 and 1e-300
        x = np.append(np.linspace(0.0, 5.0 * dof + 50.0, 24),
                      special.chdtri(dof, [1e-200, 1e-300]))
        want = special.chdtrc(dof, x)
        got = np.array([chi2_tail(dof, v) for v in x])
        normal = want >= 1e-305
        assert normal[-2:].all()
        np.testing.assert_allclose(got[normal], want[normal], rtol=rtol,
                                   atol=0.0, err_msg=f"dof {dof}")
        assert np.all(got[~normal] < 1e-300)


@pytest.mark.parametrize("dof", [1, 2, 3, 10_000])
def test_chi2_tail_ends(dof):
    assert chi2_tail(dof, 0.0) == 1.0
    assert chi2_tail(dof, np.inf) == 0.0


def test_normal_cdf_matches_scipy():
    z = np.linspace(-10.0, 10.0, 2001)
    np.testing.assert_allclose(normal_cdf(z), special.ndtr(z), rtol=1e-13,
                               atol=0.0)

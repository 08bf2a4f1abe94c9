"""The Duhamel kernel K at the scale the second-iterate quadrature uses.

The kernel tests in test_illposedness stop at t <= 0.5 and |eta| <= 10.  The
quadrature evaluates K at t = N^{-3.01}, with (xi, eta) in the output window
and (xi1, eta1) in k1(xi, eta), where t chi runs from about 2 to 71.  These
tests draw such nodes for N in {16, 128}, and the 40-digit oracle also
for N = 1024.
"""

import numpy as np
import pytest

from kpblab.illposedness import (
    _k1_bounds,
    kernel_K,
    output_window,
    rectangle_pair,
    resonance_chi,
)


def quadrature_nodes(N, n=4000, seed=0):
    """(xi, xi1, eta, eta1): (xi, eta) uniform in the window, nu1 uniform in k1."""
    rng = np.random.default_rng([seed, N])
    xi_lo, xi_hi, eta_lo, eta_hi = output_window(N)
    xi = rng.uniform(xi_lo, xi_hi, n)
    eta = rng.uniform(eta_lo, eta_hi, n)
    x_lo, x_hi, y_lo, y_hi = _k1_bounds(rectangle_pair(N), xi, eta)
    ok = (x_lo < x_hi) & (y_lo < y_hi)
    return (xi[ok], rng.uniform(x_lo[ok], x_hi[ok]),
            eta[ok], rng.uniform(y_lo[ok], y_hi[ok]))


@pytest.mark.parametrize("N", [16, 128])
def test_matches_naive_two_exponential_formula(N):
    # Worst relative error measured over 20 seeds of 4000 draws: 2.5e-15 at
    # N=16 and 2.0e-14 at N=128, largest where |K| is small.
    t = float(N) ** -3.01
    xi, xi1, eta, eta1 = quadrature_nodes(N)
    xi2 = xi - xi1
    chi = resonance_chi(xi, xi1, eta, eta1)
    assert (t * chi).max() > 60.0  # the phase winds many times
    naive = ((np.exp(t * (-(xi1 ** 2 + xi2 ** 2) + 1j * chi)) - np.exp(-t * xi ** 2))
             / (-xi ** 2 + xi1 ** 2 + xi2 ** 2 + 1j * chi))
    got = kernel_K(t, xi, xi1, eta, eta1)
    np.testing.assert_allclose(got, naive, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("N", [16, 128])
def test_invariant_under_partner_swap(N):
    # K(nu1) = K(nu - nu1) is why the quadrature sums k1 only and doubles it.
    # The partner's rounded inputs move chi by a few ulps, so compare on
    # K's own scale t (|K| < t here): worst 1.3e-15 t over 20 seeds.
    t = float(N) ** -3.01
    xi, xi1, eta, eta1 = quadrature_nodes(N)
    K = kernel_K(t, xi, xi1, eta, eta1)
    swapped = kernel_K(t, xi, xi - xi1, eta, eta - eta1)
    assert np.max(np.abs(swapped - K)) <= 1e-14 * t


@pytest.mark.parametrize("N", [16, 128])
@pytest.mark.parametrize("t", [1e-10, 1e-14])
def test_small_time_matches_complex_expm1(N, t):
    # Far below the quadrature's t, where e^z - 1 is all cancellation:
    # against numpy's complex expm1 on the unfolded quotient.
    xi, xi1, eta, eta1 = quadrature_nodes(N)
    cross = 2.0 * xi1 * (xi - xi1)
    chi = resonance_chi(xi, xi1, eta, eta1)
    decay = np.exp(-t * xi * xi)
    expect = decay * np.expm1(t * (cross + 1j * chi)) / (1j * chi - cross)
    got = kernel_K(t, xi, xi1, eta, eta1)
    np.testing.assert_allclose(got, expect, rtol=1e-13, atol=0.0)


def _oracle_K(t, xi, xi1, eta, eta1):
    """K at one node from its defining formula, in 40-digit arithmetic on
    the float64 inputs: chi and both exponentials exact to about 25 digits
    even where the numerator cancels."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        t, xi, xi1, eta, eta1 = (mpmath.mpf(float(a)) for a in (t, xi, xi1, eta, eta1))
        xi2 = xi - xi1
        chi = 3 * xi * xi1 * xi2 + (xi1 * eta - xi * eta1) ** 2 / (xi * xi1 * xi2)
        numer = (mpmath.exp(-t * (xi1 ** 2 + xi2 ** 2)) * mpmath.expj(t * chi)
                 - mpmath.exp(-t * xi ** 2))
        return complex(numer / mpmath.mpc(-2 * xi1 * xi2, chi))


@pytest.mark.parametrize("N", [16, 128, 1024])
@pytest.mark.parametrize("eps0, rtol", [(0.01, 5e-12), (2.0, 2e-15)])
def test_matches_40_digit_oracle(N, eps0, rtol):
    # At t = N^{-3-eps0} on 64 fixed nodes.  Largest relative error over 20
    # node seeds: 6.2e-14, 4.6e-13 and 1.3e-12 (N = 16, 128, 1024) at
    # eps0 = 0.01, where t chi reaches about 70 rad and an ulp of chi costs
    # about 70 ulps of phase; 4.4e-16 at eps0 = 2.  Each bound is 4x the
    # largest at its eps0.
    t = float(N) ** -(3.0 + eps0)
    nodes = [a[:64] for a in quadrature_nodes(N, n=200)]
    want = np.array([_oracle_K(t, *node) for node in zip(*nodes)])
    got = kernel_K(t, *nodes)
    assert len(want) == 64
    assert np.max(np.abs(got - want) / np.abs(want)) <= rtol

import math
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from scipy.special import eval_jacobi, roots_jacobi, betaln

from zdg.zonal import (QuadratureGrid, integrate, jacobi_deriv_table,
                       jacobi_table, quad_grid)

_log_gamma = np.vectorize(math.lgamma, otypes=[float])


def degree_exact(grid):
    """Highest polynomial degree in z that the grid integrates exactly."""
    return 2 * grid.size - 1


def jacobi_eval(n, alpha, beta, z):
    """P_n^{(alpha, beta)} at z (scalar or array), from the table."""
    z = np.atleast_1d(np.asarray(z, dtype=float))
    return jacobi_table(n, alpha, beta, z)[n]


def jacobi_norm_squared(n, alpha, beta):
    """L^2 norm^2 of P_n^{(alpha, beta)} under (1-z)^alpha (1+z)^beta dz,
    the closed form in log-gammas."""
    n = np.asarray(n, dtype=float)
    logh = ((alpha + beta + 1) * np.log(2.0)
            + _log_gamma(n + alpha + 1) + _log_gamma(n + beta + 1)
            - np.log(2 * n + alpha + beta + 1)
            - _log_gamma(n + alpha + beta + 1) - _log_gamma(n + 1))
    return np.exp(logh)


def exact_jacobi_fraction(n, alpha, beta, z):
    """Series oracle, exact in Fraction arithmetic for integer parameters."""
    z = Fraction(z)
    total = Fraction(0)
    for s in range(n + 1):
        total += (comb(n + alpha, n - s) * comb(n + beta, s)
                  * ((z - 1) / 2) ** s * ((z + 1) / 2) ** (n - s))
    return total


def test_pinned_low_degree_value():
    assert np.allclose(jacobi_eval(1, 0.0, 1.0, np.array([0.3])),
                       (3 * 0.3 - 1) / 2)


@pytest.mark.parametrize("alpha,beta", [(0, 1), (1, 0), (1, 2), (2, 1)])
def test_recurrence_matches_exact_series(alpha, beta):
    zs = [Fraction(-7, 8), Fraction(-1, 3), Fraction(0), Fraction(2, 5),
          Fraction(9, 10)]
    for n in (0, 1, 2, 3, 5, 8, 13):
        for z in zs:
            exact = float(exact_jacobi_fraction(n, alpha, beta, z))
            got = jacobi_eval(n, float(alpha), float(beta), float(z))[0]
            assert got == pytest.approx(exact, rel=1e-13, abs=1e-13)


def test_table_matches_scipy():
    z = np.linspace(-0.99, 0.99, 41)
    for alpha, beta in [(0.0, 1.0), (1.0, 2.0), (0.5, 1.5), (2.0, 3.0)]:
        table = jacobi_table(25, alpha, beta, z)
        for n in range(26):
            assert np.allclose(table[n], eval_jacobi(n, alpha, beta, z),
                               rtol=1e-11, atol=1e-11)


def test_derivative_identity_against_finite_differences():
    z = np.linspace(-0.9, 0.9, 19)
    h = 1e-6
    for alpha, beta in [(0.0, 1.0), (1.0, 2.0), (1.5, 0.5)]:
        deriv = jacobi_deriv_table(12, alpha, beta, z)
        up = jacobi_table(12, alpha, beta, z + h)
        dn = jacobi_table(12, alpha, beta, z - h)
        fd = (up - dn) / (2 * h)
        assert np.allclose(deriv, fd, rtol=1e-7, atol=1e-6)


def test_value_at_one_is_binomial():
    for alpha, beta in [(0, 1), (1, 2), (3, 2)]:
        table = jacobi_table(10, float(alpha), float(beta), np.array([1.0]))
        for n in range(11):
            assert table[n, 0] == pytest.approx(comb(n + alpha, n), rel=1e-13)


@pytest.mark.parametrize("dim", [2, 3, 4, 6])
def test_quadrature_nodes_weights_match_scipy(dim):
    k = 24
    grid = quad_grid(dim, k)
    c = (dim - 2) / 2.0
    nodes, weights = roots_jacobi(k, c, c)
    order = np.argsort(-nodes)
    assert np.allclose(grid.z, nodes[order], atol=1e-13)
    assert np.allclose(grid.weights, weights[order], rtol=1e-12)


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 8])
def test_moments_against_beta_function(dim):
    # int_{-1}^{1} z^m (1 - z^2)^{(dim-2)/2} dz = B((m+1)/2, dim/2), m even
    grid = quad_grid(dim, 20)
    for m in range(0, 16):
        got = integrate(grid, grid.z ** m)
        if m % 2 == 1:
            assert abs(got) < 1e-13
        else:
            exact = np.exp(betaln((m + 1) / 2.0, dim / 2.0))
            assert got == pytest.approx(exact, rel=1e-12)


def test_total_mass_is_sphere_slice_area():
    # int_0^pi sin^{d-1} theta dtheta; equals 2 at d = 2
    for dim, exact in [(2, 2.0), (3, np.pi / 2), (4, 4.0 / 3.0)]:
        grid = quad_grid(dim, 8)
        assert integrate(grid, np.ones(8)) == pytest.approx(exact, rel=1e-13)


def test_orthogonality_under_quadrature():
    dim = 4
    grid = quad_grid(dim, 40)
    a, b = dim / 2 - 1, dim / 2
    table = jacobi_table(20, a, b, grid.z)
    wplus = grid.weights * (1 + grid.z)
    gram = (table * wplus) @ table.T
    off = gram - np.diag(np.diag(gram))
    assert np.max(np.abs(off)) < 1e-11 * np.max(np.diag(gram))
    exact = jacobi_norm_squared(np.arange(21), a, b)
    assert np.allclose(np.diag(gram), exact, rtol=1e-12)


def test_norm_formula_symmetry():
    n = np.arange(12)
    assert np.allclose(jacobi_norm_squared(n, 1.0, 2.0),
                       jacobi_norm_squared(n, 2.0, 1.0))


def test_grid_theta_ascending_and_consistent():
    grid = quad_grid(3, 17)
    assert np.all(np.diff(grid.theta) > 0)
    assert np.allclose(np.cos(grid.theta), grid.z)
    assert isinstance(grid, QuadratureGrid)
    assert degree_exact(grid) == 33


def test_bad_arguments():
    with pytest.raises(ValueError):
        quad_grid(1, 5)
    with pytest.raises(ValueError):
        quad_grid(2, 0)


def _scipy_quad_grid(dim, size):
    """quad_grid as it was with scipy's tridiagonal solver and betaln."""
    from scipy.linalg import eigh_tridiagonal
    c = (dim - 2) / 2.0
    k = np.arange(1, size)
    num = 4.0 * k * (k + c) * (k + c) * (k + 2 * c)
    den = (2 * k + 2 * c) ** 2 * (2 * k + 2 * c + 1) * (2 * k + 2 * c - 1)
    offdiag = np.sqrt(num / den)
    diag = np.zeros(size)
    mu0 = np.exp((2 * c + 1) * np.log(2.0) + betaln(c + 1, c + 1))
    if size == 1:
        z = np.array([0.0])
        w = np.array([mu0])
    else:
        vals, vecs = eigh_tridiagonal(diag, offdiag)
        z = vals
        w = mu0 * vecs[0] ** 2
    order = np.argsort(-z)
    z = z[order]
    w = w[order]
    theta = np.arccos(np.clip(z, -1.0, 1.0))
    return QuadratureGrid(dim=dim, size=size, theta=theta, z=z, weights=w)


# every size to 128, then a spread up to the 528 nodes of cutoff 256 (all
# 528 sizes would take about 10 s per dim)
SIZES = (list(range(1, 129)) + list(range(131, 529, 23))
         + [144, 256, 512, 528])


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
def test_quad_grid_matches_the_scipy_tridiagonal_solver(dim):
    # numpy's eigh and scipy's eigh_tridiagonal run different LAPACK
    # algorithms with CPU-specific kernels, so the bound is a few ulps,
    # not bit equality; other LAPACK drivers on the same matrices move the
    # nodes by up to 17 eps and the weights by up to 19 eps * mu0
    eps = np.finfo(float).eps
    for size in SIZES:
        ours, ref = quad_grid(dim, size), _scipy_quad_grid(dim, size)
        mu0 = ref.weights.sum()
        assert np.all(np.abs(ours.z - ref.z) <= 64 * eps), size
        assert np.all(np.abs(ours.weights - ref.weights)
                      <= 64 * eps * mu0), size
        assert np.array_equal(ours.theta,
                              np.arccos(np.clip(ours.z, -1.0, 1.0))), size


def test_norm_squared_matches_scipy_gammaln_to_its_conditioning():
    # exp of a sum of log-gammas: each term is good to a few ulps of its
    # own size, so the two routes agree to eps times the terms' total
    from scipy.special import gammaln
    n = np.arange(65.0)
    for dim in range(2, 9):
        for a, b in [(dim / 2 - 1, dim / 2), (1.0, 2.0), (0.5, 0.5)]:
            terms = [(a + b + 1) * np.log(2.0) + 0 * n,
                     gammaln(n + a + 1), gammaln(n + b + 1),
                     -np.log(2 * n + a + b + 1),
                     -gammaln(n + a + b + 1), -gammaln(n + 1)]
            ref = np.exp(sum(terms))
            scale = sum(np.abs(t) for t in terms) * math.ulp(1.0)
            got = jacobi_norm_squared(n, a, b)
            assert np.all(np.abs(got / ref - 1) <= 4 * scale), (dim, a, b)

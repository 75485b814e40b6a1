"""Jacobi polynomials and Gauss-Jacobi quadrature for the zonal measure.

The zonal reduction turns every integral over the d-sphere into
int_0^pi f(theta) sin^{d-1}(theta) dtheta, i.e. a Jacobi weight
(1 - z^2)^{(d-2)/2} in z = cos(theta).  Nodes and weights come from the
Golub-Welsch tridiagonal eigenproblem assembled from the exact three-term
recurrence coefficients; for d = 2 this reduces to Gauss-Legendre.
Polynomials are evaluated by the recurrence itself, never through series
expansions, so tables up to degree a few hundred stay well conditioned.
Only numpy and the standard library are used: the eigenproblem goes to
numpy's dense symmetric solver, which on these matrices gives the same
bits as scipy's tridiagonal one (the tests check it), and the gamma
functions to `math`.
"""

import math
from dataclasses import dataclass

import numpy as np

def jacobi_table(nmax, alpha, beta, z):
    """Values P_n^{(alpha, beta)}(z) for n = 0..nmax, shape (nmax+1, len(z)).

    Standard three-term recurrence with P_0 = 1 and
    P_1 = (alpha - beta)/2 + (1 + (alpha + beta)/2) z.
    """
    z = np.atleast_1d(np.asarray(z, dtype=float))
    table = np.empty((nmax + 1, z.shape[0]))
    table[0] = 1.0
    if nmax == 0:
        return table
    table[1] = (alpha - beta) / 2.0 + (1.0 + (alpha + beta) / 2.0) * z
    a, b = alpha, beta
    for n in range(1, nmax):
        c1 = 2 * (n + 1) * (n + a + b + 1) * (2 * n + a + b)
        c2 = (2 * n + a + b + 1) * (a * a - b * b)
        c3 = (2 * n + a + b) * (2 * n + a + b + 1) * (2 * n + a + b + 2)
        c4 = 2 * (n + a) * (n + b) * (2 * n + a + b + 2)
        table[n + 1] = ((c2 + c3 * z) * table[n] - c4 * table[n - 1]) / c1
    return table


def jacobi_deriv_table(nmax, alpha, beta, z):
    """Derivatives d/dz P_n^{(alpha, beta)}(z) for n = 0..nmax.

    Uses d/dz P_n^{(a,b)} = (n + a + b + 1)/2 * P_{n-1}^{(a+1, b+1)}.
    """
    z = np.atleast_1d(np.asarray(z, dtype=float))
    out = np.zeros((nmax + 1, z.shape[0]))
    if nmax == 0:
        return out
    shifted = jacobi_table(nmax - 1, alpha + 1, beta + 1, z)
    n = np.arange(1, nmax + 1)
    out[1:] = 0.5 * (n + alpha + beta + 1)[:, None] * shifted
    return out


def _log_beta_sym(a):
    """log B(a, a) from math.gamma, or from math.lgamma where Gamma(2a)
    overflows.

    At every even dim up to 42 (a = dim / 2) the value is bitwise scipy's
    betaln(a, a); at other dims it can differ in the last bits.
    """
    if 2 * a > 171.6:
        return math.lgamma(a) + (math.lgamma(a) - math.lgamma(2 * a))
    return math.log(math.gamma(a) / math.gamma(2 * a) * math.gamma(a))


@dataclass
class QuadratureGrid:
    """Gauss-Jacobi grid for int_0^pi f(theta) sin^{d-1} theta dtheta.

    theta ascending in (0, pi); z = cos(theta) (descending pairing kept
    consistent with theta); weights include the full surface factor so
    integrate() needs no extra jacobian.  Exact for polynomial degree
    <= 2 K - 1 in z.
    """

    dim: int
    size: int
    theta: np.ndarray
    z: np.ndarray
    weights: np.ndarray


def quad_grid(dim, size):
    """Golub-Welsch nodes/weights for the weight (1 - z^2)^{(dim-2)/2}.

    The symmetric Jacobi recurrence has zero diagonal; off-diagonals come
    from the standard coefficients with alpha = beta = (dim - 2)/2.  The
    total mass is mu0 = 2^{2c+1} B(c+1, c+1) with c = (dim - 2)/2, which
    equals int_0^pi sin^{dim-1} theta dtheta.
    """
    if dim < 2:
        raise ValueError("dim must be >= 2")
    if size < 1:
        raise ValueError("size must be >= 1")
    c = (dim - 2) / 2.0
    k = np.arange(1, size)
    num = 4.0 * k * (k + c) * (k + c) * (k + 2 * c)
    den = (2 * k + 2 * c) ** 2 * (2 * k + 2 * c + 1) * (2 * k + 2 * c - 1)
    offdiag = np.sqrt(num / den)
    mu0 = np.exp((2 * c + 1) * np.log(2.0) + _log_beta_sym(c + 1))
    if size == 1:
        z = np.array([0.0])
        w = np.array([mu0])
    else:
        # eigh reads the lower triangle only
        z, vecs = np.linalg.eigh(np.diag(offdiag, -1))
        w = mu0 * vecs[0] ** 2
    order = np.argsort(-z)  # theta ascending
    z = z[order]
    w = w[order]
    theta = np.arccos(np.clip(z, -1.0, 1.0))
    return QuadratureGrid(dim=dim, size=size, theta=theta, z=z, weights=w)


def integrate(grid, values):
    """Quadrature sum over the grid; values shape (..., K)."""
    return np.asarray(values) @ grid.weights

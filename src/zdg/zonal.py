"""Zonal spinor eigenbasis and the reduced Dirac action on the sphere.

The zonal reduction of the Dirac operator on the d-sphere acts on
two-component profiles phi(theta) = (phi_+, phi_-) as

    (D phi)_+ = i ( d/dtheta + (d-1)/2 * cot(theta/2) ) phi_-
    (D phi)_- = i (-d/dtheta + (d-1)/2 * tan(theta/2) ) phi_+

(the two half-angle cotangent identities fold the cot(theta) and 1/sin(theta)
terms together).  Its eigenfunctions in the lower spectral branch are

    e_n(theta) = c_n * ( cos(theta/2) P_n^{(a, b)}(z),
                        -sin(theta/2) P_n^{(b, a)}(z) ),   z = cos(theta)

with a = d/2 - 1, b = d/2, eigenvalue -i * omega_n, omega_n = n + d/2, and
c_n normalizing in L^2(sin^{d-1} theta dtheta).  Grid values are real.

Two independent implementations of the action are provided: a spectral one
(diagonal multipliers -i omega_n) and a grid one that divides out the
half-angle prefactors exactly, differentiates in z through Jacobi tables and
never divides by sin(theta).  They are each other's oracle on band-limited
states.

Both rest on the Jacobi tables and the Gauss-Jacobi grid defined here:
sin^{d-1}(theta) dtheta is the Jacobi weight (1 - z^2)^{(d-2)/2}, whose
Golub-Welsch eigenproblem is assembled from the exact three-term recurrence
coefficients.  Polynomials are evaluated by that recurrence, never through
series expansions, so tables up to degree a few hundred stay well
conditioned.  The eigenproblem goes to numpy's dense symmetric solver, which
on these matrices gives the same bits as scipy's tridiagonal one (the tests
check it); the gamma functions go to `math`.
"""

import math
from dataclasses import dataclass

import numpy as np

from .config import auto_grid_size


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


@dataclass
class BasisTable:
    """The eigenbasis e_n, n = 0..cutoff, on one quadrature grid.

    values[n, i, c] holds component c of e_n at node i (real); norm_const
    holds the c_n, omega the omega_n = n + d/2 and lam their square roots.
    """

    dim: int
    cutoff: int
    grid: object
    values: np.ndarray
    norm_const: np.ndarray
    omega: np.ndarray
    lam: np.ndarray

    @property
    def n_modes(self):
        return self.cutoff + 1


def _half_angle_tables(dim, nmax, grid):
    """P_n^{(a,b)} and P_n^{(b,a)} for n = 0..nmax on the grid, the norms
    h_+ = int (P_n^{(a,b)})^2 (1 + z), and cos(theta/2), sin(theta/2)."""
    pab = jacobi_table(nmax, dim / 2.0 - 1.0, dim / 2.0, grid.z)
    pba = jacobi_table(nmax, dim / 2.0, dim / 2.0 - 1.0, grid.z)
    h_plus = (pab * pab * (1.0 + grid.z)) @ grid.weights
    return pab, pba, h_plus, np.cos(grid.theta / 2.0), np.sin(grid.theta / 2.0)


def build_basis(dim, cutoff, grid_size=None):
    """Assemble the eigenbasis table for modes n = 0..cutoff.

    Parameters
    ----------
    dim : int
        Sphere dimension, >= 2.
    cutoff : int
        Highest mode index N.
    grid_size : int, optional
        Quadrature nodes, by default auto_grid_size(cutoff).  Must give
        grid_size >= cutoff + dim so all norms and Gram entries below the
        cutoff are quadrature-exact.
    """
    if dim < 2:
        raise ValueError("dim must be >= 2")
    if cutoff < 0:
        raise ValueError("cutoff must be >= 0")
    if grid_size is None:
        grid_size = auto_grid_size(cutoff)
    grid = quad_grid(dim, grid_size)
    if grid.size < cutoff + dim:
        raise ValueError(
            f"grid size {grid.size} too small for cutoff {cutoff} "
            f"(need >= cutoff + dim = {cutoff + dim})")
    pab, pba, h_plus, cos_half, sin_half = _half_angle_tables(dim, cutoff, grid)
    norm_const = 1.0 / np.sqrt(h_plus)
    n_modes = cutoff + 1
    values = np.empty((n_modes, grid.size, 2))
    values[:, :, 0] = norm_const[:, None] * cos_half[None, :] * pab
    values[:, :, 1] = -norm_const[:, None] * sin_half[None, :] * pba
    n = np.arange(n_modes, dtype=float)
    return BasisTable(dim=dim, cutoff=cutoff, grid=grid, values=values,
                      norm_const=norm_const, omega=n + dim / 2.0, lam=np.sqrt(n + dim / 2.0))


def synthesize(basis, coeffs):
    """Grid values of sum_n c_n e_n; coeffs shape (..., n_modes)."""
    return np.tensordot(np.asarray(coeffs), basis.values, axes=(-1, 0))


def analyze(basis, values):
    """Eigenbasis coefficients of grid values, shape (..., K, 2) -> (..., n_modes).

    Exact for states in the span of the table (the basis is real, so these
    are plain weighted dot products).
    """
    weighted = basis.values * basis.grid.weights[None, :, None]
    return np.tensordot(np.asarray(values), weighted, axes=([-2, -1], [1, 2]))


def inner(grid, f, g):
    """L^2 pairing <f, g> = int (conj(f_+) g_+ + conj(f_-) g_-) sin^{d-1}."""
    return np.sum(np.conj(f) * g * grid.weights[:, None], axis=(-2, -1))


def gram_matrix(basis):
    """Quadrature Gram matrix of the basis (identity up to roundoff)."""
    weighted = basis.values * basis.grid.weights[None, :, None]
    return np.tensordot(basis.values, weighted, axes=([1, 2], [1, 2]))


def covariance_diag(basis):
    """sigma(theta_i) = sum_n |e_n(theta_i)|^2 / lambda_n^2, shape (K,)."""
    dens = np.sum(basis.values ** 2, axis=2)  # (n_modes, K)
    return (dens / (basis.lam ** 2)[:, None]).sum(axis=0)


def covariance_kernel(basis):
    """Two-point table sigma(x, y) = sum_n e_n(x) e_n(y)^T / lambda_n^2.

    Shape (K, K, 2, 2); real because the basis is real on the grid.
    """
    scaled = basis.values / (basis.lam ** 2)[:, None, None]
    return np.einsum("nia,njb->ijab", basis.values, scaled)


def dirac_apply_grid(basis, values):
    """Dirac action in grid space, division-free; values shape (..., K, 2).

    Writes phi_+ = cos(theta/2) F_+(z) and phi_- = sin(theta/2) F_-(z),
    expands F_+/F_- in the two Jacobi families through quadrature
    projections against the half-angle-squared weights, then applies

        (D phi)_+ = i cos(theta/2) [ (z - 1) F_-' + (d/2) F_- ]
        (D phi)_- = i sin(theta/2) [ (z + 1) F_+' + (d/2) F_+ ]

    Exact (to roundoff) for states band-limited to the table cutoff.  The
    Jacobi tables are built once per call and a stack is applied state by
    state, so each result is bitwise the single-state call's (a batched
    matrix product would sum in another order).
    """
    values = np.asarray(values)
    grid, d, nmax = basis.grid, basis.dim, basis.cutoff
    z, w = grid.z, grid.weights
    pab, pba, h_plus, cos_half, sin_half = _half_angle_tables(d, nmax, grid)
    h_minus = (pba * pba * (1.0 - z)) @ w
    dpab = jacobi_deriv_table(nmax, d / 2.0 - 1.0, d / 2.0, z)
    dpba = jacobi_deriv_table(nmax, d / 2.0, d / 2.0 - 1.0, z)
    w_cos, w_sin = 2.0 * w * cos_half, 2.0 * w * sin_half
    out = np.empty(values.shape, dtype=np.result_type(values, 1j))
    for phi, res in zip(values.reshape(-1, *values.shape[-2:]),
                        out.reshape(-1, *values.shape[-2:])):
        # coefficients of F_+ in P^{(a,b)} and of F_- in P^{(b,a)}
        coef_p = (w_cos * phi[:, 0]) @ pab.T / h_plus
        coef_m = (w_sin * phi[:, 1]) @ pba.T / h_minus
        res[:, 0] = 1j * cos_half * ((z - 1.0) * (coef_m @ dpba)
                                     + (d / 2.0) * (coef_m @ pba))
        res[:, 1] = 1j * sin_half * ((z + 1.0) * (coef_p @ dpab)
                                     + (d / 2.0) * (coef_p @ pab))
    return out


def lp_norm(grid, values, p):
    """L^p norm of the pointwise spinor magnitude over the zonal measure."""
    values = np.asarray(values)
    mag = np.sqrt(np.abs(values[..., 0]) ** 2 + np.abs(values[..., 1]) ** 2)
    if np.isinf(p):
        return np.max(mag, axis=-1)
    if p < 1:
        raise ValueError("p must be >= 1")
    return (np.power(mag, p) @ grid.weights) ** (1.0 / p)


def loglog_slope(x, y):
    """Fitted slope of log y against log x; None when every y is 0."""
    if not any(y):
        return None
    return float(np.polyfit(np.log(x), np.log(y), 1)[0])


def hs_norm(coeffs, s):
    """Sobolev norm sqrt(sum_n (1 + n)^{2s} |c_n|^2) of coefficient vectors."""
    coeffs = np.asarray(coeffs)
    n = np.arange(coeffs.shape[-1], dtype=float)
    weights = (1.0 + n) ** (2.0 * s)
    return np.sqrt(np.sum(weights * np.abs(coeffs) ** 2, axis=-1))

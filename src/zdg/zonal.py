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
"""

from dataclasses import dataclass

import numpy as np

from .config import auto_grid_size
from .jacobi import jacobi_deriv_table, jacobi_table, quad_grid


@dataclass
class BasisTable:
    """Eigenbasis values and companion tables on one quadrature grid.

    values[n, i, c] holds component c of e_n at node i (real).  pab/pba and
    their z-derivatives are the raw Jacobi tables used by the grid-space
    Dirac action; h_plus/h_minus are the quadrature norms of the two
    half-angle-weighted polynomial families.
    """

    dim: int
    cutoff: int
    grid: object
    values: np.ndarray
    pab: np.ndarray
    pba: np.ndarray
    dpab: np.ndarray
    dpba: np.ndarray
    h_plus: np.ndarray
    h_minus: np.ndarray
    norm_const: np.ndarray
    omega: np.ndarray
    lam: np.ndarray

    @property
    def n_modes(self):
        return self.cutoff + 1


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
    a = dim / 2.0 - 1.0
    b = dim / 2.0
    z = grid.z
    w = grid.weights
    pab = jacobi_table(cutoff, a, b, z)
    pba = jacobi_table(cutoff, b, a, z)
    dpab = jacobi_deriv_table(cutoff, a, b, z)
    dpba = jacobi_deriv_table(cutoff, b, a, z)
    h_plus = (pab * pab * (1.0 + z)) @ w
    h_minus = (pba * pba * (1.0 - z)) @ w
    norm_const = 1.0 / np.sqrt(h_plus)
    cos_half = np.cos(grid.theta / 2.0)
    sin_half = np.sin(grid.theta / 2.0)
    n_modes = cutoff + 1
    values = np.empty((n_modes, grid.size, 2))
    values[:, :, 0] = norm_const[:, None] * cos_half[None, :] * pab
    values[:, :, 1] = -norm_const[:, None] * sin_half[None, :] * pba
    n = np.arange(n_modes, dtype=float)
    return BasisTable(dim=dim, cutoff=cutoff, grid=grid, values=values,
                      pab=pab, pba=pba, dpab=dpab, dpba=dpba,
                      h_plus=h_plus, h_minus=h_minus, norm_const=norm_const,
                      omega=n + dim / 2.0, lam=np.sqrt(n + dim / 2.0))


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
    """Dirac action in grid space, division-free.

    Writes phi_+ = cos(theta/2) F_+(z) and phi_- = sin(theta/2) F_-(z),
    expands F_+/F_- in the two Jacobi families through quadrature
    projections against the half-angle-squared weights, then applies

        (D phi)_+ = i cos(theta/2) [ (z - 1) F_-' + (d/2) F_- ]
        (D phi)_- = i sin(theta/2) [ (z + 1) F_+' + (d/2) F_+ ]

    Exact (to roundoff) for states band-limited to the table cutoff.
    """
    values = np.asarray(values)
    grid = basis.grid
    d = basis.dim
    cos_half = np.cos(grid.theta / 2.0)
    sin_half = np.sin(grid.theta / 2.0)
    w = grid.weights
    phi_p = values[..., 0]
    phi_m = values[..., 1]
    # coefficients of F_+ in P^{(a,b)} and of F_- in P^{(b,a)}
    coef_p = ((2.0 * w * cos_half) * phi_p) @ basis.pab.T / basis.h_plus
    coef_m = ((2.0 * w * sin_half) * phi_m) @ basis.pba.T / basis.h_minus
    f_p = coef_p @ basis.pab
    df_p = coef_p @ basis.dpab
    f_m = coef_m @ basis.pba
    df_m = coef_m @ basis.dpba
    z = grid.z
    out = np.empty(values.shape, dtype=np.result_type(values, 1j))
    out[..., 0] = 1j * cos_half * ((z - 1.0) * df_m + (d / 2.0) * f_m)
    out[..., 1] = 1j * sin_half * ((z + 1.0) * df_p + (d / 2.0) * f_p)
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


def hs_norm(coeffs, s):
    """Sobolev norm sqrt(sum_n (1 + n)^{2s} |c_n|^2) of coefficient vectors."""
    coeffs = np.asarray(coeffs)
    n = np.arange(coeffs.shape[-1], dtype=float)
    weights = (1.0 + n) ** (2.0 * s)
    return np.sqrt(np.sum(weights * np.abs(coeffs) ** 2, axis=-1))

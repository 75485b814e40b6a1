"""Gaussian free-field samples and covariance diagnostics.

The reference Gaussian measure puts independent standard complex Gaussians
g_n on the eigenmodes, scaled by 1/lambda_n with lambda_n = sqrt(n + d/2),
so the coefficient c_n = g_n / lambda_n has E |c_n|^2 = 1 / omega_n.  Pointwise
covariance tables follow by summing |e_n|^2 / lambda_n^2 over modes.
"""

import numpy as np

from . import rng as rng_mod


def gaussian_coeffs(seed, label, n_modes, size=None):
    """Raw standard complex Gaussians g, shape (size, n_modes) or (n_modes,),
    from the stream (seed, label) of `rng.derive_rng`."""
    gen = rng_mod.derive_rng(seed, label)
    shape = (n_modes,) if size is None else (size, n_modes)
    return rng_mod.standard_complex(gen, shape)


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


def hs_norm(coeffs, s):
    """Sobolev norm sqrt(sum_n (1 + n)^{2s} |c_n|^2) of coefficient vectors."""
    coeffs = np.asarray(coeffs)
    n = np.arange(coeffs.shape[-1], dtype=float)
    weights = (1.0 + n) ** (2.0 * s)
    return np.sqrt(np.sum(weights * np.abs(coeffs) ** 2, axis=-1))

import numpy as np
import pytest

from zdg.field import (coeffs_from_gaussians, covariance_diag,
                       covariance_kernel, gaussian_coeffs, hs_norm)
from zdg.jacobi import integrate
from zdg.zonal import build_basis, synthesize
from zdg import rng as rng_mod


def sample_field(basis, seed, label, size=None):
    """Free-field samples on the grid, shape (..., K, 2)."""
    g = gaussian_coeffs(seed, label, basis.n_modes, size)
    return synthesize(basis, coeffs_from_gaussians(basis, g))


@pytest.fixture(scope="module")
def basis():
    return build_basis(2, 12, grid_size=40)


def test_draws_are_reproducible(basis):
    a = gaussian_coeffs(123, "field.sample", basis.n_modes, size=4)
    b = gaussian_coeffs(123, "field.sample", basis.n_modes, size=4)
    assert np.array_equal(a, b)


def test_streams_differ_by_label():
    a = gaussian_coeffs(123, "field.sample", 8, size=3)
    # the draws are Philox on the spawn key (stream_key(label), 0), bit for
    # bit: the key every stream has been derived from
    ss = np.random.SeedSequence(
        entropy=123, spawn_key=(rng_mod.stream_key("field.sample"), 0))
    gen = np.random.Generator(np.random.Philox(ss))
    assert rng_mod.standard_complex(gen, (3, 8)).tobytes() == a.tobytes()
    assert not np.allclose(a, gaussian_coeffs(123, "other.purpose", 8,
                                              size=3))


def test_standard_complex_moments():
    gen = rng_mod.derive_rng(5, "unit.moments")
    g = rng_mod.standard_complex(gen, (200000,))
    assert abs(np.mean(g)) < 0.01
    assert np.mean(np.abs(g) ** 2) == pytest.approx(1.0, abs=0.01)
    assert abs(np.mean(g ** 2)) < 0.01


def test_coefficient_scaling(basis):
    g = np.ones(basis.n_modes, dtype=complex)
    c = coeffs_from_gaussians(basis, g)
    assert np.allclose(c, 1.0 / basis.lam)


def test_covariance_diag_total_mass(basis):
    # int sigma(theta) sin^{d-1} = sum_n 1 / omega_n since each e_n is unit
    sigma = covariance_diag(basis)
    assert np.all(sigma > 0)
    total = integrate(basis.grid, sigma)
    assert total == pytest.approx(np.sum(1.0 / basis.omega), rel=1e-12)


def test_covariance_kernel_consistency(basis):
    kern = covariance_kernel(basis)
    sigma = covariance_diag(basis)
    diag_trace = np.einsum("iiaa->i", kern)
    assert np.allclose(diag_trace, sigma, rtol=1e-12)
    # symmetric under (x, a) <-> (y, b)
    assert np.allclose(kern, kern.transpose(1, 0, 3, 2), atol=1e-14)


def test_pointwise_variance_matches_covariance(basis):
    vals = sample_field(basis, 99, "field.sample", size=40000)
    emp = np.mean(np.abs(vals[..., 0]) ** 2 + np.abs(vals[..., 1]) ** 2,
                  axis=0)
    sigma = covariance_diag(basis)
    # 40k samples: relative MC error about 1/sqrt(40000) ~ 0.5%
    assert np.allclose(emp, sigma, rtol=0.04)


def test_hs_norm_formula():
    c = np.array([1.0, 2.0, 0.0, 1j])
    s = -0.75
    expected = np.sqrt(1 + 4 * 2.0 ** (2 * s) + 1 * 4.0 ** (2 * s))
    assert hs_norm(c, s) == pytest.approx(expected, rel=1e-13)
    batch = np.stack([c, 2 * c])
    got = hs_norm(batch, s)
    assert got[1] == pytest.approx(2 * got[0], rel=1e-13)


def test_hs_norm_expectation(basis):
    g = gaussian_coeffs(7, "field.hs", basis.n_modes, size=60000)
    c = coeffs_from_gaussians(basis, g)
    s = -0.6
    n = np.arange(basis.n_modes, dtype=float)
    exact = np.sum((1 + n) ** (2 * s) / basis.omega)
    emp = np.mean(hs_norm(c, s) ** 2)
    assert emp == pytest.approx(exact, rel=0.02)


def test_seed_validation():
    with pytest.raises(ValueError):
        rng_mod.derive_rng(-1, "bad")
    with pytest.raises(ValueError):
        rng_mod.derive_rng(2 ** 64, "bad")


def test_standard_complex_is_bitwise_the_complex_quotient():
    shape = (3000, 17)
    xy = np.random.Generator(np.random.Philox(7)).standard_normal(
        size=shape + (2,))
    want = (xy[..., 0] + 1j * xy[..., 1]) / np.sqrt(2.0)
    got = rng_mod.standard_complex(np.random.Generator(np.random.Philox(7)),
                                   shape)
    assert got.shape == shape and got.flags["C_CONTIGUOUS"]
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    one = rng_mod.standard_complex(np.random.Generator(np.random.Philox(7)),
                                   17)
    assert np.array_equal(one.view(np.uint64), want[0].view(np.uint64))

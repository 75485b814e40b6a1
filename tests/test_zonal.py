import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_jacobi import jacobi_norm_squared
from zdg.zonal import (analyze, build_basis, dirac_apply_grid, gram_matrix,
                       inner, jacobi_deriv_table, jacobi_table, lp_norm,
                       synthesize)


def dirac_apply_spectral(basis, values):
    """Dirac action through the eigen decomposition: multipliers -i omega_n."""
    coeffs = analyze(basis, values)
    return synthesize(basis, coeffs * (-1j) * basis.omega)


@pytest.fixture(scope="module")
def basis_d2():
    return build_basis(2, 20, grid_size=56)


@pytest.fixture(scope="module")
def basis_d4():
    return build_basis(4, 20, grid_size=56)


@pytest.mark.parametrize("dim", [2, 3, 4, 6])
def test_ground_mode_shape_and_eigenvalue(dim):
    basis = build_basis(dim, 4, grid_size=24)
    theta = basis.grid.theta
    e0 = basis.values[0]
    ratio_plus = e0[:, 0] / np.cos(theta / 2)
    ratio_minus = e0[:, 1] / (-np.sin(theta / 2))
    assert np.allclose(ratio_plus, ratio_plus[0])
    assert np.allclose(ratio_minus, ratio_plus[0])
    out = dirac_apply_grid(basis, e0.astype(complex))
    assert np.allclose(out, -1j * (dim / 2.0) * e0, atol=1e-12)


def test_half_angle_identity_behind_action():
    # cot(t) + 1/sin(t) = cot(t/2) and -cot(t) + 1/sin(t) = tan(t/2)
    t = np.linspace(0.1, np.pi - 0.1, 101)
    assert np.allclose(1 / np.tan(t) + 1 / np.sin(t), 1 / np.tan(t / 2))
    assert np.allclose(-1 / np.tan(t) + 1 / np.sin(t), np.tan(t / 2))


@pytest.mark.parametrize("dim", [2, 4])
def test_intertwining_polynomial_identity(dim):
    # (z - 1) d/dz P_n^{(b,a)} + (d/2) P_n^{(b,a)} = omega_n P_n^{(a,b)}
    # and its mirror; these make the half-angle ansatz an eigenfunction.
    a, b = dim / 2 - 1, dim / 2
    z = np.linspace(-0.95, 0.95, 37)
    nmax = 25
    pab = jacobi_table(nmax, a, b, z)
    pba = jacobi_table(nmax, b, a, z)
    dpab = jacobi_deriv_table(nmax, a, b, z)
    dpba = jacobi_deriv_table(nmax, b, a, z)
    for n in range(nmax + 1):
        omega = n + dim / 2.0
        lhs = (z - 1) * dpba[n] + (dim / 2.0) * pba[n]
        assert np.allclose(lhs, omega * pab[n], rtol=1e-11, atol=1e-11)
        mirror = (z + 1) * dpab[n] + (dim / 2.0) * pab[n]
        assert np.allclose(mirror, omega * pba[n], rtol=1e-11, atol=1e-11)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_eigenrelation_on_grid(dim):
    basis = build_basis(dim, 30, grid_size=128)
    states = basis.values.astype(complex)
    out = dirac_apply_grid(basis, states)
    expected = -1j * basis.omega[:, None, None] * states
    resid = np.max(np.abs(out - expected))
    assert resid < 1e-9


@pytest.mark.parametrize("dim", [2, 4])
@pytest.mark.parametrize("cutoff", [8, 64])
def test_stacked_dirac_apply_is_bitwise_per_state(dim, cutoff):
    basis = build_basis(dim, cutoff)
    rng = np.random.default_rng(3)
    shape = (2, 3, basis.grid.size, 2)
    states = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    for stack in (basis.values, states):
        flat = stack.reshape(-1, basis.grid.size, 2)
        per_state = [dirac_apply_grid(basis, s).tobytes() for s in flat]
        assert dirac_apply_grid(basis, stack).tobytes() == b"".join(per_state)


def test_spectral_and_grid_routes_agree(basis_d2):
    rng = np.random.default_rng(7)
    coeffs = rng.normal(size=(5, basis_d2.n_modes)) \
        + 1j * rng.normal(size=(5, basis_d2.n_modes))
    states = synthesize(basis_d2, coeffs)
    via_grid = dirac_apply_grid(basis_d2, states)
    via_spectral = dirac_apply_spectral(basis_d2, states)
    assert np.allclose(via_grid, via_spectral, atol=1e-10)


def test_gram_is_identity(basis_d2, basis_d4):
    for basis in (basis_d2, basis_d4):
        gram = gram_matrix(basis)
        assert np.max(np.abs(gram - np.eye(basis.n_modes))) < 1e-12


def test_norm_constants_match_closed_form(basis_d2, basis_d4):
    for basis in (basis_d2, basis_d4):
        a, b = basis.dim / 2 - 1, basis.dim / 2
        n = np.arange(basis.n_modes)
        exact = 1.0 / np.sqrt(jacobi_norm_squared(n, a, b))
        assert np.allclose(basis.norm_const, exact, rtol=1e-12)
        z, w = basis.grid.z, basis.grid.weights
        pab = jacobi_table(basis.cutoff, a, b, z)
        pba = jacobi_table(basis.cutoff, b, a, z)
        h_plus = (pab * pab * (1.0 + z)) @ w
        h_minus = (pba * pba * (1.0 - z)) @ w
        assert np.allclose(h_plus, h_minus, rtol=1e-12)


def test_eigenvalue_tables(basis_d4):
    n = np.arange(basis_d4.n_modes)
    assert np.allclose(basis_d4.omega, n + 2.0)
    assert np.allclose(basis_d4.lam ** 2, basis_d4.omega)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_analyze_synthesize_roundtrip(seed):
    basis = build_basis(2, 12, grid_size=40)
    rng = np.random.default_rng(seed)
    coeffs = rng.normal(size=13) + 1j * rng.normal(size=13)
    back = analyze(basis, synthesize(basis, coeffs))
    assert np.allclose(back, coeffs, atol=1e-12)


def test_inner_product_and_l2_norm(basis_d2):
    e3 = basis_d2.values[3].astype(complex)
    e5 = basis_d2.values[5].astype(complex)
    assert inner(basis_d2.grid, e3, e3) == pytest.approx(1.0, rel=1e-12)
    assert abs(inner(basis_d2.grid, e3, e5)) < 1e-13
    assert lp_norm(basis_d2.grid, e3, 2) == pytest.approx(1.0, rel=1e-12)


def test_lp_norm_against_dense_trapezoid(basis_d2):
    # independent route: evaluate |e_n| on a dense theta grid and integrate
    # with the zonal surface factor by trapezoid
    n = 6
    p = 4
    theta = np.linspace(0, np.pi, 20001)
    a, b = 0.0, 1.0
    pab = jacobi_table(n, a, b, np.cos(theta))[n]
    pba = jacobi_table(n, b, a, np.cos(theta))[n]
    c = basis_d2.norm_const[n]
    mag = c * np.sqrt((np.cos(theta / 2) * pab) ** 2
                      + (np.sin(theta / 2) * pba) ** 2)
    dense = np.trapezoid(mag ** p * np.sin(theta), theta) ** (1.0 / p)
    got = lp_norm(basis_d2.grid, basis_d2.values[n], p)
    assert got == pytest.approx(dense, rel=1e-6)


def test_linf_norm(basis_d2):
    e2 = basis_d2.values[2]
    mag = np.sqrt(e2[:, 0] ** 2 + e2[:, 1] ** 2)
    assert lp_norm(basis_d2.grid, e2, np.inf) == pytest.approx(mag.max())


def test_band_limit_guard():
    with pytest.raises(ValueError):
        build_basis(2, 30, grid_size=31)
    with pytest.raises(ValueError):
        build_basis(1, 4)

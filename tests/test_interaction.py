import os
import re
import sys
import tempfile
import threading
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zdg import interaction
from zdg.config import ExperimentConfig, validate
from zdg.interaction import (assemble_interaction, chaos_tail_series,
                             dense_tensor, grid_energy_context,
                             interaction_energy, interaction_energy_grid,
                             kernel_matrix_from_csv, kernel_matrix_to_csv,
                             kernel_node_values, nonlinearity,
                             nonlinearity_grid, pair_density, quartic_form,
                             wick_energy_literal, wick_quartic_cov,
                             wick_quartic_cov_enumerated)
from zdg.rng import derive_rng, prior_coeffs, standard_complex
from zdg.zonal import analyze, build_basis, synthesize

CONSTANT = ExperimentConfig(kernel_kind="constant", kernel_kappa=1.0)
SEPARABLE = ExperimentConfig(kernel_kind="separable",
                             kernel_profile="one_plus_cos",
                             kernel_amplitude=0.8)
GAUSS_BUMP = ExperimentConfig(kernel_kind="separable",
                              kernel_profile="gauss_bump",
                              kernel_amplitude=1.5)
GRIDK = ExperimentConfig(kernel_kind="grid", kernel_name="gaussian_angle",
                         kernel_width=0.7)


@lru_cache(maxsize=1)
def _kernel_dir():
    """One temporary directory for this module's kernel files, removed
    when the process exits."""
    return tempfile.TemporaryDirectory(prefix="zdg-kernels-")


def file_kernel(grid, matrix):
    """A "file" kernel config whose CSV holds the given node values."""
    fd, path = tempfile.mkstemp(suffix=".csv", dir=_kernel_dir().name)
    os.close(fd)
    kernel_matrix_to_csv(path, grid.theta, matrix)
    return ExperimentConfig(kernel_kind="file", kernel_profile_file=path)


@pytest.fixture(scope="module")
def basis():
    return build_basis(2, 10, grid_size=44)


@pytest.fixture(scope="module")
def tensors(basis):
    kernels = {"constant": CONSTANT, "separable": SEPARABLE, "grid": GRIDK,
               "gauss_bump": GAUSS_BUMP}
    return {kind: assemble_interaction(basis, kernel)
            for kind, kernel in kernels.items()}


def random_coeffs(n_modes, size=None, seed=0):
    rng = np.random.default_rng(seed)
    shape = (n_modes,) if size is None else (size, n_modes)
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


# --- tensor structure ------------------------------------------------------


def test_constant_kernel_tensor_is_orthonormality_product(basis, tensors):
    # with an orthonormal basis, A = kappa * delta_jk delta_lm
    a = dense_tensor(tensors["constant"])
    j = basis.n_modes
    expected = np.einsum("jk,lm->jklm", np.eye(j), np.eye(j))
    assert np.allclose(a, expected, atol=1e-12)


def test_constant_kernel_counterterms_closed_form(basis, tensors):
    # exact rational oracle at d = 2: omega_n = n + 1
    t = tensors["constant"]
    j = basis.n_modes
    s1 = Fraction(0)
    s2 = Fraction(0)
    for p in range(j):
        s1 += Fraction(1, p + 1)
        s2 += Fraction(1, (p + 1) ** 2)
    assert np.allclose(t.s_mat, float(s1) * np.eye(j), atol=1e-12)
    assert np.allclose(t.t_mat, np.diag(1.0 / basis.omega), atol=1e-12)
    assert t.e0_const == pytest.approx(float(s1 * s1), rel=1e-12)
    assert t.e0_trace == pytest.approx(float(s2), rel=1e-12)


def test_tensor_symmetries(tensors):
    for t in tensors.values():
        a = dense_tensor(t)
        assert np.allclose(a, a.transpose(1, 0, 2, 3), atol=1e-12)
        assert np.allclose(a, a.transpose(0, 1, 3, 2), atol=1e-12)
        assert np.allclose(a, a.transpose(2, 3, 0, 1), atol=1e-12)
        assert np.allclose(t.s_mat, t.s_mat.T, atol=1e-12)
        assert np.allclose(t.t_mat, t.t_mat.T, atol=1e-12)
        assert t.e0_trace >= 0.0


def test_separable_factor_reproduces_tensor(basis, tensors):
    t = tensors["separable"]
    assert t.factor is not None
    assert np.allclose(dense_tensor(t),
                       np.einsum("jk,lm->jklm", t.factor, t.factor),
                       atol=1e-12)


def test_slice_matches_smaller_assembly(basis, tensors):
    small_basis = build_basis(2, 6, grid_size=basis.grid.size)
    for kind, kernel in (("constant", CONSTANT), ("grid", GRIDK)):
        direct = assemble_interaction(small_basis, kernel)
        sliced = tensors[kind].slice(6)
        assert np.allclose(dense_tensor(direct), dense_tensor(sliced),
                           atol=1e-12)
        assert np.allclose(direct.s_mat, sliced.s_mat, atol=1e-12)
        assert np.allclose(direct.t_mat, sliced.t_mat, atol=1e-12)
        assert direct.e0_const == pytest.approx(sliced.e0_const, rel=1e-12)
        assert direct.e0_trace == pytest.approx(sliced.e0_trace, rel=1e-12)


def test_budget_guard(basis):
    with pytest.raises(ValueError):
        assemble_interaction(basis,
                             replace(CONSTANT, tensor_budget_bytes=100))


def test_kernel_validation(basis, tmp_path):
    # the checks are config.validate's, raised with its messages
    missing = str(tmp_path / "missing.csv")
    for bad, message in (
            (dict(kernel_kind="constant", kernel_kappa=-1.0),
             "kernel.kappa must be >= 0, got -1.0"),
            (dict(kernel_kind="separable", kernel_profile="nope"),
             "kernel.profile must be one of"),
            (dict(kernel_kind="separable", kernel_amplitude=-2.0),
             "kernel.amplitude must be >= 0, got -2.0"),
            (dict(kernel_kind="grid", kernel_name="nope"),
             "kernel.name must be one of"),
            (dict(kernel_kind="grid", kernel_width=-1.0),
             "kernel.width must be > 0, got -1.0"),
            (dict(kernel_kind="wat"), "kernel.kind must be one of"),
            (dict(kernel_kind="file", kernel_profile_file=missing),
             "kernel.profile_file must name an existing file"),
            (dict(kernel_kind="constant", q=20.0),
             "q must exceed 12*dim = 24")):
        cfg = ExperimentConfig(**bad)
        assert any(message in err for err in validate(cfg)[0])
        with pytest.raises(ValueError, match=re.escape(message)):
            kernel_node_values(cfg, basis.grid)


def test_file_kernel_refuses_what_a_grid_kernel_would(basis):
    grid = basis.grid
    good = listed_node_matrix(GRIDK, grid)
    skew = good.copy()
    skew[0, 1] += 1e-3
    cos = np.cos(grid.theta)
    for matrix, match in ((skew, "symmetric"), (good - 2.0, "nonnegative"),
                          (1.0 - np.outer(cos, cos), "semidefinite")):
        with pytest.raises(ValueError, match=match):
            kernel_node_values(file_kernel(grid, matrix), grid)
    for bad in (np.inf, np.nan):
        broken = good.copy()
        broken[0, 0] = broken[0, 1] = broken[1, 0] = bad
        kernel = file_kernel(grid, broken)
        with pytest.raises(ValueError, match=re.escape(
                f"kernel file {kernel.kernel_profile_file} row 0 has a "
                f"non-finite value ({bad})")):
            kernel_node_values(kernel, grid)
    nodes = grid.theta.copy()
    nodes[3] = np.nan
    kernel = file_kernel(SimpleNamespace(theta=nodes), good)
    with pytest.raises(ValueError, match=r"header row has a non-finite node"):
        kernel_matrix_from_csv(kernel.kernel_profile_file)
    other = build_basis(2, 10, grid_size=46).grid
    with pytest.raises(ValueError, match="nodes do not match"):
        kernel_node_values(file_kernel(other, np.ones((46, 46))), grid)


def test_kernel_file_refusals_name_the_file_and_the_row(tmp_path):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "configs", "sample_kernel.csv")) as fh:
        lines = fh.read().splitlines()

    def broken(name, rows):
        path = str(tmp_path / f"{name}.csv")
        with open(path, "w") as fh:
            fh.write("\n".join(rows) + "\n")
        return path

    def cells(row):
        return lines[row].split(",")

    row2 = cells(3)
    row2[3] = "abc"
    header = cells(0)
    header[1] = "x"
    cases = (
        ("entry", lines[:3] + [",".join(row2)] + lines[4:],
         "row 2 has an unparsable value ('abc')"),
        ("node", [",".join(header)] + lines[1:],
         "header row has an unparsable node ('x')"),
        ("short", lines[:-1], "has 31 value rows for 32 nodes"),
        ("ragged", lines[:6] + [",".join(cells(6)[:-1])] + lines[7:],
         "row 5 has 31 values, expected 32"),
        ("header", lines[:1], "needs a header row and K value rows"),
    )
    for name, rows, tail in cases:
        path = broken(name, rows)
        with pytest.raises(ValueError, match=re.escape(
                f"kernel file {path} {tail}")):
            kernel_matrix_from_csv(path)


def listed_node_matrix(kernel, grid):
    """W(x_i, x_j) written out per kernel kind, independently of (W, v)."""
    if kernel.kernel_kind == "constant":
        return np.full((grid.size, grid.size), float(kernel.kernel_kappa))
    if kernel.kernel_kind == "separable":
        prof = interaction.SEPARABLE_PROFILES[kernel.kernel_profile]
        v = np.maximum(kernel.kernel_amplitude * prof(grid.theta), 0.0)
        return np.outer(v, v)
    if kernel.kernel_kind == "grid":
        fam = interaction.GRID_KERNELS[kernel.kernel_name]
        return fam(grid.theta, grid.theta, kernel.kernel_width)
    return kernel_matrix_from_csv(kernel.kernel_profile_file)


def matrix_kernel(grid):
    """The grid kernel GRIDK handed over as node values in a kernel file."""
    return file_kernel(grid, listed_node_matrix(GRIDK, grid))


@pytest.mark.parametrize("name", ["constant1", "constant2", "separable",
                                  "gauss_bump", "grid", "matrix"])
def test_kernel_node_values_is_one_value(basis, name):
    grid = basis.grid
    kernel = {"constant1": CONSTANT,
              "constant2": replace(CONSTANT, kernel_kappa=2.0),
              "separable": SEPARABLE, "gauss_bump": GAUSS_BUMP,
              "grid": GRIDK, "matrix": matrix_kernel(grid)}[name]
    wmat, v = kernel_node_values(kernel, grid)
    expected = listed_node_matrix(kernel, grid)
    assert wmat.shape == expected.shape
    assert np.array_equal(wmat, expected)  # bitwise
    if kernel.kernel_kind in ("grid", "file"):
        assert v is None
    else:
        assert v.shape == (grid.size,)
        outer = np.outer(v, v)
        assert np.max(np.abs(outer - wmat)) <= 1e-15 * np.max(np.abs(wmat))


# --- energies: three routes agree ------------------------------------------


def test_energy_offsets_at_zero_state(tensors):
    # E(0) = e0_const + e0_trace; at kappa = 1, d = 2, N = 0 this is 1 + 1
    t0 = tensors["constant"].slice(0)
    assert interaction_energy(t0, np.zeros(1, dtype=complex)) \
        == pytest.approx(2.0, abs=1e-12)


@pytest.mark.parametrize("kind", ["constant", "separable", "gauss_bump",
                                  "grid"])
def test_coefficient_and_grid_energies_agree(basis, tensors, kind):
    t = tensors[kind]
    ctx = grid_energy_context(basis, t.wmat)
    coeffs = random_coeffs(basis.n_modes, size=12, seed=3)
    e_coeff = interaction_energy(t, coeffs)
    for i in range(coeffs.shape[0]):
        state = synthesize(basis, coeffs[i])
        e_grid = interaction_energy_grid(ctx, state)
        assert e_grid == pytest.approx(e_coeff[i], rel=1e-10, abs=1e-10)


@pytest.mark.parametrize("kind", ["constant", "separable", "grid"])
def test_wick_literal_route_matches_energy(basis, tensors, kind):
    t = tensors[kind]
    g = random_coeffs(basis.n_modes, size=8, seed=11)
    e_coeff = interaction_energy(t, g / basis.lam)
    for i in range(8):
        lit = wick_energy_literal(t, g[i])
        assert abs(lit.imag) < 1e-9 * max(1.0, abs(lit))
        assert lit.real == pytest.approx(e_coeff[i], rel=1e-11, abs=1e-9)


def test_quartic_form_dense_vs_factor_paths(basis, tensors):
    t = tensors["separable"]
    dense = replace(t, factor=None)  # the node path on the same kernel
    coeffs = random_coeffs(basis.n_modes, size=6, seed=21)
    assert np.allclose(quartic_form(t, coeffs), quartic_form(dense, coeffs),
                       rtol=1e-11)
    assert np.allclose(interaction_energy(t, coeffs),
                       interaction_energy(dense, coeffs), rtol=1e-11)
    assert np.allclose(nonlinearity(t, coeffs), nonlinearity(dense, coeffs),
                       rtol=1e-10, atol=1e-10)


# --- factored fast path vs the dense-A oracle -------------------------------


def dense_oracle(tensor, c):
    """E, F and their term scales straight from the dense A (no factors)."""
    cc = np.conj(c)
    st_ = np.zeros((tensor.n_modes,) * 2) + tensor.s_mat + tensor.t_mat
    a = dense_tensor(tensor)
    quartic = np.einsum("jklm,sj,sk,sl,sm->s", a, cc, c, cc, c,
                        optimize=True).real
    lin = np.einsum("sj,jk,sk->s", cc, st_, c).real
    e0 = tensor.e0_const + tensor.e0_trace
    cubic = np.einsum("mkjl,sj,sk,sl->sm", a, cc, c, c,
                      optimize=True)
    counter = c @ st_
    e_scale = max(1.0, np.abs(quartic).max() + 2 * np.abs(lin).max()
                  + abs(e0))
    f_scale = max(1.0, np.abs(cubic).max() + np.abs(counter).max())
    return quartic - 2.0 * lin + e0, cubic - counter, e_scale, f_scale


def assert_matches_oracle(tensor, c, rel=1e-12):
    energy, cubic, e_scale, f_scale = dense_oracle(tensor, np.atleast_2d(c))
    assert np.max(np.abs(interaction_energy(tensor, c) - energy)) \
        <= rel * e_scale
    assert np.max(np.abs(nonlinearity(tensor, c) - cubic)) <= rel * f_scale


# "matrix" is a node matrix handed over in a kernel file (kind "file")
ORACLE_KINDS = ("constant", "separable", "gauss_bump", "grid", "matrix")


@lru_cache(maxsize=16)
def oracle_tensor(dim, cutoff, kind):
    basis = build_basis(dim, cutoff)
    if kind == "matrix":
        cos = np.cos(basis.grid.theta)
        kernel = file_kernel(basis.grid, 0.5 * (1.0 + np.outer(cos, cos)))
    else:
        kernel = {"constant": CONSTANT, "separable": SEPARABLE,
                  "gauss_bump": GAUSS_BUMP, "grid": GRIDK}[kind]
    return assemble_interaction(basis, kernel)


@settings(max_examples=60, deadline=None)
@given(dim=st.sampled_from([2, 4, 6]), kind=st.sampled_from(ORACLE_KINDS),
       cutoff=st.integers(0, 24), rows=st.integers(1, 9),
       block=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1))
def test_factored_energy_and_cubic_match_dense_oracle(dim, kind, cutoff, rows,
                                                      block, seed):
    t = oracle_tensor(dim, cutoff, kind)
    c = random_coeffs(t.n_modes, size=rows, seed=seed) / t.lam
    with mock.patch.object(interaction, "BLOCK_ROWS", block):
        assert_matches_oracle(t, c)
        assert_matches_oracle(t, c[0])  # a single state, 1-D


@pytest.mark.parametrize("kind", ORACLE_KINDS)
def test_factored_path_at_default_block_size(kind):
    t = oracle_tensor(2, 8, kind)
    rows = interaction.BLOCK_ROWS + 5
    assert_matches_oracle(t, random_coeffs(t.n_modes, size=rows, seed=2)
                          / t.lam)


@pytest.mark.parametrize("kind", ["constant", "separable", "grid"])
def test_slice_and_replace_rebuild_cached_factors(kind):
    t = oracle_tensor(4, 10, kind)
    c = random_coeffs(t.n_modes, size=7, seed=13) / t.lam
    interaction_energy(t, c)  # builds and caches the factors of t
    assert t.factored is t.factored
    low = t.slice(5)
    assert low.factored is not t.factored
    assert_matches_oracle(low, c[:, :low.n_modes])
    # the invariance negative control: counterterms dropped by replace
    bare = replace(t, s_mat=0, t_mat=0)
    assert bare.factored is not t.factored
    assert_matches_oracle(bare, c)
    if t.factor is not None:  # the rank-one energy runs with h = 0
        assert not np.any(bare.factored.eigenbasis[2])
    e_bare = interaction_energy(bare, c)
    assert np.allclose(e_bare, quartic_form(t, c) + t.e0_const + t.e0_trace,
                       rtol=1e-12)


# --- the rank-one energy in the eigenbasis of M -----------------------------


@pytest.mark.parametrize("kind", ["constant", "separable", "gauss_bump"])
@pytest.mark.parametrize("dim", [2, 4])
@pytest.mark.parametrize("cutoff", [8, 24])
def test_rank_one_energy_is_the_pathwise_eigenbasis_identity(kind, dim,
                                                             cutoff):
    # on raw Gaussians g (c = g / lambda), e = |g U|^2 and
    # E = X^2 - 2 Y - tr M^2, X = sum mu (e - 1), Y = sum mu^2 (e - 1)
    t = oracle_tensor(dim, cutoff, kind)
    mu, u, h = t.factored.eigenbasis
    g = random_coeffs(t.n_modes, size=16, seed=cutoff + dim)
    e = np.abs(g @ u) ** 2
    x = (e - 1.0) @ mu
    y = (e - 1.0) @ mu ** 2
    identity = x * x - 2.0 * y - np.sum(mu ** 2)
    energy, _, e_scale, _ = dense_oracle(t, g / t.lam)
    assert np.max(np.abs(identity - energy)) <= 1e-12 * e_scale
    assert np.max(np.abs(interaction_energy(t, g / t.lam) - energy)) \
        <= 1e-12 * e_scale
    assert np.allclose(h, np.sum(mu) * mu + mu ** 2, rtol=1e-12,
                       atol=1e-12 * np.max(np.abs(h)))
    if kind != "constant":  # the harder case: V is not diagonal
        assert np.max(np.abs(t.factor - np.diag(np.diag(t.factor)))) > 1e-3


@pytest.mark.parametrize("kind", ["constant", "separable", "gauss_bump"])
def test_rank_one_energy_is_bitwise_the_same_on_strided_states(kind):
    # prefix views (the studies' layout) go to BLAS as they are; states
    # without a unit last stride are copied first
    t = oracle_tensor(2, 8, kind)
    wide = random_coeffs(2 * t.n_modes, size=40, seed=6)
    for view in (wide[:, :t.n_modes], wide[:, ::2], wide[:t.n_modes].T):
        for route in (interaction_energy, quartic_form):
            assert np.array_equal(route(t, view),
                                  route(t, np.ascontiguousarray(view)))


@pytest.mark.parametrize("kind", ["constant", "separable", "gauss_bump"])
def test_rank_one_energy_refuses_counterterms_off_the_eigenbasis(kind):
    t = oracle_tensor(2, 8, kind)
    c = random_coeffs(t.n_modes, size=3, seed=1) / t.lam
    s = np.asarray(t.s_mat).copy()
    s[0, 1] += 1e-9 * np.max(np.abs(s))  # off-diagonal in G above 1e-12
    s[1, 0] = s[0, 1]
    skewed = replace(t, s_mat=s)
    with pytest.raises(ValueError,
                       match="not diagonal in the eigenbasis of M"):
        interaction_energy(skewed, c)
    with pytest.raises(ValueError,
                       match="not diagonal in the eigenbasis of M"):
        skewed.factored.eigenbasis
    # the cubic term takes S + T as given and needs no eigenbasis
    _, cubic, _, f_scale = dense_oracle(skewed, c)
    assert np.max(np.abs(nonlinearity(skewed, c) - cubic)) <= 1e-12 * f_scale


# --- node-path work buffers ------------------------------------------------


class _AllocatingNodeKernels:
    """The node-path quartic, energy and cubic as they were before the work
    buffers, verbatim: every call allocates its temporaries."""

    def __init__(self, factored):
        # P = c @ [B | S + T] was one matmul then
        self.mat = np.concatenate([factored.synth, factored.counter], axis=1)
        self.rank, self.e0 = factored.synth.shape[1], factored.e0
        self.nodes, self.synth_t = factored.nodes, factored.synth.T

    def _density(self, psi):
        sq = psi.real ** 2 + psi.imag ** 2
        return sq[:, :self.nodes.shape[0]] + sq[:, self.nodes.shape[0]:]

    def quartic(self, c):
        p = c @ self.mat
        q = self._density(p[:, :self.rank])
        return np.vecdot(q, q @ self.nodes)

    def energy(self, c):
        p = c @ self.mat
        lin = np.vecdot(c, p[:, self.rank:]).real
        q = self._density(p[:, :self.rank])
        return np.vecdot(q, q @ self.nodes) - 2.0 * lin + self.e0

    def cubic(self, c):
        p = c @ self.mat
        left, counter = p[:, :self.rank], p[:, self.rank:]
        u = self._density(left) @ self.nodes
        pot = left.reshape(c.shape[0], 2, -1) * u[:, None, :]
        return pot.reshape(c.shape[0], -1) @ self.synth_t - counter


def fresh_node_tensor(kind="grid", dim=4, cutoff=10):
    """A node-path tensor of its own, so no other test has sized its
    buffers."""
    t = oracle_tensor(dim, cutoff, kind)
    return replace(t)


NODE_ROUTES = ((interaction_energy, "energy"), (nonlinearity, "cubic"),
               (quartic_form, "quartic"))


def _blockwise(kernel, c, block):
    rows = np.atleast_2d(c)
    out = np.concatenate([kernel(rows[lo:lo + block])
                          for lo in range(0, rows.shape[0], block)])
    return out[0] if c.ndim == 1 else out


# row counts that grow, shrink and then run in blocks with a short tail
GROWING_ROWS = ((1, 1024), (7, 1024), (256, 1024), (7, 1024), (1500, 256))


@pytest.mark.parametrize("kind, dim, cutoff, schedule", [
    ("grid", 4, 10, GROWING_ROWS), ("matrix", 4, 10, GROWING_ROWS),
    # the studies' regime: 80 nodes, full 1024-row blocks and a short tail
    ("grid", 2, 32, ((7, 1024), (2100, 1024)))],
    ids=["grid", "matrix", "grid_80_nodes"])
def test_node_path_buffers_are_bitwise_the_allocating_kernels(kind, dim,
                                                              cutoff,
                                                              schedule):
    t = fresh_node_tensor(kind, dim, cutoff)
    ref = _AllocatingNodeKernels(t.factored)
    wide = random_coeffs(t.n_modes + 3, size=max(r for r, _ in schedule),
                         seed=17)
    wide[:, :t.n_modes] /= t.lam
    # a prefix view of a wider array is strided, as the studies pass
    for rows, block in schedule:
        c = wide[:rows, :t.n_modes]
        for batch in (c, c[0], np.ascontiguousarray(c)):
            with mock.patch.object(interaction, "BLOCK_ROWS", block):
                for route, name in NODE_ROUTES:
                    want = _blockwise(getattr(ref, name), batch, block)
                    got = route(t, batch)
                    assert got.dtype == want.dtype
                    assert got.shape == want.shape
                    assert got.tobytes() == want.tobytes(), (rows, name)


_work = interaction._work  # the per-thread buffers the kernels share


class _SingleMatmulNodeKernels(_AllocatingNodeKernels):
    """The buffered node-path kernels as they were while psi and the
    counterterm product came from one matmul P = c @ [B | S + T] and the
    cubic multiplied psi by the real u, verbatim."""

    def _node_pass(self, c):
        n, k = c.shape[0], self.nodes.shape[0]
        p = np.matmul(c, self.mat, out=_work("p", (n, self.mat.shape[1]),
                                             complex))
        psi = p[:, :self.rank]
        sq = np.multiply(psi.real, psi.real, out=_work("sq", (n, 2 * k)))
        np.add(sq, np.multiply(psi.imag, psi.imag,
                               out=_work("sq_imag", (n, 2 * k))), out=sq)
        q = np.add(sq[:, :k], sq[:, k:], out=_work("q", (n, k)))
        return p, q, np.matmul(q, self.nodes, out=_work("u", (n, k)))

    def quartic(self, c):
        _, q, u = self._node_pass(c)
        return np.vecdot(q, u)

    def energy(self, c):
        p, q, u = self._node_pass(c)
        lin = np.vecdot(c, p[:, self.rank:]).real
        return np.vecdot(q, u) - 2.0 * lin + self.e0

    def cubic(self, c):
        n = c.shape[0]
        p, _, u = self._node_pass(c)
        pot = np.multiply(p[:, :self.rank].reshape(n, 2, -1), u[:, None, :],
                          out=_work("pot", (n, 2, u.shape[1]), complex))
        out = pot.reshape(n, -1) @ self.synth_t
        out -= p[:, self.rank:]
        return out


@pytest.mark.parametrize("kind", ["grid", "matrix"])
@pytest.mark.parametrize("rows", [256, 1024, 2500])
def test_two_matmul_node_kernels_are_bitwise_the_single_matmul_ones(kind,
                                                                   rows):
    t = fresh_node_tensor(kind, dim=2, cutoff=8)
    ref = _SingleMatmulNodeKernels(t.factored)
    c = random_coeffs(t.n_modes, size=rows, seed=rows) / t.lam
    for route, name in NODE_ROUTES:
        want = _blockwise(getattr(ref, name), c, interaction.BLOCK_ROWS)
        got = route(t, c)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes(), (rows, name)


def test_node_path_results_are_fresh_arrays():
    t = fresh_node_tensor()
    c1 = random_coeffs(t.n_modes, size=64, seed=3) / t.lam
    c2 = random_coeffs(t.n_modes, size=64, seed=4) / t.lam
    first = [route(t, c1) for route, _ in NODE_ROUTES]
    kept = [x.copy() for x in first]
    second = [route(t, c2) for route, _ in NODE_ROUTES]
    for route, _ in NODE_ROUTES:  # a smaller block reuses leading rows
        route(t, c2[:5])
    for a, b, k in zip(first, second, kept):
        assert a.tobytes() == k.tobytes()
        assert not np.shares_memory(a, b)


def test_node_tensors_of_different_widths_share_one_buffer_set():
    # the buffers belong to the thread, not the tensor: calls that switch
    # between node counts, mode counts and row counts reuse and regrow them
    tensors = (fresh_node_tensor("grid", dim=4, cutoff=10),
               fresh_node_tensor("matrix", dim=2, cutoff=16))
    assert tensors[0].factored.nodes.shape != tensors[1].factored.nodes.shape
    assert tensors[0].n_modes != tensors[1].n_modes
    refs = [_AllocatingNodeKernels(t.factored) for t in tensors]
    results = []
    for which, rows in ((0, 300), (1, 7), (0, 5), (1, 1024), (0, 64),
                        (1, 2)):
        t, ref = tensors[which], refs[which]
        c = random_coeffs(t.n_modes, size=rows, seed=rows) / t.lam
        for route, name in NODE_ROUTES:
            got = route(t, c)
            assert got.tobytes() == getattr(ref, name)(c).tobytes()
            results.append((got, got.copy()))
    for i, (got, kept) in enumerate(results):
        assert got.tobytes() == kept.tobytes()
        for other, _ in results[i + 1:]:
            assert not np.shares_memory(got, other)


def test_node_path_is_thread_safe_on_one_tensor():
    t = fresh_node_tensor()
    inputs = [random_coeffs(t.n_modes, size=rows, seed=rows) / t.lam
              for rows in (1, 7, 64, 256, 300)]
    serial = [(interaction_energy(t, c).tobytes(),
               nonlinearity(t, c).tobytes()) for c in inputs]
    mismatches = []

    def hammer(offset):
        for i in range(60):
            k = (offset + i) % len(inputs)
            got = (interaction_energy(t, inputs[k]).tobytes(),
                   nonlinearity(t, inputs[k]).tobytes())
            if got != serial[k]:
                mismatches.append(k)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=hammer, args=(i,))
                   for i in range(6)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(switch)
    assert not any(th.is_alive() for th in threads)
    assert mismatches == []


def test_node_path_warm_calls_allocate_only_their_results():
    t = fresh_node_tensor(dim=2, cutoff=8)  # 32 nodes, as invariance-grid
    c = random_coeffs(t.n_modes, size=256, seed=8) / t.lam
    nonlinearity(t, c)
    interaction_energy(t, c)
    tracemalloc.start()
    try:
        f = nonlinearity(t, c)
        e = interaction_energy(t, c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # allocating kernels peak at about 890 KB here; what is left is the
    # results (39 KB) and numpy's ufunc buffers for strided operands
    assert f.nbytes + e.nbytes < 40_000
    assert peak < 400_000


def _warm_peak(route, t, c):
    """Traced peak bytes of a warm call, and its result."""
    route(t, c)
    tracemalloc.start()
    try:
        out = route(t, c)
        return tracemalloc.get_traced_memory()[1], out
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("rows", [64, 256])
def test_node_path_warm_cubic_term_casts_nothing(rows):
    # psi is scaled by a complex copy of u held in a work buffer.  Casting
    # the real u on every call took numpy scratch as large as psi, and a
    # warm 256-row call peaked at about 264 KB.  Beyond the node pass the
    # quartic form shares (its largest scratch is the iterator buffers of
    # the strided q sum) the cubic term may allocate only its result.
    t = fresh_node_tensor(dim=2, cutoff=8)  # 32 nodes, as invariance-grid
    c = random_coeffs(t.n_modes, size=rows, seed=9) / t.lam
    peak, f = _warm_peak(nonlinearity, t, c)
    shared, _ = _warm_peak(quartic_form, t, c)
    assert peak <= shared + f.nbytes
    assert peak <= 160_000


def test_wick_monomial_is_centered(basis, tensors):
    t = tensors["separable"].slice(4)
    vals = interaction_energy(t, prior_coeffs(
        derive_rng(31, "test.wick.center"), (20000, 5), t.lam))
    se = np.std(vals) / np.sqrt(len(vals))
    assert abs(np.mean(vals)) < 4 * se


# --- nonlinearity -----------------------------------------------------------


@pytest.mark.parametrize("kind", ["constant", "separable", "gauss_bump",
                                  "grid"])
def test_nonlinearity_grid_route_agrees(basis, tensors, kind):
    t = tensors[kind]
    ctx = grid_energy_context(basis, t.wmat)
    coeffs = random_coeffs(basis.n_modes, size=6, seed=5)
    f_coeff = nonlinearity(t, coeffs)
    for i in range(coeffs.shape[0]):
        state = synthesize(basis, coeffs[i])
        f_grid = analyze(basis, nonlinearity_grid(ctx, state))
        assert np.allclose(f_grid, f_coeff[i], rtol=1e-10, atol=1e-10)


@pytest.mark.parametrize("name", ["constant2", "matrix"])
def test_grid_routes_on_matrix_and_scaled_constant_kernels(basis, name):
    kernel = replace(CONSTANT, kernel_kappa=2.0) if name == "constant2" \
        else matrix_kernel(basis.grid)
    t = assemble_interaction(basis, kernel)
    ctx = grid_energy_context(basis, t.wmat)
    coeffs = random_coeffs(basis.n_modes, size=6, seed=11)
    states = [synthesize(basis, ci) for ci in coeffs]
    e_coeff = interaction_energy(t, coeffs)
    e_grid = np.array([interaction_energy_grid(ctx, s) for s in states])
    assert np.max(np.abs(e_grid - e_coeff)) \
        <= 1e-10 * np.max(np.abs(e_coeff))
    f_coeff = nonlinearity(t, coeffs)
    f_grid = np.array([analyze(basis, nonlinearity_grid(ctx, s))
                       for s in states])
    assert np.max(np.abs(f_grid - f_coeff)) \
        <= 1e-10 * np.max(np.abs(f_coeff))


@pytest.mark.parametrize("kind", ["constant", "separable", "grid"])
def test_energy_gradient_is_twice_nonlinearity(tensors, kind):
    t = tensors[kind]
    c = random_coeffs(t.n_modes, seed=9)
    f = nonlinearity(t, c)
    h = 1e-6
    grad = np.zeros(t.n_modes, dtype=complex)
    for m in range(t.n_modes):
        for part, step in ((1.0, h), (1j, h)):
            up = c.copy()
            up[m] += part * step
            dn = c.copy()
            dn[m] -= part * step
            diff = (interaction_energy(t, up)
                    - interaction_energy(t, dn)) / (2 * step)
            grad[m] += part * diff  # d/dx + i d/dy packs the cbar-gradient
    assert np.allclose(grad, 2.0 * 2.0 * f, rtol=1e-5, atol=1e-5)


# --- wick covariance --------------------------------------------------------


def test_wick_covariance_closed_vs_enumerated_exhaustive():
    modes = 3
    grids = np.meshgrid(*([np.arange(modes)] * 8), indexing="ij")
    tuples = np.stack([g.ravel() for g in grids], axis=1)
    idx, idx2 = tuples[:, :4], tuples[:, 4:]
    closed = wick_quartic_cov(idx, idx2)
    enumerated = wick_quartic_cov_enumerated(idx, idx2)
    assert np.array_equal(closed, enumerated)


def test_wick_covariance_diagonal_values():
    # E|:g~_0 g_1 g~_2 g_3:|^2 = 1; repeated bars double it
    idx = np.array([[0, 1, 2, 3]])
    assert wick_quartic_cov(idx, idx)[0] == 1
    idx = np.array([[0, 1, 0, 3]])
    assert wick_quartic_cov(idx, idx)[0] == 2
    idx = np.array([[0, 1, 0, 1]])
    assert wick_quartic_cov(idx, idx)[0] == 4


def test_wick_covariance_montecarlo_spotcheck():
    g = standard_complex(derive_rng(17, "test.wick.mc"), (400000, 3))
    gc = np.conj(g)

    def monomial(j, k, l, m):
        raw = gc[:, j] * g[:, k] * gc[:, l] * g[:, m]
        raw -= (l == m) * gc[:, j] * g[:, k]
        raw -= (j == k) * gc[:, l] * g[:, m]
        raw -= (j == m) * g[:, k] * gc[:, l]
        raw -= (k == l) * gc[:, j] * g[:, m]
        raw += (j == k) * (l == m) + (j == m) * (k == l)
        return raw

    cases = [((0, 1, 2, 0), (0, 1, 2, 0)), ((0, 0, 1, 1), (1, 1, 0, 0)),
             ((0, 1, 1, 2), (1, 0, 2, 1)), ((2, 1, 0, 1), (0, 1, 2, 1))]
    for ia, ib in cases:
        prod = monomial(*ia) * np.conj(monomial(*ib))
        est = np.mean(prod)
        se = np.std(prod) / np.sqrt(len(prod))
        exact = wick_quartic_cov(np.array([ia]), np.array([ib]))[0]
        assert abs(est.real - exact) < 5 * se + 1e-3
        assert abs(est.imag) < 5 * se + 1e-3


# --- chaos tail series ------------------------------------------------------


def brute_tail_series(tensor, m_low):
    j = tensor.n_modes
    il2 = tensor.inv_lam2
    a = dense_tensor(tensor)
    exact = 0.0
    bound = 0.0
    for jj in range(j):
        for kk in range(j):
            for ll in range(j):
                for mm in range(j):
                    if max(jj, kk, ll, mm) <= m_low:
                        continue
                    wgt = il2[jj] * il2[kk] * il2[ll] * il2[mm]
                    base = a[jj, kk, ll, mm]
                    cross = (a[jj, mm, ll, kk] + a[ll, kk, jj, mm]
                             + a[ll, mm, jj, kk])
                    exact += (base * base + base * cross) * wgt
                    bound += 4 * base * base * wgt
    return exact, bound


@pytest.mark.parametrize("kind", ["constant", "separable", "grid"])
def test_chaos_tail_series_vs_bruteforce(tensors, kind):
    t = tensors[kind].slice(4)
    exact, bound = chaos_tail_series(t, 2)
    b_exact, b_bound = brute_tail_series(t, 2)
    assert exact == pytest.approx(b_exact, rel=1e-12)
    assert bound == pytest.approx(b_bound, rel=1e-12)
    assert 0 < exact <= bound + 1e-12


def test_chaos_tail_series_montecarlo(basis, tensors):
    t = tensors["constant"]
    m_low = 4
    exact, bound = chaos_tail_series(t, m_low)
    g = standard_complex(derive_rng(41, "test.chaos.mc"),
                         (60000, basis.n_modes))
    low = t.slice(m_low)
    e_hi = interaction_energy(t, g / t.lam)
    e_lo = interaction_energy(low, g[:, :m_low + 1] / low.lam)
    diff2 = np.abs(e_hi - e_lo) ** 2
    se = np.std(diff2) / np.sqrt(len(diff2))
    assert np.mean(diff2) == pytest.approx(exact, abs=4 * se)


def test_pair_density_shape(basis):
    rho = pair_density(basis)
    assert rho.shape == (basis.n_modes, basis.n_modes, basis.grid.size)
    assert np.allclose(rho, rho.transpose(1, 0, 2))


# --- counterterms and chaos series from the factors vs the dense A ---------


def dense_counterterms(a, lam):
    """S, T, e0_const, e0_trace contracted straight from the dense A."""
    il2 = 1.0 / lam ** 2
    return (np.einsum("jkpp,p->jk", a, il2), np.einsum("jppk,p->jk", a, il2),
            float(np.einsum("jjll,j,l->", a, il2, il2)),
            float(np.einsum("jkkj,j,k->", a, il2, il2)))


def dense_box_series(a, il2):
    """Full-box chaos series and bound: every pairing written out."""
    w4 = np.einsum("j,k,l,m->jklm", il2, il2, il2, il2)
    cross = a.transpose(0, 3, 2, 1) + a.transpose(2, 1, 0, 3) \
        + a.transpose(2, 3, 0, 1)
    sq = float(np.sum(a * a * w4))
    return sq + float(np.sum(a * cross * w4)), 4.0 * sq


@settings(max_examples=60, deadline=None)
@given(dim=st.sampled_from([2, 4, 6]), kind=st.sampled_from(ORACLE_KINDS),
       cutoff=st.integers(0, 24), low=st.integers(0, 24))
def test_factored_counterterms_and_series_match_dense_oracle(dim, kind,
                                                             cutoff, low):
    t = oracle_tensor(dim, cutoff, kind)
    a = dense_tensor(t)
    s, tt, e0c, e0t = dense_counterterms(a, t.lam)
    assert np.max(np.abs(t.s_mat - s)) <= 1e-12 * np.max(np.abs(s))
    assert np.max(np.abs(t.t_mat - tt)) <= 1e-12 * np.max(np.abs(tt))
    assert t.e0_const == pytest.approx(e0c, rel=1e-12)
    assert t.e0_trace == pytest.approx(e0t, rel=1e-12)
    low = min(low, cutoff)
    il2 = t.inv_lam2
    full = dense_box_series(a, il2)
    box = dense_box_series(a[:low + 1, :low + 1, :low + 1, :low + 1],
                           il2[:low + 1])
    exact, bound = chaos_tail_series(t, low)
    assert abs(exact - (full[0] - box[0])) <= 1e-12 * full[0]
    assert abs(bound - (full[1] - box[1])) <= 1e-12 * full[1]


def test_assembly_at_cutoff_64_allocates_no_dense_tensor():
    import tracemalloc
    basis = build_basis(2, 64, grid_size=144)
    tracemalloc.start()
    try:
        t = assemble_interaction(basis, CONSTANT)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 8 * t.n_modes ** 4 > 140e6  # what the dense A would take
    assert peak < 20e6
    assert all(v.ndim <= 2 for v in vars(t).values()
               if isinstance(v, np.ndarray))


@pytest.mark.parametrize("kind", ORACLE_KINDS)
def test_studies_never_build_the_dense_tensor(kind):
    from zdg.gibbs import cauchy_decay_study, nelson_scan
    t = oracle_tensor(2, 16, kind)
    with mock.patch.object(interaction, "dense_tensor",
                           side_effect=AssertionError("dense A built")), \
            mock.patch.object(interaction, "BLOCK_ROWS", 200):
        out = cauchy_decay_study(t, [2, 4, 8], 500, seed=3)
        nelson_scan(t, [4, 8, 16], 500, seed=3)
    for row in out["rows"]:
        assert 0 < row["exact"] <= row["bound"]


def test_budget_caps_the_dense_oracle_not_the_factored_tensor():
    from zdg.gibbs import cauchy_decay_study
    basis = build_basis(2, 20, grid_size=56)
    budget = 8 * 12 ** 4  # the dense A fits up to cutoff 11
    for kernel in (CONSTANT, GRIDK):
        t = assemble_interaction(
            basis, replace(kernel, tensor_budget_bytes=budget))
        out = cauchy_decay_study(t, [5, 10], 400, seed=4)
        assert all(0 < row["exact"] <= row["bound"] for row in out["rows"])
        g = random_coeffs(t.n_modes, seed=5)
        for u in (t, t.slice(15), replace(t, s_mat=0, t_mat=0)):
            with pytest.raises(ValueError,
                               match="largest admissible cutoff is 11"):
                dense_tensor(u)
            with pytest.raises(ValueError,
                               match="largest admissible cutoff is 11"):
                wick_energy_literal(u, g[:u.n_modes])
        assert dense_tensor(t.slice(11)).shape == (12,) * 4


def test_wick_literal_route_stays_within_the_dense_budget():
    # the monomial is contracted one j-slab at a time, so at the largest
    # admissible cutoff the route peaks near A itself, not at six times it
    budget = 8 * 25 ** 4
    t = assemble_interaction(build_basis(2, 24),
                             replace(CONSTANT, tensor_budget_bytes=budget))
    g = random_coeffs(t.n_modes, seed=9)
    tracemalloc.start()
    try:
        lit = wick_energy_literal(t, g)  # builds A inside the trace
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * budget
    assert lit.real == pytest.approx(interaction_energy(t, g / t.lam),
                                     rel=1e-11, abs=1e-9)


def _old_node_dense_tensor(tensor):
    """The node-path dense A before its in-place symmetrization, verbatim."""
    basis = tensor.basis
    j = tensor.n_modes
    b = pair_density(basis)[:j, :j] * basis.grid.weights
    half = np.tensordot(b, tensor.wmat, axes=(2, 0))  # (J, J, K)
    a = np.tensordot(half, b, axes=(2, 2))
    return 0.5 * (a + a.transpose(2, 3, 0, 1))  # exact symmetry to roundoff


def test_node_path_dense_oracle_stays_within_its_budget():
    # the half-contraction is freed and A symmetrized one slab pair at a
    # time; with a + a.transpose alive together it peaked at 2.24 budgets
    budget = 8 * 25 ** 4
    t = assemble_interaction(build_basis(2, 24),
                             replace(GRIDK, tensor_budget_bytes=budget))
    tracemalloc.start()
    try:
        a = dense_tensor(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.3 * budget, f"peak {peak / budget:.2f} budgets"
    assert np.array_equal(a, _old_node_dense_tensor(t))
    assert np.array_equal(a, a.transpose(2, 3, 0, 1))


def test_assembly_refuses_what_it_would_build_over_the_budget():
    basis = build_basis(2, 10, grid_size=44)
    for kernel, need in ((CONSTANT, 8 * 44 ** 2), (GRIDK, 32 * 44 ** 2)):
        assemble_interaction(basis, replace(kernel, tensor_budget_bytes=need))
        with pytest.raises(ValueError, match=f"needs {need} bytes"):
            assemble_interaction(
                basis, replace(kernel, tensor_budget_bytes=need - 1))


def test_counterterm_free_invariance_flow_builds_no_dense_tensor():
    from zdg.dynamics import invariance_test
    t = assemble_interaction(build_basis(2, 6, grid_size=24), GRIDK)
    with mock.patch.object(interaction, "dense_tensor",
                           side_effect=AssertionError("dense A built")):
        res = invariance_test(t, ExperimentConfig(
            seed=2, hs_s=-0.6, flow_integrator="midpoint",
            flow_solver_tol=1e-12, invariance_ensemble_size=64,
            invariance_t_final=0.05, invariance_dt=0.01,
            invariance_alpha=0.01, invariance_kmax=8,
            invariance_burn_steps=20, invariance_beta=0.4,
            invariance_negative_control=True))
    assert res["rows"]


def test_grid_kernel_is_discretized_once():
    # assembly, E, F, a slice and the chaos series all read the tensor's W
    basis = build_basis(2, 8, grid_size=32)
    c = random_coeffs(9, size=4, seed=8)
    with mock.patch.object(interaction, "kernel_node_values",
                           wraps=interaction.kernel_node_values) as spy:
        t = assemble_interaction(basis, GRIDK)
        interaction_energy(t, c)
        nonlinearity(t, c)
        low = t.slice(4)
        interaction_energy(low, c[:, :low.n_modes])
        chaos_tail_series(t, 4)
    assert spy.call_count == 1


@pytest.mark.parametrize("kind", ["separable", "grid"])
def test_batched_wick_literal_is_bitwise_the_per_row_calls(tensors, kind):
    t = tensors[kind]
    g = random_coeffs(t.n_modes, size=5, seed=12)
    rows = [wick_energy_literal(t, gi) for gi in g]
    assert all(isinstance(row, complex) for row in rows)
    with mock.patch.object(interaction, "dense_tensor",
                           wraps=interaction.dense_tensor) as spy:
        batch = wick_energy_literal(t, g)
    assert spy.call_count == 1  # A is built once for the whole batch
    assert batch.shape == (5,)
    assert np.array_equal(batch, np.array(rows))

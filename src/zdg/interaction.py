"""Renormalized Hartree interaction: tensor, counterterms, energies, Wick algebra.

The quartic interaction of a truncated field u = sum c_n e_n with pair
potential w(x, y) is encoded by

    A[j, k, l, m] = intint rho_jk(x) w(x, y) rho_lm(y),
    rho_jk(x) = e_j(x) . e_k(x)  (component dot; real),

assembled by quadrature on the zonal grid.  Renormalization subtracts the
two quadratic Wick contractions (direct and exchange) and adds back the two
fully-contracted constants, giving for coefficients c

    E(c) = sum A c~_j c_k c~_l c_m
           - 2 sum_jk S_jk c~_j c_k - 2 sum_jk T_jk c~_j c_k
           + e0_const + e0_trace,

    S_jk = sum_p A[j, k, p, p] / lambda_p^2      (direct contraction)
    T_jk = sum_p A[j, p, p, k] / lambda_p^2      (exchange contraction)
    e0_const = sum_jl A[j, j, l, l] / (lambda_j lambda_l)^2
    e0_trace = sum_jk A[j, k, k, j] / (lambda_j lambda_k)^2.

The kernel is a config's kernel.* fields, discretized once by
`assemble_interaction(basis, cfg)` as one value (W, v) for every kernel
kind (`kernel_node_values`): W is the (K, K) matrix of w on the
quadrature nodes, kept on the tensor, and v the rank-one node vector with
W = v v^T, or None (grid and file kernels).
Nothing in the studies or samplers touches A.  The counterterms, the
batched E and F, the dense oracle and the chaos series are computed from
factors by one of two classes, chosen once per tensor
(`InteractionTensor.kind`): `RankOneKernel` from the pair factor
V = rho diag(w) v (A = V (x) V) when v exists, and otherwise `NodeKernel`
from the basis values and W on the nodes, since A itself is a quadrature
sum over node pairs (quadrature tensor hypercontraction; Hohenstein,
Parrish & Martinez, J. Chem. Phys. 137, 044103, 2012).  Each class says
how its path computes and what it allocates.

The tensor holds W and, for rank-one kernels, V; the dense A, the oracle
of the factored paths, is built only by an explicit `dense_tensor`, and
refused before it is allocated when its 8 J^4 bytes exceed the tensor's
`budget_bytes`.  The literal Wick route builds it once per batch (on raw
Gaussians g, c = g / lambda, the energy is the integrated fourth Wick
monomial, and `wick_energy_literal` contracts it against A one j-slab at a
time), and so do the tests.  The grid-space routes (`interaction_energy_grid`,
`nonlinearity_grid`) never touch the tensor's factors: they work on W and
renormalize with the covariance tables of `zdg.zonal`.
"""

import csv
import math
import threading
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import auto_grid_size, validate

SEPARABLE_PROFILES = {
    "one_plus_cos": lambda theta: 1.0 + np.cos(theta),
    "gauss_bump": lambda theta: np.exp(-((theta - np.pi / 2) ** 2)
                                       / (2 * 0.4 ** 2)),
}

GRID_KERNELS = {
    "gaussian_angle": lambda ti, tj, width: np.exp(
        -((ti[:, None] - tj[None, :]) ** 2) / (2.0 * width ** 2)),
}


def kernel_node_values(cfg, grid):
    """Discretize a config's kernel (its kernel.* fields) on the grid as one
    value (W, v).

    W is the (K, K) node matrix W(x_i, x_j).  v is the rank-one node vector
    with W = v v^T, or None for grid and file kernels.  By kernel.kind:

    "constant": w = kappa, v = sqrt(kappa).
    "separable": w(x, y) = v(x) v(y) with v = amplitude * profile(theta)
        (profiles are nonnegative, so w >= 0 and rank one).
    "grid": w(x, y) tabulated from a named positive-definite family.
    "file": w(x, y) read from kernel.profile_file, whose nodes must be the
        grid's (`kernel_matrix_from_csv`).

    The config must pass `config.validate`, whose errors are raised as the
    ValueError.  Grid and file kernels are checked to be symmetric (to
    1e-12 of their largest entry), pointwise nonnegative and positive
    semidefinite in the quadrature inner product.
    """
    errors, _ = validate(cfg)
    if errors:
        raise ValueError("invalid configuration: " + "; ".join(errors))
    kind = cfg.kernel_kind
    if kind == "constant":
        kappa = float(cfg.kernel_kappa)
        return (np.full((grid.size, grid.size), kappa),
                np.full(grid.size, math.sqrt(kappa)))
    if kind == "separable":
        prof = SEPARABLE_PROFILES[cfg.kernel_profile]
        v = cfg.kernel_amplitude * prof(grid.theta)
        if np.any(v < -1e-12):
            raise ValueError("separable profile must be nonnegative")
        v = np.maximum(v, 0.0)
        return np.outer(v, v), v
    if kind == "grid":
        fam = GRID_KERNELS[cfg.kernel_name]
        mat = fam(grid.theta, grid.theta, cfg.kernel_width)
    else:
        mat = kernel_matrix_from_csv(cfg.kernel_profile_file,
                                     theta=grid.theta)
    asym = np.max(np.abs(mat - mat.T))
    if asym > 1e-12 * np.max(np.abs(mat)):
        raise ValueError(f"grid kernel must be symmetric: max|W - W^T| is "
                         f"{asym:.3g}, over 1e-12 of max|W|")
    if np.any(mat < 0):
        raise ValueError("grid kernel must be pointwise nonnegative")
    sq = np.sqrt(grid.weights)
    weighted = sq[:, None] * mat * sq[None, :]
    eigmin = np.linalg.eigvalsh(weighted)[0]
    if eigmin < -1e-10 * max(1.0, np.abs(weighted).max()):
        raise ValueError("grid kernel is not positive semidefinite")
    return mat, None


def kernel_matrix_to_csv(path, theta, matrix):
    """Write kernel node values as CSV: header row of theta nodes, K rows."""
    matrix = np.asarray(matrix, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if matrix.shape != (theta.size, theta.size):
        raise ValueError("kernel matrix shape must match the node count")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([repr(float(t)) for t in theta])
        for row in matrix:
            writer.writerow([repr(float(v)) for v in row])


NODE_RTOL = 1e-8  # a kernel file's nodes against the quadrature grid


def kernel_matrix_from_csv(path, theta=None):
    """Read a kernel file (header row of theta nodes, then K rows of K values).

    When theta is given the header nodes must match it to relative
    tolerance NODE_RTOL, so a file tabulated on one quadrature grid cannot be
    applied silently to another; a refusal for another node count names the
    largest cutoff whose automatic grid the file covers.  An unparsable or
    non-finite node or value is refused, and so is a ragged table.
    """
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]
    if len(rows) < 2:
        raise ValueError(f"kernel file {path} needs a header row and K "
                         "value rows")
    nodes = csv_float_row(rows[0], len(rows[0]), "kernel file", path,
                          "header row", "node")
    k = nodes.size
    if len(rows) != k + 1:
        raise ValueError(f"kernel file {path} has {len(rows) - 1} value "
                         f"rows for {k} nodes")
    mat = np.empty((k, k))
    for i, row in enumerate(rows[1:]):
        mat[i] = csv_float_row(row, k, "kernel file", path, f"row {i}",
                               "value")
    if theta is not None:
        theta = np.asarray(theta, dtype=float)
        if theta.size != k or not np.allclose(nodes, theta, rtol=NODE_RTOL,
                                              atol=1e-12):
            if theta.size == k:
                fact = " at other angles"
            else:
                fits = [c for c in range(k) if auto_grid_size(c) <= k]
                fact = ("; the largest cutoff whose automatic grid it covers "
                        f"is {fits[-1]}" if fits else
                        "; it covers no cutoff's automatic grid")
            raise ValueError(
                f"kernel file nodes do not match the quadrature grid: {path} "
                f"tabulates {k} nodes where the grid has {theta.size}{fact}")
    return mat


def csv_float_row(row, width, kind, path, where, what):
    """The entries of one CSV row of a kernel or initial-state file as
    floats; a row not `width` entries wide, an unparsable or a non-finite
    entry is refused, naming the file kind, the path, the row and the entry.
    """
    if len(row) != width:
        raise ValueError(f"{kind} {path} {where} has {len(row)} {what}s, "
                         f"expected {width}")
    values = np.empty(width)
    for n, entry in enumerate(row):
        try:
            values[n] = float(entry)
        except ValueError:
            raise ValueError(f"{kind} {path} {where} has an unparsable "
                             f"{what} ({entry!r})") from None
    bad = values[~np.isfinite(values)]
    if bad.size:
        raise ValueError(f"{kind} {path} {where} has a non-finite {what} "
                         f"({bad[0]})")
    return values


def pair_density(basis):
    """rho[j, k, i] = e_j(theta_i) . e_k(theta_i), shape (J, J, K)."""
    return np.einsum("jia,kia->jki", basis.values, basis.values)


@dataclass(repr=False, eq=False)
class InteractionTensor:
    """Interaction of one cutoff: node kernel, counterterms, factors of A.

    wmat is the (K, K) node matrix W of the kernel, discretized once by
    `assemble_interaction` and shared by every slice.  factor is the
    rank-one pair factor V with A = V (x) V when the kernel is constant or
    separable (None for grid and file kernels, whose factors are the basis
    values and W on the nodes).  The counterterms, the batched E and F
    (`factored`) and the chaos series all come from those factors.  Plain
    data: `dense_tensor` builds A on request, capped by budget_bytes.
    """

    dim: int
    cutoff: int
    s_mat: np.ndarray
    t_mat: np.ndarray
    e0_const: float
    e0_trace: float
    lam: np.ndarray
    wmat: np.ndarray
    basis: object
    factor: np.ndarray
    budget_bytes: int

    @property
    def n_modes(self):
        return self.cutoff + 1

    @property
    def inv_lam2(self):
        return 1.0 / self.lam ** 2

    @property
    def kind(self):
        """The one choice of kernel class: `RankOneKernel` given V."""
        return NodeKernel if self.factor is None else RankOneKernel

    @cached_property
    def factored(self):
        """Factors of the batched E and F; built on first use, per instance,
        so `slice` and `dataclasses.replace` never see stale counterterms."""
        return self.kind(self)

    def slice(self, cutoff):
        """Tensor for a lower cutoff; counterterms recomputed at that cutoff."""
        if cutoff > self.cutoff:
            raise ValueError("can only slice to a smaller cutoff")
        j = cutoff + 1
        return _contracted(self.dim, self.lam[:j].copy(), self.wmat,
                           self.kind.sliced(self.factor, j), self.basis,
                           self.budget_bytes)


def _contracted(dim, lam, wmat, factor, basis, budget_bytes):
    """InteractionTensor with its counterterms contracted from the factors."""
    t = InteractionTensor(dim, lam.size - 1, None, None, None, None, lam,
                          wmat, basis, factor, budget_bytes)
    t.s_mat, t.t_mat, t.e0_const, t.e0_trace = t.kind.counterterms(t)
    return t


def _weighted(factor, il2):
    """M = D^1/2 V D^1/2 for D = diag(il2)."""
    half = np.sqrt(il2)
    return half[:, None] * factor * half


def _node_factors(basis, wmat, j):
    """B, the (J, 2K) values of the first j modes on the nodes (component 0
    on every node, then component 1), and W~ = diag(w) W diag(w)."""
    b = basis.values[:j].transpose(0, 2, 1).reshape(j, -1)
    w = basis.grid.weights
    return b, w[:, None] * wmat * w


def dense_tensor(tensor):
    """The dense A of a tensor from its factors: J^4 memory, oracle only;
    refused before it is allocated when over the tensor's budget_bytes."""
    need = 8 * tensor.n_modes ** 4
    if need > tensor.budget_bytes:
        max_cutoff = int((tensor.budget_bytes / 8) ** 0.25) - 1
        raise ValueError(
            f"dense interaction tensor needs {need} bytes, over the budget "
            f"of {tensor.budget_bytes}; the largest admissible cutoff is "
            f"{max_cutoff}")
    return tensor.kind.dense(tensor)


def assemble_interaction(basis, cfg):
    """Interaction tensor of the basis for a config's kernel: the node
    kernel W, the factors and the counterterms.

    The kernel is discretized here, once (`kernel_node_values`).  Raises
    ValueError when the largest array built here, the (K, K) node kernel
    (tiled to (2K, 2K) by the node-path counterterms; K > J), would exceed
    cfg.tensor_budget_bytes.  The tensor carries that budget to its oracle
    A.
    """
    k = basis.grid.size
    budget_bytes = cfg.tensor_budget_bytes
    wmat, v = kernel_node_values(cfg, basis.grid)
    need = 8 * k * k * (1 if v is not None else 4)
    if need > budget_bytes:
        raise ValueError(
            f"interaction assembly needs {need} bytes, over the budget of "
            f"{budget_bytes}")
    factor = None
    if v is not None:  # one (J, K) row of the pair density at a time
        wv = basis.grid.weights * v
        factor = np.stack([np.einsum("ia,kia->ki", row, basis.values) @ wv
                           for row in basis.values])
    return _contracted(basis.dim, basis.lam.copy(), wmat, factor, basis,
                       budget_bytes)


# ---------------------------------------------------------------------------
# batched energy and cubic term on factors (quadrature tensor hypercontraction)

BLOCK_ROWS = 1024  # rows per pass: bounds the temporaries of large batches


_WORK = threading.local()  # node-path work buffers: one set per thread


def _work(name, shape, dtype=float):
    """This thread's buffer `name` as a C-contiguous leading view."""
    size = math.prod(shape)
    buf = getattr(_WORK, name, None)
    if buf is None or buf.size < size:
        buf = np.empty(size, dtype)
        setattr(_WORK, name, buf)
    return buf[:size].reshape(shape)


class RankOneKernel:
    """E, F, counterterms, dense A and chaos series from a rank-one pair
    factor V, A = V (x) V (constant and separable kernels).

    E and the quartic form run in the eigenbasis of M = D^1/2 V D^1/2 =
    U diag(mu) U^T (`eigenbasis`, built on first use), D = diag(1 /
    lambda^2): with L = diag(lambda) U, w = c L and e = |w|^2,

        quartic = (e . mu)^2,    E = (e . mu)^2 - 2 e . h + e0,

    h the diagonal of G = U^T D^1/2 (S + T) D^1/2 U.  A G that is not
    diagonal is refused.  For the tensor's own counterterms
    h = tau mu + mu^2 (tau = tr M), so on raw Gaussians
    E = X^2 - 2 Y - tr M^2 with X = sum mu (e - 1) and Y = sum mu^2 (e - 1),
    e i.i.d. Exp(1) under the prior.  w is the interleaved float view of c
    times kron(L, I_2), one real matmul at half the flops of a complex
    product, squared in place and contracted with [mu | -2 h] repeated per
    real and imaginary part; both temporaries are allocated per call.  The
    cubic term (c~ V c) V c - (S + T) c comes from one complex matmul
    P = c @ [V | S + T]: in the eigenbasis it would need two J x J products.
    """

    def __init__(self, tensor):
        st = np.zeros((tensor.n_modes,) * 2) + tensor.s_mat + tensor.t_mat
        self.e0 = tensor.e0_const + tensor.e0_trace
        self.rank = tensor.factor.shape[1]
        self.mat = np.concatenate([tensor.factor, st], axis=1).astype(complex)
        self._operands = (tensor.factor, st, tensor.lam)

    @staticmethod
    def counterterms(tensor):
        """S, T, e0_const and e0_trace from V, never from A: with
        D = diag(1 / lambda^2),

            S = V tr(DV),  T = V D V,  e0_const = tr(DV)^2,
            e0_trace = ||M||_F^2,  M = D^1/2 V D^1/2.
        """
        factor, il2 = tensor.factor, tensor.inv_lam2
        trace = float(np.diag(factor) @ il2)
        m = _weighted(factor, il2)
        return (factor * trace, (factor * il2) @ factor, trace * trace,
                float(np.sum(m * m)))

    @staticmethod
    def dense(tensor):
        return np.einsum("jk,lm->jklm", tensor.factor, tensor.factor)

    @staticmethod
    def series(tensor, n):
        """(full series, bound) over the box [0, n)^4 for A = V (x) V.

        With M = D^1/2 V D^1/2 the squared term sums to ||M||_F^4, the shuffle
        that swaps whole pairs to ||M||_F^4 and the two that swap one index
        to tr M^4 = ||M^2||_F^2 each.
        """
        m = _weighted(tensor.factor[:n, :n], tensor.inv_lam2[:n])
        frob2 = float(np.sum(m * m))
        m2 = m @ m
        return 2.0 * frob2 * frob2 + 2.0 * float(np.sum(m2 * m2)), \
            4.0 * frob2 * frob2

    @staticmethod
    def sliced(factor, j):
        return factor[:j, :j].copy()

    @cached_property
    def eigenbasis(self):
        """(mu, U, h) of a rank-one tensor: M = U diag(mu) U^T and h the
        diagonal of G = U^T D^1/2 (S + T) D^1/2 U, refused when G is not
        diagonal to 1e-12 of its largest entry."""
        factor, st, lam = self._operands
        il2 = 1.0 / lam ** 2
        mu, u = np.linalg.eigh(_weighted(factor, il2))
        g = u.T @ _weighted(st, il2) @ u
        h = g.diagonal().copy()
        top = np.max(np.abs(g))
        off = np.max(np.abs(g - np.diag(h)))
        if off > 1e-12 * top:
            raise ValueError(
                f"S + T is not diagonal in the eigenbasis of M: off-diagonal "
                f"{off:.3g} against {top:.3g}; the rank-one energy needs "
                f"counterterms that commute with M")
        return mu, u, h

    @cached_property
    def _lifted(self):
        """kron(L, I_2), L = diag(lambda) U, and [mu | -2 h] repeated per
        real and imaginary part: the operands of the rank-one E."""
        mu, u, h = self.eigenbasis
        lam = self._operands[2]
        return (np.kron(lam[:, None] * u, np.eye(2)),
                np.repeat(np.stack([mu, -2.0 * h], axis=1), 2, axis=0))

    def _squares(self, c):
        """|w|^2 per real and imaginary part, (rows, 2J), for w = c L."""
        if c.strides[-1] != c.itemsize:  # the float view needs unit stride
            c = np.ascontiguousarray(c)
        w = c.view(float) @ self._lifted[0]
        w *= w
        return w

    def quartic(self, c):
        q = self._squares(c) @ self._lifted[1][:, 0]
        return q * q

    def energy(self, c):
        # -2 h is exact, so this is bitwise q^2 - 2 e.h + e0
        q, lin = (self._squares(c) @ self._lifted[1]).T
        return q * q + lin + self.e0

    def cubic(self, c):
        p = c @ self.mat
        left, counter = p[:, :self.rank], p[:, self.rank:]
        q = np.vecdot(c, left).real
        return q[:, None] * left - counter


class NodeKernel:
    """E, F, counterterms, dense A and chaos series from the node factors
    (grid and file kernels, and any tensor without a pair factor V).

    B, the basis values on the nodes as a (J, 2K) matrix, gives
    psi = c B, the state on the grid, and the counterterm product
    c (S + T) is a second matmul.  With q = |psi|^2 per node and
    W~ = diag(w) W diag(w),

        quartic = q . W~ q,    cubic = ((W~ q) psi) B^T,

    because A[j, k, l, m] = sum_xy rho_jk(x) W~(x, y) rho_lm(y).

    E and F write their temporaries into the work buffers of `_work`:
    psi and c (S + T), each from its own matmul; the squares of psi's
    float view, in one pass, whose real slots then take |psi|^2 per spinor
    component; q and u = q W~; and the complex copy of u by which the
    cubic scales psi in place before one matmul by B^T, a view of the one
    copy of B.  There is one set per thread, shared by every tensor, so
    concurrent callers stay correct.  Each buffer grows to the largest
    rows x width a call on the thread has needed (at most BLOCK_ROWS rows)
    and is handed out as a C-contiguous leading view that lives only for
    that call.  A warm call allocates its result and, beside it, only the
    iterator buffers numpy takes to add the two strided spinor halves of
    |psi|^2 into q (about 128 KiB); every result is a fresh array, never a
    view of a buffer.  The arithmetic is op for op that of the allocating
    kernels, so the results are bitwise the same.
    """

    def __init__(self, tensor):
        j = tensor.n_modes
        st = np.zeros((j, j)) + tensor.s_mat + tensor.t_mat
        self.e0 = tensor.e0_const + tensor.e0_trace
        b, self.nodes = _node_factors(tensor.basis, tensor.wmat, j)
        self.synth = b.astype(complex)
        self.counter = st.astype(complex)

    @staticmethod
    def counterterms(tensor):
        """S, T, e0_const and e0_trace from the node factors, never from A:
        with D = diag(1 / lambda^2), B the (J, 2K) node values,
        C = B^T D B the covariance kernel, sigma its diagonal density per
        node and W~ tiled over the spinor components,

            S = B diag(W~ sigma) B^T,  T = B (W~ o C) B^T,
            e0_const = sigma . W~ sigma,  e0_trace = sum W~ o C o C.
        """
        il2 = tensor.inv_lam2
        b, nodes = _node_factors(tensor.basis, tensor.wmat, tensor.n_modes)
        k = nodes.shape[0]
        cov = (b.T * il2) @ b
        sigma = cov.diagonal()[:k] + cov.diagonal()[k:]
        pot = nodes @ sigma
        wcov = np.tile(nodes, (2, 2)) * cov
        return ((b * np.tile(pot, 2)) @ b.T, b @ wcov @ b.T,
                float(sigma @ pot), float(np.sum(wcov * cov)))

    @staticmethod
    def dense(tensor):
        basis = tensor.basis
        j = tensor.n_modes
        b = pair_density(basis)[:j, :j] * basis.grid.weights
        half = np.tensordot(b, tensor.wmat, axes=(2, 0))  # (J, J, K)
        a = np.tensordot(half, b, axes=(2, 2))
        del half
        # exact symmetry A[p,q,r,s] = A[r,s,p,q] to roundoff, in place one slab
        # pair at a time, so the peak stays near the 8 J^4 bytes of A
        for p in range(j):
            for r in range(p, j):
                sym = 0.5 * (a[p, :, r, :] + a[r, :, p, :].T)
                a[p, :, r, :] = sym
                a[r, :, p, :] = sym.T
        return a

    @staticmethod
    def series(tensor, n):
        """(full series, bound) over the box [0, n)^4 from the node factors.

        Of the three index shuffles the pairings add to the squared term, the
        symmetries of rho and W make one the squared term and the other two
        equal: with A scaled by 1 / lambda on every index the series is
        2 sum A^2 + 2 sum A[j, k, l, m] A[j, m, l, k].  Both split over j; the
        slab A[j] = rho_j W~ rho^T takes J^3 K flops in J^2 K memory.
        """
        b, nodes = _node_factors(tensor.basis, tensor.wmat, n)
        b = (b / tensor.lam[:n, None]).reshape(n, 2, -1)
        rho = np.einsum("jax,kax->jkx", b, b)  # pair density, scaled
        q = nodes @ rho.reshape(n * n, -1).T
        sq = cross = 0.0
        for row in rho:
            slab = (row @ q).reshape(n, n, n)
            sq += float(np.sum(slab * slab))
            cross += float(np.sum(slab * slab.T))
        return 2.0 * (sq + cross), 4.0 * sq

    @staticmethod
    def sliced(factor, j):
        return None

    def _node_pass(self, c):
        """(psi, q, u) of one block on the node path, as views of this
        thread's work buffers."""
        n, k = c.shape[0], self.nodes.shape[0]
        psi = np.matmul(c, self.synth, out=_work("psi", (n, 2 * k), complex))
        # psi's float view as (rows, spinor, node, re/im), squared at once
        sq = np.square(psi.view(float).reshape(n, 2, k, 2),
                       out=_work("sq", (n, 2, k, 2)))
        mod = np.add(sq[..., 0], sq[..., 1], out=sq[..., 0])  # |psi|^2
        q = np.add(mod[:, 0], mod[:, 1], out=_work("q", (n, k)))
        return psi, q, np.matmul(q, self.nodes, out=_work("u", (n, k)))

    def _counter(self, c):
        """c (S + T) of one block, in this thread's work buffer."""
        return np.matmul(c, self.counter,
                         out=_work("counter", (c.shape[0], c.shape[1]),
                                   complex))

    def quartic(self, c):
        _, q, u = self._node_pass(c)
        return np.vecdot(q, u)

    def energy(self, c):
        _, q, u = self._node_pass(c)
        lin = np.vecdot(c, self._counter(c)).real
        return np.vecdot(q, u) - 2.0 * lin + self.e0

    def cubic(self, c):
        n = c.shape[0]
        psi, _, u = self._node_pass(c)
        # u psi in place, times a complex copy of u on both components:
        # operands of one shape take numpy's loop without a cast or a
        # buffer
        u_c = _work("u_complex", (n, 2, u.shape[1]), complex)
        u_c[...] = u[:, None, :]
        np.multiply(psi, u_c.reshape(n, -1), out=psi)
        out = psi @ self.synth.T
        out -= self._counter(c)
        return out


def _as_batch(coeffs):
    c = np.asarray(coeffs, dtype=complex)
    single = c.ndim == 1
    return (c[None, :] if single else c), single


def _by_blocks(kernel, coeffs):
    """kernel over row blocks of BLOCK_ROWS, later blocks concatenated to
    the first; a one-block batch returns the kernel's own array."""
    c, single = _as_batch(coeffs)
    out = kernel(c[:BLOCK_ROWS])
    if len(c) > BLOCK_ROWS:
        out = np.concatenate([out] + [kernel(c[lo:lo + BLOCK_ROWS]) for lo in
                                      range(BLOCK_ROWS, len(c), BLOCK_ROWS)])
    return out[0] if single else out


def quartic_form(tensor, coeffs):
    """sum A c~_j c_k c~_l c_m per sample (real)."""
    return _by_blocks(tensor.factored.quartic, coeffs)


def interaction_energy(tensor, coeffs):
    """Renormalized interaction energy E(c); batched over leading axis."""
    return _by_blocks(tensor.factored.energy, coeffs)


def nonlinearity(tensor, coeffs):
    """Renormalized cubic coefficient vector F(c).

    F_m = sum_{jkl} A[m, k, j, l] c~_j c_k c_l - ((S + T) c)_m; the energy
    gradient satisfies d/dc~ E = 2 F exactly.
    """
    return _by_blocks(tensor.factored.cubic, coeffs)


# ---------------------------------------------------------------------------
# grid-space (tensor-free) routes


def grid_energy_context(basis, wmat):
    """Covariance tables and the node matrix W (a tensor's `wmat`) for the
    grid routes."""
    from .zonal import covariance_diag, covariance_kernel
    return {
        "W": wmat,
        "sigma": covariance_diag(basis),
        "sigma_kernel": covariance_kernel(basis),
        "weights": basis.grid.weights,
    }


def interaction_energy_grid(ctx, values):
    """Grid-space renormalized energy of one spinor state (K, 2).

    E = intint (q - sigma) w (q - sigma) - 2 Re intint w psi^+ Sigma psi
        + intint w sum_ab Sigma_ab^2,
    q = |psi|^2 pointwise; Sigma the mode-truncated covariance kernel.
    """
    psi = np.asarray(values)
    q = np.abs(psi[:, 0]) ** 2 + np.abs(psi[:, 1]) ** 2
    centered = q - ctx["sigma"]
    w = ctx["weights"]
    wt = w[:, None] * ctx["W"] * w  # W~ = diag(w) W diag(w)
    sk = ctx["sigma_kernel"]
    cross = np.einsum("ia,ijab,jb->ij", np.conj(psi), sk, psi)
    trace_sq = np.einsum("ijab,ijab->ij", sk, sk)
    return float(centered @ wt @ centered - 2.0 * np.sum(wt * cross).real
                 + np.sum(wt * trace_sq))


def nonlinearity_grid(ctx, values):
    """Grid-space renormalized cubic term, returned as grid values (K, 2).

    F(u)(x) = [int w(x, y)(q - sigma)(y) dy] u(x) - int w(x, y) Sigma(x, y) u(y) dy.
    """
    psi = np.asarray(values)
    q = np.abs(psi[:, 0]) ** 2 + np.abs(psi[:, 1]) ** 2
    ww = ctx["W"] * ctx["weights"]  # W diag(w)
    pot = ww @ (q - ctx["sigma"])
    exch = np.einsum("ij,ijab,jb->ia", ww, ctx["sigma_kernel"], psi)
    return pot[:, None] * psi - exch


# ---------------------------------------------------------------------------
# Wick algebra


def wick_energy_literal(tensor, g):
    """Integrated fourth Wick monomial on raw Gaussians, term by term;
    batched over the leading axis.

    Builds the dense A once per call.  For each row it builds the
    seven-term monomial :g~_j g_k g~_l g_m: one j-slab at a time as a dense
    rank-3 array and contracts it against the slab of
    A / (lambda_j lambda_k lambda_l lambda_m), so beside A the route holds
    a few J^3 arrays.  Oracle route: independent of the counterterm
    contractions.
    """
    g = np.asarray(g, dtype=complex)
    j = g.shape[-1]
    if j != tensor.n_modes:
        raise ValueError("sample length does not match tensor cutoff")
    a = dense_tensor(tensor)
    eye = np.eye(j)
    il = 1.0 / tensor.lam
    il3 = np.einsum("k,l,m->klm", il, il, il)
    vals = []
    for row in np.atleast_2d(g):
        gc = np.conj(row)
        pair = np.outer(gc, row)
        val = 0.0
        for i in range(j):  # the slab of the first index
            mono = np.einsum("k,l,m->klm", gc[i] * row, gc, row)
            mono -= np.einsum("k,lm->klm", pair[i], eye)
            mono -= np.einsum("k,lm->klm", eye[i], pair)
            mono -= np.einsum("m,kl->klm", eye[i], pair.T)
            mono -= np.einsum("kl,m->klm", eye, pair[i])
            mono += np.einsum("k,lm->klm", eye[i], eye)
            mono += np.einsum("m,kl->klm", eye[i], eye)
            scaled = a[i] * il3
            scaled *= il[i]
            mono *= scaled
            val += np.sum(mono)
        vals.append(val)
    return complex(vals[0]) if g.ndim == 1 else np.array(vals)


def wick_quartic_cov(idx, idx2):
    """Closed-form covariance of two fourth Wick monomials.

    E[:g~_j g_k g~_l g_m: conj(:g~_j' g_k' g~_l' g_m':)] =
        (d_jj' d_ll' + d_jl' d_lj') (d_kk' d_mm' + d_km' d_mk').
    idx and idx2 are arrays (..., 4) of integer mode indices.
    """
    j, k, l, m = (np.asarray(idx)[..., i] for i in range(4))
    j2, k2, l2, m2 = (np.asarray(idx2)[..., i] for i in range(4))
    bar = (((j == j2) & (l == l2)).astype(np.int64)
           + ((j == l2) & (l == j2)).astype(np.int64))
    unbar = (((k == k2) & (m == m2)).astype(np.int64)
             + ((k == m2) & (m == k2)).astype(np.int64))
    return bar * unbar


_SEVEN_TERMS = (
    # (sign, bar slots, unbar slots, delta pairs) over slots (j, k, l, m)
    (+1, (0, 2), (1, 3), ()),
    (-1, (0,), (1,), ((2, 3),)),
    (-1, (2,), (3,), ((0, 1),)),
    (-1, (2,), (1,), ((0, 3),)),
    (-1, (0,), (3,), ((1, 2),)),
    (+1, (), (), ((0, 1), (2, 3))),
    (+1, (), (), ((0, 3), (1, 2))),
)


def _sorted_multiset_moment(bars, unbars):
    """E[prod g~_(bars) prod g_(unbars)] for standard complex Gaussians.

    Zero unless the two index multisets agree; then the product of the
    multiplicity factorials.  bars/unbars are integer arrays (n, L).
    """
    n = bars.shape[0]
    if bars.shape[1] != unbars.shape[1]:
        return np.zeros(n, dtype=np.int64)
    if bars.shape[1] == 0:
        return np.ones(n, dtype=np.int64)
    a = np.sort(bars, axis=1)
    b = np.sort(unbars, axis=1)
    match = np.all(a == b, axis=1)
    perm = np.ones(n, dtype=np.int64)
    for i in range(1, a.shape[1]):
        # r_i = count of positions <= i holding the same value; the product
        # of the r_i over a sorted row is the multiplicity factorial product
        r = np.zeros(n, dtype=np.int64)
        for back in range(i + 1):
            r += (a[:, back] == a[:, i]).astype(np.int64)
        perm *= r
    return match.astype(np.int64) * perm


def wick_quartic_cov_enumerated(idx, idx2):
    """Same covariance by brute-force Isserlis enumeration.

    Expands both seven-term Wick monomials, multiplies term pairs, and
    evaluates each raw Gaussian moment by the multiset multiplicity rule.
    Vectorized over rows of idx/idx2 (shape (n, 4) each).
    """
    idx = np.atleast_2d(np.asarray(idx, dtype=np.int64))
    idx2 = np.atleast_2d(np.asarray(idx2, dtype=np.int64))
    n = idx.shape[0]
    total = np.zeros(n, dtype=np.int64)
    for s1, bars1, unbars1, deltas1 in _SEVEN_TERMS:
        mask1 = np.ones(n, dtype=bool)
        for p, q in deltas1:
            mask1 &= idx[:, p] == idx[:, q]
        for s2, bars2, unbars2, deltas2 in _SEVEN_TERMS:
            mask2 = np.ones(n, dtype=bool)
            for p, q in deltas2:
                mask2 &= idx2[:, p] == idx2[:, q]
            # conjugating the second monomial swaps its bars and unbars
            bars = np.concatenate(
                [idx[:, list(bars1)], idx2[:, list(unbars2)]], axis=1)
            unbars = np.concatenate(
                [idx[:, list(unbars1)], idx2[:, list(bars2)]], axis=1)
            moment = _sorted_multiset_moment(bars, unbars)
            total += s1 * s2 * moment * (mask1 & mask2)
    return total


# ---------------------------------------------------------------------------
# chaos tail series


def chaos_tail_series(tensor, low_cutoff):
    """Exact E |G_N - G_M|^2 and its permutation bound, M = low_cutoff.

    The tail sum runs over index boxes [0, N]^4 minus [0, M]^4; evaluated as
    the difference of the two full-box sums.  Returns (exact, bound) with
    bound = 4 * sum |A|^2 / lambda-weights over the same set.  Rank-one
    kernels sum from the factor in O(J^3); grid and file kernels from the
    node factors, one slab of A at a time (`NodeKernel.series`).
    """
    n_hi = tensor.n_modes
    n_lo = low_cutoff + 1
    if n_lo > n_hi:
        raise ValueError("low cutoff exceeds tensor cutoff")
    full = tensor.kind.series(tensor, n_hi)
    low = tensor.kind.series(tensor, n_lo)
    return full[0] - low[0], full[1] - low[1]

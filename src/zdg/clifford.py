"""Clifford generator families in exact Gaussian-integer arithmetic.

The d generators are built by the standard block recursion and stored as
pairs of integer matrices (real and imaginary parts), so every product,
anticommutator and hermiticity check below is exact integer arithmetic.
Entries are always 0, +-1 or +-i; sizes are 2**floor(d/2), at most 64 x 64
for d <= 12.
"""

from dataclasses import dataclass

import numpy as np

MAX_DIM = 12


@dataclass
class GaussianIntMatrix:
    """Square matrix over Z[i], stored as int64 real/imag parts."""

    re: np.ndarray
    im: np.ndarray

    @property
    def n(self):
        return self.re.shape[0]

    def matmul(self, other):
        return GaussianIntMatrix(
            re=self.re @ other.re - self.im @ other.im,
            im=self.re @ other.im + self.im @ other.re,
        )

    def add(self, other):
        return GaussianIntMatrix(self.re + other.re, self.im + other.im)

    def conj_transpose(self):
        return GaussianIntMatrix(self.re.T.copy(), -self.im.T.copy())

    def times_i(self):
        return GaussianIntMatrix(-self.im.copy(), self.re.copy())

    def neg(self):
        return GaussianIntMatrix(-self.re, -self.im)

    def equals(self, other):
        return (np.array_equal(self.re, other.re)
                and np.array_equal(self.im, other.im))


def _gi_eye(n):
    return GaussianIntMatrix(np.eye(n, dtype=np.int64),
                             np.zeros((n, n), dtype=np.int64))


def _gi_zero(n):
    z = np.zeros((n, n), dtype=np.int64)
    return GaussianIntMatrix(z, z.copy())


def _block(tl, tr, bl, br):
    return GaussianIntMatrix(
        re=np.block([[tl.re, tr.re], [bl.re, br.re]]),
        im=np.block([[tl.im, tr.im], [bl.im, br.im]]),
    )


@dataclass
class GammaFamily:
    """The d anticommuting hermitian generators for one dimension."""

    dim: int
    gammas: list  # GaussianIntMatrix, index j-1 holds the j-th generator

    @property
    def size(self):
        return self.gammas[0].n


def build_gamma_family(dim):
    """Build the generators by block recursion.

    Base: dim 1 is the 1 x 1 matrix (1).  Even step d: the d-1 inherited
    generators G are placed off-diagonally as [[0, iG], [-iG, 0]] and the
    d-th generator is [[0, I], [I, 0]] (size doubles).  Odd step d: the d-1
    generators are kept as they are and the d-th is diag(I, -I) (size
    unchanged).
    """
    if not 1 <= dim <= MAX_DIM:
        raise ValueError(f"dim must be in [1, {MAX_DIM}], got {dim}")
    gammas = [_gi_eye(1)]
    for d in range(2, dim + 1):
        if d % 2 == 0:
            half = gammas[0].n
            new = []
            for g in gammas:
                ig = g.times_i()
                new.append(_block(_gi_zero(half), ig, ig.neg(), _gi_zero(half)))
            eye = _gi_eye(half)
            new.append(_block(_gi_zero(half), eye, eye, _gi_zero(half)))
            gammas = new
        else:
            half = gammas[0].n // 2
            eye = _gi_eye(half)
            gammas = gammas + [_block(eye, _gi_zero(half),
                                      _gi_zero(half), eye.neg())]
    return GammaFamily(dim=dim, gammas=gammas)


def anticommutator_check(family):
    """Verify {G_i, G_j} = 2 delta_ij I, hermiticity, entry range and size.

    All checks are exact (integer equality).  Returns a dict of booleans so
    callers can report granular failures.
    """
    gs = family.gammas
    n = family.size
    eye2 = GaussianIntMatrix(2 * np.eye(n, dtype=np.int64),
                             np.zeros((n, n), dtype=np.int64))
    zero = _gi_zero(n)
    algebra_ok = True
    for i, gi in enumerate(gs):
        for j, gj in enumerate(gs[i:], start=i):
            anti = gi.matmul(gj).add(gj.matmul(gi))
            want = eye2 if i == j else zero
            if not anti.equals(want):
                algebra_ok = False
    hermitian_ok = all(g.equals(g.conj_transpose()) for g in gs)
    entries_ok = all(np.all(np.abs(g.re) + np.abs(g.im) <= 1) for g in gs)
    size_ok = n == 2 ** (family.dim // 2)
    return {
        "algebra": algebra_ok,
        "hermitian": hermitian_ok,
        "entries": entries_ok,
        "size": size_ok,
        "count": len(gs) == family.dim,
    }

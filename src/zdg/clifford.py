"""Clifford generator families, checked exactly with complex matrices.

The d generators are built by the standard block recursion as complex128
arrays.  Entries are always 0, +-1 or +-i and sizes are 2**floor(d/2), at
most 64 x 64 for d <= 12, so every entry of a product or anticommutator is
a Gaussian integer of modulus at most 128.  complex128 holds those exactly
in any summation order, and every check below is exact equality.
"""

from dataclasses import dataclass

import numpy as np

MAX_DIM = 12


@dataclass
class GammaFamily:
    """The d anticommuting hermitian generators for one dimension."""

    dim: int
    gammas: list  # complex (n, n) arrays; index j-1 holds the j-th generator

    @property
    def size(self):
        return self.gammas[0].shape[0]


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
    gammas = [np.eye(1, dtype=complex)]
    for d in range(2, dim + 1):
        half = gammas[0].shape[0] // (1 if d % 2 == 0 else 2)
        zero = np.zeros((half, half), dtype=complex)
        eye = np.eye(half, dtype=complex)
        if d % 2 == 0:
            gammas = [np.block([[zero, 1j * g], [-1j * g, zero]])
                      for g in gammas]
            gammas.append(np.block([[zero, eye], [eye, zero]]))
        else:
            gammas.append(np.block([[eye, zero], [zero, -eye]]))
    return GammaFamily(dim=dim, gammas=gammas)


def anticommutator_check(family):
    """Verify {G_i, G_j} = 2 delta_ij I, hermiticity, entry range and size.

    All checks are exact (equality of Gaussian integers).  Returns a dict of
    booleans so callers can report granular failures.
    """
    gs = family.gammas
    n = family.size
    algebra_ok = True
    for i, gi in enumerate(gs):
        for j, gj in enumerate(gs[i:], start=i):
            want = 2 * np.eye(n) if i == j else np.zeros((n, n))
            if not np.array_equal(gi @ gj + gj @ gi, want):
                algebra_ok = False
    hermitian_ok = all(np.array_equal(g, g.conj().T) for g in gs)
    entries_ok = all(np.all(np.abs(g.real) + np.abs(g.imag) <= 1)
                     for g in gs)
    size_ok = n == 2 ** (family.dim // 2)
    return {
        "algebra": algebra_ok,
        "hermitian": hermitian_ok,
        "entries": entries_ok,
        "size": size_ok,
        "count": len(gs) == family.dim,
    }

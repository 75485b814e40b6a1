import time

import numpy as np
import pytest

from zdg.clifford import GammaFamily, build_gamma_family, anticommutator_check


@pytest.mark.parametrize("dim", range(1, 13))
def test_family_relations_exact(dim):
    fam = build_gamma_family(dim)
    checks = anticommutator_check(fam)
    assert all(checks.values()), checks


def test_sizes():
    for dim in range(1, 13):
        fam = build_gamma_family(dim)
        assert fam.size == 2 ** (dim // 2)
        assert len(fam.gammas) == dim


def test_low_dim_explicit_forms():
    fam2 = build_gamma_family(2)
    g1, g2 = fam2.gammas
    assert np.array_equal(g1, np.array([[0, 1j], [-1j, 0]]))
    assert np.array_equal(g2, np.array([[0, 1], [1, 0]]))
    fam3 = build_gamma_family(3)
    g3 = fam3.gammas[2]
    assert np.array_equal(g3, np.diag([1.0 + 0j, -1.0]))
    # the first two generators are inherited unchanged
    for a, b in zip(fam2.gammas, fam3.gammas[:2]):
        assert np.array_equal(a, b)


def test_entries_stay_gaussian_units():
    for dim in (4, 7, 12):
        fam = build_gamma_family(dim)
        for g in fam.gammas:
            # each entry is 0, +-1 or +-i: |re| + |im| <= 1
            assert np.all(np.abs(g.real) + np.abs(g.imag) <= 1)


def test_dim_bounds_rejected():
    with pytest.raises(ValueError):
        build_gamma_family(0)
    with pytest.raises(ValueError):
        build_gamma_family(13)


def test_full_sweep_under_one_second():
    t0 = time.perf_counter()
    for dim in range(1, 13):
        fam = build_gamma_family(dim)
        assert all(anticommutator_check(fam).values())
    assert time.perf_counter() - t0 < 1.0


def test_broken_family_detected():
    fam = build_gamma_family(4)
    bad = GammaFamily(dim=4, gammas=list(fam.gammas))
    g0 = bad.gammas[0]
    g0[0, 1] += 1
    checks = anticommutator_check(bad)
    assert not checks["algebra"]

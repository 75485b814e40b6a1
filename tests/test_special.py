"""The numpy/stdlib special functions against scipy.special, bit for bit."""

import numpy as np
import pytest
from scipy.special import logsumexp as scipy_logsumexp
from scipy.special import ndtri as scipy_ndtri

from zdg.special import logsumexp, ndtri

EXP_M2 = 0.13533528323661269189  # ndtri's central/tail branch point
EXP_M32 = np.exp(-32.0)  # where the tail switches coefficient sets


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.int64),
                                                 b.view(np.int64))


def _around(x):
    return [np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)]


@pytest.mark.parametrize("points", [
    np.random.default_rng(1).random(100_000),
    (np.arange(40_000) + 0.625) / 40_000.25,  # Blom scores of 40k ranks
    np.logspace(-300, -1, 5_000),
    1.0 - 10.0 ** -np.arange(1, 17, dtype=float),
    np.array([0.0, 1.0, 0.5, 5e-324, np.nextafter(1.0, 0.0)]),
    np.array(_around(EXP_M2) + _around(1.0 - EXP_M2) + _around(EXP_M32)
             + _around(1.0 - EXP_M32)),
], ids=["uniform", "blom", "tail", "one_minus", "ends", "branch_edges"])
def test_ndtri_is_bitwise_scipy(points):
    assert _same_bits(ndtri(points), scipy_ndtri(points))


def test_ndtri_outside_the_unit_interval_is_nan():
    assert np.isnan(ndtri(np.array([-0.5, 1.5, np.nan]))).all()
    assert ndtri(0.0) == -np.inf and ndtri(1.0) == np.inf


def _logsumexp_cases():
    rng = np.random.default_rng(7)
    for n in (1, 2, 5, 100, 20_000, 100_003):
        lw = rng.normal(scale=rng.uniform(0.1, 60.0), size=n)
        yield lw
        yield 2 * lw
        yield -3.5 * lw
        tied = lw.copy()
        tied[rng.integers(0, n, 3)] = lw.max()
        yield tied
        holes = lw.copy()
        holes[: n // 2] = -np.inf
        yield holes
        yield np.round(lw)
    yield np.zeros(100)
    yield np.array([800.0, 799.0, -np.inf])
    yield np.array([-np.inf, 0.0, -np.inf])
    yield np.full(4, -np.inf)
    yield np.array([np.inf, 1.0])
    yield np.array([np.nan, 1.0])


def test_logsumexp_is_bitwise_scipy():
    for i, a in enumerate(_logsumexp_cases()):
        got = logsumexp(a)
        assert isinstance(got, float)
        assert _same_bits(np.float64(got), np.float64(scipy_logsumexp(a))), i

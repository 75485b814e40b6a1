"""The special functions zdg needs, in numpy and the standard library.

`ndtri` (the inverse normal CDF) and `logsumexp` replace scipy.special's,
so that no run imports scipy: on a 2-vCPU Xeon that import cost each
process about 0.2 s of start-up and 13-26 MB of peak RSS.  Both follow
scipy 1.17 operation for operation, so their values are bitwise scipy's:

- `ndtri` is Cephes' rational approximation (three coefficient sets split
  at exp(-2) and exp(-32)).  The arithmetic is numpy's, which rounds each
  IEEE operation as C does; the logs go through `math.log`, the C
  library's log that Cephes calls, because numpy's vectorized log may
  differ from it in the last bit.
- `logsumexp` is scipy's real one-dimensional path: the maximal entries
  (all of them, when tied) are taken out of the sum, and the result is
  log1p(sum exp(a - max) / m) + log(m) + max for m tied maxima, with
  scipy's fallback log(sum exp(a)) where that is not finite.
"""

import math

import numpy as np

_S2PI = 2.50662827463100050242e0  # sqrt(2 pi)
_EXP_M2 = 0.13533528323661269189  # exp(-2): the central/tail branch point

# central interval |p - 1/2| <= 1/2 - exp(-2)
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1,
       -5.66762857469070293439e1, 1.39312609387279679503e1,
       -1.23916583867381258016e0)
_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0,
       8.63602421390890590575e1, -2.25462687854119370527e2,
       2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
# tails with x = sqrt(-2 log p) in [2, 8): p down to exp(-32)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1,
       5.71628192246421288162e1, 4.40805073893200834700e1,
       1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2,
       -8.57456785154685413611e-4)
_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1,
       4.13172038254672030440e1, 1.50425385692907503408e1,
       2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
# far tails, x >= 8
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0,
       3.93881025292474443415e0, 1.33303460815807542389e0,
       2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6,
       6.23974539184983293730e-9)
_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0,
       1.37702099489081330271e0, 2.16236993594496635890e-1,
       1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)

_log = np.vectorize(math.log, otypes=[float])


def _polevl(x, coef):
    """Horner sum coef[0] x^n + ... + coef[n]."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x, coef):
    """_polevl with an implied leading coefficient 1."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def ndtri(p):
    """Inverse of the standard normal CDF, elementwise; -inf at 0, inf at
    1 and nan outside [0, 1]."""
    p = np.asarray(p, dtype=float)
    out = np.full(p.shape, np.nan)
    upper = p > 1.0 - _EXP_M2
    y = np.where(upper, 1.0 - p, p)
    mid = (y > _EXP_M2) & (p <= 1.0)
    ym = y[mid] - 0.5
    y2 = ym * ym
    out[mid] = (ym + ym * (y2 * _polevl(y2, _P0) / _p1evl(y2, _Q0))) * _S2PI
    tail = (y <= _EXP_M2) & (p > 0.0) & (p < 1.0)
    x = np.sqrt(-2.0 * _log(y[tail]))
    x0 = x - _log(x) / x
    z = 1.0 / x
    x1 = np.where(x < 8.0, z * _polevl(z, _P1) / _p1evl(z, _Q1),
                  z * _polevl(z, _P2) / _p1evl(z, _Q2))
    xt = x0 - x1
    out[tail] = np.where(upper[tail], xt, -xt)
    out[p == 0.0] = -np.inf
    out[p == 1.0] = np.inf
    return out


def logsumexp(a):
    """log(sum(exp(a))) of a real 1-D array, as a float."""
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        return -math.inf
    a_max = a.max()
    at_max = a == a_max
    m = float(np.count_nonzero(at_max))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s = np.exp(np.where(at_max, -np.inf, a) - a_max).sum()
        if s != 0:
            s = s / m
        out = np.log1p(s) + np.log(m) + a_max
        if not np.isfinite(out):
            out = np.log(np.exp(a).sum())
    return float(out)


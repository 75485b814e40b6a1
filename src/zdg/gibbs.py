"""Samplers for the truncated Gibbs measure and the measure-level studies.

The target density is exp(-E(c)) relative to the free Gaussian measure on
coefficients.  Two samplers are provided: self-normalized importance
reweighting of prior draws, and preconditioned Crank-Nicolson chains whose
proposal c' = sqrt(1 - beta^2) c + beta xi (xi a fresh prior draw) preserves
the prior, leaving the simple acceptance ratio exp(E(c) - E(c')).
importance_ensemble returns (coeffs, log_weights), pcn_chain a Chain, and
pcn_parallel the Members of independent chains; the chains of each advance
together, one vectorized sweep over the rows at a time.  The studies stream
their common prior draws in BLOCK_ROWS chunks and hold what they report:
Nelson one block, Cauchy one column per M, the weight-norm study one column
per cutoff.  The module needs numpy and the standard library only, so no
run imports scipy: the normal scores come from statistics.NormalDist.
"""

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import interaction
from . import rng as rng_mod
from .interaction import chaos_tail_series, interaction_energy
from .zonal import loglog_slope

log = logging.getLogger(__name__)

# pcn_chain runs max(1, min(MAX_CHAINS, n_samples // MIN_CHAIN_DRAWS))
# chains.  A sweep over 64 rows costs about three one-row sweeps and every
# chain runs the whole warm-up and pilot, so more chains save little; at
# least MIN_CHAIN_DRAWS draws keep each chain long enough for its own
# autocorrelation time and split-R-hat.
MAX_CHAINS = 64
MIN_CHAIN_DRAWS = 256

# pcn_chain's schedule: at most MAX_ADAPT_BLOCKS warm-up blocks of
# ADAPT_BLOCK sweeps from beta = ADAPT_START, until the block acceptance
# lies in ACCEPT_WINDOW; a pilot of PILOT_SWEEPS sweeps for the thinning;
# BURN_FRAC of each chain's collected span burned
ADAPT_START = 0.5
ADAPT_BLOCK = 100
MAX_ADAPT_BLOCKS = 40
ACCEPT_WINDOW = (0.3, 0.5)
PILOT_SWEEPS = 500
BURN_FRAC = 0.1

SOKAL_WINDOW = 6.0  # integrated_autocorr stops once the lag k >= this * tau
# _normal_scores maps the inverse normal CDF over this many ranks at a time:
# its temporaries are then a fixed size, whatever the series
SCORE_CHUNK = 4096


@dataclass
class Chain:
    """pcn_chain's samples, one per row, with their energies as the sweeps
    accepted them; warmup holds the (beta, acceptance rate) pair of each
    warm-up block."""

    coeffs: np.ndarray
    energies: np.ndarray
    acc_rate: float
    beta: float
    thin: int
    burn: int
    iact: float
    n_chains: int
    rhat: float
    ess_bulk: float
    warmup: tuple


@dataclass
class Members:
    """pcn_parallel's final states, one independent chain per row, and the
    acceptance rate of their burn-in."""

    coeffs: np.ndarray
    acc_rate: float


def logsumexp(a):
    """log(sum(exp(a))) of a real 1-D array, as a float, bitwise scipy's:
    log1p(sum exp(a - max) / m) + log(m) + max over the entries below the m
    tied maxima, with scipy's fallback log(sum exp(a)) where not finite."""
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


def effective_sample_size(log_weights):
    """(sum w)^2 / sum w^2 computed stably in log space."""
    lw = np.asarray(log_weights, dtype=float)
    return float(np.exp(2 * logsumexp(lw) - logsumexp(2 * lw)))


def importance_ensemble(tensor, n_samples, seed):
    """(coeffs, log_weights): prior draws, one per row, with log weights
    -E(c)."""
    gen = rng_mod.derive_rng(seed, "gibbs.importance")
    coeffs, energies = _prior_states(tensor, gen, n_samples)
    return coeffs, -energies


def weighted_mean(values, log_weights):
    """Self-normalized importance estimate with delta-method standard error."""
    x = np.asarray(values, dtype=float)
    lw = np.asarray(log_weights, dtype=float)
    w = np.exp(lw - lw.max())
    wn = w / w.sum()
    mean = float(np.sum(wn * x))
    se = float(np.sqrt(np.sum(wn ** 2 * (x - mean) ** 2)))
    return mean, se


def integrated_autocorr(series):
    """Integrated autocorrelation time tau >= 1 (Sokal adaptive window).

    Convention tau = 1 + 2 sum_k rho_k, so the effective sample count of n
    correlated draws is n / tau.
    """
    x = np.asarray(series, dtype=float)
    n = x.size
    if n < 8:
        return 1.0
    x = x - x.mean()
    var = np.mean(x * x)
    if var == 0:
        return 1.0
    spec = np.fft.rfft(x, n=2 * n)
    np.abs(spec, out=spec.real)
    spec.imag = 0.0
    spec.real **= 2
    acf = np.fft.irfft(spec)[:n]
    del spec
    acf /= n * var
    tau = 1.0
    for k in range(1, n):
        tau += 2.0 * acf[k]
        if k >= SOKAL_WINDOW * tau:
            break
    return max(tau, 1.0)


def _pcn_sweep(tensor, states, energies, beta, gen):
    """One vectorized pCN step over all rows of states (in place).

    Bitwise c' = sqrt(1 - beta^2) c + beta (xi / lam): the same operations
    in the same order, written into the draw and the proposal.
    """
    n, j = states.shape
    xi = rng_mod.prior_coeffs(gen, (n, j), tensor.lam)
    xi *= beta
    proposal = np.sqrt(1.0 - beta ** 2) * states
    proposal += xi
    e_new = interaction_energy(tensor, proposal)
    accept = np.log(gen.random(n)) < energies - e_new
    np.copyto(states, proposal, where=accept[:, None])
    np.copyto(energies, e_new, where=accept)
    return accept


def _advance(tensor, states, energies, beta, gen, sweeps):
    """sweeps pCN steps over all rows (in place); returns the accept count."""
    accepted = 0
    for _ in range(sweeps):
        accepted += int(_pcn_sweep(tensor, states, energies, beta, gen).sum())
    return accepted


def _prior_states(tensor, gen, n_rows):
    """n_rows independent prior draws and their energies."""
    states = rng_mod.prior_coeffs(gen, (n_rows, tensor.n_modes), tensor.lam)
    return states, interaction_energy(tensor, states)


def _adapt_beta(tensor, states, energies, gen):
    """Warm-up: scale beta from ADAPT_START, one block of ADAPT_BLOCK sweeps
    at a time, until the block acceptance rate is in ACCEPT_WINDOW = [lo,
    hi] or MAX_ADAPT_BLOCKS blocks have run.

    Returns the tuned beta and the (beta, rate) pair of every block run, in
    order.  The rate pools every row: accepted / (block * rows).  The
    warm-up also ends once beta is pinned at its bound, 1.0 or 1e-3.
    """
    lo, hi = ACCEPT_WINDOW
    beta = ADAPT_START
    blocks = []
    rate = float("nan")
    for _ in range(MAX_ADAPT_BLOCKS):
        accepted = _advance(tensor, states, energies, beta, gen, ADAPT_BLOCK)
        rate = accepted / (ADAPT_BLOCK * states.shape[0])
        blocks.append((beta, rate))
        if lo <= rate <= hi:
            return beta, blocks
        scaled = max(beta * 0.7, 1e-3) if rate < lo else min(beta * 1.3, 1.0)
        if scaled == beta:
            log.warning("pCN warm-up stopped with beta pinned at %.4g "
                        "(last rate %.3f)", beta, rate)
            return beta, blocks
        beta = scaled
    log.warning("pCN warm-up did not settle in the target window; "
                "continuing with beta=%.4g (last rate %.3f)", beta, rate)
    return beta, blocks


def rank_diagnostics(series):
    """(rhat, ess_bulk): the rank-normalized split-R-hat and the bulk
    effective sample size of a (chains, draws) series, from one rank
    normalization.

    Vehtari, Gelman, Simpson, Carpenter & Buerkner, Bayesian Analysis 2021:
    each chain is split into halves (the middle draw of an odd length is
    dropped), and all draws are replaced by the normal scores of their
    pooled ranks.

    rhat is the larger of the R-hat for the ranks (bulk) and for the ranks
    of the distance to the median (tail).  Values near 1 mean the halves
    agree; above about 1.01 they disagree.  A single chain is compared with
    itself, half against half.  The median of the tail term is taken from
    np.partition (the middle order statistic, or the mean of the two middle
    ones), as np.median does on finite input, bitwise, without importing
    numpy.ma.

    ess_bulk combines the autocorrelations of the split chains' scores,
    rho_t = 1 - (W - mean autocovariance_t) / var+, truncated by Geyer's
    initial monotone sequence (pair sums rho_2k + rho_2k+1 kept up to the
    first negative one, then made non-increasing), tau = -1 + 2 sum of the
    pairs, ESS = draws / tau.  tau is floored at 1 / log10(draws), as in
    Stan.

    Both are nan when a half has fewer than two draws, and when the series
    is constant, so its split chains have no variance.  The folding reuses
    the split chains' own copy, which is released before the bulk scores go
    through the FFT of _bulk_ess.
    """
    halves = _split_halves(series)
    if halves is None or halves.min() == halves.max():
        return float("nan"), float("nan")
    z = _normal_scores(halves)
    halves -= _median(halves)
    rhat = max(_rhat(z), _rhat(_normal_scores(np.abs(halves, out=halves))))
    del halves
    return rhat, _bulk_ess(z)


def _bulk_ess(z):
    """ess_bulk of the normal scores z of the split chains, centred in
    place.  The power spectrum takes the place of the transform, so the
    inverse transform gets the complex input it would otherwise copy."""
    m, n = z.shape
    means = z.mean(axis=1, keepdims=True)
    z -= means
    spec = np.fft.rfft(z, n=2 * n, axis=1)
    np.abs(spec, out=spec.real)
    spec.imag = 0.0
    spec.real **= 2
    acov = np.fft.irfft(spec, axis=1)[:, :n].mean(axis=0) / n
    within = acov[0] * n / (n - 1)
    var_plus = acov[0] + means.var(ddof=1)
    rho = 1.0 - (within - acov) / var_plus
    rho[0] = 1.0
    pairs = rho[:n - n % 2].reshape(-1, 2).sum(axis=1)
    negative = np.flatnonzero(pairs < 0)
    pairs = np.minimum.accumulate(pairs[:negative[0] if negative.size
                                        else pairs.size])
    tau = max(-1.0 + 2.0 * pairs.sum(), 1.0 / np.log10(m * n))
    return float(m * n / tau)


def _median(x):
    """np.median of a finite array: the middle order statistic, or the mean
    of the two middle ones, from one partition."""
    mid = x.size // 2
    if x.size % 2:
        return np.partition(x, mid, axis=None)[mid]
    part = np.partition(x, [mid - 1, mid], axis=None)
    return (part[mid - 1] + part[mid]) / 2


def _split_halves(series):
    """The (2 * chains, half) split chains of a (chains, draws) series (the
    middle draw of an odd length dropped), a new array; None below two
    draws a half."""
    x = np.atleast_2d(np.asarray(series, dtype=float))
    half = x.shape[1] // 2
    if half < 2:
        return None
    return np.concatenate([x[:, :half], x[:, -half:]])


def _normal_scores(x):
    """Blom normal scores of the pooled ranks (average ranks for ties).

    Rejected pCN proposals repeat a state, so equal values occur.  The
    ranks come from the sorted values: a tie group's average rank is the
    mean of its first and last sorted positions, plus one.  The inverse
    normal CDF runs on SCORE_CHUNK ranks at a time, so the temporaries stay
    a few times the size of x.  Blom points lie strictly inside (0, 1), so
    inv_cdf never raises.
    """
    from statistics import NormalDist  # only pCN diagnostics pay the import
    inv_cdf = NormalDist().inv_cdf
    flat = x.ravel()
    n = flat.size
    order = np.argsort(flat, kind="stable")
    sorted_x = flat[order]
    starts = np.empty(n, dtype=bool)  # a tie group starts at this position
    starts[0] = True
    np.not_equal(sorted_x[1:], sorted_x[:-1], out=starts[1:])
    del sorted_x
    ranks = np.arange(n, dtype=float)  # first position of the group
    ranks *= starts
    np.maximum.accumulate(ranks, out=ranks)
    last = np.arange(n, dtype=float)  # last position of the group
    np.copyto(last[:-1], n, where=~starts[1:])
    np.minimum.accumulate(last[::-1], out=last[::-1])
    # (first + last) / 2 + 1 is a half-integer, exact in floats, so it is
    # bitwise first + (count + 1) / 2 whatever the order of the steps
    ranks += last
    ranks /= 2
    ranks += 1
    ranks -= 0.375
    ranks /= n + 0.25
    scores = last
    for lo in range(0, n, SCORE_CHUNK):
        chunk = ranks[lo:lo + SCORE_CHUNK]
        scores[order[lo:lo + SCORE_CHUNK]] = np.fromiter(
            map(inv_cdf, chunk.tolist()), float, chunk.size)
    return scores.reshape(x.shape)


def _rhat(chains):
    """Classic potential scale reduction of (chains, draws)."""
    n = chains.shape[1]
    within = chains.var(axis=1, ddof=1).mean()
    between = n * chains.mean(axis=1).var(ddof=1)
    return float(np.sqrt(((n - 1) / n * within + between / n) / within))


def pcn_chain(tensor, n_samples, seed):
    """pCN chains targeting exp(-E) dmu, run side by side.

    max(1, min(MAX_CHAINS, n_samples // MIN_CHAIN_DRAWS)) chains each start
    from their own prior draw and advance together, one vectorized sweep
    at a time.  The adaptive warm-up sets beta (frozen afterwards, its
    (beta, rate) per block kept as warmup).  A pilot segment sets the
    thinning to the ceiling of the mean per-chain integrated
    autocorrelation time of the energy.  Burn-in discards BURN_FRAC of each
    chain's collected span before sampling starts.

    The samples are chain-major, each chain's n_per = ceil(n_samples / C)
    draws contiguous, trimmed to n_samples rows, so a lag in the returned
    series is a lag within one chain.  energies are the rows' energies as
    the sweeps accepted them, not recomputed.  iact is the mean per-chain
    value; rhat and ess_bulk are the split-R-hat and the bulk ESS of the
    (C, n_per) energy series, from one rank normalization.
    """
    n_chains = max(1, min(MAX_CHAINS, n_samples // MIN_CHAIN_DRAWS))
    n_per = -(-n_samples // n_chains)
    gen = rng_mod.derive_rng(seed, "gibbs.pcn")
    states, energies = _prior_states(tensor, gen, n_chains)
    beta, warmup = _adapt_beta(tensor, states, energies, gen)
    pilot_e = np.empty((n_chains, PILOT_SWEEPS))
    for i in range(PILOT_SWEEPS):
        _advance(tensor, states, energies, beta, gen, 1)
        pilot_e[:, i] = energies
    thin = max(1, int(np.ceil(_mean_iact(pilot_e))))
    burn = int(np.ceil(BURN_FRAC * n_per * thin))
    _advance(tensor, states, energies, beta, gen, burn)
    coeffs = np.empty((n_chains, n_per, tensor.n_modes), dtype=complex)
    series = np.empty((n_chains, n_per))
    accepted = 0
    for i in range(n_per):
        accepted += _advance(tensor, states, energies, beta, gen, thin)
        coeffs[:, i] = states
        series[:, i] = energies
    rhat, ess_bulk = rank_diagnostics(series)
    return Chain(
        coeffs=coeffs.reshape(-1, tensor.n_modes)[:n_samples],
        energies=series.reshape(-1)[:n_samples],
        acc_rate=accepted / (n_per * thin * n_chains), beta=beta, thin=thin,
        burn=burn, iact=_mean_iact(series), n_chains=n_chains,
        rhat=rhat, ess_bulk=ess_bulk, warmup=tuple(warmup))


def _mean_iact(series):
    """Mean over chains (rows) of the integrated autocorrelation time."""
    return float(np.mean([integrated_autocorr(row) for row in series]))


def pcn_parallel(tensor, n_chains, burn_steps, seed, beta):
    """Independent-members ensemble: many chains, one sample per chain.

    Every chain starts from its own prior draw and is burned burn_steps
    vectorized sweeps; the final states are the Members.  Identical target
    as pcn_chain but with exactly independent members across rows.
    """
    gen = rng_mod.derive_rng(seed, "gibbs.pcn.parallel")
    states, energies = _prior_states(tensor, gen, n_chains)
    accepted = _advance(tensor, states, energies, beta, gen, burn_steps)
    rate = accepted / (burn_steps * n_chains) if burn_steps else 0.0
    return Members(coeffs=states, acc_rate=rate)


def chain_mean(values):
    """Chain estimate with autocorrelation-inflated standard error."""
    x = np.asarray(values, dtype=float)
    tau = integrated_autocorr(x)
    mean = float(x.mean())
    se = float(x.std(ddof=1) * np.sqrt(tau / x.size))
    return mean, se, tau


def _ladder(tensor, rungs):
    """{cutoff: tensor.slice(cutoff)} over the sorted distinct rungs, or a
    ValueError naming both cutoffs when the top one is above the tensor's."""
    rungs = sorted({int(n) for n in rungs})
    if rungs[-1] > tensor.cutoff:
        raise ValueError(f"study ladder tops out at cutoff {rungs[-1]}, "
                         f"above the tensor's cutoff {tensor.cutoff}")
    return {n: tensor.slice(n) for n in rungs}


def _study_blocks(tensor, slices, n_samples, seed, label):
    """Energies of n_samples common prior draws on every slice, by block.

    Yields (rows, {cutoff: energies of those rows}) for each chunk of
    BLOCK_ROWS draws, rows being the chunk's slice of the whole stream.
    Every slice takes a prefix view of the chunk (they share the leading
    lambdas), so the rows fall into the blocks of one all-at-once call.
    """
    gen = rng_mod.derive_rng(seed, label)
    block = interaction.BLOCK_ROWS
    for lo in range(0, n_samples, block):
        c = rng_mod.prior_coeffs(
            gen, (min(block, n_samples - lo), tensor.n_modes), tensor.lam)
        yield slice(lo, lo + block), {
            n: interaction_energy(t, c[:, :t.n_modes])
            for n, t in slices.items()}


def _quantiles(x, qs):
    """np.quantile(x, qs) of a finite 1-d array, bitwise, partitioning x.

    numpy's default linear method: virtual index (n - 1) q, its floor and
    the next order statistic (both the largest from n - 1 on), and its
    _lerp, which interpolates from the upper value where the weight is at
    least 0.5.  x is partitioned in place, so nothing is copied, and
    numpy.ma, which np.quantile imports, is not.
    """
    virtual = (x.size - 1) * np.asarray(qs, dtype=float)
    lo = np.floor(virtual)
    lo[virtual >= x.size - 1] = -1
    lo = lo.astype(np.intp)
    hi = np.where(lo == -1, -1, lo + 1)
    x.partition(np.concatenate([lo, hi]))
    a, b, t = x[lo], x[hi], virtual - lo
    return np.where(t >= 0.5, b - (b - a) * (1 - t), a + (b - a) * t)


def cauchy_decay_study(tensor, m_list, n_samples, seed):
    """Dyadic Cauchy increments of the energy chaos, exact vs Monte Carlo.

    For each M the study compares E |G_{2M} - G_M|^2 against the exact
    four-fold contraction series over the tail index box, using one common
    Gaussian ensemble across all M (streamed by `_study_blocks`, each
    cutoff evaluated once, and only the |G_{2M} - G_M| column of each M
    kept), and fits the log-log slope of D(M) = sqrt(series) against M.
    Rows also carry empirical quantiles of |G_{2M} - G_M| (tail curves
    reported, not asserted).
    """
    m_list = sorted({int(m) for m in m_list})
    slices = _ladder(tensor, m_list + [2 * m for m in m_list])
    adiffs = {m: np.empty(n_samples) for m in m_list}
    for span, block in _study_blocks(tensor, slices, n_samples, seed,
                                     "cauchy.mc"):
        for m, adiff in adiffs.items():
            np.abs(np.subtract(block[2 * m], block[m], out=adiff[span]),
                   out=adiff[span])
    rows = []
    for m, adiff in adiffs.items():
        exact, bound = chaos_tail_series(slices[2 * m], m)
        diff2 = adiff ** 2
        mc = float(diff2.mean())
        se = float(diff2.std(ddof=1) / np.sqrt(n_samples))
        del diff2
        q50, q90, q99 = _quantiles(adiff, [0.5, 0.9, 0.99])
        rows.append({
            "m": m, "n": 2 * m, "exact": exact, "bound": bound,
            "mc": mc, "mc_se": se,
            "z": (mc - exact) / se if se > 0 else 0.0,
            "tail_q50": float(q50), "tail_q90": float(q90),
            "tail_q99": float(q99),
        })
    return {"rows": rows, "slope": loglog_slope(
        m_list, [np.sqrt(r["exact"]) for r in rows])}


def nelson_scan(tensor, n_list, n_samples, seed):
    """Deterministic lower bounds -3 e0_const vs the sampled minimum of E.

    One master Gaussian stream is shared across cutoffs (streamed by
    `_study_blocks`, one running minimum kept per cutoff), so minima
    across N are comparable.  Also fits the log-log growth slope of the
    bound magnitude against N.
    """
    slices = _ladder(tensor, n_list)
    lows = dict.fromkeys(slices, np.inf)
    for _, block in _study_blocks(tensor, slices, n_samples, seed,
                                  "nelson.scan"):
        for n, e in block.items():
            lows[n] = np.minimum(lows[n], e.min())
    rows = []
    for n, t in slices.items():
        bound, low = -3.0 * t.e0_const, float(lows[n])
        rows.append({"n": n, "bound": bound, "min": low,
                     "respects_bound": bool(low >= bound - 1e-9 * abs(bound))})
    return {"rows": rows, "growth_slope": loglog_slope(
        list(slices), [abs(row["bound"]) for row in rows])}


def lr_stability_study(tensor, n_list, r_list, n_samples, seed):
    """L^r norms of the Gibbs weight across cutoffs, common random numbers.

    log ||R_N||_r = (logsumexp(-r E_N) - log n) / r per cutoff, all on one
    stream (`_study_blocks`).  For each r the study reports the
    per-cutoff values, their consecutive increments, and a fitted log-log
    slope.  Uniform integrability shows up as saturation: the increments
    shrink as the cutoff doubles, so the norms approach a finite limit.
    Divergence would show up as increments that grow (or fail to decay)
    with the cutoff.
    """
    slices = _ladder(tensor, n_list)
    energies = {n: np.empty(n_samples) for n in slices}
    for span, block in _study_blocks(tensor, slices, n_samples, seed,
                                     "lr.stability"):
        for n, e in block.items():
            energies[n][span] = e
    out = {}
    for r in r_list:
        rows = []
        for n in slices:
            lognorm = float((logsumexp(-r * energies[n])
                             - np.log(n_samples)) / r)
            rows.append({"n": n, "log_norm": lognorm})
        slope = float(np.polyfit(np.log(list(slices)),
                                 [row["log_norm"] for row in rows], 1)[0])
        increments = [{
            "from_n": rows[i]["n"], "to_n": rows[i + 1]["n"],
            "delta": rows[i + 1]["log_norm"] - rows[i]["log_norm"],
        } for i in range(len(rows) - 1)]
        out[r] = {"rows": rows, "slope": slope, "increments": increments}
    return out

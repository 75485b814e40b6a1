"""Samplers for the truncated Gibbs measure and the measure-level studies.

The target density is exp(-E(c)) relative to the free Gaussian measure on
coefficients.  Two samplers are provided: self-normalized importance
reweighting of prior draws, and a preconditioned Crank-Nicolson chain whose
proposal c' = sqrt(1 - beta^2) c + beta xi (xi a fresh prior draw) preserves
the prior, leaving the simple acceptance ratio exp(E(c) - E(c')).
"""

import logging
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from . import rng as rng_mod
from .interaction import chaos_tail_series, interaction_energy

log = logging.getLogger(__name__)


@dataclass
class Ensemble:
    """Samples of the truncated Gibbs measure with sampler metadata."""

    coeffs: np.ndarray
    method: str
    log_weights: np.ndarray = None
    ess: float = None
    acc_rate: float = None
    beta: float = None
    thin: int = 1
    burn: int = 0
    iact: float = None
    seed: int = None

    @property
    def size(self):
        return self.coeffs.shape[0]


def effective_sample_size(log_weights):
    """(sum w)^2 / sum w^2 computed stably in log space."""
    lw = np.asarray(log_weights, dtype=float)
    return float(np.exp(2 * logsumexp(lw) - logsumexp(2 * lw)))


def importance_ensemble(tensor, n_samples, seed, label="gibbs.importance"):
    """Prior draws with log weights -E(c)."""
    gen = rng_mod.derive_rng(seed, label)
    g = rng_mod.standard_complex(gen, (n_samples, tensor.n_modes))
    coeffs = g / tensor.lam
    lw = -interaction_energy(tensor, coeffs)
    return Ensemble(coeffs=coeffs, method="importance", log_weights=lw,
                    ess=effective_sample_size(lw), seed=seed)


def weighted_mean(values, log_weights):
    """Self-normalized importance estimate with delta-method standard error."""
    x = np.asarray(values, dtype=float)
    lw = np.asarray(log_weights, dtype=float)
    w = np.exp(lw - lw.max())
    wn = w / w.sum()
    mean = float(np.sum(wn * x))
    se = float(np.sqrt(np.sum(wn ** 2 * (x - mean) ** 2)))
    return mean, se


def integrated_autocorr(series, window_factor=6.0):
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
    padded = np.zeros(2 * n)
    padded[:n] = x
    spec = np.abs(np.fft.rfft(padded)) ** 2
    acf = np.fft.irfft(spec)[:n] / (n * var)
    tau = 1.0
    for k in range(1, n):
        tau += 2.0 * acf[k]
        if k >= window_factor * tau:
            break
    return max(tau, 1.0)


def _pcn_sweep(tensor, states, energies, beta, gen):
    """One vectorized pCN step over all rows of states (in place)."""
    n, j = states.shape
    xi = rng_mod.standard_complex(gen, (n, j)) / tensor.lam
    proposal = np.sqrt(1.0 - beta ** 2) * states + beta * xi
    e_new = interaction_energy(tensor, proposal)
    logu = np.log(gen.random(n))
    accept = logu < (energies - e_new)
    states[accept] = proposal[accept]
    energies[accept] = e_new[accept]
    return accept


def _adapt_beta(tensor, state, energy, gen, beta, block, max_blocks,
                lo=0.3, hi=0.5):
    """Warm-up: scale beta until the block acceptance rate is in [lo, hi]."""
    for _ in range(max_blocks):
        acc = 0
        for _ in range(block):
            acc += int(_pcn_sweep(tensor, state, energy, beta, gen)[0])
        rate = acc / block
        if rate < lo:
            beta = max(beta * 0.7, 1e-3)
        elif rate > hi:
            beta = min(beta * 1.3, 1.0)
        else:
            return beta, rate
    log.warning("pCN warm-up did not settle in the target window; "
                "continuing with beta=%.4g (last rate %.3f)", beta, rate)
    return beta, rate


def pcn_chain(tensor, n_samples, seed, beta=None, burn_frac=0.1, thin=None,
              label="gibbs.pcn", adapt_block=100, max_adapt_blocks=40,
              pilot=500):
    """Single pCN chain targeting exp(-E) dmu.

    beta None triggers the adaptive warm-up (frozen afterwards); thin None
    measures the integrated autocorrelation time of the energy on a pilot
    segment and thins by ceil(iact).  Burn-in discards burn_frac of the
    collected span before sampling starts.
    """
    gen = rng_mod.derive_rng(seed, label)
    state = rng_mod.standard_complex(gen, (1, tensor.n_modes)) / tensor.lam
    energy = interaction_energy(tensor, state)
    if beta is None:
        beta, _ = _adapt_beta(tensor, state, energy, gen, 0.5,
                              adapt_block, max_adapt_blocks)
    if thin is None:
        pilot_e = np.empty(pilot)
        for i in range(pilot):
            _pcn_sweep(tensor, state, energy, beta, gen)
            pilot_e[i] = energy[0]
        thin = max(1, int(np.ceil(integrated_autocorr(pilot_e))))
    burn = int(np.ceil(burn_frac * n_samples * thin))
    for _ in range(burn):
        _pcn_sweep(tensor, state, energy, beta, gen)
    coeffs = np.empty((n_samples, tensor.n_modes), dtype=complex)
    energies = np.empty(n_samples)
    accepted = 0
    total = 0
    for i in range(n_samples):
        for _ in range(thin):
            accepted += int(_pcn_sweep(tensor, state, energy, beta, gen)[0])
            total += 1
        coeffs[i] = state[0]
        energies[i] = energy[0]
    iact = integrated_autocorr(energies)
    return Ensemble(coeffs=coeffs, method="pcn", acc_rate=accepted / total,
                    beta=beta, thin=thin, burn=burn, iact=iact, seed=seed)


def pcn_parallel(tensor, n_chains, burn_steps, seed, beta=0.5,
                 label="gibbs.pcn.parallel"):
    """Independent-members ensemble: many chains, one sample per chain.

    Every chain starts from its own prior draw and is burned burn_steps
    vectorized sweeps; the final states are returned.  Identical target as
    pcn_chain but with exactly independent members across rows.
    """
    gen = rng_mod.derive_rng(seed, label)
    states = rng_mod.standard_complex(gen, (n_chains, tensor.n_modes)) \
        / tensor.lam
    energies = interaction_energy(tensor, states)
    accepted = 0
    for _ in range(burn_steps):
        accepted += int(_pcn_sweep(tensor, states, energies, beta, gen).sum())
    rate = accepted / (burn_steps * n_chains) if burn_steps else 0.0
    return Ensemble(coeffs=states, method="pcn-parallel", acc_rate=rate,
                    beta=beta, burn=burn_steps, seed=seed)


def chain_mean(values, iact=None):
    """Chain estimate with autocorrelation-inflated standard error."""
    x = np.asarray(values, dtype=float)
    tau = integrated_autocorr(x) if iact is None else iact
    mean = float(x.mean())
    se = float(x.std(ddof=1) * np.sqrt(tau / x.size))
    return mean, se, tau


def cauchy_decay_study(tensor, m_list, n_samples, seed,
                       label="cauchy.mc"):
    """Dyadic Cauchy increments of the energy chaos, exact vs Monte Carlo.

    For each M the study compares E |G_{2M} - G_M|^2 against the exact
    four-fold contraction series over the tail index box, using one common
    Gaussian ensemble across all M (prefix slicing), and fits the log-log
    slope of D(M) = sqrt(series) against M.  Rows also carry empirical
    quantiles of |G_{2M} - G_M| (tail curves reported, not asserted).
    """
    m_list = sorted(int(m) for m in m_list)
    if 2 * m_list[-1] > tensor.cutoff:
        raise ValueError("tensor cutoff must reach 2 * max(m_list)")
    gen = rng_mod.derive_rng(seed, label)
    # slices share the leading lambdas, so their states are prefix views
    c = rng_mod.standard_complex(gen, (n_samples, tensor.n_modes)) / tensor.lam
    rows = []
    for m in m_list:
        hi = tensor.slice(2 * m)
        lo = tensor.slice(m)
        exact, bound = chaos_tail_series(hi, m)
        e_hi = interaction_energy(hi, c[:, :hi.n_modes])
        e_lo = interaction_energy(lo, c[:, :lo.n_modes])
        adiff = np.abs(e_hi - e_lo)
        diff2 = adiff ** 2
        mc = float(diff2.mean())
        se = float(diff2.std(ddof=1) / np.sqrt(n_samples))
        q50, q90, q99 = np.quantile(adiff, [0.5, 0.9, 0.99])
        rows.append({
            "m": m, "n": 2 * m, "exact": exact, "bound": bound,
            "mc": mc, "mc_se": se,
            "z": (mc - exact) / se if se > 0 else 0.0,
            "tail_q50": float(q50), "tail_q90": float(q90),
            "tail_q99": float(q99),
        })
    logm = np.log([r["m"] for r in rows])
    logd = np.log([np.sqrt(r["exact"]) for r in rows])
    slope = float(np.polyfit(logm, logd, 1)[0])
    return {"rows": rows, "slope": slope}


def nelson_scan(tensor, n_list, n_samples, seed, chunk=100000,
                label="nelson.scan"):
    """Deterministic lower bounds -3 e0_const vs the sampled minimum of E.

    One master Gaussian stream is shared across cutoffs (prefix slicing), so
    minima across N are comparable.  Also fits the log-log growth slope of
    the bound magnitude against N.
    """
    n_list = sorted(int(n) for n in n_list)
    if n_list[-1] > tensor.cutoff:
        raise ValueError("tensor cutoff must reach max(n_list)")
    slices = {n: tensor.slice(n) for n in n_list}
    bounds = {n: -3.0 * slices[n].e0_const for n in n_list}
    mins = {n: np.inf for n in n_list}
    gen = rng_mod.derive_rng(seed, label)
    remaining = n_samples
    while remaining > 0:
        take = min(chunk, remaining)
        g = rng_mod.standard_complex(gen, (take, tensor.n_modes))
        for n in n_list:
            t = slices[n]
            e = interaction_energy(t, g[:, :t.n_modes] / t.lam)
            mins[n] = min(mins[n], float(e.min()))
        remaining -= take
    rows = [{
        "n": n, "bound": bounds[n], "min": mins[n],
        "respects_bound": bool(mins[n] >= bounds[n] - 1e-9 * abs(bounds[n])),
    } for n in n_list]
    logn = np.log(n_list)
    logb = np.log([abs(bounds[n]) for n in n_list])
    slope = float(np.polyfit(logn, logb, 1)[0])
    return {"rows": rows, "growth_slope": slope}


def lr_stability_study(tensor, n_list, r_list, n_samples, seed,
                       label="lr.stability"):
    """L^r norms of the Gibbs weight across cutoffs, common random numbers.

    log ||R_N||_r = (logsumexp(-r E_N) - log n) / r per cutoff.  For each r
    the study reports the per-cutoff values, their consecutive increments,
    and a fitted log-log slope.  Uniform integrability shows up as
    saturation: the increments shrink as the cutoff doubles, so the norms
    approach a finite limit.  Divergence would show up as increments that
    grow (or fail to decay) with the cutoff.
    """
    n_list = sorted(int(n) for n in n_list)
    if n_list[-1] > tensor.cutoff:
        raise ValueError("tensor cutoff must reach max(n_list)")
    gen = rng_mod.derive_rng(seed, label)
    g = rng_mod.standard_complex(gen, (n_samples, tensor.n_modes))
    energies = {}
    for n in n_list:
        t = tensor.slice(n)
        energies[n] = interaction_energy(t, g[:, :t.n_modes] / t.lam)
    out = {}
    for r in r_list:
        rows = []
        for n in n_list:
            lognorm = float((logsumexp(-r * energies[n])
                             - np.log(n_samples)) / r)
            rows.append({"n": n, "log_norm": lognorm})
        slope = float(np.polyfit(np.log(n_list),
                                 [row["log_norm"] for row in rows], 1)[0])
        increments = [{
            "from_n": rows[i]["n"], "to_n": rows[i + 1]["n"],
            "delta": rows[i + 1]["log_norm"] - rows[i]["log_norm"],
        } for i in range(len(rows) - 1)]
        out[r] = {"rows": rows, "slope": slope, "increments": increments}
    return out

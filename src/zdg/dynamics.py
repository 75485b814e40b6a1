"""Hamiltonian flow of the truncated equation and measure-invariance tests.

The integrated ODE is the canonical Hamiltonian flow of
H_flow(c) = (1/2) sum omega_n |c_n|^2 + (1/2) E(c):

    i c'_n = omega_n c_n + 2 F_n(c),

where F is the renormalized cubic term and the factor 2 is the Wirtinger
gradient factor of the quartic energy (d/dc~ E = 2 F exactly).  Under this
flow the Gibbs density exp(-E) relative to the free Gaussian measure is
invariant.  The conventional observable H(c) = (1/2) sum omega |c|^2 +
(1/4) E(c) is recorded alongside for reference; at a constant kernel both
are conserved because the cubic term reduces to a diagonal phase.

Integrators: an implicit midpoint rule (fixed-point iteration with the
linear part solved exactly, preserving mass and time symmetry) and a
Lawson exponential RK4 (exact linear phases, so the free flow is
reproduced to roundoff).

The midpoint iteration for the step midpoint m = (c + dt/2 N(m)) / denom,
N = -2i F and denom = 1 + i dt omega / 2, starts from an extrapolated
guess (c + dt/2 N~) / denom.  N~ extrapolates the converged nonlinear
parts of the last steps, which their final iterations already computed:
3 N_1 - 3 N_2 + N_3 with three kept, 2 N_1 - N_2 with two, N_1 with one
(newest first).  With three kept, N~ is within O(dt^3) of N at the new
midpoint, so the start is within O(dt^4) of it, against O(dt) for the
free guess c / denom (the starting approximations of Hairer, Lubich &
Wanner, Geometric Numerical Integration, 2nd ed., VIII.6), and a step
needs fewer cubic-term calls.  The first step, every half step and the
first step after a halving start free: a halving clears the history.
The stopping test is unchanged, so the result moves only within the
solver tolerance.
"""

import logging
from dataclasses import dataclass, field, replace

import numpy as np

from .config import step_count
from .field import hs_norm
from .gibbs import pcn_parallel
from .interaction import interaction_energy, nonlinearity

log = logging.getLogger(__name__)

MAX_ITER = 100  # fixed-point iterations of a midpoint step before it splits
MAX_HALVINGS = 8  # step splits a midpoint step may take before it fails
FD_STATES = 5  # random states of the finite-difference audit
FD_STEP = 1e-6  # its central-difference step
MOMENT_Z_MAX = 4.0  # the invariance test's bound on paired moment z-scores


@dataclass
class FlowConfig:
    dt: float
    t_final: float
    integrator: str
    solver_tol: float
    sample_every: int  # 0: record initial and final states only


@dataclass
class Trajectory:
    times: np.ndarray
    states: np.ndarray        # (n_records, ..., n_modes)
    hamiltonian: np.ndarray   # (1/2) K + (1/4) E, the conventional observable
    flow_energy: np.ndarray   # (1/2) K + (1/2) E, conserved by the flow
    mass: np.ndarray
    meta: dict = field(default_factory=dict)


def mass(coeffs):
    return np.sum(np.abs(np.asarray(coeffs)) ** 2, axis=-1)


def quadratic_energy(tensor, coeffs):
    """K = sum omega_n |c_n|^2 (batched)."""
    c = np.asarray(coeffs)
    return np.sum(tensor.lam ** 2 * np.abs(c) ** 2, axis=-1)


def hamiltonian(tensor, coeffs):
    """Conventional energy observable (1/2) K + (1/4) E."""
    return 0.5 * quadratic_energy(tensor, coeffs) \
        + 0.25 * interaction_energy(tensor, coeffs)


def flow_energy(tensor, coeffs):
    """Conserved Hamiltonian of the integrated flow, (1/2) K + (1/2) E."""
    return 0.5 * quadratic_energy(tensor, coeffs) \
        + 0.5 * interaction_energy(tensor, coeffs)


def _nl_part(tensor, c):
    return -2j * nonlinearity(tensor, c)


def _extrapolated(history):
    """Polynomial extrapolation of the last converged nonlinear parts
    (newest first, equal steps) one step ahead."""
    if len(history) == 3:
        return 3.0 * history[0] - 3.0 * history[1] + history[2]
    if len(history) == 2:
        return 2.0 * history[0] - history[1]
    return history[0]


def _midpoint_step(tensor, c, dt, cfg, counters, history=None, depth=0):
    """One implicit midpoint step; splits the step on solver failure.

    The iteration starts from the extrapolated midpoint (c + dt/2 N~)/denom
    when `history` holds the converged nonlinear parts of earlier steps,
    and from the free guess c/denom otherwise.  A converged step pushes its
    last nonlinear part into `history` (at most three kept); a split clears
    it, and the half steps start free.  counters["f_evals"] and
    counters["halvings"] count the cubic-term evaluations and the step
    splits.
    """
    omega = tensor.lam ** 2
    denom = 1.0 + 0.5j * dt * omega
    if history:
        mid = (c + 0.5 * dt * _extrapolated(history)) / denom
    else:
        mid = c / denom
    scale = max(1.0, float(np.max(np.abs(c))))
    for _ in range(MAX_ITER):
        counters["f_evals"] += 1
        nl = _nl_part(tensor, mid)
        rhs = c + 0.5 * dt * nl
        new_mid = rhs / denom
        delta = float(np.max(np.abs(new_mid - mid)))
        mid = new_mid
        if delta <= cfg.solver_tol * scale:
            if history is not None:
                history.insert(0, nl)
                del history[3:]
            return 2.0 * mid - c
    if depth >= MAX_HALVINGS:
        raise RuntimeError(
            f"midpoint solver failed to reach {cfg.solver_tol} after "
            f"{MAX_HALVINGS} step halvings (dt={dt})")
    log.debug("midpoint solver stalled at dt=%g; halving", dt)
    counters["halvings"] += 1
    if history is not None:
        history.clear()
    half = _midpoint_step(tensor, c, dt / 2, cfg, counters, depth=depth + 1)
    return _midpoint_step(tensor, half, dt / 2, cfg, counters,
                          depth=depth + 1)


def _lawson_rk4_step(tensor, c, dt):
    """Exponential RK4 (Lawson): exact linear phases, RK4 on the rest."""
    omega = tensor.lam ** 2
    ph_half = np.exp(-0.5j * dt * omega)
    ph_full = ph_half * ph_half
    l1 = _nl_part(tensor, c)
    l2 = np.conj(ph_half) * _nl_part(tensor, ph_half * (c + 0.5 * dt * l1))
    l3 = np.conj(ph_half) * _nl_part(tensor, ph_half * (c + 0.5 * dt * l2))
    l4 = np.conj(ph_full) * _nl_part(tensor, ph_full * (c + dt * l3))
    return ph_full * (c + dt / 6.0 * (l1 + 2 * l2 + 2 * l3 + l4))


def flow(tensor, coeffs0, cfg):
    """Integrate the truncated flow from coeffs0 (single state or batch).

    States may carry more modes than the tensor: the extra high modes ride
    along on the exact free rotation exp(-i omega t) with no step error,
    while the nonlinearity acts on the low block.
    """
    c0 = np.asarray(coeffs0, dtype=complex)
    n_low = tensor.n_modes
    if c0.shape[-1] < n_low:
        raise ValueError("state has fewer modes than the tensor")
    n_extra = c0.shape[-1] - n_low
    low = c0[..., :n_low].copy()
    if cfg.dt <= 0 or cfg.t_final < 0:
        raise ValueError("need dt > 0 and t_final >= 0")
    n_steps = step_count(cfg.t_final, cfg.dt)
    if n_steps is None:
        raise ValueError("t_final must be an integer number of dt steps")
    counters = {"f_evals": 0, "halvings": 0}
    if cfg.integrator == "midpoint":
        history = []
        step = lambda state, dt: _midpoint_step(tensor, state, dt, cfg,
                                                counters, history)
    elif cfg.integrator == "lawson-rk4":
        counters["f_evals"] = 4 * n_steps
        step = lambda state, dt: _lawson_rk4_step(tensor, state, dt)
    else:
        raise ValueError(f"unknown integrator {cfg.integrator!r}")

    record_every = max(1, cfg.sample_every if cfg.sample_every > 0
                       else n_steps)
    times = [0.0]
    records = [low.copy()]
    t = 0.0
    for k in range(1, n_steps + 1):
        low = step(low, cfg.dt)
        t = k * cfg.dt
        if k % record_every == 0 or k == n_steps:
            times.append(t)
            records.append(low.copy())
    times = np.array(times)
    states = np.stack(records, axis=0)
    if n_extra:
        dim = tensor.dim
        omega_hi = np.arange(n_low, n_low + n_extra) + dim / 2.0
        hi0 = c0[..., n_low:]
        phases = np.exp(-1j * times[:, None] * omega_hi)
        shape = (len(times),) + c0.shape[:-1] + (n_extra,)
        hi = np.empty(shape, dtype=complex)
        for i in range(len(times)):
            hi[i] = hi0 * phases[i]
        states = np.concatenate([states, hi], axis=-1)
    # K and E once per record; the same operations as `hamiltonian` and
    # `flow_energy`, so the records are bitwise theirs
    kin = np.stack([quadratic_energy(tensor, s[..., :n_low]) for s in states])
    pot = np.stack([interaction_energy(tensor, s[..., :n_low])
                    for s in states])
    ham = 0.5 * kin + 0.25 * pot
    fen = 0.5 * kin + 0.5 * pot
    mss = np.stack([mass(s) for s in states])
    return Trajectory(times=times, states=states, hamiltonian=ham,
                      flow_energy=fen, mass=mss,
                      meta={"integrator": cfg.integrator, "dt": cfg.dt,
                            "n_steps": n_steps, **counters})


def reversal_error(tensor, coeffs0, cfg):
    """Integrate forward then backward; max deviation from the start.

    The backward integration uses the conjugation symmetry of the flow:
    conj(c) evolved forward by t equals the conjugate of c evolved backward
    by t (the tensor is real), and both integrators keep it step by step.
    The midpoint rule is also time-symmetric, so its round trip returns to
    the start to solver tolerance (its iteration stops short of the exact
    implicit step); Lawson RK4 is not, and returns only within its own
    global error.
    """
    fwd = flow(tensor, coeffs0, cfg)
    back_cfg = replace(cfg, sample_every=0)
    back = flow(tensor, np.conj(fwd.states[-1]), back_cfg)
    final = np.conj(back.states[-1])
    return float(np.max(np.abs(final - np.asarray(coeffs0, dtype=complex))))


def truncation_comparison(tensor, low_cutoff, coeffs0, cfg, kmax, sobolev_s):
    """Coupled comparison of the flow at two cutoffs from one initial state.

    The same state is advanced under the full tensor and under its slice at
    low_cutoff (modes above either cutoff ride the exact free rotation), and
    per-observable differences at t_final are reported.  Diagnostic only: no
    convergence rate is asserted.
    """
    c0 = np.asarray(coeffs0, dtype=complex)
    if c0.ndim != 1:
        raise ValueError("truncation comparison takes a single state")
    if not 0 <= low_cutoff < tensor.cutoff:
        raise ValueError("low_cutoff must be below the tensor cutoff")
    end_hi = flow(tensor, c0, cfg).states[-1]
    end_lo = flow(tensor.slice(low_cutoff), c0, cfg).states[-1]
    rows = []
    for k in range(min(kmax, tensor.cutoff) + 1):
        rows.append({"observable": f"c{k}",
                     "abs_diff": float(np.abs(end_hi[k] - end_lo[k]))})
    rows.append({"observable": "hs_norm",
                 "abs_diff": float(abs(hs_norm(end_hi, sobolev_s)
                                       - hs_norm(end_lo, sobolev_s)))})
    rows.append({"observable": "mass",
                 "abs_diff": float(abs(mass(end_hi) - mass(end_lo)))})
    return {"low_cutoff": int(low_cutoff), "high_cutoff": tensor.cutoff,
            "t_final": cfg.t_final, "rows": rows}


def vector_field_check(tensor, seed):
    """Finite-difference audit of the cubic term against the energy.

    Checks per coefficient that F_m = (1/4)(d/dx_m + i d/dy_m) E (the packed
    Wirtinger gradient of E/4) and that directional derivatives satisfy
    dE(h) = 2 Re <2F, h>, on FD_STATES random states with central
    differences of step FD_STEP.  Returns the maximal relative deviations.
    """
    gen = np.random.default_rng(seed)
    j = tensor.n_modes
    worst_grad = 0.0
    worst_dir = 0.0
    for _ in range(FD_STATES):
        c = (gen.normal(size=j) + 1j * gen.normal(size=j)) / tensor.lam
        f = nonlinearity(tensor, c)
        scale = max(1.0, float(np.max(np.abs(f))))
        packed = np.zeros(j, dtype=complex)
        for m in range(j):
            for unit in (1.0, 1j):
                up = c.copy()
                up[m] += unit * FD_STEP
                dn = c.copy()
                dn[m] -= unit * FD_STEP
                diff = (interaction_energy(tensor, up)
                        - interaction_energy(tensor, dn)) / (2 * FD_STEP)
                packed[m] += unit * diff
        worst_grad = max(worst_grad,
                         float(np.max(np.abs(packed / 4.0 - f))) / scale)
        h = gen.normal(size=j) + 1j * gen.normal(size=j)
        up = interaction_energy(tensor, c + FD_STEP * h)
        dn = interaction_energy(tensor, c - FD_STEP * h)
        direct = (up - dn) / (2 * FD_STEP)
        pairing = 2.0 * np.real(np.vdot(2.0 * f, h))
        worst_dir = max(worst_dir,
                        abs(direct - pairing) / max(1.0, abs(direct)))
    return {"grad_quarter_energy": worst_grad, "directional": worst_dir}


# ---------------------------------------------------------------------------
# distribution-invariance test

def ks_two_sample(a, b):
    """Two-sided two-sample KS statistic and exact p-value, equal sizes.

    scipy.stats.ks_2samp's exact path (method "exact"), op for op, at
    every n: the statistic from the two ECDFs at the pooled points,
    h = round(d n), and P(D >= h / n) by the Horner form of scipy's
    _compute_prob_outside_square.  At h = 1 the Horner form can round that
    probability, exactly 1, just above 1 (n = 5, 7, 13, 30); it is clipped
    to 1 where scipy switches to its asymptotic law.  Otherwise both values
    are bitwise scipy's.  NaN input is refused.
    """
    a = np.sort(a)
    b = np.sort(b)
    n = a.shape[0]
    if b.shape[0] != n or n == 0:
        raise ValueError("the KS test here needs two nonempty samples of "
                         f"equal size, got {n} and {b.shape[0]}")
    pooled = np.concatenate([a, b])
    if np.isnan(pooled).any():
        raise ValueError("the KS test got NaN in its samples")
    diffs = (np.searchsorted(a, pooled, side="right") / n
             - np.searchsorted(b, pooled, side="right") / n)
    d_minus = np.clip(-diffs[np.argmin(diffs)], 0, 1)
    d_plus = diffs[np.argmax(diffs)]
    h = int(np.round((d_minus if d_minus > d_plus else d_plus) * n))
    if h == 0:
        return 0.0, 1.0
    prob = 0.0
    k = int(np.floor(n / h))
    while k >= 0:
        p1 = 1.0
        for j in range(h):
            p1 = (n - k * h - j) * p1 / (n + k * h + j + 1)
        prob = p1 * (1.0 - prob)
        k -= 1
    return h * 1.0 / n, min(2 * prob, 1.0)


def ensemble_observables(tensor, coeffs, kmax, sobolev_s):
    """Named scalar observables per ensemble member."""
    c = np.asarray(coeffs)
    out = {}
    for k in range(min(kmax, tensor.cutoff) + 1):
        out[f"re_c{k}"] = c[:, k].real.copy()
        out[f"im_c{k}"] = c[:, k].imag.copy()
        out[f"abs2_c{k}"] = np.abs(c[:, k]) ** 2
    out["energy"] = interaction_energy(tensor, c)
    out["hs_norm"] = hs_norm(c, sobolev_s)
    return out


def invariance_test(tensor, n_ensemble, t_final, dt, seed, alpha, kmax,
                    burn_steps, beta, integrator, solver_tol, sobolev_s,
                    disable_counterterms=False):
    """Evolve a Gibbs ensemble and compare observable laws at t=0 and t_final.

    The ensemble targets exp(-E) dmu via parallel pCN chains.  Each
    observable is compared with a two-sample KS test (paired members make
    the test conservative under exact invariance) at Bonferroni level
    alpha / n_tests, plus paired z-scores for the first two moments, each
    at most MOMENT_Z_MAX.  With
    disable_counterterms=True the flow drops the quadratic counterterms
    (S and T) from the vector field only; the measure and the recorded
    energy observable stay those of the full model, so a detectable drift
    is the expected outcome at any mode-coupling kernel.
    """
    ens = pcn_parallel(tensor, n_ensemble, burn_steps, seed, beta=beta)
    flow_tensor = tensor
    if disable_counterterms:
        flow_tensor = replace(tensor, s_mat=np.zeros_like(tensor.s_mat),
                              t_mat=np.zeros_like(tensor.t_mat))
    cfg = FlowConfig(dt=dt, t_final=t_final, integrator=integrator,
                     solver_tol=solver_tol, sample_every=0)
    traj = flow(flow_tensor, ens.coeffs, cfg)
    before = ensemble_observables(tensor, traj.states[0], kmax, sobolev_s)
    after = ensemble_observables(tensor, traj.states[-1], kmax, sobolev_s)
    names = list(before)
    n_tests = len(names)
    rows = []
    all_pass = True
    for name in names:
        a, b = before[name], after[name]
        stat, pval = ks_two_sample(a, b)
        ks_ok = bool(pval >= alpha / n_tests)
        zs = []
        for xa, xb in ((a, b), (a ** 2, b ** 2)):
            d = xb - xa
            se = d.std(ddof=1) / np.sqrt(d.size)
            floor = 1e-9 * (np.std(xa) + 1e-30)
            zs.append(float(d.mean() / max(se, floor)))
        mom_ok = bool(max(abs(z) for z in zs) <= MOMENT_Z_MAX)
        ok = ks_ok and mom_ok
        all_pass = all_pass and ok
        rows.append({"observable": name, "ks_stat": float(stat),
                     "p_value": float(pval), "z_mean": zs[0],
                     "z_second": zs[1], "pass": ok})
    return {"rows": rows, "all_pass": all_pass, "n_tests": n_tests,
            "alpha": alpha, "acceptance_rate": ens.acc_rate,
            "counterterms_disabled": disable_counterterms,
            "meta": traj.meta}

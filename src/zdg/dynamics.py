"""Hamiltonian flow of the truncated equation and measure-invariance tests.

The integrated ODE is the canonical Hamiltonian flow of
H_flow(c) = (1/2) sum omega_n |c_n|^2 + (1/2) E(c):

    i c'_n = omega_n c_n + 2 F_n(c),

where F is the renormalized cubic term and the factor 2 is the Wirtinger
gradient factor of the quartic energy (d/dc~ E = 2 F exactly).  Under this
flow the Gibbs density exp(-E) relative to the free Gaussian measure is
invariant.

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
from .gibbs import pcn_parallel
from .interaction import interaction_energy, nonlinearity
from .rng import derive_rng, prior_coeffs, standard_complex
from .zonal import hs_norm

log = logging.getLogger(__name__)

MAX_ITER = 100  # fixed-point iterations of a midpoint step before it splits
MAX_HALVINGS = 8  # step splits a midpoint step may take before it fails
FD_STATES = 5  # random states of the finite-difference audit
FD_STEP = 1e-6  # its central-difference step
MOMENT_Z_MAX = 4.0  # the invariance test's bound on paired moment z-scores


@dataclass
class Trajectory:
    """Recorded states of one integration, states[i] at times[i]."""
    times: np.ndarray
    states: np.ndarray        # (n_records, ..., n_modes)
    meta: dict = field(default_factory=dict)  # settings, steps, counters


def mass(coeffs):
    return np.sum(np.abs(np.asarray(coeffs)) ** 2, axis=-1)


def flow_energy(tensor, coeffs):
    """Conserved Hamiltonian of the flow, (1/2) sum omega_n |c_n|^2 + E/2."""
    return 0.5 * np.sum(tensor.lam ** 2 * np.abs(coeffs) ** 2, axis=-1) \
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


def _midpoint_step(tensor, c, dt, tol, counters, history=None, depth=0):
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
        if delta <= tol * scale:
            if history is not None:
                history.insert(0, nl)
                del history[3:]
            return 2.0 * mid - c
    if depth >= MAX_HALVINGS:
        raise RuntimeError(
            f"midpoint solver failed to reach {tol} after "
            f"{MAX_HALVINGS} step halvings (dt={dt})")
    log.debug("midpoint solver stalled at dt=%g; halving", dt)
    counters["halvings"] += 1
    if history is not None:
        history.clear()
    half = _midpoint_step(tensor, c, dt / 2, tol, counters, depth=depth + 1)
    return _midpoint_step(tensor, half, dt / 2, tol, counters,
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


def flow(tensor, coeffs0, *, dt, t_final, integrator, solver_tol,
         sample_every=0):
    """Integrate the truncated flow from coeffs0 (single state or batch).

    Records every sample_every-th step (0: the first and last states) and,
    in the Trajectory's meta, dt, t_final, integrator and solver_tol.

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
    if dt <= 0 or t_final < 0:
        raise ValueError("need dt > 0 and t_final >= 0")
    n_steps = step_count(t_final, dt)
    if n_steps is None:
        raise ValueError("t_final must be an integer number of dt steps")
    counters = {"f_evals": 0, "halvings": 0}
    if integrator == "midpoint":
        history = []
        step = lambda state: _midpoint_step(tensor, state, dt, solver_tol,
                                            counters, history)
    elif integrator == "lawson-rk4":
        counters["f_evals"] = 4 * n_steps
        step = lambda state: _lawson_rk4_step(tensor, state, dt)
    else:
        raise ValueError(f"unknown integrator {integrator!r}")

    record_every = max(1, sample_every if sample_every > 0 else n_steps)
    times = [0.0]
    records = [low.copy()]
    for k in range(1, n_steps + 1):
        low = step(low)
        if k % record_every == 0 or k == n_steps:
            times.append(k * dt)
            records.append(low.copy())
    times = np.array(times)
    states = np.stack(records, axis=0)
    if n_extra:
        omega_hi = np.arange(n_low, n_low + n_extra) + tensor.dim / 2.0
        t_rec = times.reshape((-1,) + (1,) * c0.ndim)  # (records, 1, ..., 1)
        hi = c0[..., n_low:] * np.exp(-1j * t_rec * omega_hi)
        states = np.concatenate([states, hi], axis=-1)
    return Trajectory(times=times, states=states,
                      meta={"integrator": integrator, "dt": dt,
                            "t_final": t_final, "solver_tol": solver_tol,
                            "n_steps": n_steps, **counters})


def reversal_error(tensor, traj):
    """Max deviation from the start after a conjugate-backward run.

    traj is a flow trajectory; only the backward leg is integrated here,
    with the settings traj.meta records.  It uses the conjugation symmetry
    of the flow: conj(c) evolved forward by t equals the conjugate of c
    evolved backward by t (the tensor is real), and both integrators keep
    it step by step.  The midpoint rule is also time-symmetric, so its
    round trip returns to the start to solver tolerance (its iteration
    stops short of the exact implicit step); Lawson RK4 is not, and
    returns only within its own global error.
    """
    meta = traj.meta
    back = flow(tensor, np.conj(traj.states[-1]), dt=meta["dt"],
                t_final=meta["t_final"], integrator=meta["integrator"],
                solver_tol=meta["solver_tol"])
    final = np.conj(back.states[-1])
    return float(np.max(np.abs(final - traj.states[0])))


def vector_field_check(tensor, seed):
    """Finite-difference audit of the cubic term against the energy.

    Checks per coefficient that F_m = (1/4)(d/dx_m + i d/dy_m) E (the packed
    Wirtinger gradient of E/4) and that directional derivatives satisfy
    dE(h) = 2 Re <2F, h>, on FD_STATES random states with central
    differences of step FD_STEP; states and directions are standard complex
    Gaussians from the "flow.vector_field" stream of seed, the states
    scaled by 1/lambda.  Returns the maximal relative deviations.
    """
    gen = derive_rng(seed, "flow.vector_field")
    j = tensor.n_modes
    worst_grad = 0.0
    worst_dir = 0.0
    for _ in range(FD_STATES):
        c = prior_coeffs(gen, j, tensor.lam)
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
        h = standard_complex(gen, j)
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


def invariance_test(tensor, cfg):
    """Evolve a Gibbs ensemble and compare observable laws at t=0 and t_final.

    cfg is the ExperimentConfig; the test reads invariance.ensemble_size,
    invariance.burn_steps, invariance.beta and seed (the ensemble),
    invariance.dt, invariance.t_final, flow.integrator and flow.solver_tol
    (the flow), invariance.kmax and hs_s (the observables),
    invariance.alpha and invariance.negative_control.

    The ensemble targets exp(-E) dmu via parallel pCN chains.  Each
    observable is compared with a two-sample KS test (paired members make
    the test conservative under exact invariance) at the Bonferroni level
    threshold = alpha / (number of observables), which is returned with the
    rows, plus paired z-scores for the first two moments, each at most
    MOMENT_Z_MAX.  With invariance.negative_control set the flow
    drops the quadratic counterterms (S and T) from the vector field only;
    the measure and the recorded energy observable stay those of the full
    model, so a detectable drift is the expected outcome at any
    mode-coupling kernel.
    """
    members = pcn_parallel(tensor, cfg.invariance_ensemble_size,
                           cfg.invariance_burn_steps, cfg.seed,
                           beta=cfg.invariance_beta)
    flow_tensor = tensor
    if cfg.invariance_negative_control:
        flow_tensor = replace(tensor, s_mat=np.zeros_like(tensor.s_mat),
                              t_mat=np.zeros_like(tensor.t_mat))
    traj = flow(flow_tensor, members.coeffs, dt=cfg.invariance_dt,
                t_final=cfg.invariance_t_final,
                integrator=cfg.flow_integrator,
                solver_tol=cfg.flow_solver_tol)
    before = ensemble_observables(tensor, traj.states[0], cfg.invariance_kmax,
                                  cfg.hs_s)
    after = ensemble_observables(tensor, traj.states[-1],
                                 cfg.invariance_kmax, cfg.hs_s)
    threshold = cfg.invariance_alpha / len(before)
    rows = []
    for name, a in before.items():
        b = after[name]
        stat, pval = ks_two_sample(a, b)
        zs = []
        for xa, xb in ((a, b), (a ** 2, b ** 2)):
            d = xb - xa
            se = d.std(ddof=1) / np.sqrt(d.size)
            floor = 1e-9 * (np.std(xa) + 1e-30)
            zs.append(float(d.mean() / max(se, floor)))
        ok = bool(pval >= threshold) and max(map(abs, zs)) <= MOMENT_Z_MAX
        rows.append({"observable": name, "ks_stat": float(stat),
                     "p_value": float(pval), "z_mean": zs[0],
                     "z_second": zs[1], "pass": ok})
    return {"rows": rows, "threshold": threshold,
            "acceptance_rate": members.acc_rate, "meta": traj.meta}

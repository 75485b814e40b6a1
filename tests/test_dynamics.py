from dataclasses import replace

import numpy as np
import pytest

import zdg.dynamics as dynamics
from zdg.dynamics import (ensemble_observables, flow, flow_energy,
                          invariance_test, mass, reversal_error,
                          vector_field_check)
from zdg.config import ExperimentConfig
from zdg.interaction import assemble_interaction, nonlinearity
from zdg.rng import derive_rng, prior_coeffs
from zdg.zonal import build_basis

CONSTANT = ExperimentConfig(kernel_kind="constant", kernel_kappa=1.0)
SEPARABLE = ExperimentConfig(kernel_kind="separable",
                             kernel_profile="one_plus_cos",
                             kernel_amplitude=1.0)
GRIDK = ExperimentConfig(kernel_kind="grid", kernel_name="gaussian_angle",
                         kernel_width=0.7)


@pytest.fixture(scope="module")
def tensor_const():
    return assemble_interaction(build_basis(2, 6, grid_size=30), CONSTANT)


@pytest.fixture(scope="module")
def tensor_sep():
    return assemble_interaction(build_basis(2, 5, grid_size=28), SEPARABLE)


@pytest.fixture(scope="module")
def tensor_grid():
    return assemble_interaction(build_basis(2, 5, grid_size=28), GRIDK)


@pytest.fixture(scope="module")
def tensor_zero():
    return assemble_interaction(build_basis(2, 6, grid_size=30),
                                ExperimentConfig(kernel_kind="constant",
                                                 kernel_kappa=0.0))


def sample_state(tensor, seed=1, size=None):
    shape = (tensor.n_modes,) if size is None else (size, tensor.n_modes)
    return prior_coeffs(derive_rng(seed, "test.dyn"), shape, tensor.lam)


def test_flow_energy_pinned_vacuum_value():
    t0 = assemble_interaction(build_basis(2, 0, grid_size=8), CONSTANT)
    zero = np.zeros(1, dtype=complex)
    assert flow_energy(t0, zero) == pytest.approx(1.0, abs=1e-12)


def test_vector_field_gradient_audit(tensor_sep, tensor_const, monkeypatch):
    # the audit draws from a zdg.rng stream, never from numpy's global API
    def refuse(*args, **kwargs):
        raise AssertionError("np.random.default_rng called")
    monkeypatch.setattr(np.random, "default_rng", refuse)
    for t in (tensor_sep, tensor_const):
        out = vector_field_check(t, seed=3)
        assert out["grad_quarter_energy"] < 1e-6
        assert out["directional"] < 1e-6


def test_free_flow_exact_with_lawson(tensor_zero):
    c0 = sample_state(tensor_zero, seed=5)
    settings = dict(dt=1e-2, t_final=3.0, integrator="lawson-rk4",
                    solver_tol=1e-13)
    traj = flow(tensor_zero, c0, **settings)
    omega = tensor_zero.lam ** 2
    exact = c0 * np.exp(-1j * omega * 3.0)
    assert np.max(np.abs(traj.states[-1] - exact)) < 1e-12


def test_free_flow_midpoint_phase_error_matches_theory(tensor_zero):
    # midpoint rotates each mode by 2 atan(omega h / 2) per step; the phase
    # defect per step is omega^3 h^3 / 12 + O(h^5)
    c0 = np.zeros(tensor_zero.n_modes, dtype=complex)
    c0[-1] = 1.0
    omega = float(tensor_zero.lam[-1] ** 2)
    h = 1e-2
    t_final = 2.0
    settings = dict(dt=h, t_final=t_final, integrator="midpoint",
                    solver_tol=1e-13)
    traj = flow(tensor_zero, c0, **settings)
    exact = np.exp(-1j * omega * t_final)
    got = traj.states[-1][-1]
    predicted_defect = (omega * h) ** 3 / 12.0 * (t_final / h)
    measured = abs(np.angle(got / exact))
    assert measured == pytest.approx(predicted_defect, rel=2e-3)


def test_constant_kernel_conservation(tensor_const):
    c0 = sample_state(tensor_const, seed=7)
    settings = dict(dt=5e-3, t_final=2.0, integrator="midpoint",
                    solver_tol=1e-14, sample_every=50)
    traj = flow(tensor_const, c0, **settings)
    m0 = mass(c0)
    assert np.max(np.abs(mass(traj.states) - m0)) < 1e-11 * m0
    energies = flow_energy(tensor_const, traj.states)
    f0 = energies[0]
    assert np.max(np.abs(energies - f0)) < 1e-10 * max(1, abs(f0))
    # at a constant kernel every mode modulus is individually conserved
    assert np.allclose(np.abs(traj.states[-1]), np.abs(c0), atol=1e-11)


def test_flow_energy_drift_second_order_at_coupling_kernel(tensor_sep):
    # The midpoint rule conserves quadratic invariants exactly but the
    # quartic part of the flow energy only up to a bounded O(dt^2) defect
    # (no secular growth).  Check the bound and the dt^2 scaling.
    c0 = sample_state(tensor_sep, seed=9)
    drifts = {}
    for dt in (4e-3, 2e-3):
        settings = dict(dt=dt, t_final=1.0, integrator="midpoint",
                        solver_tol=1e-14, sample_every=50)
        traj = flow(tensor_sep, c0, **settings)
        energies = flow_energy(tensor_sep, traj.states)
        drifts[dt] = np.max(np.abs(energies - energies[0]))
        assert drifts[dt] < 20.0 * dt ** 2
        masses = mass(traj.states)
        assert np.max(np.abs(masses - masses[0])) < 1e-11 * masses[0]
    ratio = drifts[4e-3] / drifts[2e-3]
    assert 3.2 < ratio < 4.8


def test_integrators_agree_on_coupled_flow(tensor_sep):
    c0 = sample_state(tensor_sep, seed=11)
    mid = flow(tensor_sep, c0, dt=2e-4, t_final=0.5, integrator="midpoint",
               solver_tol=1e-14)
    law = flow(tensor_sep, c0, dt=2e-4, t_final=0.5,
               integrator="lawson-rk4", solver_tol=1e-13)
    assert np.max(np.abs(mid.states[-1] - law.states[-1])) < 2e-6


def test_reversal(tensor_sep):
    c0 = sample_state(tensor_sep, seed=13)
    settings = dict(dt=1e-3, t_final=1.0, integrator="midpoint",
                    solver_tol=1e-14)
    traj = flow(tensor_sep, c0, **settings)
    assert reversal_error(tensor_sep, traj) < 1e-8


@pytest.mark.parametrize("n_extra", [0, 2])
def test_reversal_error_integrates_only_the_backward_leg(tensor_sep,
                                                         monkeypatch,
                                                         n_extra):
    # the state may carry more modes than the tensor
    extra = np.array([0.3 - 0.2j, 0.1 + 0.4j])[:n_extra]
    c0 = np.concatenate([sample_state(tensor_sep, seed=13), extra])
    settings = dict(dt=1e-2, t_final=0.5, integrator="midpoint",
                    solver_tol=1e-14, sample_every=10)
    fwd = flow(tensor_sep, c0, **settings)
    back = flow(tensor_sep, np.conj(fwd.states[-1]),
                **{**settings, "sample_every": 0})
    round_trip = float(np.max(np.abs(np.conj(back.states[-1]) - c0)))
    starts = []
    real = dynamics.flow
    monkeypatch.setattr(dynamics, "flow", lambda t, c, **kw:
                        starts.append(c) or real(t, c, **kw))
    assert reversal_error(tensor_sep, fwd) == round_trip
    assert len(starts) == 1
    assert np.array_equal(starts[0], np.conj(fwd.states[-1]))


@pytest.mark.parametrize("integrator", ["midpoint", "lawson-rk4"])
def test_reversal_error_reads_the_forward_settings(tensor_sep, integrator):
    # the backward leg runs with the settings the trajectory records
    c0 = sample_state(tensor_sep, seed=14)
    settings = dict(dt=2e-2, t_final=0.4, integrator=integrator,
                    solver_tol=1e-9)
    fwd = flow(tensor_sep, c0, sample_every=5, **settings)
    assert {key: fwd.meta[key] for key in settings} == settings
    back = flow(tensor_sep, np.conj(fwd.states[-1]), **settings)
    round_trip = float(np.max(np.abs(np.conj(back.states[-1]) - c0)))
    assert reversal_error(tensor_sep, fwd) == round_trip


def test_gauge_equivariance(tensor_sep):
    c0 = sample_state(tensor_sep, seed=15)
    settings = dict(dt=5e-3, t_final=0.5, integrator="midpoint",
                    solver_tol=1e-14)
    alpha = 0.83
    a = flow(tensor_sep, np.exp(1j * alpha) * c0, **settings).states[-1]
    b = np.exp(1j * alpha) * flow(tensor_sep, c0, **settings).states[-1]
    assert np.max(np.abs(a - b)) < 1e-10


def test_high_mode_riders(tensor_const):
    # state carries extra modes beyond the tensor cutoff; they must rotate
    # with the exact free phases while the low block is unaffected by them
    c0 = sample_state(tensor_const, seed=17)
    extra = np.array([0.3 - 0.2j, 0.1 + 0.4j])
    full = np.concatenate([c0, extra])
    settings = dict(dt=1e-2, t_final=1.0, integrator="midpoint",
                    solver_tol=1e-13)
    traj_full = flow(tensor_const, full, **settings)
    traj_low = flow(tensor_const, c0, **settings)
    assert np.allclose(traj_full.states[-1][:7], traj_low.states[-1],
                       atol=1e-13)
    n_hi = np.arange(7, 9)
    omega_hi = n_hi + 1.0
    expect = extra * np.exp(-1j * omega_hi * 1.0)
    assert np.allclose(traj_full.states[-1][7:], expect, atol=1e-13)


def test_batched_flow_matches_loop(tensor_sep):
    states = sample_state(tensor_sep, seed=19, size=4)
    settings = dict(dt=5e-3, t_final=0.3, integrator="midpoint",
                    solver_tol=1e-14)
    batch = flow(tensor_sep, states, **settings).states[-1]
    for i in range(4):
        single = flow(tensor_sep, states[i], **settings).states[-1]
        assert np.allclose(batch[i], single, atol=1e-10)


def test_flow_argument_validation(tensor_const):
    c0 = sample_state(tensor_const, seed=21)
    settings = dict(dt=1e-3, t_final=1.0, integrator="midpoint",
                    solver_tol=1e-13)
    with pytest.raises(ValueError, match="integer number of dt steps"):
        flow(tensor_const, c0, **{**settings, "dt": 1e-2,
                                  "t_final": 0.305})
    with pytest.raises(ValueError, match="unknown integrator"):
        flow(tensor_const, c0, **{**settings, "integrator": "rk9000"})
    with pytest.raises(ValueError, match="fewer modes"):
        flow(tensor_const, c0[:3], **settings)


def test_trajectory_sampling_grid(tensor_const):
    c0 = sample_state(tensor_const, seed=23)
    settings = dict(dt=0.01, t_final=0.1, integrator="midpoint",
                    solver_tol=1e-13, sample_every=4)
    traj = flow(tensor_const, c0, **settings)
    assert np.allclose(traj.times, [0.0, 0.04, 0.08, 0.1])


@pytest.mark.parametrize("size", [None, 5])
def test_flow_evaluates_no_energy_or_mass(tensor_sep, monkeypatch, size):
    def refuse(*args):
        raise AssertionError("flow evaluated an energy or a mass")

    monkeypatch.setattr(dynamics, "interaction_energy", refuse)
    monkeypatch.setattr(dynamics, "mass", refuse)
    settings = dict(dt=0.01, t_final=0.1, integrator="midpoint",
                    solver_tol=1e-13, sample_every=4)
    traj = flow(tensor_sep, sample_state(tensor_sep, seed=4, size=size),
                **settings)
    assert len(traj.times) == len(traj.states) == 4
    assert set(vars(traj)) == {"times", "states", "meta"}


def test_observables_table(tensor_const):
    coeffs = sample_state(tensor_const, seed=25, size=64)
    obs = ensemble_observables(tensor_const, coeffs, kmax=3, sobolev_s=-0.6)
    assert set(obs) == {"re_c0", "im_c0", "abs2_c0", "re_c1", "im_c1",
                        "abs2_c1", "re_c2", "im_c2", "abs2_c2", "re_c3",
                        "im_c3", "abs2_c3", "energy", "hs_norm"}
    assert all(v.shape == (64,) for v in obs.values())


def test_invariance_positive_and_negative_controls(tensor_sep):
    cfg = ExperimentConfig(
        seed=2024, hs_s=-0.6, flow_integrator="midpoint",
        flow_solver_tol=1e-12, invariance_ensemble_size=2500,
        invariance_t_final=1.5, invariance_dt=0.01, invariance_alpha=0.01,
        invariance_kmax=4, invariance_burn_steps=600, invariance_beta=0.35)
    good = invariance_test(tensor_sep, cfg)
    failed = [r for r in good["rows"] if not r["pass"]]
    assert not failed, failed
    assert good["threshold"] == 0.01 / len(good["rows"])
    bad = invariance_test(tensor_sep,
                          replace(cfg, invariance_negative_control=True))
    energy_row = next(r for r in bad["rows"] if r["observable"] == "energy")
    assert not energy_row["pass"]


def test_invariance_paired_moments_catch_what_ks_misses(monkeypatch):
    # a flow that scales the ensemble by 1 + 1e-4 moves no law far enough
    # for KS, but the paired moments see it: re_c1's |z| sits near 23, so
    # a moment bound of 40 would let it pass
    tensor = assemble_interaction(build_basis(2, 4), CONSTANT)
    cfg = ExperimentConfig(seed=5, invariance_ensemble_size=1024,
                           invariance_kmax=4)
    for scale, passes in ((1.0, True), (1 + 1e-4, False)):
        monkeypatch.setattr(dynamics, "flow", lambda t, c, **kw:
                            dynamics.Trajectory(np.array([0.0, 1.0]),
                                                np.stack([c, c * scale])))
        res = invariance_test(tensor, cfg)
        assert len(res["rows"]) == 17
        assert all(r["p_value"] >= res["threshold"] for r in res["rows"])
        rows = {r["observable"]: r for r in res["rows"]}
        assert all(r["pass"] for r in rows.values()) == passes
    z = max(abs(rows["re_c1"]["z_mean"]), abs(rows["re_c1"]["z_second"]))
    assert 4 < z < 40
    assert not rows["re_c1"]["pass"]


def test_invariance_test_makes_two_energy_calls(tensor_sep, monkeypatch):
    # the observables' energies at t = 0 and t_final; the flow adds none
    calls = []
    real = dynamics.interaction_energy
    monkeypatch.setattr(dynamics, "interaction_energy",
                        lambda t, c: calls.append(c.shape) or real(t, c))
    cfg = ExperimentConfig(seed=2024, invariance_ensemble_size=16,
                           invariance_t_final=0.05, invariance_dt=0.01,
                           invariance_burn_steps=5)
    invariance_test(tensor_sep, cfg)
    assert calls == [(16, tensor_sep.n_modes)] * 2


@pytest.mark.parametrize("max_iter", [100, 8])
def test_midpoint_counters_in_trajectory_meta(tensor_sep, monkeypatch,
                                              max_iter):
    calls = []
    real = dynamics.nonlinearity
    monkeypatch.setattr(dynamics, "nonlinearity",
                        lambda t, c: calls.append(1) or real(t, c))
    monkeypatch.setattr(dynamics, "MAX_ITER", max_iter)
    settings = dict(dt=0.01, t_final=0.02, integrator="midpoint",
                    solver_tol=1e-13)
    traj = flow(tensor_sep, sample_state(tensor_sep, size=4), **settings)
    assert traj.meta["n_steps"] == 2
    assert traj.meta["f_evals"] == len(calls)
    if max_iter == 100:
        assert traj.meta["halvings"] == 0
        assert 2 <= traj.meta["f_evals"] <= 2 * max_iter
    else:
        # eight iterations cannot reach the tolerance at this step size
        assert traj.meta["halvings"] > 0


# --- the extrapolated midpoint start ----------------------------------------


def _free_start_flow(tensor, c0, dt, t_final, solver_tol, **_):
    """The midpoint flow with every step started from the free guess."""
    counters = {"f_evals": 0, "halvings": 0}
    c = np.asarray(c0, dtype=complex)
    for _ in range(int(round(t_final / dt))):
        c = dynamics._midpoint_step(tensor, c, dt, solver_tol, counters)
    return c, counters


def test_extrapolation_is_exact_on_quadratics():
    rng = np.random.default_rng(0)
    a, b, q = (rng.normal(size=5) for _ in range(3))

    def p(k):
        return a + b * k + q * k * k

    ahead = dynamics._extrapolated([p(0.0), p(-1.0), p(-2.0)])
    assert np.allclose(ahead, p(1.0), rtol=0, atol=1e-13)
    assert np.allclose(dynamics._extrapolated([b, 0.0 * b]), 2.0 * b)
    assert dynamics._extrapolated([a]) is a


@pytest.mark.parametrize("kind", ["separable", "grid"])
def test_extrapolated_start_matches_free_start_flows(tensor_sep, tensor_grid,
                                                     kind):
    tensor = {"separable": tensor_sep, "grid": tensor_grid}[kind]
    c0 = sample_state(tensor, seed=27, size=8)
    settings = dict(dt=5e-3, t_final=0.5, integrator="midpoint",
                    solver_tol=1e-13)
    traj = flow(tensor, c0, **settings)
    free, counters = _free_start_flow(tensor, c0, **settings)
    assert np.max(np.abs(traj.states[-1] - free)) <= 1e-10
    assert traj.meta["halvings"] == counters["halvings"] == 0
    # the start saves cubic-term calls: about 8 per step become 5 or 6
    assert traj.meta["f_evals"] < 0.8 * counters["f_evals"]


def test_halving_clears_the_history(tensor_sep, monkeypatch):
    c = sample_state(tensor_sep, seed=29, size=4)
    monkeypatch.setattr(dynamics, "MAX_ITER", 8)  # eight cannot converge
    # a history that points the wrong way: the split must discard it
    history = [-dynamics._nl_part(tensor_sep, c)] * 3
    counters = {"f_evals": 0, "halvings": 0}
    got = dynamics._midpoint_step(tensor_sep, c, 0.01, 1e-13, counters,
                                  history)
    assert counters["halvings"] > 0
    assert history == []
    free_counters = {"f_evals": 0, "halvings": 0}
    want = dynamics._midpoint_step(tensor_sep, c, 0.01, 1e-13, free_counters)
    # the half steps start free, so only the failed full step differs
    assert got.tobytes() == want.tobytes()
    assert counters["halvings"] == free_counters["halvings"]
    # the next step starts free too, and a converged step keeps its part
    nxt = dynamics._midpoint_step(tensor_sep, got, 1e-3, 1e-13, counters,
                                  history)
    free_nxt = dynamics._midpoint_step(tensor_sep, got, 1e-3, 1e-13,
                                       free_counters)
    assert nxt.tobytes() == free_nxt.tobytes()
    assert len(history) == 1


# --- an exact flow: the constant kernel -------------------------------------
# With w = kappa, F_n = kappa (|c|^2 - tau - 1/lambda_n^2) c_n, tau the sum
# of 1/lambda_p^2, is a diagonal phase and |c|^2 is conserved, so
# c_n(t) = c_n(0) exp(-i t (lambda_n^2 + 2 kappa (|c|^2 - tau - 1/lambda_n^2)))

KAPPA = 1.0


def _closed_form_phase(tensor, c):
    il2 = 1.0 / tensor.lam ** 2
    m = np.sum(np.abs(c) ** 2, axis=-1, keepdims=True)
    return KAPPA * (m - il2.sum() - il2)


@pytest.mark.parametrize("cutoff", [8, 64])
def test_constant_kernel_cubic_term_is_the_closed_form(cutoff):
    t = assemble_interaction(build_basis(2, cutoff),
                             ExperimentConfig(kernel_kind="constant",
                                              kernel_kappa=KAPPA))
    c = sample_state(t, seed=31, size=16)
    exact = _closed_form_phase(t, c) * c
    got = nonlinearity(t, c)
    assert np.max(np.abs(got - exact)) <= 1e-13 * np.max(np.abs(exact))


def test_midpoint_converges_at_second_order_to_the_exact_flow():
    t = assemble_interaction(build_basis(2, 8),
                             ExperimentConfig(kernel_kind="constant",
                                              kernel_kappa=KAPPA))
    c0 = sample_state(t, seed=33, size=4)
    exact = c0 * np.exp(-1j * (t.lam ** 2 + 2.0 * _closed_form_phase(t, c0)))
    errors = []
    for dt in (1e-3, 5e-4):
        settings = dict(dt=dt, t_final=1.0, integrator="midpoint",
                        solver_tol=1e-13)
        err = np.max(np.abs(flow(t, c0, **settings).states[-1] - exact))
        free, _ = _free_start_flow(t, c0, **settings)
        assert abs(err - np.max(np.abs(free - exact))) <= 1e-10
        errors.append(err)
    assert 3.8 < errors[0] / errors[1] < 4.2


def _ks_cases(n, rng):
    a = rng.normal(size=n)
    yield a, rng.normal(size=n)  # random
    yield a, rng.normal(0.4, 1.0, size=n)  # shifted
    yield (rng.integers(0, 3, size=n).astype(float),
           rng.integers(0, 3, size=n).astype(float))  # tied
    yield a, a.copy()  # identical
    yield a, a * (1.0 + 1e-15 * rng.normal(size=n))  # D = 1/n at most


# 5 and 30: P(D >= 1/n) rounds above 1, where ks_two_sample clips it and
# scipy falls back to its asymptotic law, which is 1.0 there too;
# 10001: above the largest size scipy's method "auto" runs exactly
@pytest.mark.parametrize("n", [1, 2, 5, 17, 30, 256, 1024, 10001])
def test_ks_two_sample_is_bitwise_scipy(n):
    import warnings

    from scipy.stats import ks_2samp

    from zdg.dynamics import ks_two_sample
    rng = np.random.default_rng(n)
    for _ in range(4):
        for a, b in _ks_cases(n, rng):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                want = ks_2samp(a, b, method="exact")
                got = ks_two_sample(a, b)
            assert got == (float(want.statistic), float(want.pvalue))


def test_ks_two_sample_refuses_unequal_sizes():
    from zdg.dynamics import ks_two_sample
    with pytest.raises(ValueError, match="equal size"):
        ks_two_sample(np.zeros(3), np.zeros(4))


def test_ks_two_sample_refuses_nan():
    from zdg.dynamics import ks_two_sample
    a = np.arange(5.0)
    with pytest.raises(ValueError, match="NaN"):
        ks_two_sample(a, np.where(a == 2.0, np.nan, a))


def test_ks_two_sample_clips_the_h_one_probability_to_one():
    from zdg.dynamics import ks_two_sample
    for n in (5, 7, 13, 30):
        a = np.arange(float(n))
        assert ks_two_sample(a, a + 0.5) == (1.0 / n, 1.0)


def test_importing_dynamics_leaves_scipy_stats_unloaded():
    import os
    import subprocess
    import sys
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    code = ("import sys, zdg.dynamics, zdg.cli; "
            "print('scipy.stats' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"

"""Acceptance checks at the pinned reference scales and tolerances.

One test per pinned property.  Sizes, tolerances, and time budgets are
frozen here and are not meant to be relaxed; two growth-fit checks are
expected to fail on finite windows and carry the measured analysis in
their assertion messages (see the nelson growth and weight-norm trend
tests).  Everything else must stay green.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from zdg.clifford import anticommutator_check, build_gamma_family
from zdg.config import ExperimentConfig
from zdg.dynamics import (flow, flow_energy, invariance_test, mass,
                          reversal_error, vector_field_check)
from zdg.gibbs import (cauchy_decay_study, chain_mean, importance_ensemble,
                       lr_stability_study, nelson_scan, pcn_chain,
                       weighted_mean)
from zdg.interaction import (assemble_interaction,
                             grid_energy_context, interaction_energy,
                             interaction_energy_grid, nonlinearity,
                             nonlinearity_grid, wick_energy_literal,
                             wick_quartic_cov, wick_quartic_cov_enumerated)
from zdg.rng import derive_rng, prior_coeffs, standard_complex
from zdg.zonal import (analyze, build_basis, dirac_apply_grid, gram_matrix,
                       lp_norm, synthesize)

CONST = ExperimentConfig(kernel_kind="constant", kernel_kappa=1.0)
SEED = 20260817


@pytest.fixture(scope="module")
def basis64():
    return build_basis(2, 64)


@pytest.fixture(scope="module")
def t64(basis64):
    return assemble_interaction(basis64, CONST)


@pytest.fixture(scope="module")
def basis16():
    return build_basis(2, 16)


@pytest.fixture(scope="module")
def t16_const(basis16):
    return assemble_interaction(basis16, CONST)


@pytest.fixture(scope="module")
def t16_sep(basis16):
    kernel = ExperimentConfig(kernel_kind="separable",
                              kernel_profile="one_plus_cos",
                              kernel_amplitude=1.0)
    return assemble_interaction(basis16, kernel)


@pytest.fixture(scope="module")
def t8_const():
    return assemble_interaction(build_basis(2, 8), CONST)


def test_clifford_relations_exact_through_dim_twelve():
    t0 = time.perf_counter()
    for d in range(1, 13):
        chk = anticommutator_check(build_gamma_family(d))
        assert chk["algebra"], d
        assert chk["hermitian"], d
        assert chk["size"], d
    assert time.perf_counter() - t0 < 1.0


def test_eigenrelation_residual_per_node():
    t0 = time.perf_counter()
    for d in (2, 4):
        basis = build_basis(d, 30, grid_size=128)
        for n in range(basis.n_modes):
            got = dirac_apply_grid(basis, basis.values[n])
            want = -1j * basis.omega[n] * basis.values[n]
            assert np.max(np.abs(got - want)) <= 1e-9, (d, n)
    assert time.perf_counter() - t0 < 5.0


def test_gram_orthonormality_deviation():
    basis = build_basis(2, 32, grid_size=80)
    dev = np.max(np.abs(gram_matrix(basis) - np.eye(33)))
    assert dev <= 1e-10


def test_lp_growth_exponent_bounds(basis64):
    window = range(8, 65)
    log_lam = np.log([basis64.lam[n] for n in window])
    for p in (4, 6):
        bound = 2 * (2 / 2 - 2 / p) + 0.1
        log_np = np.log([lp_norm(basis64.grid, basis64.values[n], p)
                         for n in window])
        slope = np.polyfit(log_lam, log_np, 1)[0]
        assert slope <= bound, (p, slope)


def test_wick_covariance_closed_form_vs_enumeration_exhaustive():
    t0 = time.perf_counter()
    tuples = np.indices((4,) * 8).reshape(8, -1).T
    closed = wick_quartic_cov(tuples[:, :4], tuples[:, 4:])
    enum = wick_quartic_cov_enumerated(tuples[:, :4], tuples[:, 4:])
    assert np.array_equal(closed, enum)
    assert time.perf_counter() - t0 < 1.0


def test_pathwise_energy_identity_both_kernel_families(t16_const, t16_sep):
    g = standard_complex(derive_rng(SEED, "acc.pathwise"), (100, 17))
    for tensor in (t16_const, t16_sep):
        e_field = interaction_energy(tensor, g / tensor.lam)
        for i in range(100):
            lit = wick_energy_literal(tensor, g[i])
            denom = max(1.0, abs(lit))
            assert abs(e_field[i] - lit) / denom <= 1e-9, i


def test_energy_and_nonlinearity_match_grid_quadrature(t16_sep, basis16):
    ctx = grid_energy_context(basis16, t16_sep.wmat)
    c = prior_coeffs(derive_rng(SEED, "acc.grid"), (50, 17), t16_sep.lam)
    e_coeff = interaction_energy(t16_sep, c)
    f_coeff = nonlinearity(t16_sep, c)
    for i in range(50):
        values = synthesize(basis16, c[i])
        e_grid = interaction_energy_grid(ctx, values)
        scale = max(1.0, abs(e_grid))
        assert abs(e_coeff[i] - e_grid) / scale <= 1e-8, i
        f_grid = analyze(basis16, nonlinearity_grid(ctx, values))
        fscale = max(1.0, np.max(np.abs(f_grid)))
        assert np.max(np.abs(f_coeff[i] - f_grid)) / fscale <= 1e-8, i


def test_vacuum_anchor_closed_form():
    tensor = assemble_interaction(build_basis(2, 0, grid_size=8), CONST)
    zero = np.zeros(1, dtype=complex)
    e0 = float(interaction_energy(tensor, zero))
    assert abs(e0 - 2.0) <= 1e-12
    assert abs(np.exp(-e0) - np.exp(-2.0)) <= 1e-12


def test_cauchy_increment_mc_vs_series_and_decay_slope(t64):
    out = cauchy_decay_study(t64, [4, 8, 16, 32], 100000, SEED)
    for row in out["rows"]:
        assert abs(row["z"]) <= 3.0, row
        assert row["exact"] <= row["bound"] * (1 + 1e-12), row
    assert out["slope"] <= -0.4 / 2 + 0.1


def test_nelson_bound_minimum_over_million_samples(t64):
    out = nelson_scan(t64.slice(32), [4, 8, 16, 32], 1000000, SEED)
    for row in out["rows"]:
        assert row["respects_bound"], row


def test_nelson_bound_growth_exponent(t64):
    out = nelson_scan(t64.slice(32), [4, 8, 16, 32], 1000, SEED)
    slope = out["growth_slope"]
    threshold = 3 * 2 / 25.0 + 0.1
    assert slope <= threshold, (
        f"finite-window growth fit fails as measured: fitted exponent "
        f"{slope:.3f} > {threshold:.2f}. The bound magnitude is "
        f"3*e0_const = 3 kappa (sum_n 1/omega_n)^2 at a constant kernel, "
        f"which grows like (log N)^2; a log-log fit of that across one "
        f"dyadic window reads as a power near 2 log log-slope, here "
        f"~0.56, and no admissible ensemble or window change brings it "
        f"under the power-law threshold. The quantity that is actually "
        f"summable (the Gibbs weight) is covered by the weight-norm "
        f"saturation and minimum-bound checks, which pass.")


def test_nonlinearity_matches_quarter_energy_gradient(t8_const):
    out = vector_field_check(t8_const, seed=SEED)
    assert out["grad_quarter_energy"] <= 1e-5
    assert out["directional"] <= 1e-5


def test_flow_linear_phases_conservation_and_reversal(basis16, t16_const):
    zero_kernel = assemble_interaction(basis16,
                                       ExperimentConfig(kernel_kind="constant",
                                                        kernel_kappa=0.0))
    c0 = prior_coeffs(derive_rng(SEED, "acc.flow"), (17,), basis16.lam)
    traj = flow(zero_kernel, c0, dt=1e-3, t_final=10.0,
                integrator="lawson-rk4", solver_tol=1e-13, sample_every=10000)
    exact = c0 * np.exp(-1j * basis16.omega * 10.0)
    assert np.max(np.abs(traj.states[-1] - exact)) <= 1e-8

    traj2 = flow(t16_const, c0, dt=1e-3, t_final=10.0, integrator="midpoint",
                 solver_tol=1e-14, sample_every=100)
    masses = mass(traj2.states)
    energies = flow_energy(t16_const, traj2.states)
    m0, f0 = masses[0], energies[0]
    assert np.max(np.abs(masses - m0)) <= 1e-8 * abs(m0)
    assert np.max(np.abs(energies - f0)) <= 1e-8 * abs(f0)
    assert reversal_error(t16_const, traj2) <= 1e-6


def test_invariance_ks_suite_and_negative_control(t8_const):
    cfg = ExperimentConfig(
        seed=SEED, hs_s=-0.6, flow_integrator="midpoint",
        flow_solver_tol=1e-12, invariance_ensemble_size=4096,
        invariance_t_final=5.0, invariance_dt=5e-3, invariance_alpha=0.01,
        invariance_kmax=8, invariance_burn_steps=400, invariance_beta=0.4)
    res = invariance_test(t8_const, cfg)
    failed = [r["observable"] for r in res["rows"] if not r["pass"]]
    assert not failed, failed

    broken = assemble_interaction(
        build_basis(2, 8), ExperimentConfig(kernel_kind="separable",
                                            kernel_profile="one_plus_cos",
                                            kernel_amplitude=1.5))
    res_neg = invariance_test(broken,
                              replace(cfg, invariance_negative_control=True))
    energy_row = next(r for r in res_neg["rows"]
                      if r["observable"] == "energy")
    assert not energy_row["pass"], energy_row


def test_sampler_cross_validation_second_moments(t8_const):
    coeffs, log_weights = importance_ensemble(t8_const, 20000, SEED)
    chain = pcn_chain(t8_const, 20000, SEED)
    for k in range(9):
        m1, se1 = weighted_mean(np.abs(coeffs[:, k]) ** 2, log_weights)
        m2, se2, _ = chain_mean(np.abs(chain.coeffs[:, k]) ** 2)
        se = np.hypot(se1, se2)
        assert abs(m1 - m2) <= 3.0 * se, (k, m1, m2, se)


def test_weight_norm_trend_slope_ci(t64):
    out = lr_stability_study(t64, [4, 8, 16, 32, 64], [2, 4], 200000, SEED)
    for r in (2, 4):
        rows = out[r]["rows"]
        x = np.log([row["n"] for row in rows])
        y = np.array([row["log_norm"] for row in rows])
        slope, intercept = np.polyfit(x, y, 1)
        resid = y - (slope * x + intercept)
        se = np.sqrt(resid @ resid / (len(x) - 2) / np.sum((x - x.mean())
                                                           ** 2))
        ci_lo = slope - 3.182 * se
        increments = [d["delta"] for d in out[r]["increments"]]
        assert ci_lo <= 0.0, (
            f"no-increasing-trend fit fails as measured at r = {r}: slope "
            f"{slope:.3f}, 95% CI [{ci_lo:.3f}, "
            f"{slope + 3.182 * se:.3f}] excludes zero. The norms climb "
            f"toward a finite limit across this window, so any trend fit "
            f"is positive; the boundedness signature that does hold is "
            f"saturation, with strictly decreasing dyadic increments "
            f"{np.round(increments, 3).tolist()} (checked in the unit "
            f"suite). Stable across seeds and ensemble sizes, so a "
            f"wider CI would mean less data, not more evidence.")

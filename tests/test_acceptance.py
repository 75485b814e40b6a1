"""Acceptance checks at the pinned reference scales and tolerances.

One test per pinned property.  Sizes, tolerances, and time budgets are
frozen here and are not meant to be relaxed; two growth-fit checks are
expected to fail on finite windows and carry the measured analysis in
their assertion messages (see the nelson growth and weight-norm trend
tests).  Everything else must stay green.
"""

import time

import numpy as np
import pytest

from zdg.clifford import anticommutator_check, build_gamma_family
from zdg.config import ExperimentConfig
from zdg.dynamics import (FlowConfig, flow, invariance_test, reversal_error,
                          vector_field_check)
from zdg.field import gaussian_coeffs
from zdg.gibbs import (cauchy_decay_study, chain_mean, importance_ensemble,
                       lr_stability_study, nelson_scan, pcn_chain,
                       weighted_mean)
from zdg.interaction import (assemble_interaction,
                             grid_energy_context, interaction_energy,
                             interaction_energy_grid, nonlinearity,
                             nonlinearity_grid, wick_energy_literal,
                             wick_quartic_cov, wick_quartic_cov_enumerated)
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
    g = gaussian_coeffs(SEED, "acc.pathwise", 17, 100)
    for tensor in (t16_const, t16_sep):
        e_field = interaction_energy(tensor, g / tensor.lam)
        for i in range(100):
            lit = wick_energy_literal(tensor, g[i])
            denom = max(1.0, abs(lit))
            assert abs(e_field[i] - lit) / denom <= 1e-9, i


def test_energy_and_nonlinearity_match_grid_quadrature(t16_sep, basis16):
    ctx = grid_energy_context(basis16, t16_sep.wmat)
    g = gaussian_coeffs(SEED, "acc.grid", 17, 50)
    c = g / t16_sep.lam
    e_coeff = interaction_energy(t16_sep, c)
    f_coeff = nonlinearity(t16_sep, c)
    for i in range(50):
        values = synthesize(basis16, c[i])
        e_grid = interaction_energy_grid(basis16, ctx, values)
        scale = max(1.0, abs(e_grid))
        assert abs(e_coeff[i] - e_grid) / scale <= 1e-8, i
        f_grid = analyze(basis16, nonlinearity_grid(basis16, ctx, values))
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
    g = gaussian_coeffs(SEED, "acc.flow", 17)
    c0 = g / basis16.lam
    cfg_lin = FlowConfig(dt=1e-3, t_final=10.0, integrator="lawson-rk4",
                         solver_tol=1e-13, sample_every=10000)
    traj = flow(zero_kernel, c0, cfg_lin)
    exact = c0 * np.exp(-1j * basis16.omega * 10.0)
    assert np.max(np.abs(traj.states[-1] - exact)) <= 1e-8

    cfg_mid = FlowConfig(dt=1e-3, t_final=10.0, integrator="midpoint",
                         solver_tol=1e-14, sample_every=100)
    traj2 = flow(t16_const, c0, cfg_mid)
    m0 = traj2.mass[0]
    h0 = traj2.hamiltonian[0]
    assert np.max(np.abs(traj2.mass - m0)) <= 1e-8 * abs(m0)
    assert np.max(np.abs(traj2.hamiltonian - h0)) <= 1e-8 * abs(h0)
    assert reversal_error(t16_const, c0, cfg_mid) <= 1e-6


def test_invariance_ks_suite_and_negative_control(t8_const):
    knobs = dict(alpha=0.01, kmax=8, burn_steps=400, beta=0.4,
                 integrator="midpoint", solver_tol=1e-12, sobolev_s=-0.6)
    res = invariance_test(t8_const, 4096, 5.0, 5e-3, SEED, **knobs)
    failed = [r["observable"] for r in res["rows"] if not r["pass"]]
    assert res["all_pass"], failed

    broken = assemble_interaction(
        build_basis(2, 8), ExperimentConfig(kernel_kind="separable",
                                            kernel_profile="one_plus_cos",
                                            kernel_amplitude=1.5))
    res_neg = invariance_test(broken, 4096, 5.0, 5e-3, SEED, **knobs,
                              disable_counterterms=True)
    energy_row = next(r for r in res_neg["rows"]
                      if r["observable"] == "energy")
    assert not energy_row["pass"], energy_row


def test_sampler_cross_validation_second_moments(t8_const):
    imp = importance_ensemble(t8_const, 20000, SEED)
    chain = pcn_chain(t8_const, 20000, SEED)
    for k in range(9):
        m1, se1 = weighted_mean(np.abs(imp.coeffs[:, k]) ** 2,
                                imp.log_weights)
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

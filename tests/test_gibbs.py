import logging
import tracemalloc
from fractions import Fraction
from statistics import NormalDist
from unittest import mock

import numpy as np
import pytest

from zdg import gibbs, interaction
from zdg import rng as rng_mod
from zdg.gibbs import (_adapt_beta, _normal_scores, cauchy_decay_study,
                       chain_mean, effective_sample_size,
                       importance_ensemble, integrated_autocorr,
                       logsumexp, lr_stability_study, nelson_scan,
                       pcn_chain, pcn_parallel, rank_diagnostics,
                       weighted_mean)
from zdg.config import ExperimentConfig
from zdg.interaction import (assemble_interaction, chaos_tail_series,
                             interaction_energy)
from zdg.zonal import build_basis

CONSTANT = ExperimentConfig(kernel_kind="constant", kernel_kappa=1.0)
GRIDK = ExperimentConfig(kernel_kind="grid", kernel_name="gaussian_angle",
                         kernel_width=0.7)


@pytest.fixture(scope="module")
def tensor_n3():
    basis = build_basis(2, 3, grid_size=24)
    return assemble_interaction(basis, CONSTANT)


@pytest.fixture(scope="module")
def tensor_n16():
    basis = build_basis(2, 16, grid_size=50)
    return assemble_interaction(basis, CONSTANT)


def test_effective_sample_size_limits():
    assert effective_sample_size(np.zeros(100)) == pytest.approx(100.0)
    lw = np.full(100, -30.0)
    lw[0] = 0.0
    assert effective_sample_size(lw) == pytest.approx(1.0, rel=1e-10)


def test_weighted_mean_reduces_to_plain_mean():
    x = np.arange(10.0)
    mean, se = weighted_mean(x, np.zeros(10))
    assert mean == pytest.approx(x.mean())
    assert se == pytest.approx(x.std() / np.sqrt(10), rel=0.1)


def test_weighted_mean_known_case():
    x = np.array([1.0, 3.0])
    mean, _ = weighted_mean(x, np.log([0.25, 0.75]))
    assert mean == pytest.approx(0.25 * 1 + 0.75 * 3)


def test_integrated_autocorr_iid_and_ar1():
    rng = np.random.default_rng(3)
    iid = rng.normal(size=20000)
    assert integrated_autocorr(iid) == pytest.approx(1.0, abs=0.15)
    phi = 0.8
    ar = np.empty(40000)
    ar[0] = 0.0
    noise = rng.normal(size=40000)
    for i in range(1, 40000):
        ar[i] = phi * ar[i - 1] + noise[i]
    expected = (1 + phi) / (1 - phi)
    assert integrated_autocorr(ar) == pytest.approx(expected, rel=0.25)


def test_chain_mean_standard_error_is_calibrated():
    # 300 AR(1) series at rho = 0.9, so tau = (1 + rho) / (1 - rho) = 19:
    # mean / se is standard normal across the series only when se carries
    # the IACT factor (without it the spread reads about 4.1)
    rng = np.random.default_rng(0)
    rho, n_series, n = 0.9, 300, 4000
    noise = rng.normal(size=(n, n_series))
    x = np.empty((n, n_series))
    x[0] = noise[0] / np.sqrt(1 - rho ** 2)
    for i in range(1, n):
        x[i] = rho * x[i - 1] + noise[i]
    mean, se, tau = np.array([chain_mean(col) for col in x.T]).T
    assert 0.85 <= np.std(mean / se) <= 1.25
    assert np.mean(tau) == pytest.approx(19.0, rel=0.15)


def test_importance_ensemble_reproducible(tensor_n3):
    a, a_lw = importance_ensemble(tensor_n3, 500, seed=11)
    b, b_lw = importance_ensemble(tensor_n3, 500, seed=11)
    assert np.array_equal(a, b)
    assert np.array_equal(a_lw, b_lw)
    assert 1.0 <= effective_sample_size(a_lw) <= 500.0
    assert np.all(np.isfinite(a_lw))
    c, _ = importance_ensemble(tensor_n3, 500, seed=12)
    assert not np.allclose(a, c)


def test_pcn_chain_basics(tensor_n3):
    ens = pcn_chain(tensor_n3, 400, seed=21)
    assert ens.coeffs.shape == (400, 4)
    assert 0.0 < ens.acc_rate < 1.0
    assert ens.thin >= 1
    assert ens.iact >= 1.0
    again = pcn_chain(tensor_n3, 400, seed=21)
    assert np.array_equal(ens.coeffs, again.coeffs)


def test_split_rhat_iid_vs_disagreeing_chains():
    rng = np.random.default_rng(7)
    iid = rng.normal(size=(4, 1000))
    assert rank_diagnostics(iid)[0] == pytest.approx(1.0, abs=0.01)
    assert rank_diagnostics(iid[:1])[0] == pytest.approx(1.0, abs=0.01)
    shifted = iid + np.array([[0.0], [0.0], [0.0], [2.0]])
    assert rank_diagnostics(shifted)[0] > 1.1
    # one chain that drifts: its halves disagree
    assert rank_diagnostics(iid[0] + np.linspace(0.0, 3.0, 1000))[0] > 1.1
    # same location, different spread: only the folded (tail) part sees it
    scaled = iid * np.array([[1.0], [1.0], [1.0], [4.0]])
    assert rank_diagnostics(scaled)[0] > 1.1
    assert np.isnan(rank_diagnostics(iid[:, :3])[0])


def _old_split_rhat(series):
    """rank_diagnostics' split-R-hat with its np.median tail centre."""
    halves = gibbs._split_halves(series)
    if halves is None:
        return float("nan")
    folded = np.abs(halves - np.median(halves))
    return max(gibbs._rhat(_normal_scores(halves)),
               gibbs._rhat(_normal_scores(folded)))


@pytest.mark.parametrize("draws", [1000, 1001, 1002, 1003])
def test_split_rhat_is_bitwise_the_np_median_version(draws):
    # draws // 2 runs over odd and even half lengths
    rng = np.random.default_rng(draws)
    iid = rng.normal(size=(4, draws))
    # rejected pCN proposals repeat the previous state
    repeats = np.repeat(rng.normal(size=(3, draws // 4 + 1)), 4,
                        axis=1)[:, :draws]
    drift = iid[0] + np.linspace(0.0, 3.0, draws)
    for series in (iid, iid[:1], iid[:3], repeats, drift):
        assert rank_diagnostics(series)[0] == _old_split_rhat(series)
    for x in (iid, repeats, iid[:, :7], iid[:1, :1]):  # odd and even sizes
        assert gibbs._median(x) == np.median(x)


def test_pcn_chain_and_split_rhat_leave_numpy_ma_unloaded():
    import os
    import subprocess
    import sys
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    code = (
        "import sys\n"
        "from zdg.gibbs import pcn_chain, rank_diagnostics\n"
        "from zdg.config import ExperimentConfig\n"
        "from zdg.interaction import assemble_interaction\n"
        "from zdg.zonal import build_basis\n"
        "t = assemble_interaction(build_basis(2, 3), ExperimentConfig("
        "kernel_kind='constant', kernel_kappa=1.0))\n"
        "ens = pcn_chain(t, 600, seed=2)\n"
        "assert ens.rhat == ens.rhat\n"
        "rank_diagnostics(ens.coeffs.real.T)\n"
        "print('numpy.ma' in sys.modules)\n")
    run = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert run.stdout.strip() == "False"


def test_bulk_ess_iid_and_ar1_chains():
    rng = np.random.default_rng(11)
    chains, n = 8, 1000
    assert rank_diagnostics(rng.normal(size=(chains, n)))[1] \
        == pytest.approx(chains * n, rel=0.25)
    # AR(1) at rho = 0.5: tau = (1 + rho) / (1 - rho) = 3
    noise = rng.normal(size=(chains, n))
    ar = np.empty_like(noise)
    ar[:, 0] = noise[:, 0] / np.sqrt(0.75)
    for t in range(1, n):
        ar[:, t] = 0.5 * ar[:, t - 1] + noise[:, t]
    assert rank_diagnostics(ar)[1] == pytest.approx(chains * n / 3, rel=0.25)
    assert rank_diagnostics(ar[:1])[1] == pytest.approx(n / 3, rel=0.25)
    assert np.isnan(rank_diagnostics(ar[:, :3])[1])


@pytest.mark.filterwarnings("error")
def test_rank_diagnostics_of_a_constant_series_are_nan():
    # a zero kernel's pCN chain accepts every proposal at energy 0
    for series in (np.zeros((4, 100)), np.full((1, 7), 2.5)):
        rhat, ess = rank_diagnostics(series)
        assert np.isnan(rhat) and np.isnan(ess)


def _blom_scores(x):
    from scipy.stats import rankdata
    points = (rankdata(x, axis=None) - 0.375) / (x.size + 0.25)
    return np.array([NormalDist().inv_cdf(p) for p in points]).reshape(x.shape)


def test_normal_scores_average_tied_ranks():
    rng = np.random.default_rng(8)
    # repeated values, as a chain that rejects proposals produces; the
    # second series spans four SCORE_CHUNK blocks
    assert 5 * 2500 > 3 * gibbs.SCORE_CHUNK
    for x in (np.round(rng.normal(size=(3, 40)), 1),
              np.round(rng.normal(size=(5, 2500)), 2)):
        assert np.array_equal(_normal_scores(x), _blom_scores(x))


def test_all_tied_series_scores_exactly_zero():
    # every rank is (n + 1) / 2, whose Blom point is exactly 1/2
    assert np.array_equal(_normal_scores(np.full((4, 7), 2.5)),
                          np.zeros((4, 7)))


EXP_M2 = 0.13533528323661269189  # Cephes ndtri's central/tail branch point
EXP_M32 = np.exp(-32.0)  # where its tail switches coefficient sets


def _around(x):
    return [np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)]


@pytest.mark.parametrize("points", [
    np.random.default_rng(1).random(100_000),
    (np.arange(40_000) + 0.625) / 40_000.25,  # Blom scores of 40k ranks
    np.logspace(-300, -1, 5_000),
    1.0 - 10.0 ** -np.arange(1, 17, dtype=float),
    np.array([0.5, 5e-324, np.nextafter(1.0, 0.0)]),
    np.array(_around(EXP_M2) + _around(1.0 - EXP_M2) + _around(EXP_M32)
             + _around(1.0 - EXP_M32)),
], ids=["uniform", "blom", "tail", "one_minus", "ends", "branch_edges"])
def test_inverse_normal_matches_scipy(points):
    from scipy.special import ndtri
    inv_cdf = NormalDist().inv_cdf
    got = np.array([inv_cdf(p) for p in points.tolist()])
    want = ndtri(points)
    # measured at most 6 ulp (1.05e-15 relative)
    assert np.all(np.abs(got - want) <= 8 * np.spacing(np.abs(want)))


def test_rank_normalization_memory_is_bounded():
    # the size of the (chains, draws) energy series at 80 000 samples
    series = np.random.default_rng(12).normal(size=(64, 1250))
    halves = gibbs._split_halves(series)
    peaks = {}
    for name, fn, arg in (("scores", _normal_scores, halves),
                          ("rank_diagnostics", rank_diagnostics, series)):
        fn(arg)
        tracemalloc.start()
        try:
            fn(arg)
            peaks[name] = tracemalloc.get_traced_memory()[1] / series.nbytes
        finally:
            tracemalloc.stop()
    # measured 3.76 and 5.76 series sizes; the bounds leave under 25%
    assert peaks["scores"] < 4.5, peaks
    assert peaks["rank_diagnostics"] < 7.0, peaks


def test_adapt_beta_pools_rows_and_handles_no_blocks(tensor_n3, monkeypatch,
                                                     caplog):
    gen = rng_mod.derive_rng(1, "test.adapt")
    states = rng_mod.standard_complex(gen, (32, 4)) / tensor_n3.lam
    energies = interaction_energy(tensor_n3, states)
    before = states.copy()
    monkeypatch.setattr(gibbs, "MAX_ADAPT_BLOCKS", 0)
    with caplog.at_level(logging.WARNING, logger="zdg.gibbs"):
        beta, blocks = _adapt_beta(tensor_n3, states, energies, gen)
    assert beta == 0.5
    assert blocks == []
    assert np.array_equal(states, before)
    assert "did not settle" in caplog.text
    # the block rate is a fraction of all rows, so it can settle
    monkeypatch.setattr(gibbs, "MAX_ADAPT_BLOCKS", 40)
    monkeypatch.setattr(gibbs, "ADAPT_BLOCK", 20)
    beta, blocks = _adapt_beta(tensor_n3, states, energies, gen)
    assert 0.3 <= blocks[-1][1] <= 0.5
    assert 1e-3 <= beta < 1.0
    # each block ran at the beta before it, scaled by 0.7 or 1.3 after it
    assert blocks[0][0] == 0.5 and blocks[-1][0] == beta
    for (b, rate), (b_next, _) in zip(blocks, blocks[1:]):
        assert b_next == (max(b * 0.7, 1e-3) if rate < 0.3
                          else min(b * 1.3, 1.0))


@pytest.mark.parametrize("accepted, bound", [(1.0, 1.0), (0.0, 1e-3)])
def test_adapt_beta_stops_once_beta_is_pinned(tensor_n3, monkeypatch,
                                              caplog, accepted, bound):
    """A block at a bound whose rate would push beta past it is the last:
    every block accepts all (or none) of its proposals."""
    gen = rng_mod.derive_rng(1, "test.adapt")
    states = rng_mod.standard_complex(gen, (32, 4)) / tensor_n3.lam
    energies = interaction_energy(tensor_n3, states)
    monkeypatch.setattr(gibbs, "_advance",
                        lambda t, s, e, b, g, sweeps:
                        int(accepted * sweeps * s.shape[0]))
    monkeypatch.setattr(gibbs, "ADAPT_START", bound)
    with caplog.at_level(logging.WARNING, logger="zdg.gibbs"):
        beta, blocks = _adapt_beta(tensor_n3, states, energies, gen)
    assert (beta, blocks) == (bound, [(bound, accepted)])
    assert f"beta pinned at {bound:.4g}" in caplog.text
    assert "did not settle" not in caplog.text
    # from 0.5 the rate walks beta to the bound, and one block there ends it
    monkeypatch.setattr(gibbs, "ADAPT_START", 0.5)
    beta, blocks = _adapt_beta(tensor_n3, states, energies, gen)
    assert beta == bound and blocks[-1] == (bound, accepted)
    assert [b for b, _ in blocks].count(bound) == 1
    assert len(blocks) == (4 if bound == 1.0 else 19)


def test_pcn_chain_row_rule_layout_and_seeds(tensor_n3, monkeypatch):
    for n, chains in ((400, 1), (4000, 15), (20000, 64)):
        ens = pcn_chain(tensor_n3, n, seed=23)
        assert ens.n_chains == chains
        assert ens.coeffs.shape == (n, 4)
        assert 0.0 < ens.acc_rate < 1.0
        assert ens.iact >= 1.0
        assert np.isfinite(ens.rhat)
    # Tiny steps and no thinning (the pilot's IACT pinned at 1):
    # consecutive rows of one chain nearly coincide, while the first row of
    # the next chain is an independent draw.  Chain-major storage puts the
    # 14 jumps at the chain borders.
    monkeypatch.setattr(gibbs, "_mean_iact", lambda series: 1.0)
    monkeypatch.setattr(gibbs, "_adapt_beta",
                        lambda tensor, states, energies, gen: (0.01, []))
    ens = pcn_chain(tensor_n3, 4000, seed=23)
    n_per = 267
    steps = np.linalg.norm(np.diff(ens.coeffs, axis=0), axis=1)
    jumps = np.sort(np.argsort(steps)[-14:])
    assert np.array_equal(jumps, n_per * np.arange(1, 15) - 1)
    again = pcn_chain(tensor_n3, 4000, seed=23)
    assert np.array_equal(ens.coeffs, again.coeffs)
    other = pcn_chain(tensor_n3, 4000, seed=24)
    assert not np.allclose(ens.coeffs, other.coeffs)


def _oracle_sweep(tensor, states, energies, beta, gen):
    n, j = states.shape
    xi = rng_mod.standard_complex(gen, (n, j)) / tensor.lam
    proposal = np.sqrt(1.0 - beta ** 2) * states + beta * xi
    e_new = interaction_energy(tensor, proposal)
    logu = np.log(gen.random(n))
    accept = logu < (energies - e_new)
    states[accept] = proposal[accept]
    energies[accept] = e_new[accept]
    return accept


def _oracle_single_chain(tensor, n_samples, seed, burn_frac=0.1,
                         adapt_block=100, max_adapt_blocks=40, pilot=500):
    """The scalar one-row loop pcn_chain ran before its chains were batched."""
    gen = rng_mod.derive_rng(seed, "gibbs.pcn")
    state = rng_mod.standard_complex(gen, (1, tensor.n_modes)) / tensor.lam
    energy = interaction_energy(tensor, state)
    beta = 0.5
    for _ in range(max_adapt_blocks):
        acc = 0
        for _ in range(adapt_block):
            acc += int(_oracle_sweep(tensor, state, energy, beta, gen)[0])
        rate = acc / adapt_block
        if rate < 0.3:
            beta = max(beta * 0.7, 1e-3)
        elif rate > 0.5:
            beta = min(beta * 1.3, 1.0)
        else:
            break
    pilot_e = np.empty(pilot)
    for i in range(pilot):
        _oracle_sweep(tensor, state, energy, beta, gen)
        pilot_e[i] = energy[0]
    thin = max(1, int(np.ceil(integrated_autocorr(pilot_e))))
    burn = int(np.ceil(burn_frac * n_samples * thin))
    for _ in range(burn):
        _oracle_sweep(tensor, state, energy, beta, gen)
    coeffs = np.empty((n_samples, tensor.n_modes), dtype=complex)
    accepted = 0
    for i in range(n_samples):
        for _ in range(thin):
            accepted += int(_oracle_sweep(tensor, state, energy, beta,
                                          gen)[0])
        coeffs[i] = state[0]
    return coeffs, accepted / (n_samples * thin), beta, thin, burn


def _oracle_parallel(tensor, n_chains, burn_steps, seed, beta):
    """pcn_parallel's loop as it stood before the chains shared its core."""
    gen = rng_mod.derive_rng(seed, "gibbs.pcn.parallel")
    states = rng_mod.standard_complex(gen, (n_chains, tensor.n_modes)) \
        / tensor.lam
    energies = interaction_energy(tensor, states)
    accepted = 0
    for _ in range(burn_steps):
        accepted += int(_oracle_sweep(tensor, states, energies, beta,
                                      gen).sum())
    return states, accepted / (burn_steps * n_chains)


def test_pcn_chain_single_chain_matches_scalar_loop(tensor_n3):
    ens = pcn_chain(tensor_n3, 300, seed=25)
    coeffs, acc_rate, beta, thin, burn = _oracle_single_chain(tensor_n3, 300,
                                                              25)
    assert ens.n_chains == 1
    assert np.array_equal(ens.coeffs, coeffs)
    assert (ens.acc_rate, ens.beta, ens.thin, ens.burn) \
        == (acc_rate, beta, thin, burn)


def test_pcn_parallel_matches_scalar_loop(tensor_n3):
    ens = pcn_parallel(tensor_n3, 64, 30, seed=5, beta=0.4)
    states, rate = _oracle_parallel(tensor_n3, 64, 30, 5, 0.4)
    assert np.array_equal(ens.coeffs, states)
    assert ens.acc_rate == rate


@pytest.fixture(scope="module")
def grid_tensor_n3():
    return assemble_interaction(build_basis(2, 3, grid_size=24), GRIDK)


@pytest.mark.parametrize("kernel", ["constant", "grid"])
def test_in_place_sweep_is_bitwise_the_oracle_sweep(tensor_n3,
                                                    grid_tensor_n3, kernel):
    """pcn_chain on 8 chains and pcn_parallel on more rows than one energy
    block, each against the same driver looping over _oracle_sweep."""
    tensor = tensor_n3 if kernel == "constant" else grid_tensor_n3
    ens = pcn_chain(tensor, 8 * gibbs.MIN_CHAIN_DRAWS, seed=3)
    assert ens.n_chains == 8
    with mock.patch.object(gibbs, "_pcn_sweep", _oracle_sweep):
        ref = pcn_chain(tensor, 8 * gibbs.MIN_CHAIN_DRAWS, seed=3)
    assert np.array_equal(ens.coeffs, ref.coeffs)
    assert (ens.acc_rate, ens.beta, ens.thin, ens.rhat, ens.ess_bulk) \
        == (ref.acc_rate, ref.beta, ref.thin, ref.rhat, ref.ess_bulk)
    assert 1500 > interaction.BLOCK_ROWS
    ens = pcn_parallel(tensor, 1500, 20, seed=4, beta=0.4)
    states, rate = _oracle_parallel(tensor, 1500, 20, 4, 0.4)
    assert np.array_equal(ens.coeffs, states)
    assert ens.acc_rate == rate


def test_sweep_calls_the_energy_and_the_draw_once_each(tensor_n3):
    """One interaction_energy and one standard_complex call per sweep, both
    looked up on their modules, where callers and tracers patch them."""
    calls = {"energy": 0, "draw": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    with mock.patch.object(gibbs, "interaction_energy",
                           counted("energy", gibbs.interaction_energy)), \
            mock.patch.object(rng_mod, "standard_complex",
                              counted("draw", rng_mod.standard_complex)):
        pcn_parallel(tensor_n3, 1500, 7, seed=4, beta=0.5)
    assert calls == {"energy": 8, "draw": 8}  # the prior draw, then 7 sweeps


def test_pcn_parallel_shape_and_rate(tensor_n3):
    ens = pcn_parallel(tensor_n3, 256, 50, seed=5, beta=0.5)
    assert ens.coeffs.shape == (256, 4)
    assert 0.05 < ens.acc_rate < 0.95


def test_pcn_matches_importance_moments(tensor_n3):
    # same target measure through two unrelated samplers
    coeffs, log_weights = importance_ensemble(tensor_n3, 60000, seed=31)
    chain = pcn_chain(tensor_n3, 4000, seed=32)
    for k in range(4):
        x_imp = np.abs(coeffs[:, k]) ** 2
        m_imp, se_imp = weighted_mean(x_imp, log_weights)
        x_ch = np.abs(chain.coeffs[:, k]) ** 2
        m_ch, se_ch, _ = chain_mean(x_ch)
        combined = np.hypot(se_imp, se_ch)
        assert abs(m_imp - m_ch) < 4 * combined


def test_gibbs_weight_reweights_prior_mean(tensor_n3):
    # E_gibbs[X] = E_mu[X R] / E_mu[R]; check against pcn on the energy
    coeffs, log_weights = importance_ensemble(tensor_n3, 80000, seed=41)
    e_vals = interaction_energy(tensor_n3, coeffs)
    m_imp, se_imp = weighted_mean(e_vals, log_weights)
    chain = pcn_chain(tensor_n3, 4000, seed=42)
    e_ch = interaction_energy(tensor_n3, chain.coeffs)
    m_ch, se_ch, _ = chain_mean(e_ch)
    assert abs(m_imp - m_ch) < 4 * np.hypot(se_imp, se_ch)


def test_cauchy_decay_study(tensor_n16):
    out = cauchy_decay_study(tensor_n16, [2, 4, 8], 40000, seed=51)
    assert out["slope"] < -0.1
    for row in out["rows"]:
        assert row["exact"] <= row["bound"] + 1e-12
        assert abs(row["z"]) < 3.5


@pytest.mark.parametrize("study", [
    lambda t, top: cauchy_decay_study(t, [top // 4, top // 2], 10, seed=1),
    lambda t, top: nelson_scan(t, [top, 4], 10, seed=1),
    lambda t, top: lr_stability_study(t, [4, top], [2], 10, seed=1),
], ids=["cauchy", "nelson", "lr"])
def test_study_ladder_tops_out_at_the_tensor_cutoff(tensor_n16, study):
    study(tensor_n16, 16)
    with pytest.raises(ValueError, match="cutoff 16, above the tensor's "
                                         "cutoff 15$"):
        study(tensor_n16.slice(15), 16)


@pytest.mark.filterwarnings("error")
def test_zero_kernel_studies_have_no_slope():
    t = assemble_interaction(build_basis(2, 16, grid_size=50),
                             ExperimentConfig(kernel_kind="constant",
                                              kernel_kappa=0.0))
    cauchy = cauchy_decay_study(t, [2, 4, 8], 200, seed=1)
    nelson = nelson_scan(t, [4, 8, 16], 200, seed=1)
    for out, slope in ((cauchy, "slope"), (nelson, "growth_slope")):
        assert out[slope] is None
        for row in out["rows"]:
            assert all(np.isfinite(v) for v in row.values())


def test_cauchy_decay_study_evaluates_each_cutoff_once(tensor_n16):
    rows = {}

    def counted(tensor, coeffs):
        rows[tensor.cutoff] = rows.get(tensor.cutoff, 0) + coeffs.shape[0]
        return interaction_energy(tensor, coeffs)

    with mock.patch.object(gibbs, "interaction_energy", counted):
        out = cauchy_decay_study(tensor_n16, [2, 4, 8], 3000, seed=51)
    assert rows == {2: 3000, 4: 3000, 8: 3000, 16: 3000}
    gen = rng_mod.derive_rng(51, "cauchy.mc")
    c = rng_mod.standard_complex(gen, (3000, tensor_n16.n_modes))
    c /= tensor_n16.lam
    for row in out["rows"]:
        m = row["m"]
        diff2 = np.abs(
            interaction_energy(tensor_n16.slice(2 * m), c[:, :2 * m + 1])
            - interaction_energy(tensor_n16.slice(m), c[:, :m + 1])) ** 2
        assert row["mc"] == float(diff2.mean())


def test_nelson_scan_constant_kernel_closed_form(tensor_n16):
    out = nelson_scan(tensor_n16, [2, 4, 8], 20000, seed=61)
    for row in out["rows"]:
        n = row["n"]
        harmonic = Fraction(0)
        for p in range(n + 1):
            harmonic += Fraction(1, p + 1)
        assert row["bound"] == pytest.approx(-3.0 * float(harmonic) ** 2,
                                             rel=1e-12)
        assert row["respects_bound"]
        assert row["min"] >= row["bound"]
    assert out["growth_slope"] > 0


def test_lr_stability_study(tensor_n16):
    out = lr_stability_study(tensor_n16, [2, 4, 8, 16], [2, 4], 30000,
                             seed=71)
    for r in (2, 4):
        rows = out[r]["rows"]
        assert all(np.isfinite(row["log_norm"]) for row in rows)
        # The norms climb toward a finite limit: each doubling of the
        # cutoff adds less than the previous one, so the family stays
        # uniformly L^r bounded.  A divergent family would show
        # increments that grow with the cutoff instead.
        deltas = [inc["delta"] for inc in out[r]["increments"]]
        assert all(d < 0.5 for d in deltas)
        for prev, nxt in zip(deltas, deltas[1:]):
            assert nxt < prev + 0.02


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.int64),
                                                 b.view(np.int64))


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
    from scipy.special import logsumexp as scipy_logsumexp
    for i, a in enumerate(_logsumexp_cases()):
        got = logsumexp(a)
        assert isinstance(got, float)
        assert _same_bits(np.float64(got), np.float64(scipy_logsumexp(a))), i


# --- the streaming study core -----------------------------------------------


def _all_at_once_cauchy(tensor, m_list, n_samples, seed, label="cauchy.mc"):
    """cauchy_decay_study as it was before streaming, verbatim: all states
    drawn at once, the 2M energy of one row kept as the M of the next."""
    m_list = sorted(int(m) for m in m_list)
    gen = rng_mod.derive_rng(seed, label)
    c = rng_mod.standard_complex(gen, (n_samples, tensor.n_modes))
    c /= tensor.lam
    energies = {}
    rows = []
    for m in m_list:
        hi = tensor.slice(2 * m)
        exact, bound = chaos_tail_series(hi, m)
        e_lo = energies.pop(m, None)
        if e_lo is None:
            e_lo = interaction_energy(tensor.slice(m), c[:, :m + 1])
        e_hi = energies[2 * m] = interaction_energy(hi, c[:, :hi.n_modes])
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


def _all_at_once_nelson(tensor, n_list, n_samples, seed, chunk=100000,
                        label="nelson.scan"):
    """nelson_scan as it was before streaming, verbatim."""
    n_list = sorted(int(n) for n in n_list)
    slices = {n: tensor.slice(n) for n in n_list}
    bounds = {n: -3.0 * slices[n].e0_const for n in n_list}
    mins = {n: np.inf for n in n_list}
    gen = rng_mod.derive_rng(seed, label)
    remaining = n_samples
    while remaining > 0:
        take = min(chunk, remaining)
        c = rng_mod.standard_complex(gen, (take, tensor.n_modes))
        c /= tensor.lam  # slices share the leading lambdas: prefix views
        for n in n_list:
            t = slices[n]
            e = interaction_energy(t, c[:, :t.n_modes])
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


def _all_at_once_lr(tensor, n_list, r_list, n_samples, seed,
                    label="lr.stability"):
    """lr_stability_study as it was before streaming, verbatim."""
    n_list = sorted(int(n) for n in n_list)
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


@pytest.fixture(scope="module")
def study_tensors():
    basis = build_basis(2, 16, grid_size=48)
    return {kernel.kernel_kind: assemble_interaction(basis, kernel)
            for kernel in (CONSTANT, GRIDK)}


@pytest.mark.parametrize("kind", ["constant", "grid"])
@pytest.mark.parametrize("block, draws", [(256, 1000), (None, 2500)])
def test_streamed_studies_are_bitwise_the_all_at_once_studies(
        study_tensors, kind, block, draws):
    # 1000 draws in 256-row chunks end on a short tail chunk; None keeps
    # the default BLOCK_ROWS
    t = study_tensors[kind]
    runs = (
        (cauchy_decay_study, _all_at_once_cauchy, ([2, 4, 8],)),
        (nelson_scan, _all_at_once_nelson, ([4, 8, 16],)),
        (lr_stability_study, _all_at_once_lr, ([2, 4, 8, 16], [2, 4])),
    )
    block = interaction.BLOCK_ROWS if block is None else block
    with mock.patch.object(interaction, "BLOCK_ROWS", block):
        for study, reference, lists in runs:
            got = study(t, *lists, draws, seed=7)
            assert repr(got) == repr(reference(t, *lists, draws, seed=7))


def test_grid_nelson_scan_state_memory_is_bounded():
    t = assemble_interaction(build_basis(2, 32), GRIDK)
    tracemalloc.start()
    try:
        nelson_scan(t, [4, 8, 16, 32], 20000, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # all states at once: 10.6 MB of them and a buffer set per slice
    assert peak < 25e6


def test_constant_cauchy_study_state_memory_is_bounded(tensor_n16):
    tracemalloc.start()
    try:
        cauchy_decay_study(tensor_n16, [2, 4, 8], 20000, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6  # all states at once take 5.4 MB


@pytest.mark.parametrize("kind", ["constant", "grid"])
def test_nelson_scan_memory_does_not_grow_with_the_draws(study_tensors,
                                                          kind):
    t = study_tensors[kind]
    nelson_scan(t, [4, 8, 16], 2000, seed=3)  # the thread's node buffers
    peaks = []
    for draws in (20000, 80000):
        tracemalloc.start()
        try:
            nelson_scan(t, [4, 8, 16], draws, seed=3)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # energy arrays per cutoff would add 1.4 MB from 20k to 80k draws
    assert peaks[1] <= 1.1 * peaks[0], peaks


@pytest.mark.parametrize("x", [
    np.array([0.7]),
    np.array([2.0, 0.5]),
    np.array([0.25, 3.0, 1.5]),
    np.repeat([0.0, 1.0, 1.0, 2.5], 7),  # tied values
    np.random.default_rng(9).exponential(size=100000),
], ids=["n1", "n2", "n3", "ties", "n100000"])
def test_partition_quantiles_are_bitwise_np_quantile(x):
    _assert_quantiles_bitwise(x)


def test_partition_quantiles_interpolate_down_from_above_as_numpy_does():
    # numpy's _lerp takes b - (b - a)(1 - t) for t >= 0.5; a + (b - a) t
    # misses its last bit on about a quarter of these arrays
    rng = np.random.default_rng(3)
    for size in rng.integers(1, 60, size=200):
        _assert_quantiles_bitwise(rng.exponential(size=size))


def _assert_quantiles_bitwise(x):
    for qs in ([0.5, 0.9, 0.99], np.linspace(0.0, 1.0, 21)):
        want = np.quantile(x, qs)
        work = x.copy()
        assert gibbs._quantiles(work, qs).tobytes() == want.tobytes()
        assert np.array_equal(np.sort(work), np.sort(x))  # x only reordered


def test_hypercontractivity_of_chaos_increment(tensor_n16):
    # degree-4 chaos: ||X||_4 <= 3^2 ||X||_2
    hi = tensor_n16.slice(8)
    lo = tensor_n16.slice(4)
    g = rng_mod.standard_complex(rng_mod.derive_rng(81, "test.hyper"),
                                 (50000, hi.n_modes))
    x = interaction_energy(hi, g / hi.lam) \
        - interaction_energy(lo, g[:, :5] / lo.lam)
    l2 = np.sqrt(np.mean(x ** 2))
    l4 = np.mean(x ** 4) ** 0.25
    assert l4 <= 9.0 * l2

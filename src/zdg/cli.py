"""Command-line harness: dispatches experiments and writes reports.

Every subcommand loads one configuration (file plus overrides), runs a
seeded experiment, writes a JSON report and CSV sidecars into the output
directory, and exits 0 exactly when no check record failed.  Numerical
modules are imported lazily so the ZDG_THREADS thread cap takes effect
before the numerical libraries initialize their pools.
"""

import argparse
import logging
import os
import sys
import time

from . import __version__, report
from .config import auto_grid_size, load_config, step_count
from .report import Report, write_table

log = logging.getLogger("zdg.cli")

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def _apply_threads():
    """Cap the BLAS/OpenMP pools at ZDG_THREADS; unset or 0 keeps the
    library defaults, and a value not an integer >= 0 is a ValueError."""
    env = os.environ.get("ZDG_THREADS", "").strip() or "0"
    try:
        n = int(env)
    except ValueError:
        raise ValueError(f"ZDG_THREADS must be an integer, got {env!r}")
    if n < 0:
        raise ValueError(f"ZDG_THREADS must be >= 0, got {n}")
    if n > 0:
        for var in _THREAD_VARS:
            os.environ[var] = str(n)


def _build_tensor(cfg, cutoff=None):
    """Basis plus interaction tensor; studies may need a larger cutoff."""
    from .interaction import assemble_interaction
    from .zonal import build_basis
    own_grid = cfg.effective_grid_size()
    if cutoff is None:
        cutoff = cfg.cutoff
        grid_size = own_grid
    else:
        grid_size = max(own_grid, auto_grid_size(cutoff))
        if cfg.kernel_kind == "file" and grid_size != own_grid:
            _refuse_file_study(cfg, cutoff, grid_size)
    return assemble_interaction(
        build_basis(cfg.dim, cutoff, grid_size=grid_size), cfg)


def _tensor_built(cfg, rep, cutoff, source):
    """_build_tensor(cfg, cutoff), timed and recorded as `tensor_built`."""
    tensor, seconds = _timed(_build_tensor, cfg, cutoff=cutoff)
    nbytes = sum(a.nbytes for a in (tensor.wmat, tensor.factor, tensor.s_mat,
                                    tensor.t_mat, tensor.lam) if a is not None)
    rep.add("tensor_built", "info", value=tensor.cutoff, seconds=seconds,
            detail=f"cutoff {tensor.cutoff} from {source}; {nbytes} bytes in "
                   "wmat, factor, s_mat, t_mat and lam")
    return tensor


def _refuse_file_study(cfg, cutoff, grid_size):
    """Raise for a study grid the kernel file cannot cover, naming the
    file's node count, the grid the study needs and the largest study
    cutoff whose grid is the file's."""
    from .interaction import kernel_matrix_from_csv
    nodes = kernel_matrix_from_csv(cfg.kernel_profile_file).shape[0]
    own_grid = cfg.effective_grid_size()
    fits = [c for c in range(cutoff)
            if max(own_grid, auto_grid_size(c)) == nodes]
    largest = (f"the largest admissible study cutoff is {fits[-1]}" if fits
               else "no study cutoff fits it")
    raise ValueError(
        f"kernel file nodes do not match the quadrature grid of study "
        f"cutoff {cutoff}: {cfg.kernel_profile_file} tabulates {nodes} "
        f"nodes where the study grid has {grid_size}; {largest} "
        f"(cauchy-study needs 2 * max(cauchy.m_list), nelson-scan "
        f"max(nelson.n_list))")


def _add_process_record(rep):
    """Info record of the process's peak RSS (MiB), its minor page faults and
    whether any scipy module got imported, so a slow or heavy start-up or a
    run that keeps faulting fresh memory in shows in the report."""
    try:
        import resource
    except ImportError:  # resource is Unix-only
        peak_mb = faults = None
    else:
        usage = resource.getrusage(resource.RUSAGE_SELF)
        # ru_maxrss is in bytes on macOS and in KiB on Linux
        peak_mb = round(usage.ru_maxrss / (2 ** 20 if sys.platform == "darwin"
                                           else 1024), 1)
        faults = usage.ru_minflt
    rep.add("process", "info",
            value={"peak_rss_mb": peak_mb, "minor_faults": faults,
                   "scipy_loaded": "scipy" in sys.modules},
            detail="peak resident set size of this process in MiB, its "
                   "minor page faults, and whether any scipy module was "
                   "imported")


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# subcommand runners


def run_clifford(cfg, rep, args):
    from .clifford import anticommutator_check, build_gamma_family
    t0 = time.perf_counter()
    rows = []
    all_ok = True
    for d in range(1, 13):
        chk = anticommutator_check(build_gamma_family(d))
        all_ok = all_ok and all(chk.values())
        rows.append({"dim": d, "matrix_size": 2 ** (d // 2),
                     "anticommutation_ok": chk["algebra"],
                     "hermitian_ok": chk["hermitian"],
                     "entries_ok": chk["entries"], "size_ok": chk["size"],
                     "count_ok": chk["count"]})
    rep.add("relations_exact", "pass" if all_ok else "fail", value=all_ok,
            detail="anticommutators 2 delta I, hermiticity, entries in "
                   "{0, +-1, +-i}, and sizes 2^(d//2), checked exactly for "
                   "dimensions 1 through 12",
            seconds=time.perf_counter() - t0)
    write_table(cfg.out_dir, "clifford_families",
                ["dim", "matrix_size", "anticommutation_ok", "hermitian_ok",
                 "entries_ok", "size_ok", "count_ok"], rows)


def run_spectral(cfg, rep, args):
    import numpy as np

    from .zonal import build_basis, dirac_apply_grid, gram_matrix, lp_norm
    basis, seconds = _timed(build_basis, cfg.dim, cfg.cutoff,
                            grid_size=cfg.effective_grid_size())
    rep.add("basis_built", "info", value=basis.n_modes,
            detail=f"dim={cfg.dim}, grid size {basis.grid.size}",
            seconds=seconds)
    applied, seconds = _timed(dirac_apply_grid, basis, basis.values)
    # roundoff in D e_n grows with omega_n max|e_n|, so the check scales by it
    scale = basis.omega * lp_norm(basis.grid, basis.values, np.inf)
    rows = []
    worst = 0.0
    for n in range(basis.n_modes):
        want = -1j * basis.omega[n] * basis.values[n]
        resid = float(np.max(np.abs(applied[n] - want)))
        worst = max(worst, resid / scale[n])
        rows.append({"n": n, "omega": float(basis.omega[n]),
                     "eigen_residual": resid,
                     "lp4": lp_norm(basis.grid, basis.values[n], 4),
                     "lp6": lp_norm(basis.grid, basis.values[n], 6)})
    rep.add_check("eigenrelation_max_residual", worst, 1e-9,
                  detail="grid-space operator vs -i omega_n e_n, per "
                         "node, relative to omega_n max|e_n|",
                  seconds=seconds)
    gram = gram_matrix(basis)
    dev = float(np.max(np.abs(gram - np.eye(basis.n_modes))))
    rep.add_check("gram_deviation", dev, 1e-10,
                  detail="max | <e_j, e_k> - delta_jk | over all pairs")
    window = [row for row in rows if row["n"] >= 8]
    for p in (4, 6):
        bound = 2 * (cfg.dim / 2 - cfg.dim / p) + 0.1
        if len(window) < 5:
            rep.add(f"lp_growth_exponent_p{p}", "info", tolerance=bound,
                    detail="cutoff too small for a trend window starting "
                           "at n = 8; raise cutoff to at least 12")
            continue
        lam = np.sqrt([row["omega"] for row in window])
        slope = float(np.polyfit(np.log(lam),
                                 np.log([row[f"lp{p}"] for row in window]),
                                 1)[0])
        rep.add_check(f"lp_growth_exponent_p{p}", slope, bound,
                      detail=f"fitted exponent of ||e_n||_p against "
                             f"lambda_n over n in [8, {cfg.cutoff}]")
    write_table(cfg.out_dir, "spectral_modes",
                ["n", "omega", "eigen_residual", "lp4", "lp6"], rows)


def run_wick(cfg, rep, args):
    import numpy as np

    from .interaction import wick_quartic_cov, wick_quartic_cov_enumerated
    tuples = np.indices((4,) * 8).reshape(8, -1).T
    t0 = time.perf_counter()
    closed = wick_quartic_cov(tuples[:, :4], tuples[:, 4:])
    enum = wick_quartic_cov_enumerated(tuples[:, :4], tuples[:, 4:])
    n_diff = int(np.count_nonzero(closed - enum))
    rep.add("covariance_closed_vs_enumerated",
            "pass" if n_diff == 0 else "fail", value=n_diff, tolerance=0,
            detail=f"exact integer agreement on all {tuples.shape[0]} "
                   "index tuples over {0,1,2,3}",
            seconds=time.perf_counter() - t0)


def run_energy(cfg, rep, args):
    import numpy as np

    from .config import ExperimentConfig
    from .interaction import (assemble_interaction, grid_energy_context,
                              interaction_energy, interaction_energy_grid,
                              nonlinearity, nonlinearity_grid,
                              wick_energy_literal)
    from .rng import derive_rng, prior_coeffs, standard_complex
    from .zonal import analyze, build_basis, synthesize
    tensor = _tensor_built(cfg, rep, None, "the config")
    basis = tensor.basis
    ctx = grid_energy_context(basis, tensor.wmat)
    c = prior_coeffs(derive_rng(cfg.seed, "energy.states"),
                     (50, tensor.n_modes), tensor.lam)
    e_coeff = interaction_energy(tensor, c)
    e_grid = np.array([interaction_energy_grid(ctx, synthesize(basis, ci))
                       for ci in c])
    scale = max(1.0, float(np.max(np.abs(e_coeff))))
    rep.add_check("coeff_vs_grid_energy",
                  float(np.max(np.abs(e_coeff - e_grid))) / scale, 1e-8,
                  detail="tensor contraction vs tensor-free quadrature "
                         "route, 50 states")
    f_coeff = nonlinearity(tensor, c)
    f_grid = np.array([analyze(basis, nonlinearity_grid(
        ctx, synthesize(basis, ci))) for ci in c])
    fscale = max(1.0, float(np.max(np.abs(f_coeff))))
    rep.add_check("coeff_vs_grid_nonlinearity",
                  float(np.max(np.abs(f_coeff - f_grid))) / fscale, 1e-8,
                  detail="cubic term, both routes, 50 states")
    gg = standard_complex(derive_rng(cfg.seed, "energy.pathwise"),
                          (100, tensor.n_modes))
    e_field = interaction_energy(tensor, gg / tensor.lam)
    e_wick = wick_energy_literal(tensor, gg)
    wscale = max(1.0, float(np.max(np.abs(e_wick))))
    rep.add_check("pathwise_energy_identity",
                  float(np.max(np.abs(e_field - e_wick))) / wscale, 1e-9,
                  detail="energy of the sampled field vs the Wick "
                         "monomial of its Gaussians, 100 samples")
    rows = [{"sample": i, "e_coeff": float(e_field[i]),
             "e_wick": float(e_wick[i].real)} for i in range(e_field.size)]
    write_table(cfg.out_dir, "energy_samples",
                ["sample", "e_coeff", "e_wick"], rows)
    anchor_basis = build_basis(2, 0, grid_size=8)
    anchor = assemble_interaction(
        anchor_basis, ExperimentConfig(kernel_kind="constant",
                                       kernel_kappa=1.0))
    zero = np.zeros(1, dtype=complex)
    e0 = float(interaction_energy(anchor, zero))
    rep.add_check("vacuum_anchor_energy", abs(e0 - 2.0), 1e-12,
                  detail="E(0) = 2 at cutoff 0, constant kernel, kappa 1, "
                         "dim 2")
    w = basis.grid.weights
    inner = (tensor.wmat ** (cfg.q / 2)) @ w
    mixed = float((w @ inner ** 2) ** (1.0 / cfg.q))
    rep.add("kernel_mixed_norm", "info", value=mixed,
            detail=f"quadrature L^q_x(L^(q/2)_y) norm at q = {cfg.q}; "
                   "reported, not enforced")


def run_cauchy(cfg, rep, args):
    from .gibbs import cauchy_decay_study
    need = 2 * max(cfg.cauchy_m_list)
    tensor = _tensor_built(cfg, rep, need, "2*max(cauchy.m_list)")
    out, seconds = _timed(cauchy_decay_study, tensor, cfg.cauchy_m_list,
                          cfg.cauchy_ensemble_size, cfg.seed)
    for row in out["rows"]:
        rep.add_check(f"mc_vs_series_z_m{row['m']}", abs(row["z"]), 3.0,
                      detail=f"mc={row['mc']:.6g} se={row['mc_se']:.3g} "
                             f"exact={row['exact']:.6g}")
        ok = row["exact"] <= row["bound"] * (1 + 1e-12)
        rep.add(f"series_le_bound_m{row['m']}", "pass" if ok else "fail",
                value=row["exact"], tolerance=row["bound"],
                detail="exact tail series vs its permutation bound")
    threshold = -cfg.nu / 2 + 0.1
    if out["slope"] is None:
        rep.add("decay_slope", "info", tolerance=threshold,
                detail="the exact tail series vanishes at every M, so "
                       "there is no slope", seconds=seconds)
    else:
        rep.add_check("decay_slope", out["slope"], threshold,
                      detail=f"log-log slope of sqrt(series) in M; "
                             f"threshold -nu/2 + 0.1 at nu = {cfg.nu}",
                      seconds=seconds)
    write_table(cfg.out_dir, "cauchy_rows",
                ["m", "n", "exact", "bound", "mc", "mc_se", "z",
                 "tail_q50", "tail_q90", "tail_q99"], out["rows"])


def run_nelson(cfg, rep, args):
    from .gibbs import nelson_scan
    need = max(cfg.nelson_n_list)
    tensor = _tensor_built(cfg, rep, need, "max(nelson.n_list)")
    out, seconds = _timed(nelson_scan, tensor, cfg.nelson_n_list,
                          cfg.nelson_ensemble_size, cfg.seed)
    for row in out["rows"]:
        rep.add(f"respects_bound_n{row['n']}",
                "pass" if row["respects_bound"] else "fail",
                value=row["min"], tolerance=row["bound"],
                detail="sampled minimum of the energy vs the deterministic "
                       "lower bound -3 e0_const")
    threshold = 3 * cfg.dim / cfg.q + 0.1
    detail = ("log-log growth of the bound magnitude across cutoffs; "
              "squared-harmonic growth of the counterterm trace keeps the "
              "finite-window fit above the power-law threshold, so the "
              "exponent is reported here and adjudicated in the acceptance "
              "suite")
    if out["growth_slope"] is None:
        detail = "the bound vanishes at every cutoff, so there is no slope"
    rep.add("bound_growth_slope", "info", value=out["growth_slope"],
            tolerance=threshold, detail=detail, seconds=seconds)
    write_table(cfg.out_dir, "nelson_rows",
                ["n", "bound", "min", "respects_bound"], out["rows"])


def run_gibbs(cfg, rep, args):
    """gibbs-sample: importance reweighting against pCN chains.

    The importance side finishes first: its ESS record, its weighted means
    of |c_k|^2 for k <= gibbs.kmax and its sample sidecar.  Its states are
    released before pcn_chain allocates the chain's, so the process holds
    one sampler's samples at a time, and a failing chain leaves the
    importance records and sidecar in place.  The pCN sidecar's energies
    are those the chain's sweeps accepted.  The abs2_c* columns are
    numpy's square np.abs(c_k) ** 2, the values the moment means average.
    The records keep the order tensor, importance, pCN, moment
    cross-validation.
    """
    import numpy as np

    from .gibbs import (chain_mean, effective_sample_size,
                        importance_ensemble, pcn_chain, weighted_mean)
    tensor = _tensor_built(cfg, rep, None, "the config")
    ks = range(min(cfg.gibbs_kmax, tensor.cutoff) + 1)
    n_abs2 = min(2, tensor.cutoff) + 1
    abs2_names = [f"abs2_c{k}" for k in range(n_abs2)]
    (coeffs, log_weights), sec_imp = _timed(
        importance_ensemble, tensor, cfg.gibbs_ensemble_size, cfg.seed)
    rep.add("importance_ess", "info", value=effective_sample_size(log_weights),
            detail=f"effective size of {len(coeffs)} weighted draws",
            seconds=sec_imp)
    imp_means = [weighted_mean(np.abs(coeffs[:, k]) ** 2, log_weights)
                 for k in ks]
    write_table(cfg.out_dir, "gibbs_importance_samples",
                ["sample", "energy", "log_weight"] + abs2_names,
                _SampleRows(coeffs, n_abs2, -log_weights, log_weights))
    del coeffs, log_weights
    chain, sec_chain = _timed(pcn_chain, tensor, cfg.gibbs_ensemble_size,
                              cfg.seed)
    rep.add("pcn_acceptance_rate", "info", value=chain.acc_rate,
            detail=f"beta={chain.beta:.3f}, thin={chain.thin}, "
                   f"burn={chain.burn}, chains={chain.n_chains}",
            seconds=sec_chain)
    rep.add("pcn_warmup", "info", value=chain.warmup,
            detail="[beta, acceptance rate] of each warm-up block, pooled "
                   "over the chains")
    for name, value, detail in (
            ("pcn_energy_iact", chain.iact,
             "integrated autocorrelation time of the energy series after "
             "thinning, mean over chains"),
            ("pcn_energy_rhat", chain.rhat,
             f"rank-normalized split-R-hat of the energy over "
             f"{chain.n_chains} chain(s), each split in halves; near 1 "
             f"when the halves agree"),
            ("pcn_energy_ess_bulk", chain.ess_bulk,
             "bulk effective sample size of the energy series after "
             "thinning, from the rank-normalized split chains of "
             "pcn_energy_rhat and Geyer's initial monotone sequence")):
        # validate keeps each half chain at two draws or more, so a nan
        # R-hat means rank_diagnostics found the series constant
        if np.isnan(chain.rhat):
            value, detail = None, (
                f"the energy series is constant at {chain.energies[0]:.6g},"
                f" so its split chains have no variance to compare")
        rep.add(name, "info", value=value, detail=detail)
    rows = []
    for k, (m1, se1) in zip(ks, imp_means):
        m2, se2, tau = chain_mean(np.abs(chain.coeffs[:, k]) ** 2)
        se = float(np.hypot(se1, se2))
        z = (m1 - m2) / se if se > 0 else 0.0
        rows.append({"k": k, "importance_mean": m1, "importance_se": se1,
                     "pcn_mean": m2, "pcn_se": se2, "pcn_iact": tau,
                     "z": z})
        rep.add_check(f"moment_cross_validation_k{k}", abs(z), 3.0,
                      detail=f"mean |c_{k}|^2: importance {m1:.6g} "
                             f"({se1:.2g}) vs chain {m2:.6g} ({se2:.2g})")
    write_table(cfg.out_dir, "gibbs_moments",
                ["k", "importance_mean", "importance_se", "pcn_mean",
                 "pcn_se", "pcn_iact", "z"], rows)
    write_table(cfg.out_dir, "gibbs_pcn_samples",
                ["sample", "energy"] + abs2_names,
                _SampleRows(chain.coeffs, n_abs2, chain.energies))


class _SampleRows:
    """Sidecar rows: sample index, the columns, then numpy's square
    |c_k|^2 for k < n_abs2, the values the moment means average.

    Each pass builds the rows one block of report._BLOCK_ROWS at a time,
    so write_table holds one block of tuples, never the whole table; len
    is the sample count, which benchmark/trace_child.py reads.
    """

    def __init__(self, coeffs, n_abs2, *columns):
        self.coeffs, self.n_abs2, self.columns = coeffs, n_abs2, columns

    def __len__(self):
        return self.coeffs.shape[0]

    def __iter__(self):
        import numpy as np
        step = report._BLOCK_ROWS
        for lo in range(0, len(self), step):
            block = slice(lo, lo + step)
            abs2 = np.abs(self.coeffs[block, :self.n_abs2]) ** 2
            yield from zip(range(lo, len(self)),
                           *(col[block].tolist() for col in self.columns),
                           *abs2.T.tolist())


def _load_initial_state(path, n_modes):
    """Modes c_n = re + i im from a CSV of re,im rows, row n holding mode n
    after an optional header; a row that is not two finite numbers is
    refused, naming the file and the row."""
    import csv as csv_mod

    import numpy as np

    from .interaction import csv_float_row
    with open(path, newline="") as fh:
        rows = [row for row in csv_mod.reader(fh) if row]
    if rows and rows[0][0].strip().lower() in ("re", "re_c"):
        rows = rows[1:]
    values = np.array([csv_float_row(row, 2, "initial-state file", path,
                                     f"row {n}", "value")
                       for n, row in enumerate(rows)])
    if values.shape[0] < n_modes:
        raise ValueError(f"initial state has {values.shape[0]} modes, the "
                         f"tensor needs at least {n_modes}")
    return values[:, 0] + 1j * values[:, 1]


def _add_solver_counters(rep, meta):
    steps = meta["n_steps"]
    rep.add("solver_counters", "info",
            value={"steps": steps, "f_evals": meta["f_evals"],
                   "f_per_step": meta["f_evals"] / steps if steps else None,
                   "halvings": meta["halvings"]},
            detail=f"{meta['integrator']} integrator at dt = {meta['dt']}: "
                   "cubic-term evaluations and step halvings")


def run_flow(cfg, rep, args):
    import numpy as np

    from .dynamics import (flow, flow_energy, mass, reversal_error,
                           vector_field_check)
    from .rng import derive_rng, prior_coeffs
    tensor = _tensor_built(cfg, rep, None, "the config")
    init = getattr(args, "init", "seed")
    if init == "seed":
        c0 = prior_coeffs(derive_rng(cfg.seed, "flow.init"),
                          (tensor.n_modes,), tensor.lam)
        rep.add("initial_state", "info", value="seed",
                detail=f"free-measure draw from seed {cfg.seed}")
    else:
        c0 = _load_initial_state(init, tensor.n_modes)
        rep.add("initial_state", "info", value=init,
                detail=f"{c0.size} modes loaded from file")
    n_steps = step_count(cfg.flow_t_final, cfg.flow_dt)
    traj, seconds = _timed(flow, tensor, c0, dt=cfg.flow_dt,
                           t_final=cfg.flow_t_final,
                           integrator=cfg.flow_integrator,
                           solver_tol=cfg.flow_solver_tol,
                           sample_every=max(1, n_steps // 200))
    energies = np.array([flow_energy(tensor, s[:tensor.n_modes])
                         for s in traj.states])
    masses = np.array([mass(s) for s in traj.states])
    m0, f0 = masses[0], energies[0]
    rep.add("mass_drift", "info",
            value=float(np.max(np.abs(masses - m0)) / max(1.0, abs(m0))),
            detail=f"relative, over t in [0, {cfg.flow_t_final}]",
            seconds=seconds)
    rep.add("flow_energy_drift", "info",
            value=float(np.max(np.abs(energies - f0))),
            detail="conserved quantity of the integrated flow; midpoint "
                   "defect is bounded O(dt^2) at coupling kernels")
    _add_solver_counters(rep, traj.meta)
    rev, sec_rev = _timed(reversal_error, tensor, traj)
    rep.add_check("reversal_error", rev, 1e-6,
                  detail="forward then conjugate-backward round trip",
                  seconds=sec_rev)
    vchk, sec_v = _timed(vector_field_check, tensor, cfg.seed)
    rep.add_check("vector_field_gradient", vchk["grad_quarter_energy"],
                  1e-5, detail="cubic term vs packed finite-difference "
                               "gradient of E/4", seconds=sec_v)
    rep.add_check("vector_field_directional", vchk["directional"], 1e-5,
                  detail="directional derivative pairing dE(h) = "
                         "2 Re<grad, h>")
    header = (["t"] + [f"{part}_c{n}" for n in range(traj.states.shape[-1])
                       for part in ("re", "im")] + ["flow_energy", "mass"])
    table = np.column_stack([traj.times, traj.states.view(float),
                             energies, masses])
    write_table(cfg.out_dir, "flow_trajectory", header, table.tolist())


def run_invariance(cfg, rep, args):
    from .dynamics import invariance_test
    tensor = _tensor_built(cfg, rep, None, "the config")
    res, seconds = _timed(invariance_test, tensor, cfg)
    burn = cfg.invariance_burn_steps
    detail = (f"{cfg.invariance_ensemble_size} parallel chains, "
              f"{burn} burn sweeps" if burn
              else "no burn-in sweep ran, so there is no acceptance rate")
    rep.add("pcn_burnin_acceptance", "info",
            value=res["acceptance_rate"] if burn else None, detail=detail,
            seconds=seconds)
    _add_solver_counters(rep, res["meta"])
    threshold = res["threshold"]
    if cfg.invariance_negative_control:
        energy_row = next(r for r in res["rows"]
                          if r["observable"] == "energy")
        detected = not energy_row["pass"]
        rep.add("negative_control_detects_break",
                "pass" if detected else "fail",
                value=energy_row["p_value"], tolerance=threshold,
                detail="counterterms disabled in the flow only; the energy "
                       "law must drift detectably")
    else:
        for row in res["rows"]:
            rep.add(f"law_invariance_{row['observable']}",
                    "pass" if row["pass"] else "fail",
                    value=row["p_value"], tolerance=threshold,
                    detail=f"ks={row['ks_stat']:.4f}, "
                           f"z_mean={row['z_mean']:.2f}, "
                           f"z_second={row['z_second']:.2f}")
    write_table(cfg.out_dir, "invariance_rows",
                ["observable", "ks_stat", "p_value", "z_mean", "z_second",
                 "pass"], res["rows"])


def _guarded(runner, cfg, rep, args):
    """Run one runner; any exception becomes a failing `aborted` record, so
    the records and sidecars it wrote before it failed stay in the report.

    A ValueError is a refusal and its message is the detail; any other
    exception also names its type, and its traceback goes to the log.
    """
    try:
        runner(cfg, rep, args)
    except Exception as exc:
        refusal = isinstance(exc, ValueError)
        detail = str(exc) if refusal else f"{type(exc).__name__}: {exc}"
        rep.add("aborted", "fail", detail=detail)
        log.error("%s aborted: %s", rep.command, detail,
                  exc_info=not refusal)


def run_full(cfg, rep, args):
    """Every section in turn, its records named under the subcommand's
    name up to its first '-' (clifford, ..., invariance)."""
    for command, runner in _SECTIONS.items():
        name = command.split("-")[0]
        log.info("running %s", name)
        start = len(rep.records)
        _guarded(runner, cfg, rep, args)
        for record in rep.records[start:]:
            record["name"] = f"{name}.{record['name']}"


_SECTIONS = {
    "clifford-check": run_clifford,
    "spectral-check": run_spectral,
    "wick-check": run_wick,
    "energy-oracle": run_energy,
    "cauchy-study": run_cauchy,
    "nelson-scan": run_nelson,
    "gibbs-sample": run_gibbs,
    "flow": run_flow,
    "invariance-test": run_invariance,
}
RUNNERS = {**_SECTIONS, "full-suite": run_full}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="zdg",
        description="Gibbs-measure laboratory for the renormalized zonal "
                    "model: seeded experiments with JSON/CSV reports.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in RUNNERS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", default=None,
                       help="key=value config file (defaults when omitted)")
        p.add_argument("--seed", type=int, default=None,
                       help="override the master seed (64-bit unsigned)")
        p.add_argument("--out", default=None,
                       help="override the output directory")
        p.add_argument("--verbose", "-v", action="store_true",
                       help="debug-level logging")
        if name == "flow":
            p.add_argument("--init", default="seed",
                           help="'seed' for a free-measure draw, or a CSV "
                                "file of re,im rows per mode")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s")
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = str(args.seed)
    if args.out is not None:
        overrides["out_dir"] = args.out
    try:
        cfg, warnings = load_config(args.config, overrides)
        _apply_threads()
        os.makedirs(cfg.out_dir, exist_ok=True)
    except (ValueError, OSError) as exc:
        print(exc, file=sys.stderr)
        return 2
    rep = Report(args.command, cfg.to_mapping())
    for warning in warnings:
        rep.add("config_warning", "info", detail=warning)
    _guarded(RUNNERS[args.command], cfg, rep, args)
    _add_process_record(rep)
    path = rep.write(cfg.out_dir)
    log.info("wrote %s (%d records, all_pass=%s)", path, len(rep.records),
             rep.all_pass)
    return 0 if rep.all_pass else 1


if __name__ == "__main__":
    sys.exit(main())

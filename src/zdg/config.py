"""Experiment configuration: flat key=value text with dotted section names.

The format is deliberately minimal so configs diff cleanly: one `key =
value` pair per line, `#` starts a comment, section structure is spelled
out in the key itself (kernel.kind, flow.dt).  Unknown keys, duplicate
keys, type errors, and violated invariants are all collected and reported
together in a single diagnostic.

This module is importable without numpy so the command-line front end can
cap thread pools before any numerical library loads.
"""

import math
import os
from dataclasses import make_dataclass

_TRUE = {"true", "yes", "on", "1"}
_FALSE = {"false", "no", "off", "0"}


def auto_grid_size(cutoff):
    """Quadrature nodes of the automatic grid (grid_size = 0) at a cutoff."""
    return 2 * cutoff + 16


def step_count(t_final, dt):
    """The number n = round(t_final / dt) of dt steps in t_final, or None
    when n dt misses t_final: |n dt - t_final| > 1e-12 + 1e-9 |t_final|,
    the test of np.isclose(n dt, t_final, rtol=1e-9, atol=1e-12)."""
    ratio = t_final / dt
    if not math.isfinite(ratio):
        return None
    n = round(ratio)
    whole = abs(n * dt - t_final) <= 1e-12 + 1e-9 * abs(t_final)
    return n if whole else None


# (config key, attribute, type tag, default); the single source of truth
# for parsing, the ExperimentConfig fields, and the report's config echo.
SCHEMA = [
    ("dim", "dim", "int", 2),
    ("cutoff", "cutoff", "int", 8),
    ("grid_size", "grid_size", "int", 0),
    ("q", "q", "float", 25.0),
    ("nu", "nu", "float", 0.4),
    ("hs_s", "hs_s", "float", -0.6),
    ("seed", "seed", "int", 2026),
    ("threads", "threads", "int", 0),
    # byte budget of the dense oracle A and of assemble_interaction's arrays
    ("tensor_budget_bytes", "tensor_budget_bytes", "int", 2 * 1024 ** 3),
    ("out_dir", "out_dir", "str", "reports"),
    ("kernel.kind", "kernel_kind", "str", "constant"),
    ("kernel.kappa", "kernel_kappa", "float", 1.0),
    ("kernel.profile", "kernel_profile", "str", "one_plus_cos"),
    ("kernel.amplitude", "kernel_amplitude", "float", 1.0),
    ("kernel.name", "kernel_name", "str", "gaussian_angle"),
    ("kernel.width", "kernel_width", "float", 0.7),
    ("kernel.profile_file", "kernel_profile_file", "str", ""),
    ("gibbs.ensemble_size", "gibbs_ensemble_size", "int", 20000),
    ("gibbs.beta", "gibbs_beta", "float", 0.0),
    ("gibbs.kmax", "gibbs_kmax", "int", 8),
    ("flow.dt", "flow_dt", "float", 1e-3),
    ("flow.t_final", "flow_t_final", "float", 1.0),
    ("flow.integrator", "flow_integrator", "str", "midpoint"),
    ("flow.solver_tol", "flow_solver_tol", "float", 1e-13),
    ("flow.sample_every", "flow_sample_every", "int", 0),
    ("flow.compare_cutoff", "flow_compare_cutoff", "int", 0),
    ("invariance.ensemble_size", "invariance_ensemble_size", "int", 1024),
    ("invariance.t_final", "invariance_t_final", "float", 1.0),
    ("invariance.dt", "invariance_dt", "float", 5e-3),
    ("invariance.alpha", "invariance_alpha", "float", 0.01),
    ("invariance.kmax", "invariance_kmax", "int", 8),
    ("invariance.burn_steps", "invariance_burn_steps", "int", 300),
    ("invariance.beta", "invariance_beta", "float", 0.4),
    ("invariance.negative_control", "invariance_negative_control", "bool",
     False),
    ("cauchy.m_list", "cauchy_m_list", "int_list", (4, 8, 16, 32)),
    ("cauchy.ensemble_size", "cauchy_ensemble_size", "int", 100000),
    ("nelson.n_list", "nelson_n_list", "int_list", (4, 8, 16, 32)),
    ("nelson.ensemble_size", "nelson_ensemble_size", "int", 200000),
    ("lr.n_list", "lr_n_list", "int_list", (4, 8, 16, 32, 64)),
    ("lr.r_list", "lr_r_list", "int_list", (2, 4)),
    ("lr.ensemble_size", "lr_ensemble_size", "int", 200000),
]

_BY_KEY = {key: (attr, tag) for key, attr, tag, _ in SCHEMA}

KERNEL_KINDS = ("constant", "separable", "grid", "file")
# the keys of interaction.SEPARABLE_PROFILES and interaction.GRID_KERNELS
KERNEL_PROFILES = ("one_plus_cos", "gauss_bump")
KERNEL_NAMES = ("gaussian_angle",)
INTEGRATORS = ("midpoint", "lawson-rk4")

_TYPE_BY_TAG = {"int": int, "float": float, "str": str, "bool": bool,
                "int_list": tuple}


class _ConfigMethods:
    """Methods of `ExperimentConfig`, whose fields come from SCHEMA."""

    def to_mapping(self):
        """Config echo as an ordered {dotted key: value} mapping."""
        out = {}
        for key, attr, tag, _ in SCHEMA:
            value = getattr(self, attr)
            out[key] = list(value) if tag == "int_list" else value
        return out

    def effective_grid_size(self):
        return self.grid_size if self.grid_size > 0 \
            else auto_grid_size(self.cutoff)


ExperimentConfig = make_dataclass(
    "ExperimentConfig",
    [(attr, _TYPE_BY_TAG[tag], default) for _, attr, tag, default in SCHEMA],
    bases=(_ConfigMethods,), namespace={"__module__": __name__})


def _parse_value(key, tag, raw, errors):
    raw = raw.strip()
    try:
        if tag == "int":
            return int(raw)
        if tag == "float":
            return float(raw)
        if tag == "bool":
            low = raw.lower()
            if low in _TRUE:
                return True
            if low in _FALSE:
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        if tag == "int_list":
            return tuple(int(part) for part in raw.split(",") if part.strip())
        return raw
    except ValueError as exc:
        errors.append(f"{key}: {exc}")
        return None


def parse_config_text(text):
    """Parse key=value lines into a raw {key: string} mapping.

    Returns (mapping, errors); errors cover malformed lines and duplicates.
    """
    mapping = {}
    errors = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            errors.append(f"line {lineno}: expected key = value, got "
                          f"{stripped!r}")
            continue
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key in mapping:
            errors.append(f"line {lineno}: duplicate key {key!r}")
            continue
        mapping[key] = raw.strip()
    return mapping, errors


def validate(cfg):
    """Collect every violated invariant; returns (errors, warnings)."""
    errors = []
    warnings = []
    if cfg.dim < 2 or cfg.dim % 2 != 0:
        errors.append(f"dim must be an even integer >= 2, got {cfg.dim}")
    if cfg.cutoff < 0:
        errors.append(f"cutoff must be >= 0, got {cfg.cutoff}")
    if cfg.q <= 12 * cfg.dim:
        errors.append(f"q must exceed 12*dim = {12 * cfg.dim}, got {cfg.q}")
    else:
        lo, hi = 6 * cfg.dim / cfg.q, 1.0 - 6 * cfg.dim / cfg.q
        if not 0.0 < cfg.nu < hi:
            errors.append(f"nu must lie in (0, 1 - 6*dim/q) = (0, {hi:.4g}),"
                          f" got {cfg.nu}")
        elif cfg.nu <= lo:
            warnings.append(
                f"nu = {cfg.nu} is at or below 6*dim/q = {lo:.4g}: inside "
                "the decay window but outside the full parameter window")
    if cfg.hs_s >= -0.5:
        errors.append(f"hs_s must be < -1/2, got {cfg.hs_s}")
    if not 0 <= cfg.seed < 2 ** 64:
        errors.append(f"seed must fit in 64 bits, got {cfg.seed}")
    if cfg.threads < 0:
        errors.append(f"threads must be >= 0, got {cfg.threads}")
    if cfg.tensor_budget_bytes <= 0:
        errors.append("tensor_budget_bytes must be positive, got "
                      f"{cfg.tensor_budget_bytes}")
    if cfg.grid_size != 0 and cfg.grid_size < cfg.cutoff + cfg.dim:
        errors.append(f"grid_size must be 0 (auto) or >= cutoff + dim = "
                      f"{cfg.cutoff + cfg.dim}, got {cfg.grid_size}")
    if cfg.kernel_kind not in KERNEL_KINDS:
        errors.append(f"kernel.kind must be one of {KERNEL_KINDS}, got "
                      f"{cfg.kernel_kind!r}")
    if cfg.kernel_profile not in KERNEL_PROFILES:
        errors.append(f"kernel.profile must be one of {KERNEL_PROFILES}, "
                      f"got {cfg.kernel_profile!r}")
    if cfg.kernel_name not in KERNEL_NAMES:
        errors.append(f"kernel.name must be one of {KERNEL_NAMES}, got "
                      f"{cfg.kernel_name!r}")
    if cfg.kernel_kappa < 0:
        errors.append(f"kernel.kappa must be >= 0, got {cfg.kernel_kappa}")
    if cfg.kernel_amplitude < 0:
        errors.append("kernel.amplitude must be >= 0, got "
                      f"{cfg.kernel_amplitude}")
    if cfg.kernel_width <= 0:
        errors.append(f"kernel.width must be > 0, got {cfg.kernel_width}")
    if cfg.kernel_kind == "file" and not os.path.isfile(
            cfg.kernel_profile_file):
        errors.append("kernel.profile_file must name an existing file when "
                      f"kernel.kind is 'file', got "
                      f"{cfg.kernel_profile_file!r}")
    if cfg.gibbs_ensemble_size < 2:
        errors.append("gibbs.ensemble_size must be >= 2, got "
                      f"{cfg.gibbs_ensemble_size}")
    if not 0.0 <= cfg.gibbs_beta <= 1.0:
        errors.append("gibbs.beta must lie in [0, 1] (0 means adaptive), "
                      f"got {cfg.gibbs_beta}")
    if cfg.gibbs_kmax < 0:
        errors.append(f"gibbs.kmax must be >= 0, got {cfg.gibbs_kmax}")
    if cfg.flow_dt <= 0:
        errors.append(f"flow.dt must be > 0, got {cfg.flow_dt}")
    if cfg.flow_t_final < 0:
        errors.append(f"flow.t_final must be >= 0, got {cfg.flow_t_final}")
    elif cfg.flow_dt > 0 and step_count(cfg.flow_t_final,
                                        cfg.flow_dt) is None:
        errors.append(f"flow.t_final = {cfg.flow_t_final} must be a whole "
                      f"number of flow.dt = {cfg.flow_dt} steps")
    if cfg.flow_integrator not in INTEGRATORS:
        errors.append(f"flow.integrator must be one of {INTEGRATORS}, got "
                      f"{cfg.flow_integrator!r}")
    if cfg.flow_solver_tol <= 0:
        errors.append("flow.solver_tol must be > 0, got "
                      f"{cfg.flow_solver_tol}")
    if cfg.flow_sample_every < 0:
        errors.append("flow.sample_every must be >= 0, got "
                      f"{cfg.flow_sample_every}")
    if cfg.flow_compare_cutoff < 0 or (cfg.flow_compare_cutoff != 0
                                       and cfg.flow_compare_cutoff
                                       >= cfg.cutoff):
        errors.append("flow.compare_cutoff must be 0 (off) or a cutoff "
                      f"below {cfg.cutoff}, got {cfg.flow_compare_cutoff}")
    if cfg.invariance_ensemble_size < 8:
        errors.append("invariance.ensemble_size must be >= 8, got "
                      f"{cfg.invariance_ensemble_size}")
    if cfg.invariance_t_final <= 0:
        errors.append("invariance.t_final must be > 0, got "
                      f"{cfg.invariance_t_final}")
    if cfg.invariance_dt <= 0:
        errors.append(f"invariance.dt must be > 0, got {cfg.invariance_dt}")
    elif cfg.invariance_t_final > 0 and step_count(
            cfg.invariance_t_final, cfg.invariance_dt) is None:
        errors.append(f"invariance.t_final = {cfg.invariance_t_final} must "
                      f"be a whole number of invariance.dt = "
                      f"{cfg.invariance_dt} steps")
    if not 0.0 < cfg.invariance_alpha < 0.5:
        errors.append("invariance.alpha must lie in (0, 0.5), got "
                      f"{cfg.invariance_alpha}")
    if cfg.invariance_kmax < 0:
        errors.append("invariance.kmax must be >= 0, got "
                      f"{cfg.invariance_kmax}")
    if cfg.invariance_burn_steps < 0:
        errors.append("invariance.burn_steps must be >= 0, got "
                      f"{cfg.invariance_burn_steps}")
    if not 0.0 < cfg.invariance_beta <= 1.0:
        errors.append("invariance.beta must lie in (0, 1], got "
                      f"{cfg.invariance_beta}")
    for name, values in (("cauchy.m_list", cfg.cauchy_m_list),
                         ("nelson.n_list", cfg.nelson_n_list),
                         ("lr.n_list", cfg.lr_n_list),
                         ("lr.r_list", cfg.lr_r_list)):
        if not values:
            errors.append(f"{name} must not be empty")
        elif any(v <= 0 for v in values):
            errors.append(f"{name} entries must be positive, got "
                          f"{list(values)}")
        elif list(values) != sorted(set(values)):
            errors.append(f"{name} must be strictly increasing, got "
                          f"{list(values)}")
    for name, size in (("cauchy.ensemble_size", cfg.cauchy_ensemble_size),
                       ("nelson.ensemble_size", cfg.nelson_ensemble_size),
                       ("lr.ensemble_size", cfg.lr_ensemble_size)):
        if size < 100:
            errors.append(f"{name} must be >= 100, got {size}")
    return errors, warnings


def config_from_mapping(raw_mapping, parse_errors=None):
    """Typed, validated config from a raw {dotted key: string} mapping.

    Raises ValueError listing every problem (parse, unknown key, type,
    invariant) at once; returns (config, warnings) otherwise.
    """
    errors = list(parse_errors or [])
    values = {}
    for key, raw in raw_mapping.items():
        if key not in _BY_KEY:
            errors.append(f"unknown key {key!r}")
            continue
        attr, tag = _BY_KEY[key]
        if isinstance(raw, str):
            parsed = _parse_value(key, tag, raw, errors)
        else:
            parsed = tuple(raw) if tag == "int_list" else raw
        if parsed is not None:
            values[attr] = parsed
    cfg = ExperimentConfig(**values)
    inv_errors, warnings = validate(cfg)
    errors.extend(inv_errors)
    if errors:
        raise ValueError("invalid configuration:\n  - "
                         + "\n  - ".join(errors))
    return cfg, warnings


def load_config(path=None, overrides=None):
    """Load a config file (defaults when path is None) plus CLI overrides.

    Returns (config, warnings); raises ValueError with the full list of
    violations when anything is wrong.
    """
    if path is None:
        mapping, parse_errors = {}, []
    else:
        with open(path) as fh:
            text = fh.read()
        mapping, parse_errors = parse_config_text(text)
    for key, value in (overrides or {}).items():
        mapping[key] = value
    return config_from_mapping(mapping, parse_errors)


def resolve_threads(cfg):
    """Thread-pool cap: ZDG_THREADS env var wins over the config key."""
    env = os.environ.get("ZDG_THREADS", "").strip()
    if env:
        try:
            n = int(env)
        except ValueError:
            raise ValueError(f"ZDG_THREADS must be an integer, got {env!r}")
        if n < 0:
            raise ValueError(f"ZDG_THREADS must be >= 0, got {n}")
        return n
    return cfg.threads

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
import operator
import os
from dataclasses import make_dataclass

_TRUE = {"true", "yes", "on", "1"}
_FALSE = {"false", "no", "off", "0"}
_COMPARE = {">=": operator.ge, ">": operator.gt, "<=": operator.le,
            "<": operator.lt}


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


KERNEL_KINDS = ("constant", "separable", "grid", "file")
# the keys of interaction.SEPARABLE_PROFILES and interaction.GRID_KERNELS
KERNEL_PROFILES = ("one_plus_cos", "gauss_bump")
KERNEL_NAMES = ("gaussian_angle",)
INTEGRATORS = ("midpoint", "lawson-rk4")

# (config key, default, admissible values); the single source of truth for
# parsing, the ExperimentConfig fields, each key's own check in validate,
# and the report's config echo.  The field is the key with "." read as "_"
# and its type is the default's, so a float default is written as a float
# (25.0, not 25).  Admissible values are None (any value, or rules
# involving other keys, written out in validate), a tuple of names, or an
# interval such as "[0, )" or "(0, 1]" whose empty end is unbounded.  An
# int list must be non-empty, positive and strictly increasing; validate
# asks two entries of each cutoff list whose study fits a slope.
SCHEMA = [
    ("dim", 2, None),
    ("cutoff", 8, "[0, )"),
    ("grid_size", 0, None),
    ("q", 25.0, None),
    ("nu", 0.4, None),
    ("hs_s", -0.6, "(, -0.5)"),
    ("seed", 2026, "[0, 18446744073709551616)"),  # 64-bit unsigned
    # byte budget of the dense oracle A and of assemble_interaction's arrays
    ("tensor_budget_bytes", 2 * 1024 ** 3, "(0, )"),
    ("out_dir", "reports", None),
    ("kernel.kind", "constant", KERNEL_KINDS),
    ("kernel.kappa", 1.0, "[0, )"),
    ("kernel.profile", "one_plus_cos", KERNEL_PROFILES),
    ("kernel.amplitude", 1.0, "[0, )"),
    ("kernel.name", "gaussian_angle", KERNEL_NAMES),
    ("kernel.width", 0.7, "(0, )"),
    ("kernel.profile_file", "", None),
    ("gibbs.ensemble_size", 20000, "[4, )"),
    ("gibbs.kmax", 8, "[0, )"),
    ("flow.dt", 1e-3, "(0, )"),
    ("flow.t_final", 1.0, "[0, )"),
    ("flow.integrator", "midpoint", INTEGRATORS),
    ("flow.solver_tol", 1e-13, "(0, )"),
    ("invariance.ensemble_size", 1024, "[8, )"),
    ("invariance.t_final", 1.0, "(0, )"),
    ("invariance.dt", 5e-3, "(0, )"),
    ("invariance.alpha", 0.01, "(0, 0.5)"),
    ("invariance.kmax", 8, "[0, )"),
    ("invariance.burn_steps", 300, "[0, )"),
    ("invariance.beta", 0.4, "(0, 1]"),
    ("invariance.negative_control", False, None),
    ("cauchy.m_list", (4, 8, 16, 32), None),
    ("cauchy.ensemble_size", 100000, "[100, )"),
    ("nelson.n_list", (4, 8, 16, 32), None),
    ("nelson.ensemble_size", 200000, "[100, )"),
]


class _ConfigMethods:
    """Methods of `ExperimentConfig`, whose fields come from SCHEMA."""

    def to_mapping(self):
        """Config echo as an ordered {dotted key: value} mapping."""
        out = {}
        for key, _, _ in SCHEMA:
            value = getattr(self, key.replace(".", "_"))
            out[key] = list(value) if isinstance(value, tuple) else value
        return out

    def effective_grid_size(self):
        return self.grid_size if self.grid_size > 0 \
            else auto_grid_size(self.cutoff)


ExperimentConfig = make_dataclass(
    "ExperimentConfig",
    [(key.replace(".", "_"), type(default), default)
     for key, default, _ in SCHEMA],
    bases=(_ConfigMethods,), namespace={"__module__": __name__})


def _parse_value(kind, raw):
    """A raw string as the type `kind` of a SCHEMA default; a float must be
    finite."""
    raw = raw.strip()
    if kind is bool:
        if raw.lower() in _TRUE:
            return True
        if raw.lower() in _FALSE:
            return False
        raise ValueError(f"not a boolean: {raw!r}")
    if kind is tuple:
        return tuple(int(part) for part in raw.split(",") if part.strip())
    value = kind(raw)
    if kind is float and not math.isfinite(value):
        raise ValueError(f"not a finite number: {raw!r}")
    return value


def _refusal(key, value, admissible):
    """Why a SCHEMA row refuses value, or None when it admits it."""
    if isinstance(value, tuple):
        values = list(value)
        if not values:
            return f"{key} must not be empty"
        if min(values) <= 0:
            return f"{key} entries must be positive, got {values}"
        if values != sorted(set(values)):
            return f"{key} must be strictly increasing, got {values}"
    elif isinstance(admissible, tuple):
        if value not in admissible:
            return f"{key} must be one of {admissible}, got {value!r}"
    elif admissible is not None:
        lo, hi = (end.strip() for end in admissible[1:-1].split(","))
        lo_op = ">=" if admissible.startswith("[") else ">"
        hi_op = "<=" if admissible.endswith("]") else "<"
        if (lo and not _COMPARE[lo_op](value, float(lo))) \
                or (hi and not _COMPARE[hi_op](value, float(hi))):
            bound = (f"lie in {admissible}" if lo and hi
                     else f"be {lo_op} {lo}" if lo else f"be {hi_op} {hi}")
            return f"{key} must {bound}, got {value}"
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
    """Collect every violated invariant; returns (errors, warnings).

    Each key's own admissible values come from its SCHEMA row; the rules
    written out here are those that involve more than one key.
    """
    errors, warnings = [], []
    for key, _, admissible in SCHEMA:
        value = getattr(cfg, key.replace(".", "_"))
        if refusal := _refusal(key, value, admissible):
            errors.append(refusal)
    if cfg.dim < 2 or cfg.dim % 2 != 0:
        errors.append(f"dim must be an even integer >= 2, got {cfg.dim}")
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
    if cfg.grid_size != 0 and cfg.grid_size < cfg.cutoff + cfg.dim:
        errors.append(f"grid_size must be 0 (auto) or >= cutoff + dim = "
                      f"{cfg.cutoff + cfg.dim}, got {cfg.grid_size}")
    if cfg.kernel_kind == "file" and not os.path.isfile(
            cfg.kernel_profile_file):
        errors.append("kernel.profile_file must name an existing file when "
                      f"kernel.kind is 'file', got "
                      f"{cfg.kernel_profile_file!r}")
    for section in ("flow", "invariance"):
        t_final = getattr(cfg, f"{section}_t_final")
        dt = getattr(cfg, f"{section}_dt")
        if t_final >= 0 and dt > 0 and step_count(t_final, dt) is None:
            errors.append(f"{section}.t_final = {t_final} must be a whole "
                          f"number of {section}.dt = {dt} steps")
    for key in ("cauchy.m_list", "nelson.n_list"):
        if len(getattr(cfg, key.replace(".", "_"))) == 1:
            errors.append(f"{key} needs two cutoffs for its slope fit")
    return errors, warnings


def config_from_mapping(raw_mapping, parse_errors=None):
    """Typed, validated config from a raw {dotted key: string} mapping.

    Raises ValueError listing every problem (parse, unknown key, type,
    invariant) at once; returns (config, warnings) otherwise.
    """
    errors = list(parse_errors or [])
    defaults = {key: default for key, default, _ in SCHEMA}
    values = {}
    for key, raw in raw_mapping.items():
        if key not in defaults:
            errors.append(f"unknown key {key!r}")
            continue
        try:
            values[key.replace(".", "_")] = _parse_value(
                type(defaults[key]), raw)
        except ValueError as exc:
            errors.append(f"{key}: {exc}")
    cfg = ExperimentConfig(**values)
    inv_errors, warnings = validate(cfg)
    errors.extend(inv_errors)
    if errors:
        raise ValueError("invalid configuration:\n  - "
                         + "\n  - ".join(errors))
    return cfg, warnings


def load_config(path=None, overrides=None):
    """Load a config file (defaults when path is None) plus CLI overrides.

    A relative kernel.profile_file in the file is read relative to the
    file's directory.  Returns (config, warnings); raises ValueError with
    the full list of violations when anything is wrong.
    """
    if path is None:
        mapping, parse_errors = {}, []
    else:
        with open(path) as fh:
            text = fh.read()
        mapping, parse_errors = parse_config_text(text)
        kernel_file = mapping.get("kernel.profile_file")
        if kernel_file and not os.path.isabs(kernel_file):
            mapping["kernel.profile_file"] = os.path.join(
                os.path.dirname(path), kernel_file)
    for key, value in (overrides or {}).items():
        mapping[key] = value
    return config_from_mapping(mapping, parse_errors)

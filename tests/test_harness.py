"""Config parsing and validation, report serialization, CLI end to end."""

import csv
import dataclasses
import json
import os
import tracemalloc

import numpy as np
import pytest

from zdg import cli, dynamics, interaction, report, zonal
from zdg.cli import _THREAD_VARS, _apply_threads, _build_tensor, main
from zdg.config import (KERNEL_NAMES, KERNEL_PROFILES, SCHEMA,
                        ExperimentConfig, config_from_mapping, load_config,
                        parse_config_text, step_count, validate)
from zdg.interaction import (kernel_matrix_from_csv, kernel_matrix_to_csv,
                             kernel_node_values)
from zdg.report import Report, build_identifier, write_table
from zdg.zonal import build_basis


def test_parse_config_text_comments_and_blanks():
    text = "\n".join([
        "# full-line comment",
        "",
        "dim = 4   # trailing comment",
        "kernel.kind = separable",
    ])
    mapping, errors = parse_config_text(text)
    assert errors == []
    assert mapping == {"dim": "4", "kernel.kind": "separable"}


def test_parse_config_text_reports_bad_lines_and_duplicates():
    mapping, errors = parse_config_text("dim 4\nseed = 1\nseed = 2\n")
    assert mapping == {"seed": "1"}
    assert len(errors) == 2
    assert "line 1" in errors[0]
    assert "duplicate" in errors[2 - 1]


def test_schema_defaults_match_dataclass_defaults():
    cfg = ExperimentConfig()
    for key, default, _ in SCHEMA:
        assert getattr(cfg, key.replace(".", "_")) == default, key


def test_config_dataclass_is_generated_from_schema():
    fields = dataclasses.fields(ExperimentConfig)
    assert [(f.name, f.type) for f in fields] \
        == [(key.replace(".", "_"), type(default))
            for key, default, _ in SCHEMA]
    assert ExperimentConfig.__module__ == "zdg.config"
    assert list(ExperimentConfig().to_mapping()) \
        == [key for key, _, _ in SCHEMA]


def _refusals(mapping):
    """The lines of config_from_mapping's refusal; [] when it accepts."""
    try:
        config_from_mapping(mapping)
    except ValueError as exc:
        return str(exc).splitlines()[1:]
    return []


@pytest.mark.parametrize("key, default, interval", [
    pytest.param(*row, id=row[0]) for row in SCHEMA
    if isinstance(row[2], str)])
def test_schema_interval_admits_its_closed_ends_only(key, default, interval):
    kind = type(default)
    lo, hi = (end.strip() for end in interval[1:-1].split(","))
    for end, closed, outward in ((lo, interval.startswith("["), -1),
                                 (hi, interval.endswith("]"), 1)):
        if not end:
            continue
        assert (_refusals({key: end}) == []) == closed, (key, end)
        outside = kind(end) + outward
        refused = _refusals({key: str(outside)})
        assert len(refused) == 1, (key, outside)
        assert refused[0].startswith(f"  - {key} must "), refused
        assert refused[0].endswith(f", got {outside}"), refused


@pytest.mark.parametrize("key, names", [
    pytest.param(key, names, id=key) for key, _, names in SCHEMA
    if isinstance(names, tuple)])
def test_schema_names_refuse_an_unknown_name(key, names):
    assert _refusals({key: "nope"}) == [
        f"  - {key} must be one of {names}, got 'nope'"]


@pytest.mark.parametrize("key", [
    pytest.param(key, id=key) for key, default, _ in SCHEMA
    if type(default) is float])
@pytest.mark.parametrize("raw", ["inf", "-inf", "nan", "1e400"])
def test_schema_floats_refuse_non_finite_values(key, raw):
    assert _refusals({key: raw}) == [f"  - {key}: not a finite number: "
                                     f"{raw!r}"]


def test_default_config_sets_every_schema_key_once_to_its_default():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "configs", "default.cfg")) as fh:
        mapping, errors = parse_config_text(fh.read())
    assert errors == []
    assert list(mapping) == [key for key, _, _ in SCHEMA]
    assert config_from_mapping(mapping)[0] == ExperimentConfig()


def test_invalid_config_lists_every_violation():
    mapping = {"dim": "2", "q": "25", "nu": "0.9", "hs_s": "0.0",
               "mystery": "1"}
    with pytest.raises(ValueError) as err:
        config_from_mapping(mapping)
    msg = str(err.value)
    assert "unknown key 'mystery'" in msg
    assert "nu must lie in (0, 1 - 6*dim/q)" in msg
    assert "hs_s" in msg
    assert msg.count("\n") >= 3


def test_unknown_kernel_profile_and_name_are_config_errors():
    with pytest.raises(ValueError) as err:
        config_from_mapping({"kernel.kind": "separable",
                             "kernel.profile": "nope",
                             "kernel.name": "wat"})
    msg = str(err.value)
    assert "kernel.profile must be one of ('one_plus_cos', 'gauss_bump'), " \
        "got 'nope'" in msg
    assert "kernel.name must be one of ('gaussian_angle',), got 'wat'" in msg


def test_kernel_name_tuples_are_the_interaction_families():
    assert KERNEL_PROFILES == tuple(interaction.SEPARABLE_PROFILES)
    assert KERNEL_NAMES == tuple(interaction.GRID_KERNELS)


def test_q_window_rejection_example():
    with pytest.raises(ValueError, match=r"q must exceed 12\*dim = 24"):
        config_from_mapping({"dim": "2", "q": "20"})


def test_nu_below_soft_threshold_warns_but_validates():
    cfg, warnings = config_from_mapping({"nu": "0.4", "q": "25"})
    assert any("nu" in w for w in warnings)
    assert validate(cfg)[0] == []
    cfg2, warnings2 = config_from_mapping({"nu": "0.5", "q": "26"})
    assert warnings2 == []


def test_int_list_must_increase():
    with pytest.raises(ValueError, match="increasing"):
        config_from_mapping({"cauchy.m_list": "8,4"})


@pytest.mark.parametrize("key", ["cauchy.m_list", "nelson.n_list"])
def test_fitted_cutoff_list_needs_two_entries(key):
    with pytest.raises(ValueError,
                       match=f"{key} needs two cutoffs for its slope fit"):
        config_from_mapping({key: "8"})
    config_from_mapping({key: "4, 8"})


@pytest.mark.parametrize("key", ["threads", "flow.sample_every", "lr.n_list",
                                 "lr.r_list", "lr.ensemble_size",
                                 "gibbs.beta", "flow.compare_cutoff"])
def test_keys_no_run_reads_are_unknown(key):
    # the thread cap is ZDG_THREADS alone, flow strides its records to
    # about 200, no study reads the lr section, the pCN warm-up sets the
    # chain's step, and flow runs at one cutoff
    assert _refusals({key: "2"}) == [f"  - unknown key {key!r}"]


def test_effective_grid_size_default_and_override():
    assert ExperimentConfig().effective_grid_size() == 32
    cfg, _ = config_from_mapping({"cutoff": "4", "grid_size": "50"})
    assert cfg.effective_grid_size() == 50


def test_to_mapping_follows_schema_order():
    cfg = ExperimentConfig()
    assert list(cfg.to_mapping()) == [key for key, _, _ in SCHEMA]


@pytest.mark.parametrize("env, capped", [(None, None), ("0", None),
                                         ("2", "2")],
                         ids=["unset", "zero", "two"])
def test_apply_threads_caps_every_pool_at_a_positive_value(monkeypatch, env,
                                                            capped):
    for var in _THREAD_VARS:
        monkeypatch.setenv(var, "untouched")
    if env is None:
        monkeypatch.delenv("ZDG_THREADS", raising=False)
    else:
        monkeypatch.setenv("ZDG_THREADS", env)
    _apply_threads()
    assert [os.environ[var] for var in _THREAD_VARS] \
        == [capped or "untouched"] * len(_THREAD_VARS)


@pytest.mark.parametrize("env, message", [
    ("abc", "ZDG_THREADS must be an integer, got 'abc'"),
    ("-1", "ZDG_THREADS must be >= 0, got -1")], ids=["abc", "negative"])
def test_apply_threads_refuses_a_value_not_a_count(monkeypatch, env, message):
    for var in _THREAD_VARS:
        monkeypatch.setenv(var, "untouched")
    monkeypatch.setenv("ZDG_THREADS", env)
    with pytest.raises(ValueError, match=message):
        _apply_threads()
    assert all(os.environ[var] == "untouched" for var in _THREAD_VARS)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(OSError):
        load_config(str(tmp_path / "absent.cfg"))


def test_kernel_csv_roundtrip(tmp_path):
    basis = build_basis(2, 5, grid_size=20)
    th = basis.grid.theta
    rng = np.random.default_rng(3)
    half = rng.standard_normal((20, 4))
    mat = half @ half.T / 4 + 1.0
    path = tmp_path / "kernel.csv"
    kernel_matrix_to_csv(path, th, mat)
    mat2 = kernel_matrix_from_csv(path, theta=th)
    assert np.array_equal(mat, mat2)


def test_kernel_csv_rejects_node_mismatch(tmp_path):
    basis = build_basis(2, 5, grid_size=20)
    other = build_basis(2, 5, grid_size=24)
    mat = np.ones((20, 20))
    path = tmp_path / "kernel.csv"
    kernel_matrix_to_csv(path, basis.grid.theta, mat)
    with pytest.raises(ValueError) as info:
        kernel_matrix_from_csv(path, theta=other.grid.theta[:20])
    assert str(info.value) == (
        f"kernel file nodes do not match the quadrature grid: {path} "
        "tabulates 20 nodes where the grid has 20 at other angles")


def test_kernel_csv_rejects_ragged_rows(tmp_path):
    path = tmp_path / "kernel.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([0.1, 0.2, 0.3])
        writer.writerow([1.0, 1.0, 1.0])
        writer.writerow([1.0, 1.0])
        writer.writerow([1.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        kernel_matrix_from_csv(path)


def test_file_kernel_config_roundtrips_node_values(tmp_path):
    basis = build_basis(2, 6, grid_size=28)
    th = basis.grid.theta
    mat = 0.5 * (1.0 + np.cos(th)[:, None] * np.cos(th)[None, :])
    path = tmp_path / "kernel.csv"
    kernel_matrix_to_csv(path, th, mat)
    cfg, _ = config_from_mapping({"cutoff": "6", "grid_size": "28",
                                  "kernel.kind": "file",
                                  "kernel.profile_file": str(path)})
    wmat, v = kernel_node_values(cfg, basis.grid)
    assert np.array_equal(wmat, mat)
    assert v is None


def test_shipped_file_kernel_config_loads_from_any_directory(tmp_path,
                                                            monkeypatch):
    # a relative kernel.profile_file is read relative to its config file
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    kernel = os.path.join(root, "configs", "sample_kernel.csv")
    monkeypatch.chdir(tmp_path)
    cfg, _ = load_config(os.path.join(root, "configs", "file_kernel.cfg"))
    assert cfg.kernel_profile_file == kernel
    grid = build_basis(cfg.dim, cfg.cutoff, cfg.effective_grid_size()).grid
    assert kernel_node_values(cfg, grid)[0].shape == (32, 32)
    monkeypatch.chdir(root)
    cfg, _ = load_config(os.path.join("configs", "file_kernel.cfg"))
    assert cfg.to_mapping()["kernel.profile_file"] == os.path.join(
        "configs", "sample_kernel.csv")


def test_report_record_fields_and_order():
    rep = Report("demo", {"dim": 2})
    rep.add_check("resid", 1e-12, 1e-9, detail="ok")
    rep.add("note", "info", value=np.float64(1.5))
    doc = rep.to_json_dict()
    assert list(doc) == ["command", "created", "build_id",
                         "elapsed_seconds", "config", "summary", "records"]
    assert list(doc["records"][0]) == ["name", "status", "value",
                                       "tolerance", "detail"]
    assert doc["summary"] == {"records": 2, "pass": 1, "fail": 0,
                              "info": 1, "all_pass": True}
    assert isinstance(doc["records"][1]["value"], float)


def test_report_rejects_unknown_status():
    rep = Report("demo", {})
    with pytest.raises(ValueError, match="status"):
        rep.add("broken", "warn")


def test_add_check_passes_at_or_below_the_tolerance():
    rep = Report("demo", {})
    assert rep.add_check("small", 0.5, 1.0)["status"] == "pass"
    assert rep.add_check("equal", 1.0, 1.0)["status"] == "pass"
    assert rep.all_pass
    assert rep.add_check("big", 2.0, 1.0)["status"] == "fail"
    assert not rep.all_pass


def test_full_suite_names_each_section_record_in_its_own_report(
        monkeypatch):
    def second(cfg, rep, args):
        rep.add("y", "pass")
        raise RuntimeError("section broke")

    monkeypatch.setattr(cli, "_SECTIONS", {
        "a-check": lambda cfg, rep, args: rep.add("x", "pass"),
        "b": second})
    rep = Report("full-suite", {})
    cli.run_full(None, rep, None)
    assert [r["name"] for r in rep.records] == ["a.x", "b.y", "b.aborted"]


def test_report_write_is_valid_json(tmp_path):
    rep = Report("some-cmd", {"seed": 7})
    rep.add("ok", "pass", value=True)
    path = rep.write(tmp_path)
    assert os.path.basename(path) == "some_cmd.json"
    with open(path) as fh:
        doc = json.load(fh)
    assert doc["command"] == "some-cmd"
    assert len(doc["build_id"]) == 12
    assert doc["build_id"] == build_identifier()


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_report_non_finite_values_become_fail_records(tmp_path):
    rep = Report("some-cmd", {})
    rep.add("measured", "info", value=float("nan"))
    rep.add_check("checked", float("-inf"), 1.0)
    rep.add("nested", "pass", value={"x": [1.0, float("-inf")]},
            detail="a table")
    rep.add("finite", "pass", value=1.5)
    with open(rep.write(tmp_path)) as fh:
        doc = json.load(fh, parse_constant=_reject_constant)
    measured, checked, nested, finite = doc["records"]
    assert [r["status"] for r in doc["records"]] == ["fail"] * 3 + ["pass"]
    assert measured["value"] == "nan"
    assert checked["value"] == "-inf"
    assert nested["value"] == {"x": [1.0, "-inf"]}
    assert nested["detail"] == "a table; non-finite value"
    assert finite["value"] == 1.5
    assert doc["summary"]["fail"] == 3


def test_write_table_quoting_and_float_repr(tmp_path):
    path = write_table(tmp_path, "t", ["name", "x", "flag"],
                       [["a,b", 0.1, True], {"name": 'q"q', "x": 2.0,
                                             "flag": False}])
    raw = open(path).read()
    assert '"a,b"' in raw
    assert '"q""q"' in raw
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["name", "x", "flag"]
    assert rows[1] == ["a,b", "0.1", "true"]
    assert rows[2] == ['q"q', "2.0", "false"]
    assert float(rows[1][1]) == 0.1


def _write(path, text):
    with open(path, "w") as fh:
        fh.write(text)
    return str(path)


def test_cli_spectral_reads_cutoff_and_grid_from_the_config(tmp_path):
    cfg = _write(tmp_path / "spectral.cfg", "cutoff = 12\ngrid_size = 48\n")
    out = str(tmp_path / "r")
    assert main(["spectral-check", "--config", cfg, "--out", out]) == 0
    with open(os.path.join(out, "spectral_check.json")) as fh:
        doc = json.load(fh)
    assert doc["config"]["cutoff"] == 12
    assert doc["config"]["grid_size"] == 48
    assert doc["summary"]["all_pass"] is True


@pytest.mark.parametrize("cutoff", [12, 24])
def test_cli_spectral_builds_the_jacobi_tables_a_fixed_number_of_times(
        tmp_path, monkeypatch, cutoff):
    # two tables for the basis, four for the one Dirac sweep over all modes
    builds = []
    table = zonal.jacobi_table
    monkeypatch.setattr(zonal, "jacobi_table",
                        lambda *args: builds.append(args) or table(*args))
    cfg = _write(tmp_path / "spectral.cfg", f"cutoff = {cutoff}\n")
    out = str(tmp_path / "r")
    assert main(["spectral-check", "--config", cfg, "--out", out]) == 0
    assert len(builds) == 6
    with open(os.path.join(out, "spectral_check.json")) as fh:
        records = {r["name"]: r for r in json.load(fh)["records"]}
    assert records["eigenrelation_max_residual"]["seconds"] > 0


DIM4 = "dim = 4\nq = 60.0\nnu = 0.5\n"


def _eigenrelation_record(tmp_path, text):
    """(exit code, eigenrelation_max_residual record) of a spectral-check
    run on a config file of `text`."""
    cfg = _write(tmp_path / "spectral.cfg", text)
    out = str(tmp_path / "r")
    code = main(["spectral-check", "--config", cfg, "--out", out])
    with open(os.path.join(out, "spectral_check.json")) as fh:
        records = {r["name"]: r for r in json.load(fh)["records"]}
    return code, records["eigenrelation_max_residual"]


def test_cli_spectral_passes_at_dim_4_cutoff_80(tmp_path):
    # the absolute residual there is 1.6e-9, roundoff of omega_n max|e_n|
    # near 1e4; relative to that scale it is 5e-12
    code, rec = _eigenrelation_record(tmp_path, DIM4 + "cutoff = 80\n")
    assert code == 0
    assert rec["status"] == "pass" and rec["value"] < 1e-10


@pytest.mark.parametrize("cutoff", [8, 80])
@pytest.mark.parametrize("dim", [2, 4])
def test_cli_spectral_catches_a_defect_ten_times_its_tolerance(
        tmp_path, monkeypatch, dim, cutoff):
    real = zonal.dirac_apply_grid

    def defective(basis, values):
        scale = basis.omega * zonal.lp_norm(basis.grid, basis.values, np.inf)
        return real(basis, values) + 1e-8 * scale[:, None, None]

    monkeypatch.setattr(zonal, "dirac_apply_grid", defective)
    text = (DIM4 if dim == 4 else "") + f"cutoff = {cutoff}\n"
    code, rec = _eigenrelation_record(tmp_path, text)
    assert code == 1
    assert rec["status"] == "fail"
    assert rec["value"] == pytest.approx(1e-8, rel=1e-3)


@pytest.mark.parametrize("argv", [["spectral-check", "--max-n", "12"],
                                  ["spectral-check", "--dim", "4"],
                                  ["clifford-check", "--dim", "3"]],
                         ids=["spectral-max-n", "spectral-dim",
                              "clifford-dim"])
def test_cli_flags_that_shadow_config_keys_exit_two(tmp_path, capsys, argv):
    # dim, cutoff and grid_size are config keys; clifford-check always
    # sweeps dimensions 1 through 12
    out = str(tmp_path / "r")
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", out])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_cli_rejects_bad_config_with_full_diagnostic(tmp_path, capsys):
    cfg = _write(tmp_path / "bad.cfg", "q = 20\ndim = 2\nwho = 1\n")
    assert main(["wick-check", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "q must exceed 12*dim" in err
    assert "unknown key 'who'" in err


def test_cli_unknown_kernel_profile_exits_two_without_a_report(tmp_path,
                                                               capsys):
    cfg = _write(tmp_path / "bad.cfg",
                 "kernel.kind = separable\nkernel.profile = nope\n")
    out = str(tmp_path / "r")
    assert main(["gibbs-sample", "--config", cfg, "--out", out]) == 2
    assert "kernel.profile must be one of" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("command, text, message", [
    ("flow", "flow.dt = 0.003\n",
     "flow.t_final = 1.0 must be a whole number of flow.dt = 0.003 steps"),
    ("invariance-test", "invariance.dt = 0.003\n",
     "invariance.t_final = 1.0 must be a whole number of invariance.dt = "
     "0.003 steps"),
    ("gibbs-sample", "kernel.kind = file\nkernel.profile_file = nope.csv\n",
     "kernel.profile_file must name an existing file when kernel.kind is "
     "'file', got '{tmp_path}/nope.csv'"),
    # each split half of a 3-draw chain holds one draw, so its R-hat and
    # bulk ESS are undefined
    ("gibbs-sample", "gibbs.ensemble_size = 3\n",
     "gibbs.ensemble_size must be >= 4, got 3"),
    # an infinite tolerance stops the midpoint solve after one evaluation
    ("invariance-test", "flow.solver_tol = inf\n",
     "flow.solver_tol: not a finite number: 'inf'"),
    ("gibbs-sample", "kernel.kappa = inf\n",
     "kernel.kappa: not a finite number: 'inf'"),
    ("wick-check", "q = nan\n", "q: not a finite number: 'nan'"),
    ("wick-check", "hs_s = -inf\n", "hs_s: not a finite number: '-inf'"),
])
def test_cli_config_errors_exit_two_without_output(tmp_path, capsys,
                                                    command, text, message):
    cfg = _write(tmp_path / "bad.cfg", text)
    out = str(tmp_path / "r")
    assert main([command, "--config", cfg, "--out", out]) == 2
    assert message.format(tmp_path=tmp_path) in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("command, sub", [("clifford-check", ""),
                                          ("wick-check", "sub")],
                         ids=["file", "below_file"])
def test_cli_out_dir_that_cannot_be_made_exits_two_before_any_work(
        tmp_path, capsys, monkeypatch, command, sub):
    # the directory is made before any work, so no report is lost late
    blocker = _write(tmp_path / "taken", "not a directory\n")
    out = os.path.join(blocker, sub) if sub else blocker
    monkeypatch.setitem(cli.RUNNERS, command, pytest.fail)
    assert main([command, "--out", out]) == 2
    assert out in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["taken"]


@pytest.mark.parametrize("t_final, dt", [
    (1.0, 1e-3), (1.0, 5e-3), (1.0, 0.003), (0.305, 1e-2), (0.3, 5e-3),
    (10.0, 1e-3), (0.1, 0.01), (0.0, 0.01), (2.0, 0.7), (1.0, 1.0 / 3),
    (1e-12, 1e-3), (1.0 + 3e-10, 0.1), (1.0 + 2e-9, 0.1), (5e-13, 0.25),
    (2e-12, 0.25)])
def test_step_count_decides_as_isclose(t_final, dt):
    n = round(t_final / dt)
    whole = bool(np.isclose(n * dt, t_final, rtol=1e-9, atol=1e-12))
    assert step_count(t_final, dt) == (n if whole else None)


def test_step_count_refuses_non_finite_ratios():
    assert step_count(float("nan"), 0.1) is None
    assert step_count(float("inf"), 0.1) is None
    assert step_count(1.0, 1e-320) is None


def test_cli_budget_refusal_names_admissible_cutoff(tmp_path):
    cfg = _write(tmp_path / "tiny.cfg",
                 "cutoff = 40\ntensor_budget_bytes = 1000000\n")
    out = str(tmp_path / "r")
    assert main(["energy-oracle", "--config", cfg, "--out", out]) == 1
    with open(os.path.join(out, "energy_oracle.json")) as fh:
        doc = json.load(fh)
    aborted = next(r for r in doc["records"] if r["name"] == "aborted")
    assert aborted["status"] == "fail"
    assert "largest admissible cutoff is 17" in aborted["detail"]


def test_cli_wick_check_builds_no_tensor(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("wick-check built a tensor")

    monkeypatch.setattr(cli, "_build_tensor", refuse)
    out = str(tmp_path / "r")
    assert main(["wick-check", "--out", out]) == 0
    with open(os.path.join(out, "wick_check.json")) as fh:
        records = json.load(fh)["records"]
    checks = [r for r in records
              if r["name"] not in ("config_warning", "process")]
    assert [(r["name"], r["status"]) for r in checks] == [
        ("covariance_closed_vs_enumerated", "pass")]


def test_cli_flow_init_file_and_determinism(tmp_path):
    cfg = _write(tmp_path / "fast.cfg",
                 "cutoff = 4\nflow.t_final = 0.05\nflow.dt = 0.005\n")
    init = _write(tmp_path / "init.csv",
                  "0.3,0.0\n0.1,-0.2\n0.0,0.05\n0.0,0.0\n0.0,0.0\n")
    outs = []
    for sub in ("a", "b"):
        out = str(tmp_path / sub)
        code = main(["flow", "--config", cfg, "--out", out,
                     "--init", init])
        assert code == 0
        outs.append(out)
    tables = [open(os.path.join(o, "flow_trajectory.csv")).read()
              for o in outs]
    assert tables[0] == tables[1]
    # flow_energy is the trajectory's one energy series
    modes = [f"{part}_c{n}" for n in range(5) for part in ("re", "im")]
    assert tables[0].splitlines()[0].split(",") == (
        ["t"] + modes + ["flow_energy", "mass"])
    with open(os.path.join(outs[0], "flow.json")) as fh:
        doc = json.load(fh)
    rec = next(r for r in doc["records"] if r["name"] == "initial_state")
    assert rec["value"] == init
    assert [r["name"] for r in doc["records"]] == [
        "config_warning", "tensor_built", "initial_state", "mass_drift",
        "flow_energy_drift", "solver_counters", "reversal_error",
        "vector_field_gradient", "vector_field_directional", "process"]


def test_cli_flow_trajectory_series_are_those_of_the_written_states(
        tmp_path):
    # flow_energy of each state's low block and mass of the whole state,
    # bitwise, with two modes past the cutoff riding along
    cfg = _write(tmp_path / "fast.cfg",
                 "cutoff = 4\nflow.t_final = 0.05\nflow.dt = 0.005\n")
    init = _write(tmp_path / "init.csv", "".join(
        f"{0.1 * (n + 1)},{0.05 * (2 - n)}\n" for n in range(7)))
    out = str(tmp_path / "r")
    assert main(["flow", "--config", cfg, "--out", out, "--init", init]) == 0
    with open(os.path.join(out, "flow_trajectory.csv"), newline="") as fh:
        table = np.array([[float(x) for x in row]
                          for row in list(csv.reader(fh))[1:]])
    assert table.shape == (11, 1 + 14 + 2)
    states = table[:, 1:15].copy().view(complex)
    tensor = _build_tensor(load_config(cfg, {})[0])
    for state, energy, mass in zip(states, table[:, -2], table[:, -1]):
        assert dynamics.flow_energy(tensor, state[:5]) == energy
        assert dynamics.mass(state) == mass


def test_cli_flow_integrates_the_forward_trajectory_once(tmp_path,
                                                         monkeypatch):
    # forward once, then the reversal's backward run
    calls = []
    real = dynamics.flow
    monkeypatch.setattr(dynamics, "flow",
                        lambda *a, **kw: calls.append(1) or real(*a, **kw))
    cfg = _write(tmp_path / "fast.cfg",
                 "flow.t_final = 0.05\nflow.dt = 0.005\n")
    assert main(["flow", "--config", cfg, "--out", str(tmp_path / "r")]) == 0
    assert len(calls) == 2


@pytest.mark.parametrize("kernel", ["kernel.kind = constant",
                                    "kernel.kind = separable\n"
                                    "kernel.amplitude = 1.5"],
                         ids=["constant", "separable"])
def test_cli_flow_runs_clean_with_lawson_rk4(tmp_path, kernel):
    # Lawson RK4 is not time-symmetric: its round trip returns within its
    # own global error, measured 2.7e-11 and 1.4e-8 at the defaults
    cfg = _write(tmp_path / "lawson.cfg",
                 f"flow.integrator = lawson-rk4\n{kernel}\n")
    out = str(tmp_path / "r")
    assert main(["flow", "--config", cfg, "--out", out, "--seed", "5"]) == 0
    with open(os.path.join(out, "flow.json")) as fh:
        records = {r["name"]: r for r in json.load(fh)["records"]}
    assert records["reversal_error"]["status"] == "pass"
    assert records["reversal_error"]["value"] <= 1e-6
    counters = records["solver_counters"]
    assert counters["detail"].startswith("lawson-rk4 integrator")
    assert counters["value"]["f_per_step"] == 4.0


def test_cli_flow_of_no_steps_has_no_cubic_terms_per_step(tmp_path):
    cfg = _write(tmp_path / "still.cfg", "cutoff = 4\nflow.t_final = 0\n")
    out = str(tmp_path / "r")
    main(["flow", "--config", cfg, "--out", out, "--seed", "5"])
    with open(os.path.join(out, "flow.json")) as fh:
        records = {r["name"]: r for r in json.load(fh)["records"]}
    counters = records["solver_counters"]["value"]
    assert counters["steps"] == 0
    assert counters["f_per_step"] is None


def test_cli_invariance_without_burn_in_has_no_acceptance_rate(tmp_path):
    cfg = _write(tmp_path / "cold.cfg",
                 "invariance.ensemble_size = 32\ninvariance.t_final = 0.05\n"
                 "invariance.burn_steps = 0\n")
    out = str(tmp_path / "r")
    main(["invariance-test", "--config", cfg, "--out", out, "--seed", "5"])
    with open(os.path.join(out, "invariance_test.json")) as fh:
        records = {r["name"]: r for r in json.load(fh)["records"]}
    acceptance = records["pcn_burnin_acceptance"]
    assert acceptance["value"] is None
    assert acceptance["detail"].startswith("no burn-in sweep ran")


def test_cli_flow_trajectory_writes_every_mode_its_mass_counts(tmp_path):
    # a 12-mode state at cutoff 8: the three modes above the tensor ride
    # the free rotation, and the sidecar writes them too
    cfg = _write(tmp_path / "fast.cfg",
                 "cutoff = 8\nflow.t_final = 0.05\nflow.dt = 0.005\n")
    init = _write(tmp_path / "init.csv", "".join(
        f"{0.4 / (n + 1)},{-0.2 / (n + 2)}\n" for n in range(12)))
    out = str(tmp_path / "r")
    assert main(["flow", "--config", cfg, "--out", out, "--init", init]) == 0
    with open(os.path.join(out, "flow_trajectory.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0])[-3] == "im_c11"
    for row in rows:
        written = sum(float(row[f"{part}_c{n}"]) ** 2 for n in range(12)
                      for part in ("re", "im"))
        assert float(row["mass"]) == pytest.approx(written, rel=1e-13)


def test_cli_invariance_rows_are_those_of_invariance_test(tmp_path):
    path = _write(tmp_path / "inv.cfg",
                  "kernel.kind = separable\ninvariance.ensemble_size = 32\n"
                  "invariance.t_final = 0.05\ninvariance.burn_steps = 20\n")
    out = str(tmp_path / "cli")
    assert main(["invariance-test", "--config", path, "--seed", "7",
                 "--out", out]) == 0
    with open(os.path.join(out, "invariance_rows.csv"), newline="") as fh:
        got = fh.read()
    cfg, _ = load_config(path, {"seed": "7"})
    res = dynamics.invariance_test(_build_tensor(cfg), cfg)
    direct = write_table(str(tmp_path / "direct"), "invariance_rows",
                         got.splitlines()[0].split(","), res["rows"])
    with open(direct, newline="") as fh:
        assert fh.read() == got


def test_cli_flow_rejects_short_init_file(tmp_path):
    cfg = _write(tmp_path / "fast.cfg",
                 "cutoff = 4\nflow.t_final = 0.05\nflow.dt = 0.005\n")
    init = _write(tmp_path / "init.csv", "0.3,0.0\n0.1,-0.2\n")
    out = str(tmp_path / "r")
    assert main(["flow", "--config", cfg, "--out", out, "--init",
                 init]) == 1
    with open(os.path.join(out, "flow.json")) as fh:
        doc = json.load(fh)
    aborted = next(r for r in doc["records"] if r["name"] == "aborted")
    assert "modes" in aborted["detail"]


@pytest.mark.parametrize("bad, tail", [
    ("0.2,nan", "has a non-finite value (nan)"),
    ("0.2,inf", "has a non-finite value (inf)"),
    ("abc,0.1", "has an unparsable value ('abc')"),
    ("0.1", "has 1 values, expected 2"),
    ("0.1,0.2,0.3", "has 3 values, expected 2"),
], ids=["nan", "inf", "unparsable", "one_value", "three_values"])
def test_cli_flow_refuses_a_bad_init_row(tmp_path, bad, tail):
    cfg = _write(tmp_path / "fast.cfg",
                 "cutoff = 8\nflow.t_final = 0.05\nflow.dt = 0.005\n")
    rows = ["0.1,0.0"] * 9
    rows[1] = bad
    init = _write(tmp_path / "init.csv", "re,im\n" + "\n".join(rows) + "\n")
    out = str(tmp_path / "r")
    assert main(["flow", "--config", cfg, "--out", out, "--init",
                 init]) == 1
    with open(os.path.join(out, "flow.json")) as fh:
        records = json.load(fh)["records"]
    aborted = next(r for r in records if r["name"] == "aborted")
    assert aborted["detail"] == f"initial-state file {init} row 1 {tail}"
    assert not os.path.exists(os.path.join(out, "flow_trajectory.csv"))


def test_smallest_gibbs_ensemble_has_finite_rank_diagnostics(tmp_path):
    out = str(tmp_path / "r")
    cfg = _write(tmp_path / "four.cfg", "gibbs.ensemble_size = 4\n")
    main(["gibbs-sample", "--config", cfg, "--out", out, "--seed", "5"])
    with open(os.path.join(out, "gibbs_sample.json")) as fh:
        records = {r["name"]: r for r in json.load(fh)["records"]}
    for name in ("pcn_energy_rhat", "pcn_energy_ess_bulk"):
        assert records[name]["status"] == "info"
        assert np.isfinite(records[name]["value"])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("kernel", [
    "kernel.kappa = 0\n",
    "kernel.kind = separable\nkernel.amplitude = 0\n"],
    ids=["kappa0", "amplitude0"])
def test_zero_kernel_slopes_and_rank_diagnostics_read_info(tmp_path,
                                                          kernel):
    out = str(tmp_path / "r")
    cfg = _write(tmp_path / "zero.cfg", kernel + "cauchy.ensemble_size = "
                 "200\nnelson.ensemble_size = 200\n")
    records = {}
    for cmd in ("cauchy-study", "nelson-scan", "gibbs-sample"):
        assert main([cmd, "--config", cfg, "--out", out, "--seed", "5"]) == 0
        with open(os.path.join(out, cmd.replace("-", "_") + ".json")) as fh:
            records.update((r["name"], r) for r in json.load(fh)["records"])
    for name, says in (("decay_slope", "vanishes at every M"),
                       ("bound_growth_slope", "vanishes at every cutoff"),
                       ("pcn_energy_iact", "energy series is constant"),
                       ("pcn_energy_rhat", "energy series is constant"),
                       ("pcn_energy_ess_bulk", "energy series is constant")):
        assert records[name]["status"] == "info"
        assert records[name]["value"] is None
        assert says in records[name]["detail"]
    # the thinning keeps integrated_autocorr's 1.0: the chain does not move
    assert "thin=1," in records["pcn_acceptance_rate"]["detail"]


def test_cli_env_thread_error_exits_two(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("ZDG_THREADS", "much")
    assert main(["clifford-check", "--out", str(tmp_path)]) == 2
    assert "ZDG_THREADS" in capsys.readouterr().err


def test_cli_seed_override_lands_in_report(tmp_path):
    out = str(tmp_path / "r")
    assert main(["wick-check", "--out", out, "--seed", "99"]) == 0
    with open(os.path.join(out, "wick_check.json")) as fh:
        doc = json.load(fh)
    assert doc["config"]["seed"] == 99


def test_config_dataclass_is_flat_values():
    for f in dataclasses.fields(ExperimentConfig):
        assert f.name.isidentifier()


def test_full_suite_isolates_an_aborted_section(tmp_path):
    # the file kernel is tabulated on the cutoff-8 config's 32-node grid,
    # so the cauchy and nelson sections (the default ladders need larger
    # study grids) abort; every other section must keep its records
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    kernel = os.path.join(root, "configs", "sample_kernel.csv")
    cfg = _write(tmp_path / "file.cfg",
                 f"kernel.kind = file\nkernel.profile_file = {kernel}\n"
                 "gibbs.ensemble_size = 400\nflow.t_final = 0.05\n"
                 "invariance.ensemble_size = 32\ninvariance.t_final = 0.05\n"
                 "invariance.burn_steps = 20\n")
    out = str(tmp_path / "r")
    assert main(["full-suite", "--config", cfg, "--out", out]) == 1
    with open(os.path.join(out, "full_suite.json")) as fh:
        doc = json.load(fh)
    records = {r["name"]: r for r in doc["records"]}
    for name in ("cauchy", "nelson"):
        aborted = records[f"{name}.aborted"]
        assert aborted["status"] == "fail"
        assert "kernel file nodes do not match" in aborted["detail"]
    for name in ("clifford", "spectral", "wick", "energy", "gibbs",
                 "flow", "invariance"):
        assert f"{name}.aborted" not in records
        assert any(key.startswith(f"{name}.") for key in records)
    assert os.path.exists(os.path.join(out, "gibbs_moments.csv"))


def test_gibbs_sample_abort_names_an_unparsable_kernel_entry(tmp_path):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "configs", "sample_kernel.csv")) as fh:
        lines = fh.read().splitlines()
    row = lines[4].split(",")
    row[7] = "abc"
    lines[4] = ",".join(row)
    kernel = str(tmp_path / "kernel.csv")
    with open(kernel, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    cfg = _write(tmp_path / "file.cfg",
                 f"kernel.kind = file\nkernel.profile_file = {kernel}\n")
    out = str(tmp_path / "r")
    assert main(["gibbs-sample", "--config", cfg, "--out", out]) == 1
    with open(os.path.join(out, "gibbs_sample.json")) as fh:
        records = json.load(fh)["records"]
    aborted = next(r for r in records if r["name"] == "aborted")
    assert aborted["status"] == "fail"
    assert aborted["detail"] == (f"kernel file {kernel} row 3 has an "
                                 "unparsable value ('abc')")


def _per_row_sample_rows(coeffs, energy, log_weights, kcols):
    """The gibbs sidecar rows built one dict per row, with |c_k|^2 from
    the array square np.abs(coeffs[:, k]) ** 2 the moment means average."""
    abs2 = {k: np.abs(coeffs[:, k]) ** 2 for k in kcols}
    rows = []
    for i in range(coeffs.shape[0]):
        row = {"sample": i, "energy": float(energy[i])}
        if log_weights is not None:
            row["log_weight"] = float(log_weights[i])
        row.update({f"abs2_c{k}": float(abs2[k][i]) for k in kcols})
        rows.append(row)
    return rows


def test_sample_rows_are_bytewise_the_per_row_builder(tmp_path):
    """On 20 000 draws over a wide range of scales and on 10^5 standard
    complex draws, whose moduli Python's per-element pow squared off the
    array square in the last bit on about 0.08% of cells."""
    from zdg.cli import _SampleRows
    from zdg.rng import derive_rng, standard_complex
    rng = np.random.default_rng(4)
    n = 20000
    scale = np.exp(rng.normal(scale=4.0, size=(n, 3)))
    wide = scale * (rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3)))
    standard = standard_complex(derive_rng(0, "abs2"), (100000, 3))
    names = [f"abs2_c{k}" for k in range(3)]
    for coeffs in (wide, standard):
        lw = rng.normal(scale=30.0, size=coeffs.shape[0])
        head = ["sample", "energy", "log_weight"] + names
        old = write_table(str(tmp_path / "old"), "imp", head,
                          _per_row_sample_rows(coeffs, -lw, lw, range(3)))
        new = write_table(str(tmp_path / "new"), "imp", head,
                          _SampleRows(coeffs, 3, -lw, lw))
        assert open(old, "rb").read() == open(new, "rb").read()
        head = ["sample", "energy"] + names[:2]
        old = write_table(str(tmp_path / "old"), "pcn", head,
                          _per_row_sample_rows(coeffs, lw, None, range(2)))
        new = write_table(str(tmp_path / "new"), "pcn", head,
                          _SampleRows(coeffs, 2, lw))
        assert open(old, "rb").read() == open(new, "rb").read()


def test_gibbs_sample_abort_names_the_kernel_file_and_both_grids(tmp_path):
    # sample_kernel.csv is tabulated on the 32-node grid of cutoff 8;
    # cutoff 12's automatic grid has 40 nodes
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    kernel = os.path.join(root, "configs", "sample_kernel.csv")
    cfg = _write(tmp_path / "file.cfg",
                 f"kernel.kind = file\nkernel.profile_file = {kernel}\n"
                 "cutoff = 12\n")
    out = str(tmp_path / "r")
    assert main(["gibbs-sample", "--config", cfg, "--out", out]) == 1
    with open(os.path.join(out, "gibbs_sample.json")) as fh:
        records = json.load(fh)["records"]
    aborted = next(r for r in records if r["name"] == "aborted")
    assert aborted["detail"] == (
        f"kernel file nodes do not match the quadrature grid: {kernel} "
        "tabulates 32 nodes where the grid has 40")


def test_file_kernel_study_refusal_names_nodes_grid_and_cutoff(tmp_path):
    from zdg.cli import _build_tensor
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    kernel = os.path.join(root, "configs", "sample_kernel.csv")
    cfg_path = _write(tmp_path / "file.cfg",
                      f"kernel.kind = file\nkernel.profile_file = {kernel}\n")
    cfg, _ = load_config(cfg_path, {})
    assert _build_tensor(cfg, cutoff=8).n_modes == 9  # still the file grid
    with pytest.raises(ValueError) as info:
        _build_tensor(cfg, cutoff=64)
    detail = str(info.value)
    assert detail.startswith("kernel file nodes do not match")
    assert "tabulates 32 nodes" in detail
    assert "study grid has 144" in detail
    assert "largest admissible study cutoff is 8" in detail
    out = str(tmp_path / "r")
    assert main(["nelson-scan", "--config", cfg_path, "--out", out]) == 1
    with open(os.path.join(out, "nelson_scan.json")) as fh:
        doc = json.load(fh)
    aborted = next(r for r in doc["records"] if r["name"] == "aborted")
    assert "tabulates 32 nodes" in aborted["detail"]
    assert "study grid has 80" in aborted["detail"]


def _old_cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if hasattr(value, "item"):
        return _old_cell(value.item())
    return str(value)


def _old_write_table(out_dir, stem, header, rows):
    """The cell-by-cell writer write_table replaced, verbatim."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{stem}.csv")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(header))
        for row in rows:
            if isinstance(row, dict):
                row = [row.get(name) for name in header]
            writer.writerow([_old_cell(v) for v in row])
    return path


def _plain_floats(rows):
    """rows with float subclasses (numpy float64) as plain floats: the one
    cell format write_table changed from the cell writer, which wrote
    `np.float64(1.5)` for them."""
    def plain(v):
        return float(v) if isinstance(v, float) else v
    return [{k: plain(v) for k, v in row.items()} if isinstance(row, dict)
            else [plain(v) for v in row] for row in rows]


def _same_table(tmp_path, header, rows):
    old = _old_write_table(str(tmp_path / "old"), "t", header,
                           _plain_floats(rows))
    new = write_table(str(tmp_path / "new"), "t", header, rows)
    return open(old, "rb").read() == open(new, "rb").read()


_MIXED_HEADER = ["name", "x", "k", "flag", "np", "gap"]
_MIXED_ROWS = [
    ["a,b", 0.1, 3, True, np.float64(1.5), None],
    {"name": 'q"q', "x": float("nan"), "k": -7, "flag": False,
     "np": np.int64(4), "gap": None},
    ("line\nbreak", -0.0, 0, np.bool_(True), np.float32(0.1), 2.5),
    ["", 1e300, 10 ** 20, None, np.float64("inf"), "text"],
    ["cr\rhere", 2.0, 5, False, 0.25, 1],
]


def test_write_table_is_bytewise_the_cell_writer_on_mixed_rows(tmp_path):
    assert _same_table(tmp_path, _MIXED_HEADER, _MIXED_ROWS)
    assert _same_table(tmp_path, ["x", "k"], [[0.5, 1], [1e-310, -2]])
    assert _same_table(tmp_path, ["only"], [[None], [""], [1.0]])
    assert _same_table(tmp_path, ["x", "y"], [])
    assert _same_table(tmp_path, ["b", "f"], [[True, 1.0], [1, 2.0]])


def test_number_tuples_with_edge_values_are_bytewise_the_cell_writer(
        tmp_path):
    """Rows as the gibbs sidecars give them, tuples of exact ints and
    floats, through the all-int and all-float column formats."""
    edge = [float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 1e16,
            1e-05, 5e-324, -1.5e300, 0.1]
    rows = [(i, x, -x, 10 ** 30 * (-1) ** i, i / 7)
            for i, x in enumerate(edge)]
    assert _same_table(tmp_path, ["i", "x", "neg", "big", "frac"], rows)


def test_write_table_is_bytewise_the_cell_writer_on_gibbs_sidecars(
        tmp_path):
    from zdg.cli import _SampleRows
    rng = np.random.default_rng(9)
    n = 20000
    scale = np.exp(rng.normal(scale=4.0, size=(n, 3)))
    coeffs = scale * (rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3)))
    lw = rng.normal(scale=30.0, size=n)
    names = [f"abs2_c{k}" for k in range(3)]
    assert _same_table(tmp_path, ["sample", "energy", "log_weight"] + names,
                       _SampleRows(coeffs, 3, -lw, lw))
    assert _same_table(tmp_path, ["sample", "energy"] + names[:2],
                       _SampleRows(coeffs, 2, lw))


@pytest.mark.parametrize("n", [0, 1, 3, 4, 5, 10])
def test_streamed_blocks_are_bytewise_the_cell_writer(tmp_path, monkeypatch,
                                                      n):
    """0, 1, B-1, B, B+1 and 2.5 B rows with the block size B patched to 4:
    each block picks its own fast or cell-by-cell columns."""
    monkeypatch.setattr(report, "_BLOCK_ROWS", 4)
    mixed = [_MIXED_ROWS[i % len(_MIXED_ROWS)] for i in range(n)]
    assert _same_table(tmp_path, _MIXED_HEADER, mixed)
    lone = [[(None, "", 1.0, "")[i % 4]] for i in range(n)]
    assert _same_table(tmp_path, ["only"], lone)
    assert _same_table(tmp_path, ["x", "k"],
                       [[i / 7, i] for i in range(n)])
    old = _old_write_table(str(tmp_path / "old"), "g", _MIXED_HEADER,
                           _plain_floats(mixed))
    new = write_table(str(tmp_path / "new"), "g", _MIXED_HEADER,
                      (row for row in mixed))
    assert open(old, "rb").read() == open(new, "rb").read()


def test_write_table_refusal_in_a_later_block_leaves_no_file(tmp_path,
                                                             monkeypatch):
    monkeypatch.setattr(report, "_BLOCK_ROWS", 4)
    rows = [[i, i / 3] for i in range(12)]
    rows[9] = [9]  # third block
    out = tmp_path / "r"
    with pytest.raises(ValueError,
                       match="table t: every row needs 2 cells, one per "
                             "header name"):
        write_table(str(out), "t", ["a", "b"], rows)
    assert os.listdir(out) == []


def test_write_table_failing_mid_stream_keeps_the_previous_sidecar(
        tmp_path, monkeypatch):
    monkeypatch.setattr(report, "_BLOCK_ROWS", 4)
    path = write_table(str(tmp_path), "t", ["a"], [[1], [2]])
    before = open(path, "rb").read()

    def rows():
        for i in range(10):
            if i == 9:
                raise RuntimeError("source failed")
            yield [i]

    with pytest.raises(RuntimeError, match="source failed"):
        write_table(str(tmp_path), "t", ["a"], rows())
    assert os.listdir(tmp_path) == ["t.csv"]
    assert open(path, "rb").read() == before


def _sidecar_peak(tmp_path, n):
    """Traced peak bytes of building and writing an n x 6 gibbs sidecar
    from its arrays, which are allocated before the trace."""
    from zdg.cli import _SampleRows
    rng = np.random.default_rng(3)
    coeffs = rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3))
    lw = rng.normal(scale=30.0, size=n)
    energy = -lw
    head = ["sample", "energy", "log_weight", "abs2_c0", "abs2_c1",
            "abs2_c2"]
    tracemalloc.start()
    try:
        write_table(str(tmp_path), "imp", head,
                    _SampleRows(coeffs, 3, energy, lw))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_gibbs_sidecar_write_memory_is_bounded(tmp_path):
    """A 20k x 6 gibbs sidecar, rows built and written, peaks under 2 MB
    traced, and an 80k one within 0.5 MB of that: the rows are built and
    written one block at a time, never the whole table."""
    peak = _sidecar_peak(tmp_path, 20000)
    assert peak < 2 * 2 ** 20, f"traced peak {peak / 2 ** 20:.2f} MB"
    big = _sidecar_peak(tmp_path, 80000)
    assert big < peak + 2 ** 19, \
        f"traced peak {big / 2 ** 20:.2f} MB at 80k rows, " \
        f"{peak / 2 ** 20:.2f} MB at 20k"


def test_sample_rows_are_sized_and_repeatable(monkeypatch):
    """len is the row count benchmark/trace_child.py reads off write_table's
    rows; a second pass gives the same rows."""
    from zdg.cli import _SampleRows
    monkeypatch.setattr(report, "_BLOCK_ROWS", 4)
    rng = np.random.default_rng(6)
    for n in (0, 3, 4, 10):
        coeffs = rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3))
        lw = rng.normal(size=n)
        rows = _SampleRows(coeffs, 2, -lw, lw)
        assert len(rows) == n
        first = list(rows)
        assert len(first) == n
        assert [row[0] for row in first] == list(range(n))
        assert list(rows) == first


def test_write_table_writes_numpy_floats_as_plain_floats(tmp_path):
    path = write_table(str(tmp_path), "t", ["k", "mixed", "np"], [
        [0, np.float64(1.4500000000000002), np.float64(0.1)],
        [1, 2.5, np.float64("nan")],
        [2, np.float64(-0.0), np.float64(1e300)],
    ])
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[1:] == [["0", "1.4500000000000002", "0.1"],
                        ["1", "2.5", "nan"], ["2", "-0.0", "1e+300"]]


def test_write_table_refuses_rows_that_miss_the_header_width(tmp_path):
    """A sequence of another length, a mapping that lacks a header name or
    holds one more key, and a header with no names are each refused,
    naming the table and leaving no sidecar."""
    needs_two = "table t: every row needs 2 cells, one per header name"
    for header, rows, message in (
            (["a", "b"], [[1, 2], [3]], needs_two),
            (["a", "b"], [{"a": 1, "b": 2}, {"a": 3}], needs_two),
            (["a", "b"], [{"a": 1, "b": 2, "c": 3}], needs_two),
            ([], [], "table t: the header names no column")):
        out = tmp_path / "r"
        with pytest.raises(ValueError, match=message):
            write_table(str(out), "t", header, rows)
        assert os.listdir(out) == []


def _small_run_config(tmp_path):
    return _write(tmp_path / "small.cfg", "\n".join([
        "cutoff = 4", "gibbs.ensemble_size = 512", "gibbs.kmax = 2",
        "cauchy.m_list = 2, 4", "cauchy.ensemble_size = 2000",
        "nelson.n_list = 4, 8", "nelson.ensemble_size = 2000", ""]))


def test_reports_end_with_a_process_record(tmp_path):
    out = str(tmp_path / "r")
    assert main(["gibbs-sample", "--config", _small_run_config(tmp_path),
                 "--out", out, "--seed", "5"]) == 0
    with open(os.path.join(out, "gibbs_sample.json")) as fh:
        records = json.load(fh)["records"]
    names = [r["name"] for r in records]
    assert names.count("process") == 1 and names[-1] == "process"
    process = records[-1]
    assert process["status"] == "info"
    assert set(process["value"]) == {"peak_rss_mb", "minor_faults",
                                     "scipy_loaded"}
    assert process["value"]["peak_rss_mb"] > 10
    assert isinstance(process["value"]["scipy_loaded"], bool)


def test_gibbs_and_nelson_reports_time_the_tensor_build(tmp_path):
    cfg = _write(tmp_path / "small.cfg", "\n".join([
        "cutoff = 4", "gibbs.ensemble_size = 512", "gibbs.kmax = 2",
        "nelson.n_list = 4, 8", "nelson.ensemble_size = 2000", ""]))
    out = str(tmp_path / "r")
    for cmd, cutoff in (("gibbs-sample", 4), ("nelson-scan", 8)):
        assert main([cmd, "--config", cfg, "--out", out, "--seed", "5"]) == 0
        with open(os.path.join(out, cmd.replace("-", "_") + ".json")) as fh:
            records = {r["name"]: r for r in json.load(fh)["records"]}
        built = records["tensor_built"]
        assert (built["status"], built["value"]) == ("info", cutoff)
        assert built["seconds"] > 0
        if cmd == "gibbs-sample":
            ess = records["pcn_energy_ess_bulk"]
            assert ess["status"] == "info" and 0 < ess["value"] < 5120


@pytest.mark.parametrize("command, kind, nbytes", [
    ("energy-oracle", "constant", 10208),
    ("cauchy-study", "constant", 267808),
    ("nelson-scan", "constant", 77600),
    ("gibbs-sample", "constant", 10208),
    ("flow", "constant", 10208),
    ("invariance-test", "constant", 10208),
    ("invariance-test", "grid", 9560)])
def test_each_tensor_build_is_one_record_with_its_bytes(tmp_path, command,
                                                        kind, nbytes):
    # the arrays the tensor holds: wmat, factor (None for grid kernels),
    # s_mat, t_mat and lam; the studies build at cutoffs 64 and 32
    cfg = _write(tmp_path / "quick.cfg", "\n".join([
        f"kernel.kind = {kind}", "gibbs.ensemble_size = 512",
        "cauchy.ensemble_size = 100", "nelson.ensemble_size = 100",
        "flow.t_final = 0.01", "invariance.ensemble_size = 16",
        "invariance.t_final = 0.01", "invariance.burn_steps = 5", ""]))
    out = str(tmp_path / "r")
    main([command, "--config", cfg, "--out", out, "--seed", "5"])
    with open(os.path.join(out, command.replace("-", "_") + ".json")) as fh:
        built = [r for r in json.load(fh)["records"]
                 if r["name"] == "tensor_built"]
    assert len(built) == 1
    assert built[0]["status"] == "info" and built[0]["seconds"] > 0
    assert built[0]["value"] == {"cauchy-study": 64,
                                 "nelson-scan": 32}.get(command, 8)
    assert built[0]["detail"].endswith(
        f"; {nbytes} bytes in wmat, factor, s_mat, t_mat and lam")


def _recording_pcn_chain(monkeypatch):
    """Wrap gibbs.pcn_chain; the returned list gets (tensor, Chain) of
    every call."""
    from zdg import gibbs
    calls, real = [], gibbs.pcn_chain

    def recording(tensor, *args, **kwargs):
        calls.append((tensor, real(tensor, *args, **kwargs)))
        return calls[-1][1]

    monkeypatch.setattr(gibbs, "pcn_chain", recording)
    return calls


@pytest.mark.parametrize("chains", [5, 19, 64])
@pytest.mark.parametrize("config", ["default.cfg", "coupling_invariance.cfg"])
def test_pcn_sidecar_energies_are_the_chains_accepted_energies(
        tmp_path, monkeypatch, config, chains):
    from zdg.gibbs import MIN_CHAIN_DRAWS
    from zdg.interaction import interaction_energy
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "configs", config)) as fh:
        lines = [line for line in fh
                 if not line.startswith("gibbs.ensemble_size")]
    cfg = _write(tmp_path / config, "".join(lines) +
                 f"\ngibbs.ensemble_size = {chains * MIN_CHAIN_DRAWS}\n")
    calls = _recording_pcn_chain(monkeypatch)
    out = str(tmp_path / "r")
    main(["gibbs-sample", "--config", cfg, "--out", out, "--seed", "5"])
    (tensor, chain), = calls
    assert chain.n_chains == chains
    with open(os.path.join(out, "gibbs_pcn_samples.csv"), newline="") as fh:
        sidecar = np.array([float(row["energy"])
                            for row in csv.DictReader(fh)])
    assert sidecar.tobytes() == chain.energies.tobytes()
    again = interaction_energy(tensor, chain.coeffs)
    if chains % 4 == 0:
        assert again.tobytes() == chain.energies.tobytes()
    else:
        # the sweeps' matmuls of `chains` rows put the rows past the last
        # 4-row tile into BLAS edge kernels, which round differently
        scale = np.max(np.abs(again))
        assert np.max(np.abs(chain.energies - again)) <= 1e-12 * scale


def test_gibbs_sample_keeps_the_importance_side_when_the_chain_fails(
        tmp_path, monkeypatch):
    from zdg import gibbs
    cfg = _small_run_config(tmp_path)
    whole, cut = str(tmp_path / "whole"), str(tmp_path / "cut")
    assert main(["gibbs-sample", "--config", cfg, "--out", whole,
                 "--seed", "5"]) == 0

    def failing(*args, **kwargs):
        raise ValueError("chain failed")

    monkeypatch.setattr(gibbs, "pcn_chain", failing)
    assert main(["gibbs-sample", "--config", cfg, "--out", cut,
                 "--seed", "5"]) == 1
    with open(os.path.join(cut, "gibbs_sample.json")) as fh:
        records = [r for r in json.load(fh)["records"]
                   if r["name"] != "config_warning"]
    assert [r["name"] for r in records] == [
        "tensor_built", "importance_ess", "aborted", "process"]
    assert records[2]["status"] == "fail"
    assert records[2]["detail"] == "chain failed"
    with open(os.path.join(whole, "gibbs_sample.json")) as fh:
        ess = next(r for r in json.load(fh)["records"]
                   if r["name"] == "importance_ess")
    assert records[1]["value"] == ess["value"]
    name = "gibbs_importance_samples.csv"
    with open(os.path.join(whole, name), "rb") as a, \
            open(os.path.join(cut, name), "rb") as b:
        assert a.read() == b.read()
    assert sorted(os.listdir(cut)) == [name, "gibbs_sample.json"]


@pytest.mark.parametrize("command", ["gibbs-sample", "full-suite"])
def test_any_runner_exception_becomes_an_aborted_record(tmp_path, monkeypatch,
                                                        command):
    from zdg import gibbs

    def failing(*args, **kwargs):
        raise RuntimeError("chain broke")

    monkeypatch.setattr(gibbs, "pcn_chain", failing)
    with open(_small_run_config(tmp_path)) as fh:
        text = fh.read()
    cfg = _write(tmp_path / "quick.cfg", text + (
        "flow.t_final = 0.05\ninvariance.ensemble_size = 32\n"
        "invariance.t_final = 0.05\ninvariance.burn_steps = 20\n"))
    out = str(tmp_path / "r")
    assert main([command, "--config", cfg, "--out", out, "--seed", "5"]) == 1
    stem = command.replace("-", "_")
    with open(os.path.join(out, f"{stem}.json")) as fh:
        records = [r for r in json.load(fh)["records"]
                   if r["name"] != "config_warning"]
    prefix = "gibbs." if command == "full-suite" else ""
    names = [r["name"] for r in records if r["name"].startswith(prefix)]
    assert names[:3] == [prefix + name for name in
                         ("tensor_built", "importance_ess", "aborted")]
    aborted = records[[r["name"] for r in records].index(prefix + "aborted")]
    assert aborted["status"] == "fail"
    assert aborted["detail"] == "RuntimeError: chain broke"
    assert records[-1]["name"] == "process"


def test_gibbs_sample_reports_the_pcn_warmup_blocks(tmp_path, monkeypatch):
    cfg = _small_run_config(tmp_path)
    calls = _recording_pcn_chain(monkeypatch)
    out = str(tmp_path / "r")
    assert main(["gibbs-sample", "--config", cfg, "--out", out,
                 "--seed", "5"]) == 0
    with open(os.path.join(out, "gibbs_sample.json")) as fh:
        records = json.load(fh)["records"]
    names = [r["name"] for r in records]
    assert names.index("pcn_warmup") == \
        names.index("pcn_acceptance_rate") + 1
    warmup = records[names.index("pcn_warmup")]
    chain = calls[0][1]
    assert warmup["status"] == "info"
    assert warmup["value"] == [list(pair) for pair in chain.warmup]
    assert warmup["value"] and warmup["value"][-1][0] == chain.beta
    assert 0.3 <= warmup["value"][-1][1] <= 0.5  # settled


def test_grid_kernel_subcommands_never_build_the_dense_tensor(tmp_path):
    from unittest import mock

    from zdg import interaction
    cfg = _write(tmp_path / "grid.cfg", "\n".join([
        "cutoff = 4", "kernel.kind = grid", "gibbs.ensemble_size = 512",
        "gibbs.kmax = 2", "cauchy.m_list = 2, 4",
        "cauchy.ensemble_size = 2000", "nelson.n_list = 4, 8",
        "nelson.ensemble_size = 2000", "flow.t_final = 0.05",
        "invariance.ensemble_size = 64", "invariance.t_final = 0.05",
        "invariance.dt = 0.01", "invariance.burn_steps = 20", ""]))
    out = str(tmp_path / "r")
    with mock.patch.object(interaction, "dense_tensor",
                           side_effect=AssertionError("dense A built")):
        for cmd in ("cauchy-study", "nelson-scan", "gibbs-sample", "flow",
                    "invariance-test"):
            assert main([cmd, "--config", cfg, "--out", out,
                         "--seed", "5"]) == 0, cmd


def test_run_path_imports_no_scipy(tmp_path):
    # nor numpy.ma, which np.median, np.quantile and np.unique import
    import subprocess
    import sys
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    cfg = _small_run_config(tmp_path)
    out = str(tmp_path / "r")
    code = (
        "import sys\n"
        "import zdg.cli, zdg.gibbs, zdg.dynamics, zdg.interaction, "
        "zdg.zonal\n"
        "from zdg.cli import main\n"
        f"for cmd in ('gibbs-sample', 'cauchy-study', 'nelson-scan'):\n"
        f"    assert main([cmd, '--config', {cfg!r}, '--out', {out!r}]) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        "print('numpy.ma' in sys.modules)\n")
    run = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert run.stdout.split() == ["[]", "False"]
    for stem in ("gibbs_sample", "cauchy_study", "nelson_scan"):
        with open(os.path.join(out, f"{stem}.json")) as fh:
            process = json.load(fh)["records"][-1]
        assert process["value"]["scipy_loaded"] is False


def test_benchmark_tracer_wraps_the_layers_it_names(tmp_path):
    """benchmark/trace_child.py wraps zdg attributes by name, and reads
    the len of write_table's rows, its 4th positional argument; a rename
    in the package, or unsized gibbs sidecar rows, breaks the traced
    benchmark runs."""
    import subprocess
    import sys
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    cfg = _write(tmp_path / "g.cfg", "gibbs.ensemble_size = 400\n")
    for args, rows in [(["clifford-check"], [12]),
                       (["gibbs-sample", "--config", cfg], [400, 9, 400])]:
        spans = tmp_path / "spans.npz"
        run = subprocess.run(
            [sys.executable, os.path.join(root, "benchmark", "trace_child.py"),
             str(spans), "--", *args, "--out", str(tmp_path / "out")],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": os.path.join(root, "src")})
        assert run.returncode == 0, run.stderr
        with np.load(spans) as npz:
            names = json.loads(str(npz["meta"]))["names"]
            table = names.index("report.write_table")
            assert npz["rows"][npz["name"] == table].tolist() == rows

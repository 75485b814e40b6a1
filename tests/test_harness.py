"""Config parsing and validation, report serialization, CLI end to end."""

import csv
import dataclasses
import json
import os
import tracemalloc

import numpy as np
import pytest

from zdg import interaction, report
from zdg.cli import main
from zdg.config import (KERNEL_NAMES, KERNEL_PROFILES, SCHEMA,
                        ExperimentConfig, config_from_mapping, load_config,
                        parse_config_text, resolve_threads, step_count,
                        validate)
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
    for key, attr, tag, default in SCHEMA:
        assert getattr(cfg, attr) == default, key


def test_config_dataclass_is_generated_from_schema():
    types = {"int": int, "float": float, "str": str, "bool": bool,
             "int_list": tuple}
    fields = dataclasses.fields(ExperimentConfig)
    assert [(f.name, f.type) for f in fields] \
        == [(attr, types[tag]) for _, attr, tag, _ in SCHEMA]
    assert ExperimentConfig.__module__ == "zdg.config"
    assert list(ExperimentConfig().to_mapping()) \
        == [key for key, _, _, _ in SCHEMA]


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


def test_effective_grid_size_default_and_override():
    assert ExperimentConfig().effective_grid_size() == 32
    cfg, _ = config_from_mapping({"cutoff": "4", "grid_size": "50"})
    assert cfg.effective_grid_size() == 50


def test_to_mapping_follows_schema_order():
    cfg = ExperimentConfig()
    assert list(cfg.to_mapping()) == [key for key, _, _, _ in SCHEMA]


def test_resolve_threads_env_override(monkeypatch):
    cfg, _ = config_from_mapping({"threads": "2"})
    monkeypatch.delenv("ZDG_THREADS", raising=False)
    assert resolve_threads(cfg) == 2
    monkeypatch.setenv("ZDG_THREADS", "6")
    assert resolve_threads(cfg) == 6
    monkeypatch.setenv("ZDG_THREADS", "abc")
    with pytest.raises(ValueError, match="ZDG_THREADS"):
        resolve_threads(cfg)


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
    with pytest.raises(ValueError, match="node"):
        kernel_matrix_from_csv(path, theta=other.grid.theta[:20])


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


def test_report_extend_prefixes_names():
    outer, inner = Report("suite", {}), Report("part", {})
    inner.add("x", "pass")
    outer.extend(inner, prefix="part")
    assert outer.records[0]["name"] == "part.x"


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


def test_cli_clifford_single_dimension(tmp_path):
    out = str(tmp_path / "r")
    assert main(["clifford-check", "--out", out, "--dim", "3"]) == 0
    with open(os.path.join(out, "clifford_check.json")) as fh:
        doc = json.load(fh)
    rec = next(r for r in doc["records"] if r["name"] == "family_d3")
    assert rec["value"] == {"dim": 3, "anticommutation_ok": True,
                            "hermitian_ok": True}
    with open(os.path.join(out, "clifford_families.csv"), newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 2 and rows[1][0] == "3"


def test_cli_spectral_flag_overrides(tmp_path):
    out = str(tmp_path / "r")
    code = main(["spectral-check", "--out", out, "--max-n", "12",
                 "--nodes", "48"])
    assert code == 0
    with open(os.path.join(out, "spectral_check.json")) as fh:
        doc = json.load(fh)
    assert doc["config"]["cutoff"] == 12
    assert doc["config"]["grid_size"] == 48
    assert doc["summary"]["all_pass"] is True


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
     "'file', got 'nope.csv'"),
])
def test_cli_config_errors_exit_two_without_output(tmp_path, capsys,
                                                    command, text, message):
    cfg = _write(tmp_path / "bad.cfg", text)
    out = str(tmp_path / "r")
    assert main([command, "--config", cfg, "--out", out]) == 2
    assert message in capsys.readouterr().err
    assert not os.path.exists(out)


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
    assert main(["wick-check", "--config", cfg, "--out", out]) == 1
    with open(os.path.join(out, "wick_check.json")) as fh:
        doc = json.load(fh)
    aborted = next(r for r in doc["records"] if r["name"] == "aborted")
    assert aborted["status"] == "fail"
    assert "largest admissible cutoff is 17" in aborted["detail"]


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
    with open(os.path.join(outs[0], "flow.json")) as fh:
        doc = json.load(fh)
    rec = next(r for r in doc["records"] if r["name"] == "initial_state")
    assert rec["value"] == init


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
    # the file kernel is tabulated on the config's 32-node grid, so the
    # cauchy and nelson sections (larger study grids) abort; every other
    # section must keep its records
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "configs", "file_kernel.cfg")) as fh:
        text = fh.read().replace(
            "configs/sample_kernel.csv",
            os.path.join(root, "configs", "sample_kernel.csv"))
    text += ("gibbs.ensemble_size = 400\nflow.t_final = 0.05\n"
             "invariance.ensemble_size = 32\ninvariance.t_final = 0.05\n"
             "invariance.burn_steps = 20\n")
    cfg = _write(tmp_path / "file.cfg", text)
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


def _old_sample_rows(coeffs, energy, log_weights, kcols):
    """The per-row builder the gibbs sidecars used before _SampleRows."""
    rows = []
    for i in range(coeffs.shape[0]):
        row = {"sample": i, "energy": float(energy[i])}
        if log_weights is not None:
            row["log_weight"] = float(log_weights[i])
        row.update({f"abs2_c{k}": float(np.abs(coeffs[i, k]) ** 2)
                    for k in kcols})
        rows.append(row)
    return rows


def test_sample_rows_are_bytewise_the_per_row_builder(tmp_path):
    from zdg.cli import _SampleRows
    rng = np.random.default_rng(4)
    n = 20000
    scale = np.exp(rng.normal(scale=4.0, size=(n, 3)))
    coeffs = scale * (rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3)))
    lw = rng.normal(scale=30.0, size=n)
    names = [f"abs2_c{k}" for k in range(3)]
    head = ["sample", "energy", "log_weight"] + names
    old = write_table(str(tmp_path / "old"), "imp", head,
                      _old_sample_rows(coeffs, -lw, lw, range(3)))
    new = write_table(str(tmp_path / "new"), "imp", head,
                      _SampleRows(coeffs, 3, -lw, lw))
    assert open(old, "rb").read() == open(new, "rb").read()
    head = ["sample", "energy"] + names[:2]
    old = write_table(str(tmp_path / "old"), "pcn", head,
                      _old_sample_rows(coeffs, lw, None, range(2)))
    new = write_table(str(tmp_path / "new"), "pcn", head,
                      _SampleRows(coeffs, 2, lw))
    assert open(old, "rb").read() == open(new, "rb").read()


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
     "np": np.int64(4)},
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
    assert _same_table(tmp_path, [], [[]] * n)
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
    with pytest.raises(ValueError, match="every row needs 2 cells"):
        write_table(str(tmp_path), "t", ["a", "b"], [[1, 2], [3]])


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


def _recording_pcn_chain(monkeypatch):
    """Wrap gibbs.pcn_chain; the returned list gets (tensor, ensemble) of
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
    fixed = _write(tmp_path / "fixed.cfg", open(cfg).read()
                   + "gibbs.beta = 0.4\n")
    assert main(["gibbs-sample", "--config", fixed, "--out", out,
                 "--seed", "5"]) == 0
    with open(os.path.join(out, "gibbs_sample.json")) as fh:
        records = {r["name"]: r for r in json.load(fh)["records"]}
    assert records["pcn_warmup"]["value"] == []


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


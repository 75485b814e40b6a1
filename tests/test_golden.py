"""Golden outputs: `full-suite` on the shipped configs, one thread.

tests/golden/full_suite_<config>_seed<seed>.json, one per config in
CONFIGS and seed in SEEDS, holds the run's exit code, the SHA-256 of every
CSV sidecar, each record's name, status, value and tolerance (not its
seconds, and not the `process` record), and the environment the file was
made in.  The test reruns the suite on each config at seed 5 and compares
all of it exactly; the other seeds are checked from the repository root
with

    PYTHONPATH=src python tests/test_golden.py --check

On a machine whose numpy, BLAS or CPU differ, the check warns, naming the
fields that differ, compares the exit code, the sidecar names and each
record's name and status exactly, and its tolerance and value closely
(elementwise in lists and mappings; RTOL and NOISE below say how closely).

After a change that is meant to move these outputs, regenerate all the
files from the repository root with

    PYTHONPATH=src python tests/test_golden.py

The same script compares two report trees, for example one run of the
parent commit and one of a change:

    PYTHONPATH=src python tests/test_golden.py --compare OLD NEW

It prints each report's exit code (0 or 1, from its summary's `all_pass`),
the records added, removed or moved (a record's `seconds`, the report's
`elapsed_seconds`, `created`, `build_id` and `out_dir` echo, and the
`process` record are not compared), and for each CSV sidecar either
"identical" or, per column, the count of moved cells with their largest
ulp and relative distance.  It exits 0 once it has compared the trees,
however much moved.
"""

import copy
import csv
import hashlib
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# default.cfg and the separable, file-kernel and dim-4 paths of the studies
CONFIGS = ("default", "coupling_invariance", "file_kernel", "dim4")
SEEDS = (5, 11, 13, 20, 35)  # the pool seeds; the test runs the first


def golden_path(config, seed):
    return os.path.join(ROOT, "tests", "golden",
                        f"full_suite_{config}_seed{seed}.json")


def environment():
    """numpy version, BLAS library and CPU model: what the bytes rest on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = ""
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    return {"numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "cpu": cpu}


def manifest(out_dir, config, seed):
    """Run the suite on configs/<config>.cfg at seed into out_dir and
    return its golden manifest."""
    env = {**os.environ, "ZDG_THREADS": "1",
           "PYTHONPATH": os.path.join(ROOT, "src")}
    run = subprocess.run([sys.executable, "-m", "zdg.cli", "full-suite",
                          "--config",
                          os.path.join(ROOT, "configs", f"{config}.cfg"),
                          "--seed", str(seed), "--out", out_dir],
                         capture_output=True, env=env)
    sidecars = {}
    for name in sorted(os.listdir(out_dir)):
        if name.endswith(".csv"):
            with open(os.path.join(out_dir, name), "rb") as fh:
                sidecars[name] = hashlib.sha256(fh.read()).hexdigest()
    with open(os.path.join(out_dir, "full_suite.json")) as fh:
        records = [{key: rec[key]
                    for key in ("name", "status", "value", "tolerance")}
                   for rec in json.load(fh)["records"]
                   if rec["name"] != "process"]
    return {"env": environment(), "exit_code": run.returncode,
            "sidecars": sidecars, "records": records}


# On another machine a record value may move by RTOL * max(1, |value|).  A
# value at most NOISE times its tolerance is rounding noise (a residual, an
# identity's error, a finite-difference error): another BLAS or SIMD path
# moves it by about its own size, so it may move by NOISE * |tolerance|.
RTOL = 1e-10
NOISE = 1e-3


def _number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def noise_slack(rec):
    """NOISE * |tolerance| if the record's value is rounding noise, else 0."""
    value, tol = rec["value"], rec["tolerance"]
    if _number(value) and _number(tol) and abs(value) <= NOISE * abs(tol):
        return NOISE * abs(tol)
    return 0.0


def close(got, want, slack=0.0):
    """got within max(RTOL * max(1, |want|), slack) of want, recursing into
    lists and mappings; anything but a number compares exactly."""
    if isinstance(want, dict):
        return isinstance(got, dict) and got.keys() == want.keys() \
            and all(close(got[key], want[key], slack) for key in want)
    if isinstance(want, list):
        return isinstance(got, list) and len(got) == len(want) \
            and all(close(a, b, slack) for a, b in zip(got, want))
    if _number(want) and _number(got):
        return abs(got - want) <= max(RTOL * max(1.0, abs(want)), slack)
    return got == want


def check(got, golden):
    """Assert the manifest got matches golden: the same exit code and
    number of records, and exactly on golden's environment; else the same
    sidecar names, the same record names and statuses, and tolerances and
    values close."""
    env = environment()
    differ = [key for key in golden["env"] if golden["env"][key] != env[key]]
    assert got["exit_code"] == golden["exit_code"]
    assert len(got["records"]) == len(golden["records"])
    if not differ:
        assert got["sidecars"] == golden["sidecars"]
        for rec, want in zip(got["records"], golden["records"]):
            assert rec == want
        return
    warnings.warn("golden outputs were made with another "
                  + ", ".join(f"{key} ({golden['env'][key]!r} here "
                              f"{env[key]!r})" for key in differ)
                  + "; sidecar hashes not compared, record values close")
    assert got["sidecars"].keys() == golden["sidecars"].keys()
    for rec, want in zip(got["records"], golden["records"]):
        for key in ("name", "status"):
            assert rec[key] == want[key], (want["name"], key)
        assert close(rec["tolerance"], want["tolerance"]), \
            (want["name"], "tolerance")
        assert close(rec["value"], want["value"], noise_slack(want)), \
            (want["name"], "value")


@pytest.fixture(scope="module")
def suites(tmp_path_factory):
    """suites(config): the suite's manifest on config at seed 5, run once
    for all the tests of this module."""
    runs = {}

    def run(config):
        if config not in runs:
            out = tmp_path_factory.mktemp(config) / "out"
            runs[config] = manifest(str(out), config, SEEDS[0])
        return runs[config]
    return run


@pytest.mark.parametrize("config", CONFIGS)
def test_full_suite_seed5_matches_the_golden_file(suites, config):
    with open(golden_path(config, SEEDS[0])) as fh:
        check(suites(config), json.load(fh))


def _moved(manifest, kind, scale, key="value"):
    """manifest with one number multiplied by scale: the value (or with
    key="tolerance" the tolerance) of the first record with a tolerance
    where it is a float of size at least 0.1 (float), a number inside the
    first list-of-lists or mapping value (list, dict), or the value of the
    rounding-noise record with the most slack ("noise")."""
    manifest = copy.deepcopy(manifest)
    if kind == "noise":
        rec = max(manifest["records"], key=noise_slack)
    else:
        rec = next(rec for rec in manifest["records"]
                   if isinstance(rec[key], kind)
                   and (kind is not float or abs(rec[key]) >= 0.1
                        and rec["tolerance"] is not None))
    if kind is list:
        rec["value"][0][0] *= scale
    elif kind is dict:
        item = next(item for item, v in rec["value"].items()
                    if isinstance(v, float))
        rec["value"][item] *= scale
    else:
        rec[key] *= scale
    return manifest


def test_golden_check_on_another_machine_compares_records_closely(
        suites, monkeypatch):
    """The default suite run as its own reference: exact on the reference's
    environment; on another, sidecar names only, values to RTOL, and
    rounding-noise values to NOISE times their tolerance."""
    suite = suites("default")
    module = sys.modules[__name__]
    monkeypatch.setattr(module, "environment", lambda: suite["env"])
    check(suite, suite)
    failed = {**suite, "exit_code": 1 - suite["exit_code"]}
    for golden in [_moved(suite, kind, 1 + 1e-13)
                   for kind in (float, list, dict, "noise")] + [failed]:
        with pytest.raises(AssertionError):
            check(suite, golden)
    monkeypatch.setattr(module, "environment",
                        lambda: {**suite["env"], "cpu": "another CPU"})
    near = _moved(_moved(_moved(suite, float, 1 + 1e-11), list, 1 - 1e-11),
                  dict, 1 + 1e-11)
    near = _moved(_moved(near, "noise", 3.0), float, 1 + 1e-11, "tolerance")
    near["sidecars"] = {name: "0" * 64 for name in suite["sidecars"]}
    with pytest.warns(UserWarning, match="cpu"):
        check(suite, near)
    far = [_moved(suite, kind, scale)
           for kind in (float, list, dict) for scale in (1 + 1e-9, 1 - 1e-9)]
    far.append(_moved(suite, float, 1 + 1e-9, "tolerance"))
    noise = max(suite["records"], key=noise_slack)
    assert noise_slack(noise) > RTOL
    far.append(_moved(suite, "noise",
                      1 + 2 * noise_slack(noise) / abs(noise["value"])))
    restated = copy.deepcopy(suite)
    restated["records"][-1]["status"] += "?"
    unwritten = copy.deepcopy(suite)
    del unwritten["sidecars"][next(iter(unwritten["sidecars"]))]
    for golden in far + [restated, unwritten]:
        with pytest.warns(UserWarning, match="cpu"), \
                pytest.raises(AssertionError):
            check(suite, golden)
    with pytest.raises(AssertionError):
        check(suite, failed)


# --- report comparator ----------------------------------------------------

# report fields not compared; config and records are compared on their own
SKIPPED = {"created", "build_id", "elapsed_seconds", "summary", "config",
           "records"}


def _tree(root):
    """{relative path: absolute path} of the reports and sidecars under
    root."""
    found = {}
    for top, _, names in os.walk(root):
        for name in names:
            if name.endswith((".json", ".csv")):
                path = os.path.join(top, name)
                found[os.path.relpath(path, root)] = path
    return found


def _records(doc):
    """{(name, occurrence): record without its seconds}, process left out."""
    keyed, seen = {}, {}
    for rec in doc["records"]:
        if rec["name"] == "process":
            continue
        k = seen[rec["name"]] = seen.get(rec["name"], -1) + 1
        keyed[rec["name"], k] = {f: v for f, v in rec.items()
                                 if f != "seconds"}
    return keyed


def _header(doc):
    """The report's compared fields besides its records, config keys
    prefixed, the out_dir echo left out."""
    flat = {f"config {k}": v for k, v in doc["config"].items()
            if k != "out_dir"}
    flat.update((k, v) for k, v in doc.items() if k not in SKIPPED)
    return flat


def _differences(a, b):
    """(key, a's value, b's value) where two mappings differ, in a's order
    and then b's; a missing key reads None."""
    keys = list(a) + [k for k in b if k not in a]
    return [(k, a.get(k), b.get(k)) for k in keys if a.get(k) != b.get(k)]


def _short(value, width=60):
    text = json.dumps(value)
    return text if len(text) <= width else text[:width - 3] + "..."


def compare_reports(old, new):
    """Lines naming what moved between two report documents."""
    lines = [f"exit code {1 - old['summary']['all_pass']} -> "
             f"{1 - new['summary']['all_pass']}"]
    lines += [f"{k}: {_short(a)} -> {_short(b)}"
              for k, a, b in _differences(_header(old), _header(new))]
    records = _differences(_records(old), _records(new))
    for (name, k), a, b in records:
        label = name + (f" #{k + 1}" if k else "")
        if a is None or b is None:
            rec = a or b
            lines.append(f"{'-' if b is None else '+'} {label}: "
                         f"{rec['status']} {_short(rec['value'])}")
        else:
            lines += [f"~ {label} {f}: {_short(x)} -> {_short(y)}"
                      for f, x, y in _differences(a, b)]
    return lines if records else lines + ["records identical"]


def _ordered(x):
    """float64 bits as integers in the order of the values they hold."""
    bits = np.asarray(x, dtype=float).view(np.int64)
    return np.where(bits < 0, np.iinfo(np.int64).min - bits, bits).tolist()


def compare_tables(old_path, new_path):
    """Lines naming what moved between two CSV sidecars."""
    tables = []
    for path in (old_path, new_path):
        with open(path, newline="") as fh:
            tables.append(list(csv.reader(fh)))
    (head, *old), (new_head, *new) = tables
    if head != new_head:
        return [f"header {head} -> {new_head}"]
    lines = [f"rows {len(old)} -> {len(new)}"] if len(old) != len(new) \
        else []
    for j, name in enumerate(head):
        pairs = [(r[j], s[j]) for r, s in zip(old, new) if r[j] != s[j]]
        if not pairs:
            continue
        try:
            a, b = np.array(pairs, dtype=float).T
        except ValueError:
            lines.append(f"column {name}: {len(pairs)} moved cells, "
                         f"not all numbers")
            continue
        ulp = max(abs(x - y) for x, y in zip(_ordered(a), _ordered(b)))
        with np.errstate(divide="ignore", invalid="ignore"):
            rel = np.max(np.abs(a - b) / np.maximum(np.abs(a), np.abs(b)))
        lines.append(f"column {name}: {len(pairs)} moved cells, largest "
                     f"{ulp} ulp, relative {rel:.3g}")
    return lines or ["identical"]


def compare_trees(old_root, new_root):
    """Lines comparing every report and sidecar under two trees."""
    old, new = _tree(old_root), _tree(new_root)
    lines = []
    for rel in sorted(old.keys() | new.keys()):
        if rel not in new or rel not in old:
            lines.append(f"{rel}: only in {'OLD' if rel in old else 'NEW'}")
            continue
        if rel.endswith(".csv"):
            found = compare_tables(old[rel], new[rel])
        else:
            with open(old[rel]) as fh, open(new[rel]) as gh:
                found = compare_reports(json.load(fh), json.load(gh))
        lines.append(f"{rel}: {found[0]}")
        lines.extend("  " + line for line in found[1:])
    return lines


def test_compare_trees_names_moved_cells_and_records(tmp_path):
    from zdg.report import Report, write_table

    def tree(name, x, status, extra):
        out = str(tmp_path / name / "default")
        rep = Report("full-suite", {"seed": 5, "out_dir": out})
        rep.created, rep.build_id = name, name
        rep.add("a", "pass", 0.25, 1.0, seconds=len(name))
        rep.add("b", status, 2.0, 1.0)
        for rec in extra:
            rep.add(*rec)
        rep.add("process", "info", {"peak_rss_mb": len(name)})
        rep.write(out)
        write_table(out, "rows", ["n", "x"], [[1, x], [2, 0.5]])
        write_table(out, "same", ["n"], [[3]])
        return str(tmp_path / name)

    old = tree("old", 0.1, "pass", [])
    new = tree("newer", np.nextafter(0.1, 1.0), "fail", [("c", "info", 3)])
    assert compare_trees(old, old) == [
        "default/full_suite.json: exit code 0 -> 0", "  records identical",
        "default/rows.csv: identical", "default/same.csv: identical"]
    assert compare_trees(old, new) == [
        "default/full_suite.json: exit code 0 -> 1",
        '  ~ b status: "pass" -> "fail"', "  + c: info 3",
        "default/rows.csv: column x: 1 moved cells, largest 1 ulp, "
        "relative 1.39e-16", "default/same.csv: identical"]


if __name__ == "__main__":
    import tempfile
    if sys.argv[1:2] == ["--compare"] and len(sys.argv) == 4:
        print("\n".join(compare_trees(*sys.argv[2:])))
        sys.exit(0)
    if sys.argv[1:] not in ([], ["--check"]):
        sys.exit("usage: python tests/test_golden.py "
                 "[--check | --compare OLD NEW]")
    checking = sys.argv[1:] == ["--check"]
    for seed in SEEDS[1:] if checking else SEEDS:
        for config in CONFIGS:
            with tempfile.TemporaryDirectory() as tmp:
                doc = manifest(os.path.join(tmp, "out"), config, seed)
            path = golden_path(config, seed)
            if checking:
                print(f"checking {path}: exit code {doc['exit_code']}")
                with open(path) as fh:
                    check(doc, json.load(fh))
                continue
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w") as fh:
                json.dump(doc, fh, indent=1, allow_nan=False)
                fh.write("\n")
            print(f"wrote {path}: {len(doc['sidecars'])} sidecars, "
                  f"{len(doc['records'])} records")

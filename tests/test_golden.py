"""Golden outputs: `full-suite --seed 5` on the shipped configs, one thread.

tests/golden/full_suite_<config>_seed5.json, one per config in CONFIGS,
holds the SHA-256 of every CSV sidecar, each record's name, status, value
and tolerance (not its seconds, and not the `process` record), and the
environment the file was made in.  The test reruns the suite on each
config and compares all of it exactly.  On a machine
whose numpy, BLAS or CPU differ it warns, naming the fields that differ,
compares only the sidecar names, each record's name and status exactly, and
its tolerance and value closely (elementwise in lists and mappings; RTOL
and NOISE below say how closely).

After a change that is meant to move these outputs, regenerate the files
from the repository root with

    PYTHONPATH=src python tests/test_golden.py
"""

import copy
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


def golden_path(config):
    return os.path.join(ROOT, "tests", "golden",
                        f"full_suite_{config}_seed5.json")


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


def manifest(out_dir, config):
    """Run the suite on configs/<config>.cfg into out_dir and return its
    golden manifest."""
    env = {**os.environ, "ZDG_THREADS": "1",
           "PYTHONPATH": os.path.join(ROOT, "src")}
    subprocess.run([sys.executable, "-m", "zdg.cli", "full-suite",
                    "--config", os.path.join(ROOT, "configs", f"{config}.cfg"),
                    "--seed", "5", "--out", out_dir],
                   check=True, capture_output=True, env=env)
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
    return {"env": environment(), "sidecars": sidecars, "records": records}


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
    """Assert the manifest got matches golden: exactly on golden's
    environment; else the same sidecar names, the same record names and
    statuses, and tolerances and values close."""
    env = environment()
    differ = [key for key in golden["env"] if golden["env"][key] != env[key]]
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
    """suites(config): the suite's manifest on config, run once for all the
    tests of this module."""
    runs = {}

    def run(config):
        if config not in runs:
            out = tmp_path_factory.mktemp(config) / "out"
            runs[config] = manifest(str(out), config)
        return runs[config]
    return run


@pytest.mark.parametrize("config", CONFIGS)
def test_full_suite_seed5_matches_the_golden_file(suites, config):
    with open(golden_path(config)) as fh:
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
    for kind in (float, list, dict, "noise"):
        with pytest.raises(AssertionError):
            check(suite, _moved(suite, kind, 1 + 1e-13))
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


if __name__ == "__main__":
    import tempfile
    for config in CONFIGS:
        with tempfile.TemporaryDirectory() as tmp:
            doc = manifest(os.path.join(tmp, "out"), config)
        path = golden_path(config)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1, allow_nan=False)
            fh.write("\n")
        print(f"wrote {path}: {len(doc['sidecars'])} sidecars, "
              f"{len(doc['records'])} records")

"""Golden outputs: `full-suite --seed 5` on configs/default.cfg, one thread.

tests/golden/full_suite_default_seed5.json holds the SHA-256 of every CSV
sidecar, each record's name, status, value and tolerance (not its seconds,
and not the `process` record), and the environment the file was made in.
The test reruns the suite and compares all of it exactly; on a machine
whose numpy, BLAS or CPU differ it skips, naming the fields that differ.

After a change that is meant to move these outputs, regenerate the file
from the repository root with

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "golden", "full_suite_default_seed5.json")


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


def manifest(out_dir):
    """Run the suite into out_dir and return its golden manifest."""
    env = {**os.environ, "ZDG_THREADS": "1",
           "PYTHONPATH": os.path.join(ROOT, "src")}
    subprocess.run([sys.executable, "-m", "zdg.cli", "full-suite",
                    "--config", os.path.join(ROOT, "configs", "default.cfg"),
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


def test_full_suite_default_seed5_matches_the_golden_file(tmp_path):
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    env = environment()
    differ = [key for key in golden["env"] if golden["env"][key] != env[key]]
    if differ:
        pytest.skip("golden outputs were made with another "
                    + ", ".join(f"{key} ({golden['env'][key]!r} here "
                                f"{env[key]!r})" for key in differ))
    got = manifest(str(tmp_path / "out"))
    assert got["sidecars"] == golden["sidecars"]
    assert len(got["records"]) == len(golden["records"])
    for rec, want in zip(got["records"], golden["records"]):
        assert rec == want


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        doc = manifest(os.path.join(tmp, "out"))
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w") as fh:
        json.dump(doc, fh, indent=1, allow_nan=False)
        fh.write("\n")
    print(f"wrote {GOLDEN}: {len(doc['sidecars'])} sidecars, "
          f"{len(doc['records'])} records")

"""zdg benchmark: run one workload, check its outputs, print its metrics.

Usage, from the root of a checkout (README.md in this directory has more):

    python3 benchmark/run.py --workload gibbs-chain --seed 2026 \\
        --seconds 20 --trace 0

Every `zdg` process runs from src/ one at a time, with ZDG_THREADS and the
BLAS thread variables at 1.  With --trace 0 the run measures set-up time
and the end-to-end metrics; with --trace 1 it runs the workload once
untraced and once under benchmark/trace_child.py and prints per-layer
metrics.  Outputs go under .bench_out/ in the checkout.  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics; the line before it holds the environment.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata

from workloads import WORKLOADS, zdg_seed, config_text

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
DIGESTS = os.path.join(OUT, "digests.json")
THREAD_VARS = ("ZDG_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
# set-up probes run in pairs before and after every execution, so that
# their median spans the run rather than one moment of the host's speed
SETUP_PROBES = 2
MIN_EXECUTIONS = 2
# every child must end within this many seconds of the run's start
DEADLINE_S = 170.0


@dataclass
class Exec:
    """One finished child process."""

    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def run_child(argv, log_path, deadline):
    """Run argv to completion; its own wall, CPU time and peak RSS."""
    env = child_env()
    with open(log_path, "w") as log:
        t0 = time.monotonic()
        env["ZDG_BENCH_LAUNCH"] = repr(t0)
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                env=env, cwd=ROOT)
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() > deadline:
                    proc.kill()
                time.sleep(0.002)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.monotonic() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Exec(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss / 1024.0)


def measure_setup(workload, cfg_path, area, deadline):
    """Wall times of SETUP_PROBES fresh set-up probe processes."""
    cutoffs = ["config" if c is None else str(c) for c in workload.cutoffs]
    argv = [sys.executable, os.path.join(HERE, "setup_probe.py"),
            cfg_path] + cutoffs
    times = []
    for _ in range(SETUP_PROBES):
        ex = run_child(argv, os.path.join(area, "setup.log"), deadline)
        if ex.code != 0:
            raise RuntimeError(f"set-up probe exited {ex.code}; see "
                               f"{os.path.join(area, 'setup.log')}")
        times.append(ex.wall_s)
    return times


def execute(workload, seed, cfg_path, area, deadline, spans_dir=None):
    """Run the workload's subcommands once; spans_dir set means traced."""
    out_dir = os.path.join(area, "out")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    execs = []
    t0 = time.monotonic()
    for cmd in workload.commands:
        zargs = [cmd.subcommand, "--config", cfg_path,
                 "--seed", str(zdg_seed(seed)), "--out", out_dir]
        if spans_dir is None:
            argv = [sys.executable, "-m", "zdg.cli"] + zargs
        else:
            spans = os.path.join(spans_dir, f"{cmd.subcommand}.npz")
            argv = [sys.executable, os.path.join(HERE, "trace_child.py"),
                    spans, "--"] + zargs
        log = os.path.join(area, f"{cmd.subcommand}.log")
        execs.append(run_child(argv, log, deadline))
    report_s = time.monotonic() - t0
    return out_dir, execs, report_s


def load_digests():
    try:
        with open(DIGESTS) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def check_outputs(workload, seed, out_dir, execs):
    """(attempted, failed, digests, zdg build id) for one execution.

    Every report record counts as attempted, and so does every CSV
    sidecar.  A failed record, a record a missing or short report should
    have held, and a sidecar whose SHA-256 differs from the one stored for
    the same workload, seed and zdg build all count as failed.
    """
    attempted = failed = 0
    build_id = None
    for cmd, ex in zip(workload.commands, execs):
        path = os.path.join(out_dir, cmd.subcommand.replace("-", "_")
                            + ".json")
        try:
            with open(path) as fh:
                report = json.load(fh)
            records = report["records"]
            build_id = report["build_id"]
        except (OSError, ValueError, KeyError):
            attempted += cmd.records
            failed += cmd.records
            continue
        bad = sum(1 for r in records if r.get("status") == "fail")
        short = max(0, cmd.records - len(records))
        if ex.code != 0 and bad == 0:
            bad = 1
        attempted += len(records) + short
        failed += bad + short
    digests = {}
    for name in sorted(os.listdir(out_dir)):
        if name.endswith(".csv"):
            with open(os.path.join(out_dir, name), "rb") as fh:
                digests[name] = hashlib.sha256(fh.read()).hexdigest()
    if build_id is not None:
        key = f"{workload.name}/{zdg_seed(seed)}/{build_id}"
        store = load_digests()
        known = store.setdefault(key, digests)
        for name in sorted(set(known) | set(digests)):
            attempted += 1
            failed += int(known.get(name) != digests.get(name))
        os.makedirs(OUT, exist_ok=True)
        with open(DIGESTS, "w") as fh:
            json.dump(store, fh, indent=1, sort_keys=True)
    return attempted, failed, digests, build_id


def load_spans(spans_dir):
    """Concatenate the span files of one traced execution."""
    import numpy as np
    parts = []
    offset = 0
    for name in sorted(os.listdir(spans_dir)):
        with np.load(os.path.join(spans_dir, name)) as data:
            meta = json.loads(str(data["meta"]))
            part = {k: data[k] for k in ("name", "parent", "start", "end",
                                         "rows", "nbytes")}
        names = np.array(meta["names"], dtype=object)
        part["name"] = names[part["name"]]
        part["parent"] = np.where(part["parent"] >= 0,
                                  part["parent"] + offset, -1)
        part["values"] = meta["values"]
        offset += part["start"].size
        parts.append(part)
    spans = {k: np.concatenate([p[k] for p in parts])
             for k in ("name", "parent", "start", "end", "rows", "nbytes")}
    values = {}
    for p in parts:
        for k, v in p["values"].items():
            values.setdefault(k, []).extend(v)
    return spans, values


# traced layers; each reports .s (self time) and the listed extras
LAYERS = {
    "gibbs.pcn_chain": (),
    "gibbs.importance_ensemble": (),
    "gibbs.pcn_parallel": (),
    "gibbs.cauchy_decay_study": (),
    "gibbs.nelson_scan": (),
    "rng.standard_complex": ("calls",),
    "interaction.energy.from_gibbs": ("calls", "rows"),
    "interaction.energy.from_dynamics": ("calls", "rows"),
    "interaction.nonlinearity.from_dynamics": ("calls", "rows"),
    "interaction.assemble": ("bytes",),
    "interaction.chaos_tail_series": (),
    "interaction.slice": (),
    "dynamics.flow": (),
    "dynamics.midpoint": (),
    "dynamics.invariance_test": (),
    "zonal.build_basis": (),
    "report.write_table": ("rows", "bytes"),
    "zdg.process": (),
}


def layer_metrics(spans, values):
    """Per-layer metrics from the spans of one traced execution."""
    import numpy as np
    name, parent = spans["name"], spans["parent"]
    dur = spans["end"] - spans["start"]
    has = parent >= 0
    child = np.bincount(parent[has], weights=dur[has], minlength=dur.size)
    self_s = dur - child
    out = {}
    for prefix, extra in LAYERS.items():
        sel = name == prefix
        out[f"{prefix}.s"] = (float(self_s[sel].sum()), "s")
        if "calls" in extra:
            out[f"{prefix}.calls"] = (int(sel.sum()), "count")
        if "rows" in extra:
            out[f"{prefix}.rows"] = (int(spans["rows"][sel].sum()), "rows")
        if "bytes" in extra:
            out[f"{prefix}.bytes"] = (int(spans["nbytes"][sel].sum()),
                                      "bytes")
    energy = name == "interaction.energy.from_gibbs"
    rows = spans["rows"][energy].sum()
    out["interaction.energy.from_gibbs.us_per_row"] = (
        float(dur[energy].sum() / rows * 1e6) if rows else 0.0, "us/row")
    # a step is a midpoint span not nested in another (halving recurses)
    step = name == "dynamics.midpoint"
    parent_name = np.where(has, name[np.maximum(parent, 0)], "")
    top = step & (parent_name != "dynamics.midpoint")
    f_in_step = ((name == "interaction.nonlinearity.from_dynamics")
                 & (parent_name == "dynamics.midpoint"))
    n_steps = int(top.sum())
    out["dynamics.midpoint.steps"] = (n_steps, "count")
    out["dynamics.midpoint.f_per_step"] = (
        float(f_in_step.sum() / n_steps) if n_steps else 0.0, "calls/step")
    out["dynamics.midpoint.rows_per_step"] = (
        float(spans["rows"][f_in_step].sum() / n_steps) if n_steps else 0.0,
        "rows/step")
    for key in ("gibbs.pcn.accept_frac", "gibbs.pcn_chain.thin"):
        vals = values.get(key, [])
        out[key] = (float(statistics.mean(vals)) if vals else 0.0,
                    "frac" if key.endswith("frac") else "count")
    out["trace.self_sum_s"] = (float(self_s.sum()), "s")
    out["trace.spans"] = (int(dur.size), "count")
    return out


def environment(args, build_id):
    env = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "threads": {var: "1" for var in THREAD_VARS},
        "seed": args.seed,
        "zdg_seed": zdg_seed(args.seed),
        "git_commit": None,
        "zdg_build_id": build_id,
    }
    try:
        with open("/proc/cpuinfo") as fh:
            env["cpu_model"] = next(line.split(":", 1)[1].strip()
                                    for line in fh
                                    if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    for pkg in ("numpy", "scipy"):
        try:
            env[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            env[pkg] = None
    try:
        import numpy as np
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (ImportError, KeyError, TypeError):
        env["blas"] = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        if res.returncode == 0:
            env["git_commit"] = res.stdout.strip()
    return env


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measure at least this long; every untraced "
                             "run executes the workload at least twice")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_workload(workload, args):
    """Measure one workload; returns its result object."""
    deadline = time.monotonic() + DEADLINE_S
    area = os.path.join(OUT, workload.name)
    os.makedirs(area, exist_ok=True)
    cfg_path = os.path.join(area, "workload.cfg")
    with open(cfg_path, "w") as fh:
        fh.write(config_text(workload))
    runs = []
    setup = []
    attempted = failed = 0
    codes_ok = True

    def run_once(spans_dir=None):
        nonlocal attempted, failed, codes_ok
        out_dir, execs, report_s = execute(workload, args.seed, cfg_path,
                                           area, deadline, spans_dir)
        a, f, digests, build_id = check_outputs(workload, args.seed,
                                                out_dir, execs)
        attempted += a
        failed += f
        codes_ok = codes_ok and all(ex.code == 0 for ex in execs)
        runs.append({"traced": spans_dir is not None, "report_s": report_s,
                     "cpu_s": sum(ex.cpu_s for ex in execs),
                     "peak_rss_mb": max(ex.rss_mb for ex in execs),
                     "attempted": a, "failed": f, "build_id": build_id,
                     "digests": digests})

    if args.trace:
        run_once()
        spans_dir = os.path.join(area, "spans")
        shutil.rmtree(spans_dir, ignore_errors=True)
        os.makedirs(spans_dir)
        run_once(spans_dir)
        untraced, traced = runs
        layers = layer_metrics(*load_spans(spans_dir))
        layers["trace.report_s"] = (traced["report_s"], "s")
        layers["trace.overhead_s"] = (traced["report_s"]
                                      - untraced["report_s"], "s")
    else:
        start = time.monotonic()
        setup += measure_setup(workload, cfg_path, area, deadline)
        while True:
            run_once()
            setup += measure_setup(workload, cfg_path, area, deadline)
            if (len(runs) >= MIN_EXECUTIONS
                    and time.monotonic() - start >= args.seconds):
                break
        layers = {
            "report_s": (statistics.median(r["report_s"] for r in runs), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "cpu_s": (statistics.median(r["cpu_s"] for r in runs), "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"]
                                              for r in runs), "MB"),
            "pass_frac": (1.0 - failed / attempted, "frac"),
        }
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    result = {"correct": codes_ok and failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    env = environment(args, runs[-1]["build_id"])
    with open(os.path.join(area, "result.json"), "w") as fh:
        json.dump({"workload": workload.name, "env": env, "runs": runs,
                   "setup_probes_s": setup, "result": result}, fh, indent=1)
    print("env " + json.dumps(env, sort_keys=True))
    return result


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "zdg", "cli.py")):
        print(f"no zdg sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    if args.workload != "all":
        print(json.dumps(run_workload(WORKLOADS[args.workload], args)))
        return 0
    # every workload in turn: one result line each, then their union with
    # metric names prefixed by the workload
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name, workload in WORKLOADS.items():
        result = run_workload(workload, args)
        print(f"{name} " + json.dumps(result))
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            total["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run one zdg subcommand with spans recorded at its layer boundaries.

Usage (from the repository root, with src/ on PYTHONPATH):

    python3 benchmark/trace_child.py SPANS.npz -- <zdg subcommand arguments>

Each traced function is replaced, at the attribute its caller looks up, by
a wrapper that records a span (name, start, end, parent) plus a batch row
count.  Spans stay in memory and are written once, as SPANS.npz, when the
subcommand returns.  The root span `zdg.process` starts at the launch time
the parent passes in ZDG_BENCH_LAUNCH (time.monotonic, a system-wide clock
on Linux), so it also covers interpreter start-up and imports.  Nothing in
the program itself is changed.
"""

import json
import os
import sys
import time
from array import array


class Tracer:
    """In-memory span store; one per traced process."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.rows = array("q")
        self.nbytes = array("q")
        self.values = {}
        self._stack = []

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid, rows=0, start=None):
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(time.monotonic() if start is None else start)
        self.end.append(0.0)
        self.rows.append(rows)
        self.nbytes.append(0)
        self._stack.append(idx)
        return idx

    def close(self, idx):
        self.end[idx] = time.monotonic()
        self._stack.pop()

    def record(self, name, value):
        self.values.setdefault(name, []).append(float(value))

    def wrap(self, owner, attr, name, rows=None, after=None):
        """Replace owner.attr by a span-recording wrapper.

        rows(args, kwargs) gives the batch rows of a call; after(idx, out)
        runs once the call has returned.
        """
        fn = getattr(owner, attr)
        nid = self.name_id(name)
        # open() and close() inlined: the hottest layers run ~10^5 calls
        names, parents, ends = self.name, self.parent, self.end
        starts, counts, nbytes = self.start, self.rows, self.nbytes
        stack, now = self._stack, time.monotonic

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            counts.append(rows(args, kwargs) if rows else 0)
            nbytes.append(0)
            ends.append(0.0)
            stack.append(idx)
            starts.append(now())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = now()
                stack.pop()
            if after is not None:
                after(idx, out)
            return out

        setattr(owner, attr, traced)

    def save(self, path):
        import numpy as np
        np.savez(path,
                 name=np.frombuffer(self.name, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64),
                 rows=np.frombuffer(self.rows, dtype=np.int64),
                 nbytes=np.frombuffer(self.nbytes, dtype=np.int64),
                 meta=np.array(json.dumps({"names": self.names,
                                           "values": self.values})))


def _batch_rows(args, kwargs):
    """Rows of the coefficient batch passed to an energy or cubic term."""
    coeffs = args[1] if len(args) > 1 else kwargs["coeffs"]
    return coeffs.shape[0] if coeffs.ndim > 1 else 1


def _table_rows(args, kwargs):
    rows = args[3] if len(args) > 3 else kwargs.get("rows", ())
    return len(rows)


def install(tracer):
    """Wrap each layer at the attribute its caller uses."""
    import numpy as np

    import zdg.cli
    import zdg.dynamics
    import zdg.gibbs
    import zdg.interaction
    import zdg.rng
    import zdg.zonal

    def tensor_bytes(idx, out):
        # arrays the representation holds; a lazily built one is not counted
        tracer.nbytes[idx] = sum(v.nbytes for v in vars(out).values()
                                 if isinstance(v, np.ndarray))

    def file_bytes(idx, out):
        tracer.nbytes[idx] = os.path.getsize(out)

    def chain_stats(idx, out):
        tracer.record("gibbs.pcn.accept_frac", out.acc_rate)
        tracer.record("gibbs.pcn_chain.thin", out.thin)

    def parallel_stats(idx, out):
        tracer.record("gibbs.pcn.accept_frac", out.acc_rate)

    gibbs, dynamics = zdg.gibbs, zdg.dynamics
    tracer.wrap(zdg.zonal, "build_basis", "zonal.build_basis")
    tracer.wrap(zdg.interaction, "assemble_interaction",
                "interaction.assemble", after=tensor_bytes)
    tracer.wrap(zdg.interaction.InteractionTensor, "slice",
                "interaction.slice")
    tracer.wrap(zdg.rng, "standard_complex", "rng.standard_complex")
    tracer.wrap(gibbs, "interaction_energy", "interaction.energy.from_gibbs",
                rows=_batch_rows)
    tracer.wrap(gibbs, "chaos_tail_series", "interaction.chaos_tail_series")
    tracer.wrap(gibbs, "importance_ensemble", "gibbs.importance_ensemble")
    tracer.wrap(gibbs, "pcn_chain", "gibbs.pcn_chain", after=chain_stats)
    tracer.wrap(gibbs, "cauchy_decay_study", "gibbs.cauchy_decay_study")
    tracer.wrap(gibbs, "nelson_scan", "gibbs.nelson_scan")
    tracer.wrap(dynamics, "pcn_parallel", "gibbs.pcn_parallel",
                after=parallel_stats)
    tracer.wrap(dynamics, "interaction_energy",
                "interaction.energy.from_dynamics", rows=_batch_rows)
    tracer.wrap(dynamics, "nonlinearity",
                "interaction.nonlinearity.from_dynamics", rows=_batch_rows)
    tracer.wrap(dynamics, "_midpoint_step", "dynamics.midpoint")
    tracer.wrap(dynamics, "flow", "dynamics.flow")
    tracer.wrap(dynamics, "invariance_test", "dynamics.invariance_test")
    tracer.wrap(zdg.cli, "write_table", "report.write_table",
                rows=_table_rows, after=file_bytes)
    return zdg.cli


def main(argv):
    if len(argv) < 3 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    launch = float(os.environ.get("ZDG_BENCH_LAUNCH", time.monotonic()))
    tracer = Tracer()
    root = tracer.open(tracer.name_id("zdg.process"), start=launch)
    cli = install(tracer)
    try:
        return cli.main(argv[2:])
    finally:
        tracer.close(root)
        tracer.save(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Set-up probe: what a zdg process does before its experiment starts.

Usage (from the repository root, with src/ on PYTHONPATH):

    python3 benchmark/setup_probe.py CONFIG [CUTOFF ...]

Imports the CLI, loads CONFIG, then builds the basis and interaction
tensor at each CUTOFF the way the CLI does ("config" means the config's
own cutoff).  The benchmark times the whole process, start-up included.
"""

import sys

from zdg.cli import _build_tensor
from zdg.config import load_config


def main(argv):
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    cfg, _ = load_config(argv[0])
    for cutoff in argv[1:]:
        _build_tensor(cfg, cutoff=None if cutoff == "config" else int(cutoff))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

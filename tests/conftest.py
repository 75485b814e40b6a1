"""Test-session set-up: one BLAS/OpenMP thread unless the environment says
otherwise.

The CLI caps the numerical thread pools from ZDG_THREADS before numpy
loads; the tests import numpy directly, so without this cap every BLAS call
starts a pool per core and, beside any other busy process, the pools
oversubscribe the cores.  This file is imported before any test
module, hence before numpy.
"""

import os

from zdg.cli import _THREAD_VARS

for _var in _THREAD_VARS:
    os.environ.setdefault(_var, "1")

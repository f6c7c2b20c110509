"""Pin BLAS and OpenMP to one thread for the test run.

The matrices here are small, so a threaded BLAS gains nothing and loses
much when another process holds a CPU (one full-model Liouvillian
evaluation measured 812 us unpinned against 41 us pinned).  pytest loads
this file before any test module imports numpy, so the setting takes
effect; a value already set in the environment wins.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

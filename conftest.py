"""Run the tests with BLAS and OpenMP on one thread, as ``bench/run.py`` runs.

numpy's dot product sums long vectors in an order that depends on the BLAS
thread count (from about 10,000 entries, with OpenBLAS on a 2-vCPU host), so
answers above that size, the golden workload files among them, hold for one
thread only.  pytest
loads this file before any test module imports numpy; a value already set
in the environment is overridden.
"""

import os

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

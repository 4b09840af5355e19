"""Pin BLAS to one thread for the whole test run.

This must run before anything imports numpy, because OpenBLAS reads the
variables once when it loads. Multi-threaded BLAS on the small, tall
products of training runs many times slower when another process shares
the CPU, and the loss's last digits depend on the thread count. An
explicit setting in the environment still wins.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

"""The end-to-end benchmark BENCHMARK.json names; README.md is the manual."""

import os

THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def pin_threads() -> None:
    """Pin BLAS/OpenMP pools to one thread; call before numpy loads.

    On 2 cores their worker threads only add scheduling noise.  Only the two
    entry points call this, so importing the package (the tier-1 test does)
    leaves the environment alone.  Recorded in the fingerprint.
    """
    for name in THREAD_ENV:
        os.environ.setdefault(name, "1")

"""The command-line entry point, for ``python -m mlofi`` and the ``mlofi``
script: it caps the BLAS and OpenMP thread pools at one thread, where the
environment sets no cap, before ``mlofi.cli`` first loads numpy. The stacked
solves are small, and a pool of threads makes them several times slower."""

import os
import sys

#: Thread-count variables of OpenBLAS, OpenMP, MKL and BLIS.
THREAD_CAPS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


def main() -> int:
    for name in THREAD_CAPS:
        os.environ.setdefault(name, "1")
    from .cli import main as cli_main

    return cli_main()


if __name__ == "__main__":
    sys.exit(main())

"""Set-up time of the program in a fresh interpreter.

Usage: python3 setup_probe.py <src dir> <work dir>

Times importing ``jacobi_mimo.cli`` plus the one-request-per-layer
warm-up, and prints the seconds taken.
"""

import sys
import time

import workloads


def main() -> int:
    src, tmpdir = sys.argv[1], sys.argv[2]
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import jacobi_mimo.cli

    workloads.run_warmup(jacobi_mimo.cli.main, tmpdir)
    print(repr(time.perf_counter() - t0))
    return 0


if __name__ == "__main__":
    sys.exit(main())

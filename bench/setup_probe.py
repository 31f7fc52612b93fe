"""Time one workload's set-up in this fresh interpreter and print the seconds.

    python3 bench/setup_probe.py <workload> <seed>

Set-up is importing proxgn, building the workload (cases, boxes, penalties,
solver configuration) and drawing its first round of inputs.  numpy is
imported before the clock starts: it is not part of proxgn.
"""
import sys
import time

import run


def main(argv) -> int:
    workload, seed = argv[1], int(argv[2])
    run.bootstrap()
    import numpy  # noqa: F401

    start = time.perf_counter()
    import proxgn  # noqa: F401
    import harness

    next(harness.make_workload(workload, seed).rounds())
    print(repr(time.perf_counter() - start))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

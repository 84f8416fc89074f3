"""glyphwave benchmark: one workload, closed loop, one message in flight.

    python3 bench/run.py --workload wide-clean --seed 1 --seconds 20 --trace 0

Run from the repository root (any directory works; paths are taken from
this file). The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics of a traced run with --trace 1. Exits
non-zero, printing no result, when the package sources are missing.
"""

import os

# Pin BLAS/OpenMP pools to one thread before numpy is first imported; the
# set-up probes inherit this environment.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"


def main(argv=None) -> int:
    if not (SRC / "glyphwave" / "__init__.py").is_file():
        print(f"bench: no glyphwave package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    import measure
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return measure.main(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())

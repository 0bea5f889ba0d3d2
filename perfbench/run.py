"""hdrmask benchmark: one workload, one process, printed as JSON.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload train-hdr --seed 1 --seconds 25 --trace 0

The program under test is the checkout's own ``src/hdrmask``. BLAS is pinned
to ``BLAS_THREADS`` threads before numpy loads. The run sets up the
workload's inputs several times (``setup_s`` is the median), runs one
warm-up unit, then measures for ``--seconds``:

* ``--trace 0`` measures untraced and reports the end-to-end metrics;
* ``--trace 1`` alternates untraced and traced units on the same inputs,
  reports the per-layer metrics of the traced units, the tracing overhead,
  and whether the traced outputs are bit-identical to the untraced ones.

Stdout ends with a JSON record (machine, workload metrics under the names
used in perfbench/README.md, spans) and, as its last line, the result
object ``{"correct", "attempted", "failed", "metrics"}``. The metric names
and units are read from BENCHMARK.json so the output always matches it.
"""

import argparse
import json
import os
import sys

BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in declared["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    threads = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        os.environ[var] = str(threads)
    package = os.path.join(ROOT, "src", "hdrmask")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        print(f"error: no hdrmask sources at {package}", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import hdrmask
    if os.path.dirname(os.path.abspath(hdrmask.__file__)) != package:
        print(f"error: imported hdrmask from {hdrmask.__file__}, not {package}", file=sys.stderr)
        return 2

    import bench  # after the thread pinning: bench imports numpy
    record, result = bench.run(args.workload, args.seed, args.seconds, bool(args.trace),
                               declared, threads, ROOT)
    print(json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

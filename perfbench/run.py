"""Benchmark of ecrm's train -> predict pipeline on four output spaces.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload hier-tree --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run, whose spans are written to
``.perfbench/trace-<workload>-seed<seed>.jsonl``.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it describes the
machine, the sample counts, the unscaled medians and the speed factor.
The exit code is 1 when an output check fails and 2 when the checkout has
no ``src/ecrm`` to run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("hier-tree", "dag-large-m", "rank-footrule", "flow-l1")
MAX_BLAS_THREADS = 2


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "ecrm" / "__init__.py").is_file():
        print(f"error: no program to benchmark: {ROOT / 'src' / 'ecrm'} is missing",
              file=sys.stderr)
        return 2

    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.machine import nproc

    # The thread count must be fixed before numpy loads its BLAS.
    threads = str(min(MAX_BLAS_THREADS, nproc()))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    import ecrm

    if Path(ecrm.__file__).resolve().parent != ROOT / "src" / "ecrm":
        print(f"error: imported ecrm from {ecrm.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    from perfbench import bench

    base = ROOT / ".perfbench"
    base.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=base))
    try:
        result, info = bench.run(args.workload, args.seed, args.seconds, bool(args.trace),
                                 workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

"""fngd training benchmark.

    python3 perfbench/run.py --workload mlp-b128 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
./src.  With --trace 0 the run is untraced and reports the end-to-end
metrics; with --trace 1 it wraps the program's layers from the outside
(see tracing.py), runs the correctness oracle and reports per-layer metrics.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

Each round is one fngd `run_train` and one sgd `run_train` on the same
data, init and batch; rounds repeat until --seconds have passed and every
figure is the median over rounds.
"""

from __future__ import annotations

import os
import sys

# Pinned before numpy loads: one BLAS thread per process (at or below
# nproc on any machine), so the host's other load does not reshuffle
# threads inside a GEMM.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import json
import shutil
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

from measure import untraced  # noqa: E402
from tracing import traced  # noqa: E402
from workloads import WORKLOADS, write_inputs  # noqa: E402


def import_program() -> dict:
    """Import fngd from the checkout's src/, refusing any other copy.

    Returns the modules the benchmark drives or traces, by name.
    """
    src = ROOT / "src"
    if not (src / "fngd" / "__init__.py").is_file():
        raise SystemExit(f"error: program source not found under {src}")
    sys.path.insert(0, str(src))
    import fngd
    from fngd import config, core, data, linalg, nn, persample, train

    if Path(fngd.__file__).resolve().parent != (src / "fngd").resolve():
        raise SystemExit(f"error: imported fngd from {fngd.__file__}, not {src}")
    return {"config": config, "core": core, "data": data, "linalg": linalg, "nn": nn,
            "persample": persample, "train": train}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    wl = WORKLOADS[args.workload]

    program = import_program()
    work = ROOT / "perfbench" / "work" / f"{wl.name}-s{args.seed}-p{os.getpid()}"
    try:
        inputs = write_inputs(wl, args.seed, work)
        measure_run = traced if args.trace else untraced
        tally, metrics = measure_run(program, wl, inputs, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"# workload={wl.name} seed={args.seed} blas_threads={BLAS_THREADS} "
          f"nproc={os.cpu_count()} numpy={np.__version__} trace={args.trace}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

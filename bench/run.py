"""chainmeter benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a chainmeter checkout; the program is imported from its
``src/``. Each call starts one fresh worker process (``worker.py``), so that
``peak_rss_mib`` is the workload's own, and waits for it. The worker runs
single-threaded: the environment caps numpy's BLAS pools at one thread and
fixes the string hash seed, so set iteration order is the same in every run.

The last stdout line is the result, ``{"correct", "attempted", "failed",
"metrics"}``: end-to-end metrics with ``--trace 0``, per-layer metrics and the
tracing overhead with ``--trace 1``. See bench/README.md.
"""

from __future__ import annotations

import os
import subprocess
import sys

# Leaves margin under the 180 s a run may take.
TIMEOUT_S = 170


def main() -> int:
    if not os.path.isfile(os.path.join("src", "chainmeter", "cli.py")):
        print("error: src/chainmeter/cli.py not found; run from the root of a chainmeter checkout",
              file=sys.stderr)
        return 2
    env = dict(
        os.environ,
        PYTHONPATH=os.path.abspath("src"),
        PYTHONHASHSEED="0",
        PYTHONDONTWRITEBYTECODE="1",
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    worker = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")
    try:
        proc = subprocess.run(
            [sys.executable, worker, *sys.argv[1:]],
            env=env, stdout=subprocess.PIPE, text=True, timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"error: the worker did not finish within {TIMEOUT_S} s", file=sys.stderr)
        return 3
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        return proc.returncode if proc.returncode > 0 else 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One benchmark run, in the fresh process that ``run.py`` starts.

The run sets up several times (import chainmeter afresh, generate the
inputs, one warm-up pass at tiny size whose outputs must match
``pinned.json``). One untimed pass at full size and seed 0 must match
``pinned.json`` too. Then closed-loop passes of the workload run until
``--seconds`` have elapsed: one command starts only after the previous one
returned. Every pass is checked, and every pass and set-up is corrected for
the host's speed, probed between them. With ``--trace 1`` untraced and
traced passes alternate, and the traced ones give the per-layer numbers.

The last line on stdout is the result; the line before it is a JSON report
with the input sizes, sample counts, quartiles, error rate and environment.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass

import numpy

import workloads
from tracing import OVERHEAD, Tracer, per_layer_units

SETUP_REPEATS = 7
MIN_PASSES = 3
PINNED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pinned.json")
SCRATCH = ".bench_tmp"


# On a shared host, neighbours slow every process by up to 1.6x, in spells of
# seconds to minutes, and CPU time slows with wall time. A fixed pure-Python
# probe, timed between intervals, tracks the host's speed; each interval is
# scaled by REFERENCE_PROBE_S over the mean probe time on either side of it.
# The probe mixes integer and dict work (like the simulator) with building
# small records and encoding them as JSON (like the export): on its own, the
# first half tracked the export workload poorly. REFERENCE_PROBE_S is the
# probe's time on an uncontended core of the 2-vCPU Xeon VM the benchmark was
# tuned on; it only sets the scale, in seconds.
REFERENCE_PROBE_S = 0.0277


def probe_s() -> float:
    start = time.perf_counter()
    total, table = 0, {}
    for i in range(100_000):
        total += i * i
        table[i & 4095] = total
    records = [{"id": i, "name": str(i)} for i in range(25_000)]
    json.dumps(records)
    return time.perf_counter() - start


class HostSpeed:
    """Probes the host between intervals; :meth:`scale` returns the factor
    for the interval since the previous probe."""

    def __init__(self):
        self.last = probe_s()

    def scale(self) -> float:
        now = probe_s()
        factor = 2 * REFERENCE_PROBE_S / (self.last + now)
        self.last = now
        return factor


@dataclass
class PassResult:
    wall_s: float
    cpu_s: float
    digests: list[str]
    problems: list[str]
    scale: float = 1.0


def import_fresh():
    """Import chainmeter from scratch, so each set-up pays its import."""
    for name in [m for m in sys.modules if m == "chainmeter" or m.startswith("chainmeter.")]:
        del sys.modules[name]
    return importlib.import_module("chainmeter.cli")


def _file_digest(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def run_pass(cli, plan: workloads.Plan, expected: list[str] | None) -> PassResult:
    """Run every command of ``plan`` through ``cli.main`` and check the
    outputs: exit codes, the oracle checks, and SHA-256 digests of each
    stdout and written file against ``expected`` (when given)."""
    for path in plan.outputs:
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)
    gc.collect()
    runs = []
    cpu0 = time.process_time()
    start = time.perf_counter()
    for command in plan.commands:
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(command.argv))
        except Exception:  # a crash is a failed pass, not the end of the run
            code = None
            err.write(traceback.format_exc())
        runs.append((code, out.getvalue(), err.getvalue()))
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu0

    problems, digests = [], []
    for command, (code, stdout, stderr) in zip(plan.commands, runs):
        name = command.argv[0]
        if code != 0:
            problems.append(f"{name} exited {code}: {stderr.strip()[-400:]}")
        try:
            problems.extend(f"{name}: {p}" for p in command.check(stdout))
        except Exception as exc:  # malformed output breaks the parser
            problems.append(f"{name}: output check failed on {exc!r}")
        digests.append(hashlib.sha256(stdout.encode()).hexdigest())
        for path in command.outputs:
            digests.append(_file_digest(path) if os.path.exists(path) else "missing")
    if expected is not None and digests != expected:
        problems.append("output digests differ from the reference")
    return PassResult(wall, cpu, digests, problems)


def _commit() -> str:
    """HEAD of the checkout's git metadata, read directly; 'unknown' without it."""
    try:
        with open(os.path.join(".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        with contextlib.suppress(FileNotFoundError):
            with open(os.path.join(".git", ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _os_threads() -> int | None:
    with contextlib.suppress(OSError):
        with open("/proc/self/status", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    return None


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "commit": _commit(),
        "python_threads": threading.active_count(),
        "os_threads": _os_threads(),
    }


def _summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "min": min(values), "max": max(values), "n": len(values)}


def measure(workload: str, seed: int, seconds: float, trace: bool, scratch: str) -> tuple[dict, dict]:
    """Set up, run the timed passes, and return (result, report)."""
    make_plan = workloads.WORKLOADS[workload]
    with open(PINNED, encoding="utf-8") as fh:
        pinned = json.load(fh)[workload]
    full_dir, tiny_dir, pinned_dir = (os.path.join(scratch, d) for d in ("full", "tiny", "seed0"))
    for directory in (full_dir, tiny_dir, pinned_dir):
        os.makedirs(directory)

    attempted = failed = 0
    problems: list[str] = []

    def count(result: PassResult) -> None:
        nonlocal attempted, failed
        attempted += 1
        failed += bool(result.problems)
        problems.extend(result.problems)

    speed = HostSpeed()
    setup, setup_scale = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        cli = import_fresh()
        plan = make_plan(seed, full_dir)
        warm = run_pass(cli, make_plan(0, tiny_dir, **workloads.TINY[workload]), pinned["tiny"])
        setup.append(time.perf_counter() - start)
        setup_scale.append(speed.scale())
        count(warm)
    count(run_pass(cli, make_plan(0, pinned_dir), pinned["seed0"]))
    speed.scale()  # a fresh probe right before the first timed pass

    tracer = Tracer() if trace else None
    untraced: list[PassResult] = []
    traced: list[PassResult] = []
    reference = None
    deadline = time.perf_counter() + seconds
    while True:
        tracing = tracer is not None and len(untraced) > len(traced)
        if tracing:
            tracer.install()
        try:
            result = run_pass(cli, plan, reference)
        finally:
            if tracing:
                tracer.uninstall()
        result.scale = speed.scale()
        reference = reference or result.digests
        (traced if tracing else untraced).append(result)
        count(result)
        done = min(len(untraced), len(traced)) if tracer else len(untraced)
        if done >= MIN_PASSES and time.perf_counter() >= deadline:
            break

    wall = [r.wall_s * r.scale for r in untraced]
    cpu = [r.cpu_s * r.scale for r in untraced]
    setup_scaled = [t * f for t, f in zip(setup, setup_scale)]
    command_s = statistics.median(wall)
    if tracer is None:
        values = {
            "command_s": command_s,
            "command_cpu_s": statistics.median(cpu),
            "items_per_s": plan.items / command_s,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(setup_scaled),
        }
        units = {"command_s": "s", "command_cpu_s": "s", "items_per_s": "1/s", "peak_rss_mib": "MiB", "setup_s": "s"}
    else:
        units = per_layer_units()
        per_pass = [
            {name: value * r.scale if units[name] == "s" else value for name, value in tracer.pass_metrics(i).items()}
            for i, r in enumerate(traced)
        ]
        values = {name: statistics.median(p[name] for p in per_pass) for name in units if name != OVERHEAD}
        values[OVERHEAD] = statistics.median(r.wall_s * r.scale for r in traced) - command_s

    report = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "sizes": plan.sizes,
        "items_per_pass": plan.items,
        "command_s": _summary(wall),
        "command_cpu_s": _summary(cpu),
        "setup_s": _summary(setup_scaled),
        "raw_wall_s": _summary([r.wall_s for r in untraced]),
        "raw_cpu_s": _summary([r.cpu_s for r in untraced]),
        "raw_setup_s": _summary(setup),
        "host_scale": _summary([r.scale for r in untraced]),
        "error_rate": failed / attempted,
        "problems": problems[:5],
        "environment": environment(),
    }
    if tracer is not None:
        report["traced_command_s"] = _summary([r.wall_s * r.scale for r in traced])
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    return result, report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**32 or args.seconds <= 0:
        parser.error("--seed must lie in [0, 2**32) and --seconds must be positive")

    os.makedirs(SCRATCH, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH)
    try:
        result, report = measure(args.workload, args.seed, args.seconds, bool(args.trace), scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(SCRATCH)
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

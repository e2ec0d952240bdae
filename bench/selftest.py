"""Self-test of the benchmark, mostly at tiny input sizes.

    python3 bench/selftest.py      (from the root of a checkout)

Asserts that:

- every workload passes its output checks and matches ``pinned.json``, at
  tiny size and at full size with seed 0;
- one changed byte, in a command's stdout or in a file it wrote, is reported
  as a failed pass;
- a traced pass records a span for every per-layer time metric, every
  counter moves on some workload, and the per-layer metrics are exactly the
  ones ``BENCHMARK.json`` lists.

Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.abspath("src"))

import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


class Corrupting:
    """Stands in for ``chainmeter.cli``: runs the real ``main``, then changes
    one byte of the stdout of the ``argv`` command or, with ``path``, of
    that file once a command has written it."""

    def __init__(self, cli, argv=None, path=None):
        self.cli, self.argv, self.path = cli, argv, path

    def main(self, argv):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = self.cli.main(argv)
        text = buffer.getvalue()
        if argv == self.argv:
            middle = len(text) // 2
            text = text[:middle] + chr(ord(text[middle]) ^ 1) + text[middle + 1:]
        if self.path in argv:
            with open(self.path, "r+b") as fh:
                data = fh.read()
                fh.seek(len(data) // 2)
                fh.write(bytes([data[len(data) // 2] ^ 1]))
        sys.stdout.write(text)
        return code


def check_workload(cli, name: str, directory: str, pinned: dict) -> tuple[list[str], tracing.Tracer]:
    failures = []
    full = worker.run_pass(cli, workloads.WORKLOADS[name](0, directory), pinned["seed0"])
    failures.extend(f"{name}: full-size seed-0 pass failed: {p}" for p in full.problems)

    plan = workloads.WORKLOADS[name](0, directory, **workloads.TINY[name])
    tiny = pinned["tiny"]
    clean = worker.run_pass(cli, plan, tiny)
    failures.extend(f"{name}: clean pass failed: {p}" for p in clean.problems)

    corruptions = [("stdout", Corrupting(cli, argv=list(cmd.argv))) for cmd in plan.commands]
    corruptions += [(os.path.basename(path), Corrupting(cli, path=path)) for path in plan.outputs]
    for label, fake in corruptions:
        if not worker.run_pass(fake, plan, tiny).problems:
            failures.append(f"{name}: one changed byte in {label} passed the checks")

    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = worker.run_pass(cli, plan, tiny)
    finally:
        tracer.uninstall()
    failures.extend(f"{name}: traced pass failed: {p}" for p in traced.problems)
    if worker.run_pass(cli, plan, tiny).problems:
        failures.append(f"{name}: uninstalling the tracer did not restore the program")
    return failures, tracer


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        listed = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    with open(worker.PINNED, encoding="utf-8") as fh:
        pinned = json.load(fh)

    failures = []
    if listed != tracing.per_layer_units():
        failures.append(f"BENCHMARK.json per_layer differs from the tracer's metrics: {listed} vs {tracing.per_layer_units()}")

    cli = worker.import_fresh()
    spans, moved = set(), set()
    os.makedirs(worker.SCRATCH, exist_ok=True)
    try:
        for name in workloads.WORKLOADS:
            with tempfile.TemporaryDirectory(prefix="selftest-", dir=worker.SCRATCH) as directory:
                found, tracer = check_workload(cli, name, directory, pinned[name])
            failures.extend(found)
            spans |= tracer.span_names()
            moved |= {metric for metric, value in tracer.pass_metrics(0).items() if value}
    finally:
        with contextlib.suppress(OSError):
            os.rmdir(worker.SCRATCH)

    missing_spans = {probe.span for probe in tracing.PROBES} - spans
    if missing_spans:
        failures.append(f"no span recorded for {sorted(missing_spans)}")
    still = set(tracing.per_layer_units()) - moved - {tracing.OVERHEAD}
    if still:
        failures.append(f"per-layer metrics zero on every workload: {sorted(still)}")

    for failure in failures:
        print(f"FAIL {failure}")
    print(f"selftest: {len(failures)} failure(s) over {len(workloads.WORKLOADS)} workloads")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

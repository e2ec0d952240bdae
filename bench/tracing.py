"""Span recording at chainmeter's layer boundaries.

The tracer rebinds module attributes at run time: the public functions that
``chainmeter.cli`` imports, plus a few helpers the library calls through its
own module globals (``simnet.random_regular_graph``, ``ingest.to_jsonable``,
``scaling.onchain_tx_count``). The program's source is never edited, and
:meth:`Tracer.uninstall` restores every original, so untraced passes run the
program exactly as shipped.

A span is ``[name, parent index, start, end]``; the spans of one pass share a
list, which is the pass's identifier. Counters are recorded at the same
boundaries, from each call's arguments and result. Single-threaded by design.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable


def _simulation_counts(result, args) -> dict[str, float]:
    return {
        "simnet.runs": 1,
        "simnet.blocks_mined": len(result.blocks) - 1,
        "simnet.canonical_blocks": len(result.canonical_chain) - 1,
    }


@dataclass(frozen=True)
class Probe:
    """Wrap ``module.attribute`` in a span named ``span``; ``count`` maps the
    call's result and positional arguments to counter increments. A
    recursive function is timed at its outermost call only."""

    span: str
    module: str
    attribute: str
    count: Callable[[object, tuple], dict[str, float]] | None = None
    recursive: bool = False


PROBES = (
    Probe("cli.main", "chainmeter.cli", "main"),
    Probe("ingest.load_sim_config", "chainmeter.cli", "load_sim_config"),
    Probe("ingest.load_distribution", "chainmeter.cli", "load_distribution",
          lambda result, args: {"ingest.rows_read": len(result.entries)}),
    Probe("ingest.load_payment_graph", "chainmeter.cli", "load_payment_graph",
          lambda result, args: {"ingest.rows_read": len(result.payments)}),
    Probe("ingest.export_report", "chainmeter.cli", "export_report",
          lambda result, args: {"ingest.bytes_written": os.path.getsize(args[1])}),
    Probe("ingest.to_jsonable", "chainmeter.ingest", "to_jsonable", recursive=True),
    Probe("simnet.run_simulation", "chainmeter.cli", "run_simulation", _simulation_counts),
    Probe("simnet.random_regular_graph", "chainmeter.simnet", "random_regular_graph"),
    Probe("simnet.bound_violation_check", "chainmeter.cli", "bound_violation_check"),
    Probe("metrics.centralization_level", "chainmeter.cli", "centralization_level",
          lambda result, args: {"metrics.centralization_level_calls": 1}),
    Probe("metrics.central_trust", "chainmeter.cli", "central_trust"),
    Probe("metrics.cumulative_share_curve", "chainmeter.cli", "cumulative_share_curve"),
    Probe("scaling.lightning_analysis", "chainmeter.cli", "lightning_analysis",
          lambda result, args: {"scaling.onchain_direct": result.onchain_direct,
                                "scaling.onchain_plan": result.onchain_plan}),
    Probe("scaling.onchain_tx_count", "chainmeter.scaling", "onchain_tx_count"),
    Probe("bounds.throughput_sweep", "chainmeter.cli", "throughput_sweep",
          lambda result, args: {"bounds.sweep_points": len(result)}),
)

# Self time: the span's duration minus the time its child spans cover.
SELF_TIMES = {"cli.self_s": "cli.main", "simnet.engine_self_s": "simnet.run_simulation"}

COUNTERS = {
    "simnet.runs": "count",
    "simnet.blocks_mined": "count",
    "simnet.canonical_blocks": "count",
    "ingest.bytes_written": "bytes",
    "ingest.rows_read": "count",
    "metrics.centralization_level_calls": "count",
    "scaling.onchain_direct": "count",
    "scaling.onchain_plan": "count",
    "bounds.sweep_points": "count",
}

# Traced minus untraced median pass wall time; set by the caller, which runs both.
OVERHEAD = "trace.overhead_s"


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {f"{probe.span}_s": "s" for probe in PROBES}
    units.update(dict.fromkeys(SELF_TIMES, "s"))
    units.update(COUNTERS)
    units["simnet.canonical_ratio"] = "ratio"
    units[OVERHEAD] = "s"
    return units


class Tracer:
    """Records the spans and counters of each traced pass in memory."""

    def __init__(self):
        self.passes: list[list[list]] = []
        self.counts: list[defaultdict[str, float]] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        """Wrap every probe and open a new pass."""
        self.passes.append([])
        self.counts.append(defaultdict(float))
        for probe in PROBES:
            module = sys.modules[probe.module]
            original = getattr(module, probe.attribute)
            setattr(module, probe.attribute, self._wrap(probe, module, original))
            self._patched.append((module, probe.attribute, original))

    def uninstall(self) -> None:
        while self._patched:
            module, attribute, original = self._patched.pop()
            setattr(module, attribute, original)

    def _wrap(self, probe: Probe, module, original):
        def traced(*args, **kwargs):
            spans = self.passes[-1]
            index = len(spans)
            span = [probe.span, self._stack[-1] if self._stack else None, 0.0, 0.0]
            spans.append(span)
            self._stack.append(index)
            if probe.recursive:
                # Inner calls go straight to the original: one span per tree.
                setattr(module, probe.attribute, original)
            span[2] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._stack.pop()
                if probe.recursive:
                    setattr(module, probe.attribute, traced)
            if probe.count is not None:
                counts = self.counts[-1]
                for name, value in probe.count(result, args).items():
                    counts[name] += value
            return result

        return traced

    def pass_metrics(self, index: int) -> dict[str, float]:
        """Per-layer values of one traced pass (all but the overhead)."""
        spans = self.passes[index]
        values = dict.fromkeys(per_layer_units(), 0.0)
        del values[OVERHEAD]
        covered = [0.0] * len(spans)
        for _, parent, start, end in spans:
            if parent is not None:
                covered[parent] += end - start
        for i, (name, _, start, end) in enumerate(spans):
            values[f"{name}_s"] += end - start
            for metric, span_name in SELF_TIMES.items():
                if name == span_name:
                    values[metric] += end - start - covered[i]
        values.update(self.counts[index])
        mined = values["simnet.blocks_mined"]
        values["simnet.canonical_ratio"] = values["simnet.canonical_blocks"] / mined if mined else 0.0
        return values

    def span_names(self) -> set[str]:
        return {span[0] for spans in self.passes for span in spans}

"""Span tracing of the soundersim layers from outside the package.

:class:`Tracer` replaces every public function of the layer modules with
a wrapper that records a span (name, start, end, parent span id) and the
exact counts the function's arguments or result reveal.  A function is
replaced in every module namespace that binds it, because modules that
import a name with ``from .x import f`` look it up in their own globals:
``campaign.apply_channel`` and ``cli.read_capture`` are such bindings.

Spans are kept in memory and written out once, at the end of a run.
"""

from __future__ import annotations

import inspect
import json
import os
import sys
import time
from collections import defaultdict

PACKAGE = "soundersim"

#: Layer modules, in pipeline order; a span's layer is its name's prefix.
LAYERS = ("waveform", "fixedpoint", "averager", "channel", "sync",
          "estimator", "campaign", "cli", "config")

#: Public functions left unwrapped: called once per clock cycle, so a
#: span each would time the tracer rather than the model.
UNTRACED = {"averager.step_state_machine"}


def count_lines(path) -> int:
    """Number of lines in a file."""
    with open(path, "rb") as fh:
        return sum(1 for _ in fh)


def _cli_export(args, result) -> dict[str, int]:
    argv = args[0]
    if argv[0] != "estimate" or result != 0:
        return {}
    out = argv[argv.index("--out") + 1]
    rows = count_lines(out)
    if argv[argv.index("--format") + 1] == "csv":
        rows -= 1  # header line
    return {"cli.rows_emitted": rows, "cli.bytes_emitted": os.path.getsize(out)}


#: Exact work counts taken at a function boundary, keyed by span name:
#: ``hook(args, result)`` returns counter increments.  Hooks run after
#: the span has ended, so their cost is not inside it.
COUNTERS = {
    "channel.propagate_float": lambda a, r: {"channel.samples_propagated": len(r)},
    "fixedpoint.quantize_clipped": lambda a, r: {"fixedpoint.components_clipped": r[1]},
    "averager.select_and_average": lambda a, r: {
        "averager.samples_averaged": r.config.avg_count * len(r.data)},
    "campaign.write_capture": lambda a, r: {
        "campaign.bytes_written": os.path.getsize(a[0])},
    "campaign.read_capture": lambda a, r: {"campaign.bytes_read": os.path.getsize(a[0])},
    "cli.main": _cli_export,
}


class Tracer:
    """Wraps the layer functions and records spans while installed.

    ``phase`` labels every span recorded until it is changed, so that
    the timed body and the correctness gates can be told apart.
    """

    def __init__(self) -> None:
        self.phase = "body"
        self.spans: list[tuple[str, float, float, int, str] | None] = []
        self.counts: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, span_name: str, fn):
        spans, stack = self.spans, self._stack
        counter = COUNTERS.get(span_name)
        is_cli_main = span_name == "cli.main"

        def traced(*args, **kwargs):
            name = f"cli.{args[0][0]}" if is_cli_main else span_name
            span_id = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[span_id] = (name, start, end, parent, self.phase)
            if counter is not None:
                counts = self.counts[self.phase]
                for key, value in counter(args, result).items():
                    counts[key] += int(value)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self) -> None:
        """Replace every public layer function wherever it is bound."""
        modules = [m for name, m in sys.modules.items()
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for name, fn in list(vars(module).items()):
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                if f"{layer}.{name}" in UNTRACED:
                    continue
                wrapper = self._wrap(f"{layer}.{name}", fn)
                for target in modules:
                    for attr, value in list(vars(target).items()):
                        if value is fn:
                            self._restore.append((target, attr, fn))
                            setattr(target, attr, wrapper)

    def uninstall(self) -> None:
        """Put every original function back."""
        for target, attr, fn in reversed(self._restore):
            setattr(target, attr, fn)
        self._restore.clear()

    def self_times(self, phase: str) -> dict[str, dict[str, float]]:
        """Seconds per span name, as ``{"self": ..., "exclusive": ...}``.

        ``self`` is a span's duration minus its child spans.
        ``exclusive`` is its duration minus the spans of other layers
        below it: a function's own cost including same-layer helpers,
        such as ``fixedpoint.to_float`` calling ``to_complex``.
        """
        layer = [span[0].split(".")[0] for span in self.spans]
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        exclusive = list(own)
        for span_id in range(len(self.spans) - 1, -1, -1):
            parent = self.spans[span_id][3]
            if parent >= 0 and layer[parent] == layer[span_id]:
                exclusive[parent] += exclusive[span_id]
        totals = {"self": defaultdict(float), "exclusive": defaultdict(float)}
        for span_id, (name, _, _, _, span_phase) in enumerate(self.spans):
            if span_phase == phase:
                totals["self"][name] += own[span_id]
                totals["exclusive"][name] += exclusive[span_id]
        return totals

    def calls(self, phase: str) -> dict[str, int]:
        """Number of spans per name."""
        totals = defaultdict(int)
        for name, _, _, _, span_phase in self.spans:
            if span_phase == phase:
                totals[name] += 1
        return totals

    def write(self, path) -> None:
        """Write the spans as JSON lines, one span per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, (name, start, end, parent, phase) in enumerate(self.spans):
                fh.write(json.dumps({"id": span_id, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "phase": phase}) + "\n")

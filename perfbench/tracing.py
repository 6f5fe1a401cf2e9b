"""Span recorder for the traced run.

It replaces the package functions that calling modules bound at import (for
example `ioht_pipeline.pipeline.select_samples`) with timing wrappers, and
wraps the `Trace.values`/`Trace.times` accessors and
`PipelineReport.to_json` the same way. Spans stay in memory until the run
ends. A name that no longer exists is skipped and simply yields no span.
"""
from __future__ import annotations

import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

# (span name, module the caller looks the name up in, attribute)
FUNCTIONS = (
    ("trace.load_csv", "ioht_pipeline", "load_csv"),
    ("trace.generate_trace", "ioht_pipeline", "generate_trace"),
    ("trace.generate_population", "ioht_pipeline", "generate_population"),
    ("inference.select_samples", "ioht_pipeline.pipeline", "select_samples"),
    ("inference.select_samples", "ioht_pipeline.experiments", "select_samples"),
    ("inference.reconstruct", "ioht_pipeline.pipeline", "reconstruct"),
    ("inference.reconstruct", "ioht_pipeline.experiments", "reconstruct"),
    ("inference.compute_metrics", "ioht_pipeline.pipeline", "compute_metrics"),
    ("inference.compute_metrics", "ioht_pipeline.experiments", "compute_metrics"),
    ("inference.gap_areas", "ioht_pipeline.inference", "gap_areas"),
    ("crypto.serialize_records", "ioht_pipeline.pipeline", "serialize_records"),
    ("crypto.encrypt", "ioht_pipeline.pipeline", "encrypt"),
    ("crypto.decrypt", "ioht_pipeline.pipeline", "decrypt"),
    ("crypto.parse_payload", "ioht_pipeline.pipeline", "parse_payload"),
    ("pipeline.run_pipeline", "ioht_pipeline", "run_pipeline"),
    ("dp.l1_sensitivity", "ioht_pipeline", "l1_sensitivity"),
    ("dp.noisy_query", "ioht_pipeline", "noisy_query"),
    ("dp.noisy_query", "ioht_pipeline.pipeline", "noisy_query"),
    ("dp.perturb_series", "ioht_pipeline.experiments", "perturb_series"),
    ("dp.derive_streams", "ioht_pipeline.pipeline", "derive_streams"),
    ("experiments.run_vr_sweep", "ioht_pipeline.experiments", "run_vr_sweep"),
    ("experiments.run_size_sweep", "ioht_pipeline.experiments", "run_size_sweep"),
    ("experiments.run_epsilon_sweep", "ioht_pipeline.experiments", "run_epsilon_sweep"),
)

# (span name, module, class, attribute): methods and property getters
CLASS_MEMBERS = (
    ("trace.values", "ioht_pipeline.trace", "Trace", "values"),
    ("trace.times", "ioht_pipeline.trace", "Trace", "times"),
    ("pipeline.to_json", "ioht_pipeline.pipeline", "PipelineReport", "to_json"),
)


def _kept(args, result):
    """(samples in, samples kept) of a select_samples call."""
    return len(args[0]), len(result)


def _ciphertext(args, result):
    return len(args[0]), len(result.ciphertext)


# Items in and out recorded at the boundary where the work happens.
COUNTERS = {"inference.select_samples": _kept, "crypto.encrypt": _ciphertext}

SETUP = "setup"


class Recorder:
    """Spans as [name, start, end, parent index, tag, items in, items out].

    `tag` is the op index, SETUP, or None while nothing should be recorded
    (warm-up and output checks).
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.tag = None
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if self.tag is None:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.tag, None, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if counter is not None:
                try:
                    span[5], span[6] = counter(args, result)
                except (TypeError, AttributeError, IndexError):
                    pass
            return result

        return traced

    def _replace(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, inspect.getattr_static(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        for name, modname, attr in FUNCTIONS:
            fn = getattr(sys.modules.get(modname), attr, None)
            if callable(fn):
                self._replace(sys.modules[modname], attr, self._wrap(name, fn))
            else:
                self.missing.append(f"{modname}.{attr}")
        for name, modname, clsname, attr in CLASS_MEMBERS:
            cls = getattr(sys.modules.get(modname), clsname, None)
            try:
                member = inspect.getattr_static(cls, attr) if cls is not None else None
            except AttributeError:
                member = None
            if isinstance(member, property) and member.fget is not None:
                self._replace(cls, attr, property(self._wrap(name, member.fget)))
            elif inspect.isfunction(member):
                self._replace(cls, attr, self._wrap(name, member))
            else:
                self.missing.append(f"{modname}.{clsname}.{attr}")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        """Write every span as one JSON line, times relative to the first."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for i, (name, start, end, parent, tag, n_in, n_out) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "start": start - origin, "end": end - origin,
                    "parent": parent, "tag": tag, "in": n_in, "out": n_out,
                }) + "\n")


class Summary:
    """Per-op and per-set-up totals of a recorder's spans."""

    def __init__(self, spans: list[list], ops: int) -> None:
        self.ops = max(ops, 1)
        child_time = defaultdict(float)
        for span in spans:
            if span[3] >= 0:
                child_time[span[3]] += span[2] - span[1]
        # (name, tag kind) -> [calls, seconds, self seconds, items in, items out]
        self._totals: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0, 0.0, 0, 0])
        for i, (name, start, end, _, tag, n_in, n_out) in enumerate(spans):
            kind = SETUP if tag == SETUP else "op"
            t = self._totals[name, kind]
            t[0] += 1
            t[1] += end - start
            t[2] += end - start - child_time[i]
            t[3] += n_in or 0
            t[4] += n_out or 0

    def _per_op(self, name: str, field: int) -> float:
        return self._totals[name, "op"][field] / self.ops if (name, "op") in self._totals else 0.0

    def calls(self, name: str) -> float:
        return self._per_op(name, 0)

    def ms(self, name: str) -> float:
        return 1000.0 * self._per_op(name, 1)

    def self_ms(self, name: str) -> float:
        return 1000.0 * self._per_op(name, 2)

    def items_in(self, name: str) -> float:
        return self._per_op(name, 3)

    def items_out(self, name: str) -> float:
        return self._per_op(name, 4)

    def setup_ms(self, name: str) -> float:
        """Time in `name` during the one traced set-up."""
        t = self._totals.get((name, SETUP))
        return 1000.0 * t[1] if t else 0.0

"""Span recording around the public functions of the lbpx modules.

The benchmark installs wrappers from the outside, so the program itself is
unchanged and untraced runs pay nothing. Every binding of a wrapped function
in any lbpx module namespace is replaced, which also catches calls made
inside the package (`from .classify import predict` in `cli`, module-global
calls such as `grid_descriptor` -> `grid_values`).
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

LAYERS = ("image", "lbp", "mapping", "descriptor", "classify", "detect", "evaluate", "cli")

# `detect.iou` runs once per candidate pair inside `nms` (hundreds of thousands
# of calls per scene); a span there would dominate the traced time, so `nms`
# is measured as a whole instead.
UNWRAPPED = {"detect.iou"}


def _window_count(args, result) -> dict:
    scene, window, stride = args["scene"], args["window"], args["stride"]
    nx = (scene.width - window[0]) // stride + 1
    ny = (scene.height - window[1]) // stride + 1
    return {"windows": nx * ny, "hits": len(result)}


# counters recorded at a span boundary, from the call's arguments and result
COUNTERS = {
    "image.load_pgm_file": lambda args, result: {"decoded_bytes": result.width * result.height},
    "lbp.lbp_map": lambda args, result: {"pixels_coded": result.labels.size},
    "detect.scan_detect": _window_count,
    "detect.nms": lambda args, result: {"kept": len(result)},
}


@dataclass
class Summary:
    durations: dict[str, list[float]]  # span name -> durations, seconds
    self_durations: dict[str, list[float]]  # span name -> self times, seconds
    ops: dict[int, dict]  # op id -> {"total": root time, "roots": names, "layers": self time by layer}


class Tracer:
    """Spans (name, start, end, parent index, op id) and per-op counters, in memory."""

    def __init__(self):
        self.spans: list = []
        self.counters: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.op = -1
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        count = COUNTERS.get(name)
        signature = inspect.signature(fn) if count else None
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)
            if count:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                for key, value in count(bound.arguments, result).items():
                    self.counters[self.op][key] += value
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Replace every lbpx binding of a public function by its traced wrapper."""
        import lbpx.mapping

        modules = [m for n, m in list(sys.modules.items()) if n == "lbpx" or n.startswith("lbpx.")]
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            module = sys.modules[f"lbpx.{layer}"]
            for attr, value in vars(module).items():
                name = f"{layer}.{attr}"
                if (
                    attr.startswith("_")
                    or name in UNWRAPPED
                    or isinstance(value, type)
                    or not callable(value)
                    or getattr(value, "__module__", None) != module.__name__
                ):
                    continue
                wrappers[id(value)] = self._wrap(name, value)
        restore = []
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    restore.append((module, attr, value))
                    setattr(module, attr, wrapper)
        table = lbpx.mapping.MappingTable
        restore.append((table, "apply", table.apply))
        table.apply = self._wrap("mapping.apply", table.apply)
        try:
            yield self
        finally:
            for owner, attr, value in reversed(restore):
                setattr(owner, attr, value)

    def begin_op(self, op_id: int) -> None:
        self.op = op_id

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(self.spans)]

    def summary(self) -> Summary:
        durations, self_durations = defaultdict(list), defaultdict(list)
        ops: dict[int, dict] = {}
        for (name, start, end, parent, op), own in zip(self.spans, self.self_times()):
            durations[name].append(end - start)
            self_durations[name].append(own)
            entry = ops.setdefault(op, {"total": 0.0, "roots": [], "layers": defaultdict(float)})
            if parent < 0:
                entry["total"] += end - start
                entry["roots"].append(name)
            entry["layers"][name.split(".", 1)[0]] += own
        return Summary(durations, self_durations, ops)

    def counter_total(self, key: str) -> float:
        return sum(c.get(key, 0.0) for c in self.counters.values())

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(
                    json.dumps({"op": op, "name": name, "start": start, "end": end, "parent": parent})
                    + "\n"
                )
            for op, counts in sorted(self.counters.items()):
                fh.write(json.dumps({"op": op, "counters": dict(counts)}) + "\n")

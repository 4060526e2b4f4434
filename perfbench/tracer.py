"""Outside-in tracer: spans around the public functions of each layer.

A layer is a module of the package.  Its public functions (plain functions
defined in the module, without a leading underscore) are wrapped, and every
module of the package that imported one of them by name gets the wrapper
too (for example `cuspsupport.springer_datum`).  The methods of
`ExponentMultiset` are wrapped as one group of the `lparams` layer.
Generator functions are left alone: their bodies run in the frame of
whoever iterates them, so that time counts for the caller.

Each call becomes a span with its parent and the index of the operation it
belongs to.  Per function the tracer sums calls, self time (duration minus
the time of child spans), inclusive time of the outermost call of the
function's group (so recursion is counted once), and exceptions that leave
the layer.  Sums are drained per chunk of operations so that the caller can
calibrate them; spans are kept in memory, up to a cap, and written out by
`write_spans`.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from array import array

PACKAGE = "cusp_atlas"
SPAN_CAP = 20000  # spans kept in memory and written out
LAYERS = ("cli", "orbits", "symbols", "springer", "lparams", "cuspsupport",
          "bernstein", "census", "verifications")

MULTISET_METHODS = ("__init__", "__eq__", "__hash__", "__len__", "__contains__",
                    "multiplicity", "union", "minus", "is_symmetric",
                    "nonnegative_half", "negated", "entries")
MULTISET_GROUP = "lparams.ExponentMultiset"

CALLS, SELF, INCL, ERRORS, OUTER = range(5)


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}
        self.counts = {"lparams.exponent_entries": 0}  # sum of a over block_exponents(label, a)
        self.stack: list[list] = []
        self.active: dict[str, int] = {}
        self.op = -1
        self.names: list[str] = []
        self.span_ids = array("q")    # span, parent, op, name index: four per span
        self.span_times = array("d")  # start, end: two per span
        self.next_span = 0
        originals: dict = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for name, fn in vars(module).items():
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__ or inspect.isgeneratorfunction(fn)):
                    continue
                key = f"{layer}.{name}"
                originals[fn] = self._wrap(layer, key, key, fn)
        self.bindings = []
        for modname, module in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in originals:
                    self.bindings.append((module, attr, value, originals[value]))
        cls = importlib.import_module(f"{PACKAGE}.lparams").ExponentMultiset
        for name in MULTISET_METHODS:
            fn = cls.__dict__[name]
            key = f"{MULTISET_GROUP}.{name}"
            self.bindings.append((cls, name, fn, self._wrap("lparams", key, MULTISET_GROUP, fn)))

    def install(self) -> None:
        for owner, attr, _, wrapper in self.bindings:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self.bindings:
            setattr(owner, attr, original)

    def _wrap(self, layer: str, key: str, group: str, fn):
        stat = self.stats.setdefault(key, [0, 0.0, 0.0, 0, 0])
        self.names.append(key)
        name_index = len(self.names) - 1
        stack, active, counts = self.stack, self.active, self.counts
        ids, times = self.span_ids, self.span_times
        counts_entries = key == "lparams.block_exponents"
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            depth = active.get(group, 0)
            active[group] = depth + 1
            span = tracer.next_span
            tracer.next_span = span + 1
            parent = stack[-1][2] if stack else -1
            frame = [0.0, layer, span]
            stack.append(frame)
            if counts_entries:
                counts["lparams.exponent_entries"] += args[1] if len(args) > 1 else kwargs["a"]
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                if len(stack) < 2 or stack[-2][1] != layer:
                    stat[ERRORS] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                active[group] = depth
                duration = t1 - t0
                stat[CALLS] += 1
                stat[SELF] += duration - frame[0]
                if depth == 0:
                    stat[INCL] += duration
                    stat[OUTER] += 1
                if stack:
                    stack[-1][0] += duration
                if len(times) < 2 * SPAN_CAP:
                    ids.extend((span, parent, tracer.op, name_index))
                    times.extend((t0, t1))

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", key)
        wrapper.__qualname__ = getattr(fn, "__qualname__", key)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def drain(self) -> tuple[dict, dict]:
        """Sums since the last drain, per function and of exponent entries; then reset."""
        stats = {key: list(v) for key, v in self.stats.items() if v[CALLS]}
        counts = dict(self.counts)
        for v in self.stats.values():
            v[:] = [0, 0.0, 0.0, 0, 0]
        for key in self.counts:
            self.counts[key] = 0
        return stats, counts

    def write_spans(self, path) -> int:
        """Write the kept spans as JSON lines (times in microseconds); return their number."""
        n = len(self.span_times) // 2
        origin = min(self.span_times[0::2]) if n else 0.0  # spans are kept as they end
        with open(path, "w", encoding="utf-8") as handle:
            for i in range(n):
                span, parent, op, name = self.span_ids[4 * i: 4 * i + 4]
                t0, t1 = self.span_times[2 * i: 2 * i + 2]
                handle.write(json.dumps({
                    "span": span, "parent": parent, "op": op, "name": self.names[name],
                    "start_us": round((t0 - origin) * 1e6, 3),
                    "dur_us": round((t1 - t0) * 1e6, 3)}) + "\n")
        return n

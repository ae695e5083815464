"""Call metering and span tracing of the spintomo modules, from outside the package.

Both work by rebinding names: every module namespace that holds a public
spintomo function (its defining module, the package root and any module that
imported it by name) gets a wrapper in its place, and ``uninstall`` puts the
originals back.  Nothing in the package itself is changed.

``Meter`` wraps only the three estimator entry points and records, per call,
the wall time and the shots of the returned ``RunStats``; it is cheap enough
to stay on while end-to-end metrics are measured.

``Tracer`` wraps every public function of every layer and records one span per
call (name, start, end, parent span), plus a few counts taken at the same
boundaries.  Self time of a span is its duration minus the time covered by its
direct children.
"""

from __future__ import annotations

import functools
import json
import time
import tracemalloc
import types

LAYERS = ("liouville", "frames", "spin", "estimator", "experiments", "serialize", "cli")
ESTIMATORS = ("estimate_continuous", "estimate_discrete", "estimate_weigert")


def _package_modules(pkg) -> list[types.ModuleType]:
    mods = [pkg]
    for layer in LAYERS:
        mod = getattr(pkg, layer, None)
        if mod is not None:
            mods.append(mod)
    return mods


def _public_functions(pkg, names=None) -> dict[object, str]:
    """Map each public function object of a layer to its '<layer>.<name>'."""
    found = {}
    for layer in LAYERS:
        mod = getattr(pkg, layer, None)
        if mod is None:
            continue
        for name, obj in vars(mod).items():
            if name.startswith("_") or not isinstance(obj, types.FunctionType):
                continue
            if obj.__module__ != mod.__name__:
                continue
            if names is not None and name not in names:
                continue
            found[obj] = f"{layer}.{name}"
    return found


class _Rebinder:
    """Swap functions for wrappers in every namespace that binds them."""

    def __init__(self, pkg):
        self.pkg = pkg
        self._saved: list[tuple[types.ModuleType, str, object]] = []

    def _wrap_all(self, targets: dict[object, str], make_wrapper) -> None:
        wrappers = {fn: make_wrapper(fn, label) for fn, label in targets.items()}
        for mod in _package_modules(self.pkg):
            for name, obj in list(vars(mod).items()):
                try:
                    wrapper = wrappers.get(obj)
                except TypeError:  # unhashable module attribute
                    continue
                if wrapper is not None:
                    self._saved.append((mod, name, obj))
                    setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        for mod, name, obj in reversed(self._saved):
            setattr(mod, name, obj)
        self._saved.clear()


class Meter(_Rebinder):
    """Wall time and shots of every successful estimator call of one round.

    ``calls`` maps (estimator, occurrence within the round) to (seconds,
    shots).  A call that raises is counted for the occurrence index but not
    recorded, so the keys of later calls stay the same in every round.
    """

    def __init__(self, pkg):
        super().__init__(pkg)
        self.calls: dict[tuple[str, int], tuple[float, int]] = {}
        self._seen: dict[str, int] = {}

    def reset(self) -> None:
        self.calls, self._seen = {}, {}

    def install(self) -> None:
        def make(fn, label):
            @functools.wraps(fn)
            def metered(*args, **kwargs):
                key = (label, self._seen.get(label, 0))
                self._seen[label] = key[1] + 1
                t0 = time.perf_counter()
                stats = fn(*args, **kwargs)
                self.calls[key] = (time.perf_counter() - t0, int(stats.n_samples))
                return stats

            return metered

        self._wrap_all(_public_functions(self.pkg, ESTIMATORS), make)


class Tracer(_Rebinder):
    """In-memory spans for every public function of every layer."""

    def __init__(self, pkg):
        super().__init__(pkg)
        self.spans: list[dict] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    def add(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def span(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called ``name``; exceptions are recorded and re-raised."""
        record = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "error": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            result = fn(*args, **kwargs)
        except Exception as err:
            record["error"] = type(err).__name__
            raise
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()
        self._count(name, args, kwargs, result)
        return result

    def _count(self, name, args, kwargs, result) -> None:
        if name.startswith("estimator.") and name[10:] in ESTIMATORS:
            self.add(f"{name}.samples", int(result.n_samples))
        elif name == "liouville.eig_hermitian":
            self.add(f"{name}.calls", 1)
        elif name == "frames.gram_schmidt_basis":
            kept_mask = result[1]
            self.add("frames.elements_in", len(kept_mask))
            self.add("frames.elements_kept", sum(kept_mask))
        elif name == "serialize.dumps":
            self.add("serialize.bytes_written", len(result.encode("utf-8")))
        elif name == "serialize.write_csv":
            path = args[0] if args else kwargs["path"]
            with open(path, "rb") as fh:
                self.add("serialize.bytes_written", len(fh.read()))

    def install(self) -> None:
        def make(fn, label):
            if label == "estimator.estimate_continuous":
                @functools.wraps(fn)
                def traced(*args, **kwargs):
                    tracemalloc.start()
                    try:
                        return self.span(label, fn, *args, **kwargs)
                    finally:
                        peak = tracemalloc.get_traced_memory()[1] / 2**20
                        tracemalloc.stop()
                        key = f"{label}.peak_traced_mb"
                        self.counts[key] = max(self.counts.get(key, 0.0), peak)
            else:
                @functools.wraps(fn)
                def traced(*args, **kwargs):
                    return self.span(label, fn, *args, **kwargs)

            return traced

        self._wrap_all(_public_functions(self.pkg), make)

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        totals: dict[str, float] = {}
        for s, covered in zip(self.spans, child_time):
            totals[s["name"]] = totals.get(s["name"], 0.0) + (s["end"] - s["start"] - covered)
        return totals

    def inclusive_times(self) -> dict[str, float]:
        totals: dict[str, float] = {}
        for s in self.spans:
            totals[s["name"]] = totals.get(s["name"], 0.0) + (s["end"] - s["start"])
        return totals

    def errors(self, name: str) -> int:
        return sum(1 for s in self.spans if s["name"] == name and s["error"] is not None)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)

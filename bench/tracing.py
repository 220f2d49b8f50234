"""Timing spans around calls into qlat's public functions, for the traced run.

The wrappers live here, outside the package. qlat's modules import names from
each other, so installing a wrapper rebinds every ``qlat.*`` module attribute
that refers to the wrapped function object, not only the defining one. Two
counters ride along: every ``numpy.linalg.eigh`` call, and every
``Projection.__post_init__`` (one per constructed projection, timed as its
validation).

Spans (name, start, end, parent) are appended to flat in-memory arrays and
turned into per-name calls, self time and total time when the run ends.
"""

from __future__ import annotations

import enum
import functools
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("numerics", "lattice", "measurement", "domains", "semantics", "experiments", "cli")
PROJECTION_VALIDATE = "numerics.Projection.__post_init__"


class Tracer:
    """In-memory span recorder with install/uninstall of qlat wrappers."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._open: list[int] = []  # per name: spans of that name now open
        self._open_layer = [0] * len(LAYERS)  # per layer: spans now open
        self.name = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.nested = array("b")  # 1 when an enclosing span has the same name
        self.layer_nested = array("b")  # 1 when an enclosing span is in the same layer
        self.current = -1
        self.eigh_calls = 0
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, fn, name: str):
        """Return ``fn`` wrapped in a span named ``name``."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._open.append(0)
        ident = self._ids[name]
        layer = LAYERS.index(name.split(".", 1)[0])
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        nested, layer_nested, open_, open_layer = (
            self.nested, self.layer_nested, self._open, self._open_layer
        )
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(names)
            outer = self.current
            names.append(ident)
            parents.append(outer)
            nested.append(open_[ident] > 0)
            layer_nested.append(open_layer[layer] > 0)
            ends.append(0)
            open_[ident] += 1
            open_layer[layer] += 1
            self.current = index
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                open_[ident] -= 1
                open_layer[layer] -= 1
                self.current = outer

        return traced

    def install(self) -> None:
        """Wrap the public functions and methods of every qlat layer."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        wrappers: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"qlat.{layer}")
            for attr, value in vars(module).items():
                if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(value):
                    wrappers[id(value)] = (value, self.wrap(value, f"{layer}.{attr}"))
                elif inspect.isclass(value) and not issubclass(value, enum.Enum):
                    self._wrap_methods(value, f"{layer}.{attr}")
        for module_name, module in list(sys.modules.items()):
            if module_name != "qlat" and not module_name.startswith("qlat."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, attr, hit[1])

        projection = sys.modules["qlat.numerics"].Projection
        self._patch(
            projection,
            "__post_init__",
            self.wrap(vars(projection)["__post_init__"], PROJECTION_VALIDATE),
        )
        eigh = np.linalg.eigh

        def counted_eigh(*args, **kwargs):
            self.eigh_calls += 1
            return eigh(*args, **kwargs)

        self._patch(np.linalg, "eigh", counted_eigh)

    def _wrap_methods(self, cls, prefix: str) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{prefix}.{attr}"
            if inspect.isfunction(raw):
                self._patch(cls, attr, self.wrap(raw, name))
            elif isinstance(raw, (classmethod, staticmethod)):
                self._patch(cls, attr, type(raw)(self.wrap(raw.__func__, name)))

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        """Restore every attribute that install replaced."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, self seconds, total seconds).

        Self time is a span's duration minus its child spans; total time
        counts only spans with no enclosing span of the same name, so
        recursion is not counted twice.
        """
        names = np.array(self.name, dtype=np.int64)
        parents = np.array(self.parent, dtype=np.int64)
        duration = np.array(self.end, dtype=np.int64) - np.array(self.start, dtype=np.int64)
        outermost = np.array(self.nested, dtype=bool) == 0
        children = np.zeros_like(duration)
        has_parent = parents >= 0
        np.add.at(children, parents[has_parent], duration[has_parent])
        count = len(self.names)
        calls = np.bincount(names, minlength=count)
        self_ns = np.bincount(names, weights=duration - children, minlength=count)
        total_ns = np.bincount(names[outermost], weights=duration[outermost], minlength=count)
        return {
            name: (int(calls[i]), float(self_ns[i]) / 1e9, float(total_ns[i]) / 1e9)
            for i, name in enumerate(self.names)
        }

    def layer_seconds(self) -> dict[str, float]:
        """Per layer: time inside calls into it, counting a call made from
        within the same layer once, so a layer's total includes the work
        it hands to lower layers."""
        layer_of = np.array([LAYERS.index(n.split(".", 1)[0]) for n in self.names], dtype=np.int64)
        layers = layer_of[np.array(self.name, dtype=np.int64)]
        duration = np.array(self.end, dtype=np.int64) - np.array(self.start, dtype=np.int64)
        outermost = np.array(self.layer_nested, dtype=bool) == 0
        seconds = np.bincount(layers[outermost], weights=duration[outermost], minlength=len(LAYERS))
        return {layer: float(seconds[i]) / 1e9 for i, layer in enumerate(LAYERS)}

    def root_seconds(self) -> float:
        """Summed duration of spans with no parent: the traced time covered."""
        parents = np.array(self.parent, dtype=np.int64)
        duration = np.array(self.end, dtype=np.int64) - np.array(self.start, dtype=np.int64)
        return float(duration[parents < 0].sum()) / 1e9

    def save(self, path) -> None:
        """Write the raw spans as a compressed numpy archive."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.array(self.name, dtype=np.int64),
            parent=np.array(self.parent, dtype=np.int64),
            start_ns=np.array(self.start, dtype=np.int64),
            end_ns=np.array(self.end, dtype=np.int64),
        )

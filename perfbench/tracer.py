"""Self-time spans around the public functions of the fundcomp modules.

`Tracer.install()` replaces every public function of the layer modules with a
timing wrapper, in its own module and in every layer module that imported it
by name (`theory.evaluate`, `experiments.evaluate`, ...), and `uninstall()`
puts the originals back. A span's self time is its duration minus the time of
the wrapped calls made inside it, so the self times of one CLI call add up to
the duration of its outermost span, `cli.main`.
"""

from __future__ import annotations

import importlib
import inspect
import tracemalloc
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("experiments", "signal_model", "activations", "spectral", "theory",
          "io", "cli")


def _layer_modules():
    return {name: importlib.import_module(f"fundcomp.{name}") for name in LAYERS}


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        # signal_model.evaluate: abscissae x terms; evaluate calls made inside
        # theory.adaptive_quadrature (one per Gauss-Kronrod panel)
        self.evaluate_points = 0
        self.quadrature_panels = 0
        self.stft_peak_bytes = 0
        self._stack: list[float] = []
        self._quadrature_depth = 0
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, key: str, fn):
        stack = self._stack

        def traced(*args, **kwargs):
            if key == "signal_model.evaluate":
                poly, t = args if len(args) == 2 else (args[0], kwargs["t"])
                self.evaluate_points += int(np.size(t)) * len(poly.terms)
                if self._quadrature_depth:
                    self.quadrature_panels += 1
            elif key == "theory.adaptive_quadrature":
                self._quadrature_depth += 1
            elif key == "spectral.stft":
                tracemalloc.start()
            stack.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                inner = stack.pop()
                self.self_s[key] += elapsed - inner
                self.calls[key] += 1
                if stack:
                    stack[-1] += elapsed
                if key == "theory.adaptive_quadrature":
                    self._quadrature_depth -= 1
                elif key == "spectral.stft":
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self.stft_peak_bytes = max(self.stft_peak_bytes, peak)

        return traced

    def install(self) -> None:
        modules = _layer_modules()
        wrappers = {}
        for layer, mod in modules.items():
            for name, obj in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{name}", obj)
        for mod in modules.values():
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._saved.append((mod, name, obj))
                    setattr(mod, name, wrappers[id(obj)])

    def uninstall(self) -> None:
        for mod, name, obj in reversed(self._saved):
            setattr(mod, name, obj)
        self._saved.clear()

    def snapshot(self) -> dict:
        return {"self_s": dict(self.self_s), "calls": dict(self.calls),
                "evaluate_points": self.evaluate_points,
                "quadrature_panels": self.quadrature_panels,
                "stft_peak_bytes": self.stft_peak_bytes}

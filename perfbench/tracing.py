"""Per-layer trace built from wrappers around each pfield module's public functions.

While a `Tracer` is installed, every public function defined in a layer module
is replaced by a wrapper reached through the module attribute, so both `cli`
and intra-module calls pass through it.  Nested calls are not kept as span
objects: each wrapper adds its own duration minus its children's to its
layer's self-time bucket and bumps a call counter, so a 10^5-point table
costs a few dict updates per call, not a span each.  The runner snapshots
the buckets per `cli.main` invocation, which gives one aggregated span per
operation.

Buckets: `cli` (main outside every other span), `cli.json_encode`
(`json.dumps` as called from cli), `cli.write` (`Path.write_text`), and one
per layer module.  Their sum accounts for the traced pass time.
"""

from __future__ import annotations

import importlib
import inspect
import json
import pathlib
import time
from typing import Any, Callable

LAYERS = ("boxmode", "timedep", "oscillator", "hydrogen", "nonlinear", "oracle",
          "verification")
BUCKETS = ("cli", "cli.json_encode", "cli.write") + LAYERS
SUPERPOSITION_METHODS = ("value", "d_dx", "d2_dx2", "d_dt")
GK15_EVALS = 15


class _JsonFromCli:
    """Stands in for the `json` module inside `pfield.cli` while tracing."""

    def __init__(self, dumps: Callable[..., str]):
        self.dumps = dumps

    def __getattr__(self, name: str) -> Any:
        return getattr(json, name)


class Tracer:
    """Self-time buckets and counters; `install()` patches, `uninstall()` restores."""

    def __init__(self) -> None:
        self.self_s = dict.fromkeys(BUCKETS, 0.0)
        self.counts: dict[str, float] = {}
        self._stack: list[float] = []
        self._patches: list[tuple[Any, str, Any]] = []

    def reset(self) -> None:
        for key in self.self_s:
            self.self_s[key] = 0.0
        self.counts.clear()

    def wrap(self, bucket: str, counter: str, fn: Callable) -> Callable:
        stack, self_s, counts, clock = self._stack, self.self_s, self.counts, time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                self_s[bucket] += duration - stack.pop()
                counts[counter] = counts.get(counter, 0) + 1
                if stack:
                    stack[-1] += duration
        return traced

    def _integrate(self, fn: Callable) -> Callable:
        """oracle.integrate, counting integrand evaluations, panels and failures."""
        counts = self.counts

        def integrate(f: Callable[[float], float], *args: Any, **kwargs: Any) -> float:
            evals = 0

            def counted(x: float) -> float:
                nonlocal evals
                evals += 1
                return f(x)

            ok = False
            try:
                value = fn(counted, *args, **kwargs)
                ok = True
                return value
            finally:
                panels = evals // GK15_EVALS
                counts["oracle.evals"] = counts.get("oracle.evals", 0) + evals
                counts["oracle.panels"] = counts.get("oracle.panels", 0) + panels
                if ok and panels:
                    # Bisection leaves a full binary tree: P panels, (P+1)/2 leaves accepted.
                    counts["oracle.accepted_panels"] = \
                        counts.get("oracle.accepted_panels", 0) + (panels + 1) // 2
                if not ok:
                    counts["oracle.failures"] = counts.get("oracle.failures", 0) + 1
        return self.wrap("oracle", "oracle.integrate", integrate)

    def _patch(self, owner: Any, name: str, new: Any) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, new)

    def install(self) -> None:
        from pfield import cli, oracle, timedep

        for layer in LAYERS:
            module = importlib.import_module(f"pfield.{layer}")
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or not inspect.isfunction(obj) \
                        or obj.__module__ != module.__name__:
                    continue
                if module is oracle and name == "integrate":
                    self._patch(module, name, self._integrate(obj))
                else:
                    self._patch(module, name, self.wrap(layer, layer, obj))
        for name in SUPERPOSITION_METHODS:
            self._patch(timedep.Superposition, name,
                        self.wrap("timedep", "timedep.superposition",
                                  getattr(timedep.Superposition, name)))
        self._patch(cli, "json", _JsonFromCli(self.wrap("cli.json_encode", "cli.json_encode",
                                                        json.dumps)))
        write_text = pathlib.Path.write_text
        counts = self.counts

        def counted_write(path: pathlib.Path, data: str, *args: Any, **kwargs: Any) -> int:
            size = len(data) if data.isascii() else len(data.encode(kwargs.get("encoding") or "utf-8"))
            counts["cli.bytes_written"] = counts.get("cli.bytes_written", 0) + size
            return write_text(path, data, *args, **kwargs)

        self._patch(pathlib.Path, "write_text", self.wrap("cli.write", "cli.write", counted_write))

    def uninstall(self) -> None:
        while self._patches:
            owner, name, old = self._patches.pop()
            setattr(owner, name, old)

"""Per-layer tracing installed from outside the program.

The benchmark never edits ``src/``: it wraps the public entry points of
each layer at the attribute its callers actually look up (callers import
functions by name, so ``repro.verifier.engine.compare`` is wrapped, not
only ``repro.automata.equivalence.compare``).  Every wrapper records a
span; spans are aggregated in memory per name as ``calls``, ``total_s``
and ``self_s`` (the span's duration minus the time its child spans on the
same thread cover), and read out once when the run ends.

``GraphStore.intern`` is called millions of times on a 20k-class sweep,
where a timed span would dominate the tracing overhead, so it only counts
calls.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time

#: Span name -> wrapped targets, each ``(module, attribute path)``.
SPANS: dict[str, list[tuple[str, str]]] = {
    "network.bgp.compute": [("repro.network.bgp", "BGPComputation.compute")],
    "network.fib.build_fibs": [("repro.network.simulator", "build_fibs")],
    "network.igp.costs_from": [("repro.network.igp", "IgpCostCache.costs_from")],
    "network.simulator.snapshot": [("repro.network.simulator", "Simulator.snapshot")],
    "snapshots.derive_snapshot": [("repro.network.simulator", "Simulator.derive_snapshot")],
    "snapshots.changed_routers": [("repro.network.simulator", "Simulator.changed_routers")],
    "verifier.session.advance": [("repro.verifier.session", "VerificationSession.advance")],
    "verifier.session.rebase": [("repro.verifier.session", "VerificationSession.rebase")],
    "verifier.engine.compile_spec": [("repro.verifier.session", "compile_spec")],
    "rir.compile_rel_lazy": [("repro.verifier.engine", "compile_rel_lazy")],
    "automata.image": [
        ("repro.automata.fst", "FST.image"),
        ("repro.automata.lazy", "LazyFST.image"),
    ],
    "automata.compare": [
        ("repro.verifier.engine", "compare"),
        ("repro.rir.checker", "compare"),
    ],
    "verifier.runtime.execute_checks": [
        ("repro.verifier.engine", "execute_checks"),
        ("repro.serve.pool", "execute_checks"),
    ],
    "persist.checkpoint.record_unit": [("repro.persist.checkpoint", "Checkpoint.record_unit")],
    "serve.protocol.decode_snapshot": [("repro.serve.protocol", "decode_snapshot")],
    "serve.host.advance": [("repro.serve.host", "SessionHost.advance")],
    "serve.pool.execute": [("repro.serve.pool", "PoolManager.execute")],
}

#: Entry points whose calls are counted but not timed.
COUNTERS: dict[str, list[tuple[str, str]]] = {
    "snapshots.graphstore.intern": [("repro.snapshots.graphstore", "GraphStore.intern")],
}

#: Layer of each span, for the share-of-self-time summary.
LAYERS = {
    "network": ("network.",),
    "snapshots": ("snapshots.",),
    "verifier.session": ("verifier.session.", "verifier.engine."),
    "rir+automata": ("rir.", "automata.", "verifier.runtime."),
    "persist": ("persist.",),
    "serve": ("serve.",),
}


class Tracer:
    """In-memory span aggregation, safe to use from many threads."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._stats: dict[str, list[float]] = {}
        self._counts: dict[str, int] = {}

    def reset(self) -> None:
        """Forget everything recorded so far (the measured window starts).

        Lock-free, so a signal handler may call it: the wrappers look the
        tables up afresh on every update.
        """
        self._stats = {}
        self._counts = {}

    def snapshot(self) -> dict[str, dict[str, float]]:
        """``{name: {"calls", "total_s", "self_s"}}`` for every known name."""
        out: dict[str, dict[str, float]] = {}
        with self._lock:
            for name in SPANS:
                calls, total, own = self._stats.get(name, (0, 0.0, 0.0))
                out[name] = {"calls": int(calls), "total_s": total, "self_s": own}
            for name in COUNTERS:
                out[name] = {"calls": self._counts.get(name, 0)}
        return out

    def _stack(self) -> list[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            stack.append(0.0)
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - started
                children = stack.pop()
                if stack:
                    stack[-1] += duration
                with self._lock:
                    stats = self._stats.get(name)
                    if stats is None:
                        stats = self._stats[name] = [0, 0.0, 0.0]
                    stats[0] += 1
                    stats[1] += duration
                    stats[2] += duration - children

        return wrapper

    def counter(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self._lock:
                self._counts[name] = self._counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every entry point in :data:`SPANS` and :data:`COUNTERS`."""
        for table, make in ((SPANS, self.span), (COUNTERS, self.counter)):
            for name, targets in table.items():
                for module_name, path in targets:
                    owner = importlib.import_module(module_name)
                    *parents, attribute = path.split(".")
                    for parent in parents:
                        owner = getattr(owner, parent)
                    setattr(owner, attribute, make(name, getattr(owner, attribute)))


def span_metrics(spans: dict[str, dict[str, float]]) -> dict[str, dict]:
    """Flatten a :meth:`Tracer.snapshot` into ``{metric: {"value", "unit"}}``."""
    metrics: dict[str, dict] = {}
    for name, stats in spans.items():
        metrics[f"{name}.calls"] = {"value": stats["calls"], "unit": "count"}
        if "self_s" in stats:
            metrics[f"{name}.self_s"] = {"value": stats["self_s"], "unit": "s"}
    return metrics


def layer_shares(spans: dict[str, dict[str, float]]) -> dict[str, float]:
    """Each layer's share of the summed self time of every span."""
    total = sum(stats.get("self_s", 0.0) for stats in spans.values())
    shares = {}
    for layer, prefixes in LAYERS.items():
        own = sum(
            stats.get("self_s", 0.0)
            for name, stats in spans.items()
            if name.startswith(prefixes)
        )
        shares[layer] = own / total if total else 0.0
    return shares

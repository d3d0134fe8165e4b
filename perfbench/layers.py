"""The traced run: spans around the public functions of each engine layer.

Nothing here touches the engine's source.  :class:`Tracer` replaces a fixed
list of module attributes and class methods with timing wrappers while it
is installed, and restores the originals when it is removed.  Each call
records one span — name, start, end, parent span, query id — in memory;
spans are written out once, when the run ends.

Only code running in this process is traced: the parent side of the
process pool (dispatch and publishing) and the in-process server's engine
threads.  Work inside pool worker processes is not.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    query: Optional[int]
    #: Per-layer counts measured at the call (paths, bytes, fallbacks, ...).
    counts: dict = field(default_factory=dict)


def _frame_bytes(protocol, header: dict, blob: bytes) -> int:
    payload = json.dumps(header, separators=(",", ":"), ensure_ascii=False).encode()
    return protocol._FRAME.size + protocol._FRAME_CRC.size + len(payload) + len(blob)


def _counts_volume(result, args, kwargs) -> dict:
    return {"fallbacks": int(result.lo != result.hi)}


def _counts_paths(position: int, sized: bool) -> Callable:
    def counts(result, args, kwargs) -> dict:
        return {"paths": len(args[position]) if sized else 1}
    return counts


def _counts_compile(result, args, kwargs) -> dict:
    return {"paths": result.path_count}


def _counts_publish(result, args, kwargs) -> dict:
    return {"bytes": 0 if result is None else int(result.nbytes)}


def _targets() -> list[tuple[str, object, str, Optional[Callable]]]:
    """``(span name, owner, attribute, counts)`` for every traced call site."""
    from repro.analysis import box_analyzer, linear_analyzer, model, parallel, refine
    from repro.lang import parser
    from repro.polytope import highs, polytope
    from repro.service import client, protocol, server
    from repro.symbolic import execute

    def counts_send(result, args, kwargs) -> dict:
        header = args[1]
        blob = args[2] if len(args) > 2 else kwargs.get("blob", b"")
        return {"frames": 1, "bytes": _frame_bytes(protocol, header, blob)}

    def counts_recv(result, args, kwargs) -> dict:
        header, blob = result
        return {"frames": 1, "bytes": _frame_bytes(protocol, header, blob)}

    executor = parallel.ParallelAnalysisExecutor
    sites = [
        ("polytope.volume", polytope.Polytope, "volume_bounds", _counts_volume),
        ("polytope.chebyshev", polytope.Polytope, "chebyshev_center", None),
        ("qhull.hull", polytope, "ConvexHull", None),
        ("qhull.halfspace", polytope, "HalfspaceIntersection", None),
        ("highs.prepare", highs.PreparedLP, "__init__", None),
        ("highs.solve", highs.PreparedLP, "solve", None),
        ("geometry.volume", linear_analyzer.GeometryCache, "volume", None),
        ("geometry.volume", linear_analyzer.GeometryCache, "volume_restricted", None),
        ("lang.parse", parser, "parse", None),
        ("lang.parse", server, "parse", None),
        ("symbolic.compile", model.CompiledProgram, "compile", _counts_compile),
        ("typesystem.infer", execute, "infer_weighted_type", None),
        ("refine.round", refine.RefinementScheduler, "refine_round", None),
        ("parallel.dispatch", executor, "analyze_contributions", None),
        ("parallel.dispatch", executor, "analyze_refinement_jobs", None),
        ("parallel.dispatch", executor, "analyze_stream", None),
        ("transport.publish", parallel, "publish_arena_image", _counts_publish),
        ("transport.publish", parallel, "create_arena_segment", _counts_publish),
        ("transport.publish", parallel, "create_context_segment", _counts_publish),
        ("protocol.send", client, "send_frame", counts_send),
        ("protocol.recv", client, "recv_frame", counts_recv),
    ]
    for layer, analyzer in (
        ("linear.analyze", linear_analyzer.LinearPathAnalyzer),
        ("box.analyze", box_analyzer.BoxPathAnalyzer),
    ):
        sites += [
            (layer, analyzer, "analyze", _counts_paths(1, False)),
            (layer, analyzer, "analyze_batch", _counts_paths(1, True)),
            (layer, analyzer, "analyze_table", _counts_paths(2, True)),
        ]
    return sites


class Tracer:
    """Installs span-recording wrappers; a no-op until :meth:`install`."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: Id of the request in flight, stamped on every span it causes.
        self.query: Optional[int] = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._sites = _targets()
        self._saved: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, function: Callable, counts: Optional[Callable]):
        tracer = self

        @functools.wraps(function, updated=())
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack and tracer.spans[stack[-1]].name == name:
                # A layer calling its own entry point again (e.g. a batch
                # analyze delegating to per-path analyze) is one span.
                return function(*args, **kwargs)
            # A refinement round reports its work only as a scheduler counter.
            before = args[0].paths_refined if name == "refine.round" else 0
            span = Span(name, time.perf_counter(), 0.0, stack[-1] if stack else None, tracer.query)
            with tracer._lock:
                tracer.spans.append(span)
                index = len(tracer.spans) - 1
            stack.append(index)
            try:
                result = function(*args, **kwargs)
            finally:
                stack.pop()
                span.end = time.perf_counter()
            if counts is not None:
                span.counts = counts(result, args, kwargs)
            if name == "refine.round":
                span.counts = {"paths": args[0].paths_refined - before}
            return result

        return traced

    def install(self) -> None:
        if self._saved:
            return
        for name, owner, attribute, counts in self._sites:
            raw = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
            self._saved.append((owner, attribute, raw))
            if isinstance(raw, classmethod):
                replacement = classmethod(self._wrap(name, raw.__func__, counts))
            else:
                replacement = self._wrap(name, raw, counts)
            setattr(owner, attribute, replacement)

    def remove(self) -> None:
        for owner, attribute, raw in reversed(self._saved):
            setattr(owner, attribute, raw)
        self._saved.clear()

    # ------------------------------------------------------------------
    def self_seconds(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [span.end - span.start for span in self.spans]
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.end - span.start
        return own

    def dump(self, path) -> None:
        """Write every span, with its self time, as JSON lines."""
        own = self.self_seconds()
        origin = self.spans[0].start if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "name": span.name, "query": span.query,
                    "parent": span.parent, "start": span.start - origin,
                    "end": span.end - origin, "self": own[index], **span.counts,
                }) + "\n")

    def summary(self) -> dict:
        """Per-layer totals: calls, seconds, self seconds and summed counts."""
        own = self.self_seconds()
        layers: dict = defaultdict(lambda: defaultdict(float))
        for index, span in enumerate(self.spans):
            layer = layers[span.name]
            layer["calls"] += 1
            layer["s"] += span.end - span.start
            layer["self_s"] += own[index]
            for key, value in span.counts.items():
                layer[key] += value
            if span.name == "polytope.volume" and span.parent is not None:
                if self.spans[span.parent].name == "geometry.volume":
                    layers["geometry.volume"]["misses"] += 1
        return layers


def layer_metrics(tracer: Tracer, traced_queries: int) -> dict[str, float]:
    """The per-layer metrics of one traced run, per traced request.

    Counts and seconds are divided by the number of traced requests so runs
    of different lengths compare; ratios are taken over the whole run.
    """
    layers = tracer.summary()
    per = 1.0 / max(traced_queries, 1)

    def total(layer: str, key: str) -> float:
        return float(layers.get(layer, {}).get(key, 0.0))

    metrics: dict[str, float] = {}
    for layer in ("polytope.volume", "polytope.chebyshev", "qhull.hull", "qhull.halfspace",
                  "highs.prepare", "highs.solve", "lang.parse", "symbolic.compile",
                  "typesystem.infer", "parallel.dispatch"):
        metrics[f"{layer}.calls"] = total(layer, "calls") * per
        metrics[f"{layer}.s"] = total(layer, "s") * per
    for layer in ("polytope.volume", "qhull.hull", "highs.solve", "linear.analyze",
                  "box.analyze", "symbolic.compile", "refine.round", "parallel.dispatch"):
        metrics[f"{layer}.self_s"] = total(layer, "self_s") * per
    metrics["polytope.volume.fallbacks"] = total("polytope.volume", "fallbacks") * per
    lookups = total("geometry.volume", "calls")
    metrics["geometry.volume.lookups"] = lookups * per
    metrics["geometry.volume.hit_ratio"] = (
        (lookups - total("geometry.volume", "misses")) / lookups if lookups else 0.0
    )
    metrics["symbolic.paths"] = total("symbolic.compile", "paths") * per
    for layer in ("linear.analyze", "box.analyze"):
        metrics[f"{layer}.paths"] = total(layer, "paths") * per
        metrics[f"{layer}.s"] = total(layer, "s") * per
    metrics["refine.rounds"] = total("refine.round", "calls") * per
    metrics["refine.paths"] = total("refine.round", "paths") * per
    metrics["refine.s"] = total("refine.round", "s") * per
    metrics["transport.publish.calls"] = total("transport.publish", "calls") * per
    metrics["transport.publish.bytes"] = total("transport.publish", "bytes") * per
    metrics["protocol.frames"] = (
        total("protocol.send", "frames") + total("protocol.recv", "frames")
    ) * per
    metrics["protocol.bytes"] = (
        total("protocol.send", "bytes") + total("protocol.recv", "bytes")
    ) * per
    return metrics

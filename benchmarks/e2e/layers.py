"""Per-layer spans for the traced run of the end-to-end benchmark.

The benchmark times each layer from the outside: :func:`install` replaces
the public callables listed in :func:`targets` with wrappers that record
one span per call, and :func:`uninstall` puts the originals back.  No file
of the program changes, and the program's own tracer (``repro.obs``) stays
off, so the spans cost only the wrapper calls.

A span holds its layer, start and end, its parent span and the id of the
timed operation it ran under.  Parents are tracked per thread, so the
service workload's two client threads build separate trees.  A span's
self time is its duration minus the durations of its direct children.
Summed over one operation's tree, the self times telescope to the
operation's wall time; the operation span's own self time is the part no
wrapped layer covers (the unattributed time).
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import threading
import time
from collections import defaultdict

__all__ = ["Recorder", "install", "uninstall", "summarise",
           "LAYER_ORDER"]

#: report order of the layers
LAYER_ORDER = ("import", "parse", "db.store", "db", "db.txn",
               "query.engine", "query.source", "query.operator",
               "query.combiner", "query.output", "pushdown",
               "qcache.probe", "qcache.put", "qcache.prune", "output",
               "service.admit", "service", "service.access")


class _Span:
    __slots__ = ("id", "parent", "op", "layer", "start", "end", "error",
                 "attrs")

    def __init__(self, span_id, parent, op, layer):
        self.id = span_id
        self.parent = parent
        self.op = op
        self.layer = layer
        self.start = self.end = 0.0
        self.error = False
        self.attrs = None

    def as_dict(self) -> dict:
        return {"id": self.id, "parent": self.parent, "op": self.op,
                "layer": self.layer, "start": self.start,
                "end": self.end, "error": self.error,
                **(self.attrs or {})}


class Recorder:
    """Collects spans in memory; thread-safe."""

    def __init__(self):
        self.spans: list[_Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[_Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, layer: str, *, operation: bool = False):
        """A span below the thread's innermost open span.  An operation
        span starts a tree of its own: its id is the tree's operation id."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = _Span(next(self._ids), parent and parent.id,
                     parent and parent.op, layer)
        if operation:
            span.op = span.id
        stack.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        except BaseException:
            span.error = True
            raise
        finally:
            span.end = time.perf_counter()
            stack.pop()
            self.spans.append(span)

    @contextlib.contextmanager
    def operation(self, kind: str):
        """Root span of one timed operation of the workload."""
        with self.span("op", operation=True) as span:
            span.attrs = {"kind": kind}
            yield span

    def call(self, layer, annotate, fn, args, kwargs):
        with self.span(layer(args) if callable(layer) else layer) as span:
            result = fn(*args, **kwargs)
        if annotate is not None:
            span.attrs = annotate(args, result)
        return result

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.as_dict()) + "\n")


# -- what gets wrapped ------------------------------------------------------

def _rows(args, result):
    if isinstance(result, list):
        return {"rows": len(result)}
    return {"rows": 0 if result is None else 1}


def _commit(args, result):
    return {"commits": 1}


def _parse_bytes(args, result):
    return {"bytes": len(args[1])}  # extract(self, text, filename, vars)


def _saved(args, result):
    plan, tail = args[2], args[3]  # run_fused_group(ctx, graph, plan, tail)
    return {"saved": len(plan.groups[tail]) - 1}


def _output_bytes(args, result):
    return {"bytes": sum(len(a.content) for a in result)}


def _element_layer(args):
    return "query." + args[0].kind


def targets():
    """``(layer, owner, attribute names, annotate)`` for every wrapped
    callable.  ``layer`` may be a function of the call's arguments."""
    from repro.core.experiment import Experiment
    from repro.db.memory_backend import MemoryDatabase
    from repro.db.schema import BatchContext, ExperimentStore
    from repro.db.sqlite_backend import SQLiteDatabase
    from repro.output.base import available_formats, get_format
    from repro.parse.description import InputDescription
    from repro.parse.importer import Importer
    from repro.query import engine
    from repro.query.cache import QueryCache
    from repro.query.elements import QueryElement
    from repro.service.core import ExperimentService, Session

    statements = ("execute", "executemany", "fetchall", "fetchone")
    session_ops = tuple(name for name, value in vars(Session).items()
                        if callable(value) and not name.startswith("_")
                        and name != "close")
    found = [
        ("import", Importer, ("import_files", "import_text"), None),
        ("parse", InputDescription, ("extract",), _parse_bytes),
        ("db.store", BatchContext, ("store_run", "flush"), None),
        ("db.store", ExperimentStore, ("store_run", "run_records"), None),
        ("query.engine", engine.Query, ("execute",), None),
        (_element_layer, QueryElement, ("execute",), None),
        # the engine calls the name it imported, not the module attribute
        ("pushdown", engine, ("run_fused_group",), _saved),
        ("qcache.probe", QueryCache, ("lookup", "lookup_structural",
                                      "load"), None),
        ("qcache.put", QueryCache, ("put",), None),
        ("qcache.prune", QueryCache, ("prune_stale",), None),
        ("service.admit", ExperimentService, ("session",), None),
        ("service", Session, session_ops, None),
        ("service.access", Experiment, ("reload_access",), None),
    ]
    for backend in (SQLiteDatabase, MemoryDatabase):
        found.append(("db", backend, statements, _rows))
        found.append(("db.txn", backend, ("commit",), _commit))
        found.append(("db.txn", backend, ("rollback", "begin"), None))
    for name in available_formats():
        found.append(("output", type(get_format(name)), ("render",),
                      _output_bytes))
    return found


def install(recorder: Recorder) -> list:
    """Wrap every target; returns what :func:`uninstall` needs."""
    saved = []
    for layer, owner, names, annotate in targets():
        for name in names:
            original = vars(owner)[name]  # must be defined right there
            wrapper = _wrapper(recorder, layer, annotate, original)
            setattr(owner, name, wrapper)
            saved.append((owner, name, original))
    return saved


def uninstall(saved: list) -> None:
    for owner, name, original in reversed(saved):
        setattr(owner, name, original)


def _wrapper(recorder, layer, annotate, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return recorder.call(layer, annotate, fn, args, kwargs)
    return wrapper


# -- summary ------------------------------------------------------------------

def summarise(spans: list[_Span]) -> dict:
    """Per-layer totals over the spans of timed operations.

    Returns ``{"layers": {layer: {"calls", "self_s", "errors",
    "error_s", "rows", "bytes", "saved", "commits"}}, "ops": n,
    "op_wall_s": s, "op_s": s, "unattributed_s": s,
    "max_identity_error": e}``.  ``error_s`` is the time spent in calls
    that raised.  Times other than ``op_wall_s`` are at the reference host
    speed: each span's time is multiplied by the ``scale`` attribute of
    its operation's span (1 where there is none).  The identity error is
    the largest relative gap, over operations, between an operation's
    wall time and the sum of the self times in its tree.
    """
    child_s: dict[int, float] = defaultdict(float)
    scale: dict[int, float] = {}
    for span in spans:
        if span.parent is not None:
            child_s[span.parent] += span.end - span.start
        if span.layer == "op":
            scale[span.id] = span.attrs.get("scale", 1.0)
    layers: dict[str, dict] = {}
    op_wall: dict[int, float] = {}
    op_sum: dict[int, float] = defaultdict(float)
    unattributed = 0.0
    for span in spans:
        if span.op is None:
            continue  # outside any timed operation
        duration = span.end - span.start
        self_s = duration - child_s[span.id]
        op_sum[span.op] += self_s
        if span.layer == "op":
            op_wall[span.id] = duration
            unattributed += self_s * scale[span.id]
            continue
        entry = layers.setdefault(span.layer, {
            "calls": 0, "self_s": 0.0, "errors": 0, "error_s": 0.0,
            "rows": 0, "bytes": 0, "saved": 0, "commits": 0})
        entry["calls"] += 1
        entry["self_s"] += self_s * scale[span.op]
        if span.error:
            entry["errors"] += 1
            entry["error_s"] += duration * scale[span.op]
        for key, value in (span.attrs or {}).items():
            entry[key] += value
    identity = max((abs(op_sum[op] - wall) / wall
                    for op, wall in op_wall.items() if wall > 0),
                   default=0.0)
    return {"layers": layers, "ops": len(op_wall),
            "op_wall_s": sum(op_wall.values()),
            "op_s": sum(wall * scale[op] for op, wall in op_wall.items()),
            "unattributed_s": unattributed,
            "max_identity_error": identity}

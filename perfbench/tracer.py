"""Spans around the calls the `bss` layers make into one another.

The tracer replaces module-level bindings from outside the package: for each
traced function it swaps every `bss.*` module attribute that refers to that
function for a wrapper, so a call through `bss.cli.simulate`,
`bss.harness.simulate` or `bss.simulator.simulate` (the last one also covers
calls made inside the simulator module, which resolve through its globals)
records one span. Nothing under `src/bss` changes; `uninstall` puts the
original objects back.

A span holds its name, start, end and parent. Spans are kept in memory in
one buffer per thread and merged when the traced pass ends. Spans opened on
a worker thread with nothing open below them adopt the span that is open on
the main thread at that moment, so the sweep's pool work nests under the CLI
call that started the pool.
"""

from __future__ import annotations

import inspect
import itertools
import threading
import time
from array import array
from contextlib import contextmanager

import numpy as np

# Layers in the order the package documents them; the span name of a traced
# function is "<layer>.<function>".
LAYERS = ("model", "simulator", "meanfield", "diffusion", "equilibrium",
          "ingestion", "harness", "cli")

# Public functions that are not traced. They run once per CTMC event or ODE
# stage, where a span would cost more than the call and distort the
# engine's time in the traced pass.
UNTRACED = {
    "model": ("choice_weight", "arrival_rate"),
}

# Private kernels that are traced as well: the constant-rate RK4 route
# evaluates its drift only through this function.
EXTRA = {
    "meanfield": ("_drift_into",),
}

# Leaf kernels, called hundreds of thousands of times per pass. Their spans
# skip the thread CPU clock, which costs a system call.
LEAVES = {"meanfield.drift", "meanfield.drift_hetero", "meanfield._drift_into",
          "diffusion.jacobian", "diffusion.bracket_matrix"}


class _Buffer:
    """Span records of one thread, appended when each span closes."""

    def __init__(self, thread_index: int):
        self.thread_index = thread_index
        self.stack: list[int] = []
        self.ids = array("q")
        self.names = array("l")
        self.parents = array("q")
        self.t0 = array("d")
        self.t1 = array("d")
        self.c0 = array("d")
        self.c1 = array("d")

    def record(self, sid, nid, parent, t0, t1, c0, c1):
        self.ids.append(sid)
        self.names.append(nid)
        self.parents.append(parent)
        self.t0.append(t0)
        self.t1.append(t1)
        self.c0.append(c0)
        self.c1.append(c1)


class Tracer:
    """Span recorder plus the binding swaps that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        self._buffers_lock = threading.Lock()
        self._main_buffer = self._buffer()
        self.payload: dict[int, dict] = {}
        self._saved: list[tuple[object, str, object]] = []

    # ---------------------------------------------------------- recording

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            with self._buffers_lock:
                nid = self._name_ids.setdefault(name, len(self.names))
                if nid == len(self.names):
                    self.names.append(name)
        return nid

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            with self._buffers_lock:
                buf = _Buffer(len(self._buffers))
                self._buffers.append(buf)
            self._local.buf = buf
        return buf

    def _parent(self, buf: _Buffer) -> int:
        if buf.stack:
            return buf.stack[-1]
        if buf is not self._main_buffer and self._main_buffer.stack:
            return self._main_buffer.stack[-1]
        return 0

    @contextmanager
    def span(self, name: str):
        """Span opened by the benchmark itself, such as one task's timed call."""
        buf = self._buffer()
        nid = self._name_id(name)
        sid = next(self._ids)
        parent = self._parent(buf)
        buf.stack.append(sid)
        c0 = time.thread_time()
        t0 = time.perf_counter()
        try:
            yield sid
        finally:
            t1 = time.perf_counter()
            c1 = time.thread_time()
            buf.stack.pop()
            buf.record(sid, nid, parent, t0, t1, c0, c1)

    def _wrap(self, fn, name: str, probe=None, namefn=None):
        tracer = self
        leaf = name in LEAVES
        fixed_nid = self._name_id(name)
        perf_counter = time.perf_counter
        thread_time = time.thread_time
        nan = float("nan")
        signature = inspect.signature(fn) if probe is not None else None

        def traced(*args, **kwargs):
            buf = tracer._buffer()
            nid = fixed_nid if namefn is None else tracer._name_id(namefn(args))
            sid = next(tracer._ids)
            parent = tracer._parent(buf)
            buf.stack.append(sid)
            c0 = nan if leaf else thread_time()
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                c1 = nan if leaf else thread_time()
                buf.stack.pop()
                buf.record(sid, nid, parent, t0, t1, c0, c1)
            if probe is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                tracer.payload[sid] = probe(bound.arguments, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # ------------------------------------------------------- binding swaps

    def install(self, modules: dict, probes: dict, namefns: dict) -> int:
        """Swap every binding of each traced function; returns the swap count.

        modules maps each layer name, and "bss" for the package, to its
        imported module. probes maps a span name to probe(arguments, result),
        whose dict of counts is kept per span; namefns maps a span name to a
        function of the positional arguments that names each span instead.
        """
        wrappers = {}
        for layer in LAYERS:
            mod = modules[layer]
            public = [n for n in getattr(mod, "__all__", ())
                      if n not in UNTRACED.get(layer, ())]
            for attr in public + list(EXTRA.get(layer, ())):
                fn = getattr(mod, attr)
                if not callable(fn) or isinstance(fn, type):
                    continue
                if getattr(fn, "__module__", None) != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrappers[id(fn)] = (fn, self._wrap(
                    fn, name, probes.get(name), namefns.get(name)))
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        return len(self._saved)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved.clear()

    # ------------------------------------------------------------ results

    def spans(self) -> dict:
        """All recorded spans as parallel numpy arrays, sorted by span id."""
        cols = {k: [] for k in ("id", "name", "parent", "t0", "t1", "c0",
                                "c1", "thread")}
        for buf in self._buffers:
            cols["id"].append(np.frombuffer(buf.ids, dtype=np.int64))
            cols["name"].append(np.frombuffer(buf.names, dtype=np.int64))
            cols["parent"].append(np.frombuffer(buf.parents, dtype=np.int64))
            for key in ("t0", "t1", "c0", "c1"):
                cols[key].append(np.frombuffer(getattr(buf, key), dtype=float))
            cols["thread"].append(np.full(len(buf.ids), buf.thread_index))
        out = {k: np.concatenate(v) if v else np.zeros(0) for k, v in cols.items()}
        order = np.argsort(out["id"], kind="stable")
        return {k: v[order].copy() for k, v in out.items()}


def _union_length(intervals) -> float:
    total = 0.0
    end = -np.inf
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def parent_index(sp: dict) -> np.ndarray:
    """Row of each span's parent in the id-sorted arrays, -1 for a root."""
    ids = sp["id"]
    idx = np.minimum(np.searchsorted(ids, sp["parent"]), max(ids.size - 1, 0))
    found = ids.size > 0 and ids[idx] == sp["parent"]
    return np.where(found, idx, -1)


def self_times(sp: dict) -> np.ndarray:
    """Wall self time of every span: its duration minus the part of it that
    its child spans cover.

    Children on the parent's own thread run one after another, so they
    cover the sum of their durations. Children adopted from pool threads
    overlap one another; they cover the union of their intervals, and the
    self times of every span on those threads inside the parent are scaled
    by that union over the children's summed durations, so that the self
    times of all spans add up to the wall time of the root spans.
    """
    n = sp["id"].size
    dur = sp["t1"] - sp["t0"]
    par = parent_index(sp)
    has_parent = par >= 0
    same = has_parent & (sp["thread"] == sp["thread"][np.maximum(par, 0)])
    own = dur - np.bincount(par[same], weights=dur[same], minlength=n)
    adopted = np.flatnonzero(has_parent & ~same)
    for p in np.unique(par[adopted]):
        kids = adopted[par[adopted] == p]
        covered = _union_length(zip(sp["t0"][kids], sp["t1"][kids]))
        own[p] -= covered
        summed = float(dur[kids].sum())
        if summed > 0.0:
            inside = (np.isin(sp["thread"], sp["thread"][kids])
                      & (sp["t0"] >= sp["t0"][p]) & (sp["t1"] <= sp["t1"][p]))
            own[inside] *= covered / summed
    return own

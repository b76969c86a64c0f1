"""Span tracer that wraps the reasm layers' public functions from outside.

``install`` replaces every public function of each layer module (and the
public class- and static methods of its classes) with a timing wrapper.
Modules import functions by name (``from .graphs import boundary_size``), so
every binding of a wrapped function in every reasm module is replaced, and
``restore`` puts each original object back. Wrappers record nothing unless
the tracer is active, which the runner switches on only inside timed jobs.

A span records name, start, end, parent span and job id. Spans are kept in
memory as columns and written out by ``dump``; per-name totals (calls, busy
time, self time) are accumulated as spans close. Busy time counts only the
outermost span of a name, so recursion is not counted twice; self time is a
span's duration minus the durations of its child spans.
"""

from __future__ import annotations

import array
import inspect
import json
import time

LAYERS = ("cli", "reductions", "solvers", "oracles", "trees", "graphs", "generators")

# Bitmask primitives called once per halving or per cluster (about 460k
# mask_of calls in one n=16 DP). Wrapping them would multiply the trace size
# and its overhead, so their time counts as their caller's self time.
PRIMITIVES = frozenset(
    {"graphs.mask_of", "graphs.vertices_of", "graphs.iter_bits", "graphs.check_vertex_set"}
)

# Spans whose busy time is also reported split by an argument.
LABELS = {
    "reductions.verify_lemma": lambda args, kwargs: "lemma%d" % (args[0] if args else kwargs["lemma"]),
}

JOB = "job"  # root span the runner opens around each timed job


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.active = False
        self.job = -1
        self.span_name = array.array("H")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self.span_parent = array.array("q")
        self.span_job = array.array("q")
        self.calls = []
        self.busy = []
        self.self_time = []
        self._depth = []
        self.child_calls = {}
        self.label_busy = {}
        self._stack = []
        self._restore = []
        self.wrapped = []

    def _id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            for column in (self.calls, self.busy, self.self_time, self._depth):
                column.append(0)
        return nid

    # -- spans ---------------------------------------------------------------

    def _enter(self, nid, label=None, counted=True):
        stack = self._stack
        parent = stack[-1] if stack else None
        index = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(parent[0] if parent else -1)
        self.span_job.append(self.job)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        if counted:
            self.calls[nid] += 1
            if parent is not None:
                key = (parent[1], nid)
                self.child_calls[key] = self.child_calls.get(key, 0) + 1
        self._depth[nid] += 1
        frame = [index, nid, label, 0.0, 0.0]
        stack.append(frame)
        frame[3] = time.perf_counter()

    def _exit(self):
        end = time.perf_counter()
        index, nid, label, start, child = self._stack.pop()
        duration = end - start
        self.span_start[index] = start
        self.span_end[index] = end
        self.self_time[nid] += duration - child
        self._depth[nid] -= 1
        if self._depth[nid] == 0:
            self.busy[nid] += duration
        if label is not None:
            self.label_busy[label] = self.label_busy.get(label, 0.0) + duration
        if self._stack:
            self._stack[-1][4] += duration

    def _resumes(self, nid, generator):
        """Re-yield a traced generator, timing each resumption as a span."""
        while True:
            self._enter(nid, counted=False)
            try:
                item = next(generator)
            except StopIteration:
                return
            finally:
                self._exit()
            yield item

    def begin_job(self, job):
        self.job = job
        self.active = True
        self._enter(self._id(JOB))

    def end_job(self):
        self._exit()
        self.active = False

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name, fn):
        nid = self._id(name)
        label = LABELS.get(name)
        tracer = self
        if inspect.isgeneratorfunction(fn):

            def wrapper(*args, **kwargs):
                generator = fn(*args, **kwargs)
                if not tracer.active:
                    return generator
                tracer.calls[nid] += 1
                return tracer._resumes(nid, generator)

        else:

            def wrapper(*args, **kwargs):
                if not tracer.active:
                    return fn(*args, **kwargs)
                tag = None if label is None else f"{name}.{label(args, kwargs)}"
                tracer._enter(nid, tag)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._exit()

        wrapper.__wrapped__ = fn
        self.wrapped.append(name)
        return wrapper

    def _set(self, owner, attr, old, new):
        setattr(owner, attr, new)
        self._restore.append((owner, attr, old))

    def install(self, package, modules):
        """Wrap the public callables of each module in ``modules`` (layer name
        to module) and rebind them everywhere in ``package``'s modules."""
        if self._restore:
            raise RuntimeError("tracer is already installed")
        replacements = {}
        for layer in LAYERS:
            module = modules[layer]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                if inspect.isclass(obj):
                    for method, member in list(vars(obj).items()):
                        if not method.startswith("_") and isinstance(member, (classmethod, staticmethod)):
                            wrapped = type(member)(self._wrap(f"{name}.{method}", member.__func__))
                            self._set(obj, method, member, wrapped)
                elif callable(obj) and name not in PRIMITIVES:
                    replacements[id(obj)] = (obj, self._wrap(name, obj))
        for module in [package, *(modules[layer] for layer in LAYERS)]:
            for attr, obj in list(vars(module).items()):
                hit = replacements.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(module, attr, obj, hit[1])

    def restore(self):
        while self._restore:
            owner, attr, old = self._restore.pop()
            setattr(owner, attr, old)

    # -- reports -------------------------------------------------------------

    def totals(self):
        """Per-name {calls, busy_ms, self_ms}, plus label splits."""
        out = {
            name: {
                "calls": self.calls[nid],
                "busy_ms": self.busy[nid] * 1000,
                "self_ms": self.self_time[nid] * 1000,
            }
            for nid, name in enumerate(self.names)
        }
        for tag, seconds in self.label_busy.items():
            out[tag] = {"busy_ms": seconds * 1000}
        return out

    def child_count(self, parent, child):
        key = (self._ids.get(parent), self._ids.get(child))
        return self.child_calls.get(key, 0)

    def dump(self, path):
        """Write every span: a JSON header line, then the raw columns."""
        columns = ("span_name", "span_start", "span_end", "span_parent", "span_job")
        header = {
            "names": self.names,
            "count": len(self.span_name),
            "columns": [[c, getattr(self, c).typecode] for c in columns],
            "clock": "time.perf_counter seconds",
        }
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for column in columns:
                getattr(self, column).tofile(handle)


def load_spans(path):
    """Read a file written by Tracer.dump: (names, {column: array})."""
    with open(path, "rb") as handle:
        header = json.loads(handle.readline())
        columns = {}
        for name, typecode in header["columns"]:
            column = array.array(typecode)
            column.fromfile(handle, header["count"])
            columns[name] = column
    return header["names"], columns

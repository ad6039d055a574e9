"""Outside-in span tracer for simocap, installed from the benchmark's own files.

Every public function defined in a layer module of ``simocap`` is wrapped,
and the wrapper is bound into every module namespace that holds the
original: ``alloc`` and ``rates`` import ``gamma_expectation``,
``reg_gamma_q`` and ``waterfill`` by name, and ``cli`` imports most of
the library the same way, so patching only the defining module would see
no calls.  Nothing under ``src/`` is edited.

Each call becomes a span (name, start, end, parent) kept in flat in-memory
arrays and written to one ``.npz`` file when the process ends.  Two
per-span counters ride along: the quadrature nodes a ``gamma_expectation``
call evaluated (counted by wrapping the integrand it is given) and the
largest rule it evaluated.  The CSV reader and writer also record the
process's resident size on entry and its peak resident size on exit.
"""

import functools
import importlib
import inspect
import resource
import time
from array import array

import numpy as np

PACKAGE = "simocap"
LAYERS = ("specfun", "channel", "alloc", "rates", "ingest", "cli")
MEMORY_WATCHED = ("ingest.parse_channel_csv", "ingest.write_channel_csv")
NODE_COUNTED = "specfun.gamma_expectation"

_PAGE_BYTES = resource.getpagesize()


def _rss_bytes() -> int:
    try:
        with open("/proc/self/statm", "rb") as fh:
            return int(fh.read().split()[1]) * _PAGE_BYTES
    except OSError:
        return _peak_rss_bytes()


def _peak_rss_bytes() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


class Tracer:
    """Span recorder; ``install`` patches the package, ``dump`` saves the spans."""

    def __init__(self):
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.nodes = array("q")
        self.max_rule = array("q")
        self.mem_span = array("i")
        self.mem_entry = array("q")
        self.mem_peak = array("q")
        self._stack = [-1]

    def install(self) -> None:
        """Wrap every public function of every layer module."""
        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        namespaces = list(modules.values()) + [importlib.import_module(PACKAGE)]
        for mod in namespaces:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])

    def _wrap(self, qualname: str, fn):
        nid = len(self.names)
        self.names.append(qualname)
        start, end, name, parent = self.start, self.end, self.name, self.parent
        nodes, max_rule, stack = self.nodes, self.max_rule, self._stack
        perf = time.perf_counter
        count_nodes = qualname == NODE_COUNTED
        watch_memory = qualname in MEMORY_WATCHED

        def counted(f, idx):
            def integrand(x):
                n = getattr(x, "size", 1)
                nodes[idx] += n
                if n > max_rule[idx]:
                    max_rule[idx] = n
                return f(x)

            return integrand

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name.append(nid)
            parent.append(stack[-1])
            nodes.append(0)
            max_rule.append(0)
            end.append(0.0)
            if count_nodes:
                if args:
                    args = (counted(args[0], idx),) + args[1:]
                elif "f" in kwargs:
                    kwargs["f"] = counted(kwargs["f"], idx)
            if watch_memory:
                mem_k = len(self.mem_span)
                self.mem_span.append(idx)
                self.mem_entry.append(_rss_bytes())
                self.mem_peak.append(0)
            stack.append(idx)
            start.append(perf())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf()
                stack.pop()
                if watch_memory:
                    self.mem_peak[mem_k] = _peak_rss_bytes()

        traced.__qualname__ = qualname
        return traced

    def dump(self, path: str) -> None:
        """Write the spans; ``names`` lists every wrapped function, called or not."""
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            nodes=np.frombuffer(self.nodes, dtype=np.int64),
            max_rule=np.frombuffer(self.max_rule, dtype=np.int64),
            mem_span=np.frombuffer(self.mem_span, dtype=np.int32),
            mem_entry=np.frombuffer(self.mem_entry, dtype=np.int64),
            mem_peak=np.frombuffer(self.mem_peak, dtype=np.int64),
        )

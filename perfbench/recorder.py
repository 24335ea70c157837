"""In-memory span recorder for traced benchmark runs.

The recorder wraps the public functions of each ``alcovepaths`` module
wherever they are looked up: the module attribute itself and every name
another module bound with ``from ... import``.  Each wrapped call is a
span with a name, start, end, parent span and job id.  Self time (the
span minus the time its child spans cover), call counts and inclusive
time of outermost calls are accumulated as the spans close, so the
metrics do not depend on how many spans are kept.  Spans are kept in
memory up to ``SPAN_CAP`` and written out by :meth:`Recorder.write_spans`.

Each module is one layer; the layer of a span is the part of its name
before the first dot.
"""

from __future__ import annotations

import gzip
import inspect
import time
from array import array
from collections import defaultdict

# LaurentPoly arithmetic is where the generating-function layer spends
# its time; the methods are looked up on the class, so they are wrapped there.
CLASS_METHODS = {
    "genfun": {"LaurentPoly": ("__add__", "__sub__", "__mul__", "scale")},
}

SPAN_CAP = 200_000


def _public_functions(module):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    for name in names:
        obj = getattr(module, name, None)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield name, obj


class Recorder:
    """Collects spans and per-function aggregates while installed."""

    def __init__(self):
        self.job = -1
        self.calls = defaultdict(int)      # span name -> completed calls
        self.self_ns = defaultdict(int)    # span name -> self time
        self.total_ns = defaultdict(int)   # span name -> time of outermost calls
        self.counts = defaultdict(int)     # named counters set by result hooks
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("i")
        self.span_job = array("i")
        self.dropped = 0
        # time spent outside the program while spans were open (the speed
        # probe's samples); it is taken out of every span it fell in
        self.excluded_ns = 0
        # [name, start_ns, child_ns, span index, excluded_ns at start]
        self._stack: list[list] = []
        self._active = defaultdict(int)
        self._patches: list[tuple] = []

    # -- spans -------------------------------------------------------------

    def _enter(self, name: str) -> list:
        idx = len(self.span_start)
        if idx < SPAN_CAP:
            nid = self._name_ids.get(name)
            if nid is None:
                nid = self._name_ids[name] = len(self.names)
                self.names.append(name)
            self.span_name.append(nid)
            self.span_start.append(0)
            self.span_end.append(0)
            self.span_parent.append(self._stack[-1][3] if self._stack else -1)
            self.span_job.append(self.job)
        else:
            idx = -1
            self.dropped += 1
        self._active[name] += 1
        frame = [name, 0, 0, idx, self.excluded_ns]
        self._stack.append(frame)
        frame[1] = time.perf_counter_ns()
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter_ns()
        name, start, child_ns, idx, excluded = frame
        self._stack.pop()
        dur = end - start - (self.excluded_ns - excluded)
        self.self_ns[name] += dur - child_ns
        self._active[name] -= 1
        if not self._active[name]:
            self.total_ns[name] += dur
        if self._stack:
            self._stack[-1][2] += dur
        if idx >= 0:
            self.span_start[idx] = start
            self.span_end[idx] = end

    def active(self, name: str) -> bool:
        return self._active[name] > 0

    # -- wrapping ------------------------------------------------------------

    def _run_hook(self, hook, args, result) -> None:
        # a counter that no longer fits the program's results must not
        # change what the program does; it is counted and skipped
        try:
            hook(self, args, result)
        except Exception:
            self.counts["trace.hook_errors"] += 1

    def _wrap_function(self, name, fn, hook):
        rec = self

        def wrapper(*args, **kwargs):
            frame = rec._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec._exit(frame)
            rec.calls[name] += 1
            if hook is not None:
                rec._run_hook(hook, args, result)
            return result

        return wrapper

    def _wrap_generator(self, name, fn, hook):
        # each resume of the generator is one span, so the work done while
        # the consumer iterates is charged to the generator's layer
        rec = self

        def wrapper(*args, **kwargs):
            rec.calls[name] += 1
            gen = fn(*args, **kwargs)

            def resumed():
                while True:
                    frame = rec._enter(name)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        rec._exit(frame)
                    if hook is not None:
                        rec._run_hook(hook, args, item)
                    yield item

            return resumed()

        return wrapper

    def install(self, package, modules: dict, hooks: dict | None = None) -> None:
        """Wrap the public functions of ``modules`` (short name -> module).

        ``hooks`` maps a span name to ``hook(recorder, args, result)``,
        called after each completed call (each yielded item for a
        generator) to update :attr:`counts`.
        """
        hooks = hooks or {}
        wrappers = {}
        for layer, module in modules.items():
            for attr, fn in _public_functions(module):
                name = f"{layer}.{attr}"
                wrap = (
                    self._wrap_generator
                    if inspect.isgeneratorfunction(fn)
                    else self._wrap_function
                )
                wrappers[id(fn)] = (fn, wrap(name, fn, hooks.get(name)))
            for cls_name, methods in CLASS_METHODS.get(layer, {}).items():
                cls = getattr(module, cls_name)
                for meth in methods:
                    fn = vars(cls)[meth]
                    name = f"{layer}.{cls_name}.{meth}"
                    self._patch(cls, meth, fn,
                                self._wrap_function(name, fn, hooks.get(name)))
        for namespace in (package, *modules.values()):
            for attr, value in list(vars(namespace).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(namespace, attr, value, hit[1])

    def _patch(self, owner, attr, original, replacement) -> None:
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def layer_self_ns(self, layer: str) -> int:
        prefix = layer + "."
        return sum(v for k, v in self.self_ns.items() if k.startswith(prefix))

    def write_spans(self, path) -> int:
        """Write the kept spans as gzipped tab-separated lines; returns the
        count."""
        with gzip.open(path, "wt") as fh:
            fh.write("index\tname\tstart_ns\tend_ns\tparent\tjob\n")
            for i in range(len(self.span_start)):
                fh.write(
                    f"{i}\t{self.names[self.span_name[i]]}\t{self.span_start[i]}"
                    f"\t{self.span_end[i]}\t{self.span_parent[i]}\t{self.span_job[i]}\n"
                )
        return len(self.span_start)


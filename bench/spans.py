"""Spans around the calls into the secant_trees modules, kept in memory.

A span records its name (``<module>.<function>``), start and end, the span
that was open when it began (its parent) and the run it belongs to: a run is
one workload pass or one layer probe, so the spans of one run share its id.
``count`` is the number of work items a span covers when the benchmark times a
batch of calls under one span.

The benchmark calls the package through :meth:`Tracer.traced_api`, whose
functions open a span per call; it opens spans by hand around the method
calls it makes.  For a traced workload pass, :meth:`Tracer.instrument` also
wraps every public module-level function at each place another module of the
package imported it, so cross-module calls get a span while calls inside one
module do not.  Method calls between modules (for example bijections walking
``IncTree`` methods) are not wrapped; their time stays in the caller's self
time.

A generator gets one span whose ``busy_ns`` sums the time spent inside it,
so the consumer's work between two items is not charged to the generator.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import types
from dataclasses import asdict, dataclass
from time import perf_counter_ns


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    run: str
    start_ns: int
    end_ns: int = 0
    busy_ns: int | None = None
    count: int = 0
    args: str = ""

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def own_ns(self) -> int:
        """Time spent in the span: busy time for a generator, else wall."""
        return self.busy_ns if self.busy_ns is not None else self.end_ns - self.start_ns


def _describe(args: tuple, kwargs: dict) -> str:
    def one(v) -> str:
        if isinstance(v, (bool, int, str)) or (
            isinstance(v, tuple) and all(isinstance(x, (int, str)) for x in v)
        ):
            return repr(v)
        return type(v).__name__

    parts = [one(v) for v in args] + [f"{k}={one(v)}" for k, v in kwargs.items()]
    return ", ".join(parts)


def _public_functions(mod):
    for attr, fn in vars(mod).items():
        if not attr.startswith("_") and inspect.isfunction(fn) and fn.__module__ == mod.__name__:
            yield attr, fn


class NullTracer:
    """The untraced run: same interface, no spans."""

    run = ""

    @contextlib.contextmanager
    def span(self, name: str, count: int = 0):
        yield None

    def call(self, name: str, fn, *args):
        return fn(*args)


class Tracer(NullTracer):
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._wrappers: dict[int, object] = {}

    # -- recording -----------------------------------------------------------

    def _open(self, name: str, args: str = "", count: int = 0) -> Span:
        parent = self._stack[-1].id if self._stack else None
        s = Span(len(self.spans), name, parent, self.run, perf_counter_ns())
        s.count, s.args = count, args
        self.spans.append(s)
        self._stack.append(s)
        return s

    def _close(self, s: Span) -> None:
        s.end_ns = perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, count: int = 0):
        s = self._open(name, count=count)
        try:
            yield s
        finally:
            self._close(s)

    def call(self, name: str, fn, *args):
        with self.span(name):
            return fn(*args)

    def wrap(self, name: str, fn):
        """*fn* with a span around every call (or every generator run)."""
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                it = fn(*args, **kwargs)
                s = self._open(name, _describe(args, kwargs))
                s.busy_ns = 0
                self._close(s)
                while True:
                    self._stack.append(s)
                    t0 = perf_counter_ns()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        t1 = perf_counter_ns()
                        s.busy_ns += t1 - t0
                        s.end_ns = t1
                        self._stack.pop()
                    yield item

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            s = self._open(name, _describe(args, kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(s)

        return traced

    def _wrapper(self, layer: str, attr: str, fn):
        if id(fn) not in self._wrappers:
            self._wrappers[id(fn)] = self.wrap(f"{layer}.{attr}", fn)
        return self._wrappers[id(fn)]

    def traced_api(self, raw: types.SimpleNamespace, modules: dict) -> types.SimpleNamespace:
        """A copy of *raw* in which each public function of *modules* (layer
        name -> module) opens a span per call: the benchmark's calls."""
        api = types.SimpleNamespace(**vars(raw))
        for layer, mod in modules.items():
            for attr, fn in _public_functions(mod):
                if getattr(api, attr, None) is fn:
                    setattr(api, attr, self._wrapper(layer, attr, fn))
        return api

    @contextlib.contextmanager
    def instrument(self, modules: dict):
        """Wrap the public functions of *modules* at every place another of
        them imported one, and in ``MAP_VERIFIERS``; undo it all on exit."""
        patched: list[tuple[object, str, object]] = []
        for layer, mod in modules.items():
            for attr, fn in _public_functions(mod):
                for site in modules.values():
                    if site is not mod and getattr(site, attr, None) is fn:
                        patched.append((site, attr, fn))
                        setattr(site, attr, self._wrapper(layer, attr, fn))
        verifiers = modules["bijections"].MAP_VERIFIERS
        saved = dict(verifiers)
        try:
            for name, fn in saved.items():
                verifiers[name] = self._wrapper("bijections", fn.__name__, fn)
            yield
        finally:
            verifiers.update(saved)
            for site, attr, fn in patched:
                setattr(site, attr, fn)

    # -- reading ---------------------------------------------------------------

    def find(self, name: str, run: str | None = None, args: str | None = None) -> list[Span]:
        return [
            s
            for s in self.spans
            if s.name == name
            and (run is None or s.run == run)
            and (args is None or s.args == args)
        ]

    def self_ns_by_layer(self, run_prefix: str) -> dict[str, int]:
        """Self time per layer over the runs whose id starts with *run_prefix*:
        a span's own time minus the own time of its direct children."""
        chosen = [s for s in self.spans if s.run.startswith(run_prefix)]
        child_ns: dict[int, int] = {}
        for s in chosen:
            if s.parent is not None:
                child_ns[s.parent] = child_ns.get(s.parent, 0) + s.own_ns
        out: dict[str, int] = {}
        for s in chosen:
            out[s.layer] = out.get(s.layer, 0) + s.own_ns - child_ns.get(s.id, 0)
        return out

    def dump(self, path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")

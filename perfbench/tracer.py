"""Span tracing of wireid from outside the package.

install() wraps the public functions of wireid's matrices, partitions and
cable modules, the validation (__post_init__) and public methods of their
classes, and cli.main. Every module-level name that refers to a wrapped
function is rebound to its wrapper, including the names a module imported
from another (wireid.cli.construct_trace, wireid.cable.kg_violations,
wireid.partitions.construct_matrix, ...), because callers resolve those
names at call time. That makes spans nest: a span's parent is the wrapped
call that was running when it started.

cli's own helpers (cmd_construct and the rest) stay unwrapped, so the
self time of cli.main is argument parsing plus payload building and
formatting. Private helpers (_construct, _assemble_b_sets, ...) stay
unwrapped too; their time is their caller's self time.

Spans stay in memory as tuples
    (request_id, span_id, parent_id, name, start, end, raised)
with parent_id -1 for a root span, until the caller takes them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from time import perf_counter

MODULES = ("matrices", "partitions", "cable", "cli")


class Tracer:
    def __init__(self, request_id: int):
        self.request_id = request_id
        self.spans: list = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, rid = self.spans, self._stack, self.request_id

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[sid] = (rid, sid, parent, name, start, perf_counter(), 1)
                stack.pop()
                raise
            spans[sid] = (rid, sid, parent, name, start, perf_counter(), 0)
            stack.pop()
            return result

        return traced

    def install(self) -> None:
        package = importlib.import_module("wireid")
        modules = [importlib.import_module(f"wireid.{short}") for short in MODULES]
        wrappers = {}
        for short, module in zip(MODULES, modules):
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    if short != "cli" or attr == "main":
                        wrappers[obj] = self.wrap(f"{short}.{attr}", obj)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._wrap_class(f"{short}.{attr}", obj)
        for module in (package, *modules):
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, attr, wrappers[obj])

    def _wrap_class(self, name: str, cls: type) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr == "__post_init__":
                setattr(cls, attr, self.wrap(name, obj))
            elif attr.startswith("_"):
                continue
            elif inspect.isfunction(obj):
                setattr(cls, attr, self.wrap(f"{name}.{attr}", obj))
            elif isinstance(obj, classmethod):
                setattr(cls, attr, classmethod(self.wrap(f"{name}.{attr}", obj.__func__)))

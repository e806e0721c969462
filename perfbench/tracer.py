"""In-memory span tracer that instruments modules from the outside.

``instrument`` replaces the public functions and class methods of the
given modules by thin wrappers that record one span per call: name, start,
end, the index of the enclosing span (its parent) and the task it belongs
to.  Nothing in the instrumented package is edited; the wrappers are
rebound in every module namespace that imported the original function.

A span's self time is its duration minus the durations of its direct
children; because spans nest strictly on one thread, that equals the
duration minus the time covered by child spans.
"""

import functools
import inspect
import sys
import time

__all__ = ["Span", "Tracer", "instrument", "span_cost"]


class Span:
    __slots__ = ("name", "start", "end", "parent", "task", "child_time")

    def __init__(self, name, start, parent, task):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.task = task
        self.child_time = 0.0

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_time(self):
        return self.duration - self.child_time


class Tracer:
    """Span recorder; wrappers pass straight through while inactive."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.stack = []
        self.task = None
        self.active = False

    def enter(self, name):
        parent = self.stack[-1] if self.stack else None
        idx = len(self.spans)
        self.spans.append(Span(name, self.clock(), parent, self.task))
        self.stack.append(idx)
        return idx

    def exit(self, idx):
        span = self.spans[idx]
        span.end = self.clock()
        self.stack.pop()
        if span.parent is not None:
            self.spans[span.parent].child_time += span.duration

    def ancestors(self, span):
        while span.parent is not None:
            span = self.spans[span.parent]
            yield span


def _wrap(tracer, name, fn, hook):
    """Record a span around ``fn``; ``hook(args, kwargs)`` runs before the
    call and may return a callback taking (result, exception)."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        after = hook(args, kwargs) if hook is not None else None
        idx = tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            tracer.exit(idx)
            if after is not None:
                after(None, exc)
            raise
        tracer.exit(idx)
        if after is not None:
            after(result, None)
        return result

    return wrapper


def _public_callables(module):
    """(span name, owner, attribute, raw attribute) for each public
    function and public-class method defined in ``module``."""
    short = module.__name__.rsplit(".", 1)[-1]
    for name, obj in list(vars(module).items()):
        if name.startswith("_") \
                or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield "{}.{}".format(short, name), module, name, obj
        elif inspect.isclass(obj) and not issubclass(obj, BaseException):
            for attr, raw in list(vars(obj).items()):
                if attr.startswith("_") and attr != "__init__":
                    continue
                if inspect.isfunction(raw) or isinstance(
                        raw, (staticmethod, classmethod)):
                    yield "{}.{}.{}".format(short, name, attr), obj, attr, raw


def instrument(tracer, modules, hooks=None, package=None):
    """Wrap the public callables of ``modules``.

    ``hooks`` maps span names to hook callables (see ``_wrap``).  Module
    level functions are rebound in every loaded module whose name starts
    with ``package`` (and in the instrumented modules themselves), so that
    ``from .x import f`` bindings are traced too.
    """
    hooks = hooks or {}
    functions = {}
    for module in modules:
        for span, owner, attr, raw in _public_callables(module):
            hook = hooks.get(span)
            if isinstance(raw, (staticmethod, classmethod)):
                new = type(raw)(_wrap(tracer, span, raw.__func__, hook))
            else:
                new = _wrap(tracer, span, raw, hook)
            if inspect.isclass(owner):
                setattr(owner, attr, new)
            else:
                functions[raw] = new
    namespaces = list(modules)
    if package is not None:
        namespaces += [m for n, m in list(sys.modules.items())
                       if m is not None and (n == package
                                             or n.startswith(package + "."))]
    seen = set()
    for ns in namespaces:
        if id(ns) in seen:
            continue
        seen.add(id(ns))
        for attr, val in list(vars(ns).items()):
            if inspect.isfunction(val) and val in functions:
                setattr(ns, attr, functions[val])


def span_cost(calls=20000, clock=time.perf_counter):
    """Seconds one recorded span adds to a call, measured on a no-op."""
    tracer = Tracer(clock)

    def noop():
        return None

    wrapped = _wrap(tracer, "noop", noop, None)
    tracer.active = True
    t0 = clock()
    for _ in range(calls):
        noop()
    t1 = clock()
    for _ in range(calls):
        wrapped()
    t2 = clock()
    return max((t2 - t1) - (t1 - t0), 0.0) / calls

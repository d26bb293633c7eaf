"""Call spans recorded from outside otmbench, by wrapping its public names.

``Tracer.install`` wraps every public function, and the constructor and
public methods of every public class, that an otmbench module lists in its
``__all__``; a module without ``__all__`` (cli) has its public functions
wrapped.  A wrapper goes on every otmbench namespace that binds the object,
because modules import each other's names (protocol binds f2codes'
``ml_decode`` and ``encode``, for example).  Classes are patched in place,
so every namespace sees the same wrapped class.  ``Tracer.remove`` puts
every original back.

Each call records one span: name, start, end, parent span and job id, in
flat arrays kept in memory and written out once, when the run ends.  A span
belongs to the layer (module) that defines the wrapped name.  An exception
counts as an error of a layer when it leaves a span whose caller is not in
that layer.  Properties and cached properties are not wrapped; their time
falls to the span that reads them.
"""

from __future__ import annotations

import array
import functools
import inspect
from pathlib import Path
import time
import types

import numpy as np

_MARK = "_perfbench_span"


class Tracer:
    def __init__(self, modules: dict, hooks: dict | None = None):
        """``modules`` maps layer name to an imported otmbench module.
        ``hooks`` maps a span name to ``f(args, kwargs, result) -> float``,
        a size recorded with each completed call of that name."""
        self.modules = modules
        self.hooks = hooks or {}
        self.names: list[str] = []             # span names, indexed by name id
        self.layer_of: list[str] = []          # defining layer of each name id
        self.start = array.array("d")
        self.end = array.array("d")
        self.value = array.array("d")
        self.parent = array.array("q")
        self.name = array.array("i")
        self.job = array.array("i")
        self.errors = {layer: 0 for layer in modules}
        self.job_id = -1
        self.active = False
        self._stack: list[int] = []
        self._patches: list[tuple] = []        # (owner, attribute, original)

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, fn, span_name: str, layer: str):
        name_id = len(self.names)
        self.names.append(span_name)
        self.layer_of.append(layer)
        hook = self.hooks.get(span_name)
        tracer, stack, layer_of = self, self._stack, self.layer_of
        start, end, value = self.start, self.end, self.value
        parent, name, job = self.parent, self.name, self.job
        now = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(start)
            parent.append(stack[-1] if stack else -1)
            name.append(name_id)
            job.append(tracer.job_id)
            end.append(0.0)
            value.append(0.0)
            stack.append(idx)
            start.append(now())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                caller = parent[idx]
                if caller < 0 or layer_of[name[caller]] != layer:
                    tracer.errors[layer] += 1
                raise
            finally:
                end[idx] = now()
                stack.pop()
            if hook is not None:
                value[idx] = hook(args, kwargs, result)
            return result

        setattr(wrapper, _MARK, span_name)
        return wrapper

    def _patch(self, owner, attr: str, new):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def _wrap_class(self, cls, layer: str, prefix: str):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in ("__init__", "__new__"):
                continue
            span_name = f"{prefix}.{attr}"
            if isinstance(raw, staticmethod):
                new = staticmethod(self._wrap(raw.__func__, span_name, layer))
            elif isinstance(raw, classmethod):
                new = classmethod(self._wrap(raw.__func__, span_name, layer))
            elif isinstance(raw, types.FunctionType):
                new = self._wrap(raw, span_name, layer)
            else:
                continue                       # properties, constants
            self._patch(cls, attr, new)

    def _public(self, module):
        if hasattr(module, "__all__"):
            return [(n, getattr(module, n)) for n in module.__all__]
        return [(n, obj) for n, obj in vars(module).items()
                if not n.startswith("_") and inspect.isfunction(obj)
                and obj.__module__ == module.__name__]

    def install(self):
        """Wrap every public name of every module and start recording."""
        namespaces = list(self.modules.values())
        for layer, module in self.modules.items():
            for attr, obj in self._public(module):
                if getattr(obj, "__module__", None) != module.__name__:
                    continue                   # re-exported from elsewhere
                if inspect.isclass(obj):
                    self._wrap_class(obj, layer, f"{layer}.{attr}")
                elif inspect.isfunction(obj):
                    wrapper = self._wrap(obj, f"{layer}.{attr}", layer)
                    for ns in namespaces:
                        for bound, value in list(vars(ns).items()):
                            if value is obj:
                                self._patch(ns, bound, wrapper)
        self.active = True

    def remove(self):
        """Stop recording and restore every original."""
        self.active = False
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def leftovers(self) -> list:
        """Names of wrappers still bound anywhere in the traced modules."""
        found = []
        for module in self.modules.values():
            for attr, obj in vars(module).items():
                if hasattr(obj, _MARK):
                    found.append(f"{module.__name__}.{attr}")
                if inspect.isclass(obj):
                    for cattr, raw in vars(obj).items():
                        inner = getattr(raw, "__func__", raw)
                        if hasattr(inner, _MARK):
                            found.append(f"{module.__name__}.{attr}.{cattr}")
        return found

    # -- results -------------------------------------------------------------

    def arrays(self) -> dict:
        """Spans as numpy arrays, with each span's self time (its duration
        minus the time its child spans cover)."""
        start = np.frombuffer(self.start, dtype=float).copy()
        end = np.frombuffer(self.end, dtype=float).copy()
        parent = np.frombuffer(self.parent, dtype=np.int64).copy()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        return {
            "start": start, "end": end, "dur": dur, "self": dur - child,
            "parent": parent,
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "job": np.frombuffer(self.job, dtype=np.int32).copy(),
            "value": np.frombuffer(self.value, dtype=float).copy(),
        }

    def write(self, path: Path, jobs: list):
        """Write the spans, the name table and the job names to one .npz."""
        a = self.arrays()
        np.savez(path, start=a["start"], end=a["end"], parent=a["parent"], name=a["name"],
                 job=a["job"], value=a["value"], names=np.array(self.names),
                 layers=np.array(self.layer_of), jobs=np.array(jobs))

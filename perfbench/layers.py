"""Per-layer self time, attributed from outside the program.

:class:`LayerProfiler` wraps the public functions of each layer of
``repro`` — methods of the classes its packages define, plus a few named
entry points — in timing closures, and times every resume of a
simulation process by the module its generator came from.  Nothing in
``src/`` changes: the wrappers are installed by :meth:`install` and
taken out again by :meth:`remove`.

A wrapped call's *self time* is its duration minus the time of the
wrapped calls made inside it.  ``calls`` counts entries into a layer
from a different one, so a layer's internal calls are not counted
twice.  A *wait* layer (the pool poll) books its time as waiting of the
layer, not as self time.

Accounting is per thread.  Each thread's *busy* time is the time spent
inside its outermost wrapped calls.  Pool workers start from a fork of
the parent, so the wrapped unit entry points (reproduce series units,
fleet chunks, sweep cells) reset the inherited state in a new process
and write their counters to ``flush_dir`` after every unit;
:meth:`collect` merges those files with the parent's own threads.  What
a worker does outside a unit — the pool's own attempt span, begun
before and ended after it — is not counted.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import pkgutil
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Package prefix -> layer, for class discovery and process resumes.
PACKAGE_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("repro.core", "core"),
    ("repro.agents", "agents"),
    ("repro.ml", "ml"),
    ("repro.node", "node"),
    ("repro.workloads", "workloads"),
    ("repro.experiments", "experiments"),
    ("repro.fleet", "fleet"),
    ("repro.sweep", "sweep"),
)

#: Packages whose classes are wrapped wholesale (public methods and
#: ``__init__``).  The other rows wrap only the entry points below.
DISCOVERED_PACKAGES: Tuple[str, ...] = (
    "repro.core", "repro.agents", "repro.ml", "repro.node",
    "repro.workloads",
)

#: ``(module, qualified name, layer, kind)``.  ``kind`` is ``"call"``,
#: ``"wait"`` (time is the layer's waiting), or ``"unit"`` (a pool
#: unit entry point: resets state in a fresh worker, flushes after).
ENTRY_POINTS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.sim.kernel", "Kernel.run", "sim", "call"),
    ("repro.fleet.aggregate", "FleetAggregateBuilder.add_many",
     "fleet.aggregate", "call"),
    ("repro.fleet.aggregate", "FleetAggregateBuilder.build",
     "fleet.aggregate", "call"),
    ("repro.fleet.aggregate", "FleetAggregate.digest",
     "fleet.aggregate", "call"),
    ("repro.experiments.driver", "_run_shard", "fleet", "unit"),
    ("repro.experiments.driver", "_run_series_unit", "experiments", "unit"),
    ("repro.experiments.driver", "_assemble_artifact",
     "experiments.assemble", "call"),
    ("repro.sweep.units", "run_unit", "sweep", "unit"),
    ("repro.sweep.safety", "SafetyRecord.from_fleet", "sweep.report",
     "call"),
    ("repro.sweep.safety", "CampaignReport.build", "sweep.report", "call"),
    ("repro.cache.store", "ResultCache.get", "cache.get", "call"),
    ("repro.cache.store", "ResultCache.put", "cache.put", "call"),
    ("repro.journal.run", "open_run", "journal.open", "call"),
    ("repro.journal.run", "RunJournal.record_dispatched", "journal.append",
     "call"),
    ("repro.journal.run", "RunJournal.record_done", "journal.append",
     "call"),
    ("repro.journal.run", "RunJournal.record_quarantined",
     "journal.append", "call"),
    ("repro.journal.log", "RecordLog.append", "journal.append", "call"),
    ("repro.journal.run", "RunJournal.seal", "journal.seal", "call"),
    ("repro.resilience.supervisor", "supervised_map", "resilience", "call"),
    ("repro.resilience.pool", "SupervisedPool.submit", "resilience", "call"),
    ("repro.resilience.pool", "SupervisedPool.poll", "resilience", "wait"),
    ("repro.obs.spans", "Tracer.begin", "obs", "call"),
    ("repro.obs.spans", "Tracer.end", "obs", "call"),
    ("repro.obs.spans", "Tracer.absorb", "obs", "call"),
    ("repro.obs.sidecar", "TelemetrySidecar.write", "obs", "call"),
    ("repro.serve.jobs", "execute_job", "serve", "call"),
)

#: Every row of the layer table, in print order (``other`` is derived).
LAYERS: Tuple[str, ...] = (
    "sim", "core", "agents", "ml", "node", "workloads",
    "fleet", "fleet.aggregate", "experiments", "experiments.assemble",
    "sweep", "sweep.report", "cache.get", "cache.put",
    "journal.open", "journal.append", "journal.seal",
    "resilience", "obs", "serve",
)

#: Plain counters kept next to the times (see the hooks below).
COUNTERS: Tuple[str, ...] = (
    "core.events", "core.safeguard_trips", "core.validation_failures",
    "cache.hits", "journal.appends", "obs.spans",
    "resilience.units", "resilience.retries", "resilience.quarantined",
    "resilience.capacity_s", "worker.unit_wall_s", "worker.busy_s",
    "experiments.units", "fleet.units", "sweep.units",
)

_FLUSH_PREFIX = "layers-"


def layer_of_module(module: str) -> Optional[str]:
    """The layer a ``repro`` module belongs to (``None``: unattributed)."""
    for prefix, layer in PACKAGE_LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return None


class _ThreadState:
    """One thread's stack of open wrapped calls and its accumulators."""

    __slots__ = ("pid", "stack", "self_s", "wait_s", "calls", "counts")

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.stack: List[list] = [[None, 0.0]]
        self.self_s: Dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        self.wait_s: Dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        self.calls: Dict[str, int] = dict.fromkeys(LAYERS, 0)
        self.counts: Dict[str, float] = dict.fromkeys(COUNTERS, 0)

    def clear(self) -> None:
        self.stack[0][1] = 0.0
        for table in (self.self_s, self.wait_s, self.calls, self.counts):
            for key in table:
                table[key] = 0

    def export(self) -> Dict[str, Any]:
        return {
            "busy_s": self.stack[0][1],
            "self_s": dict(self.self_s),
            "wait_s": dict(self.wait_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
        }


def _timed_generator(profiler: "LayerProfiler", layer: str):
    """Proxy class that times each resume of a simulation process."""

    class TimedGenerator:
        __slots__ = ("_gen",)

        def __init__(self, gen: Any) -> None:
            self._gen = gen

        def send(self, value: Any) -> Any:
            return profiler.call(layer, self._gen.send, value)

        def throw(self, *args: Any) -> Any:
            return profiler.call(layer, self._gen.throw, *args)

        def close(self) -> None:
            self._gen.close()

        def __getattr__(self, name: str) -> Any:
            return getattr(self._gen, name)

    return TimedGenerator


class LayerProfiler:
    """Installs, accounts for and removes the layer wrappers.

    Args:
        flush_dir: where pool workers (and, for ``repro serve``, the
            server process) write their counters.
    """

    def __init__(self, flush_dir: str) -> None:
        self.flush_dir = flush_dir
        self._tls = threading.local()
        self._states: List[_ThreadState] = []
        self._lock = threading.Lock()
        self._patches: List[Tuple[Any, str, Any]] = []
        self._flush_seq = 0
        self._proxies: Dict[str, type] = {}
        self._bindings: Dict[int, List[Tuple[Any, str]]] = {}

    # -- accounting ----------------------------------------------------------

    def _state(self) -> _ThreadState:
        state = getattr(self._tls, "state", None)
        if state is None:
            state = _ThreadState()
            self._tls.state = state
            with self._lock:
                self._states.append(state)
        return state

    def call(self, layer: str, fn: Callable[..., Any], *args: Any,
             **kwargs: Any) -> Any:
        """Run ``fn`` as a call into ``layer`` (the wrappers' core)."""
        state = self._tls.__dict__.get("state") or self._state()
        stack = state.stack
        parent = stack[-1]
        frame = [layer, 0.0]
        stack.append(frame)
        started = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - started
            stack.pop()
            parent[1] += elapsed
            state.self_s[layer] += elapsed - frame[1]
            if parent[0] != layer:
                state.calls[layer] += 1

    def _wait(self, layer: str, fn: Callable[..., Any], *args: Any,
              **kwargs: Any) -> Any:
        state = self._tls.__dict__.get("state") or self._state()
        parent = state.stack[-1]
        started = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - started
            parent[1] += elapsed
            state.wait_s[layer] += elapsed

    def count(self, name: str, amount: float = 1) -> None:
        state = self._tls.__dict__.get("state") or self._state()
        state.counts[name] += amount

    def snapshot(self) -> Dict[str, Any]:
        """This process's accumulators, summed over its threads.

        ``main_busy_s`` is the calling thread's busy time; ``busy_s``
        adds every other thread's.
        """
        own = self._tls.__dict__.get("state")
        merged = _empty_export()
        with self._lock:
            states = list(self._states)
        for state in states:
            _merge(merged, state.export())
        merged["main_busy_s"] = own.stack[0][1] if own is not None else 0.0
        return merged

    def reset(self) -> None:
        """Zero this process's accumulators and drop flushed files."""
        with self._lock:
            for state in self._states:
                state.clear()
        for name in _flush_files(self.flush_dir):
            os.unlink(os.path.join(self.flush_dir, name))

    def flush(self, main: bool = False) -> None:
        """Write this process's accumulators to ``flush_dir`` and zero
        them (pool workers after each unit; the serve process at exit,
        with ``main=True``: its busy time is the table's main thread)."""
        data = self.snapshot()
        data["pid"] = os.getpid()
        data["main"] = main
        self._flush_seq += 1
        name = f"{_FLUSH_PREFIX}{os.getpid()}-{self._flush_seq}.json"
        path = os.path.join(self.flush_dir, name)
        os.makedirs(self.flush_dir, exist_ok=True)
        with open(path + ".tmp", "w", encoding="utf-8") as handle:
            json.dump(data, handle)
        os.replace(path + ".tmp", path)
        with self._lock:
            for state in self._states:
                state.clear()

    def collect(self) -> Dict[str, Any]:
        """This process's snapshot plus every flushed file.

        ``busy_s`` of the result counts other processes and threads;
        ``main_busy_s`` stays the calling thread's.
        """
        merged = self.snapshot()
        for name in _flush_files(self.flush_dir):
            with open(os.path.join(self.flush_dir, name), "r",
                      encoding="utf-8") as handle:
                data = json.load(handle)
            _merge(merged, data)
            if data.get("main"):
                merged["main_busy_s"] += data["busy_s"]
            else:
                merged["counts"]["worker.busy_s"] += data["busy_s"]
        return merged

    def _fresh_process(self) -> None:
        """Drop state inherited over fork (called in a new worker).

        The lock is replaced, not taken: another thread of the parent
        may have held it at the moment of the fork.
        """
        self._lock = threading.Lock()
        self._states = []
        self._tls = threading.local()
        self._flush_seq = 0

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, fn: Callable[..., Any], layer: str, kind: str,
              hook: Optional[Callable[..., None]] = None):
        if kind == "wait":
            @functools.wraps(fn)
            def waited(*args: Any, **kwargs: Any) -> Any:
                return self._wait(layer, fn, *args, **kwargs)
            return waited
        if kind == "unit":
            owner = os.getpid()

            @functools.wraps(fn)
            def unit(*args: Any, **kwargs: Any) -> Any:
                worker = os.getpid() != owner
                if worker:
                    state = self._tls.__dict__.get("state")
                    if state is None or state.pid != os.getpid():
                        self._fresh_process()
                started = time.perf_counter()
                self.count(layer + ".units")
                try:
                    return self.call(layer, fn, *args, **kwargs)
                finally:
                    if worker:
                        self.count(
                            "worker.unit_wall_s",
                            time.perf_counter() - started,
                        )
                        self.flush()
            return unit
        if hook is None:
            @functools.wraps(fn)
            def timed(*args: Any, **kwargs: Any) -> Any:
                return self.call(layer, fn, *args, **kwargs)
            return timed

        @functools.wraps(fn)
        def hooked(*args: Any, **kwargs: Any) -> Any:
            started = time.perf_counter()
            result = self.call(layer, fn, *args, **kwargs)
            hook(args, kwargs, result, time.perf_counter() - started)
            return result
        return hooked

    def _patch(self, owner: Any, name: str, value: Any) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def _patch_function(self, original: Callable[..., Any],
                        wrapper: Callable[..., Any]) -> None:
        """Replace ``original`` in every loaded module that binds it."""
        for module, name in self._bindings.get(id(original), ()):
            self._patch(module, name, wrapper)

    def _wrap_member(self, cls: type, name: str, layer: str, kind: str,
                     hook: Optional[Callable[..., None]] = None) -> None:
        raw = cls.__dict__[name]
        if isinstance(raw, staticmethod):
            value: Any = staticmethod(
                self._wrap(raw.__func__, layer, kind, hook)
            )
        elif isinstance(raw, classmethod):
            value = classmethod(self._wrap(raw.__func__, layer, kind, hook))
        else:
            value = self._wrap(raw, layer, kind, hook)
        self._patch(cls, name, value)

    def install(self) -> None:
        """Wrap every layer.  Call before the worker pool forks."""
        if self._patches:
            raise RuntimeError("layer wrappers are already installed")
        import_layers()
        self._bindings = _function_bindings()
        hooks = self._hooks()
        for module_name, qualname, layer, kind in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            owner_name, _, attr = qualname.rpartition(".")
            if owner_name:
                self._wrap_member(
                    getattr(module, owner_name), attr, layer, kind,
                    hooks.get(qualname),
                )
            else:
                original = getattr(module, attr)
                self._patch_function(
                    original,
                    self._wrap(original, layer, kind, hooks.get(qualname)),
                )
        for package in DISCOVERED_PACKAGES:
            self._wrap_package(package, hooks)
        self._wrap_kernel()

    def installed(self) -> List[Tuple[Any, str, Any]]:
        """``(owner, name, original)`` of every installed wrapper."""
        return list(self._patches)

    def remove(self) -> None:
        """Restore every wrapped attribute (reverse install order)."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def _wrap_package(self, package: str,
                      hooks: Dict[str, Callable[..., None]]) -> None:
        layer = layer_of_module(package)
        assert layer is not None
        for module_name in sorted(sys.modules):
            if not (module_name == package
                    or module_name.startswith(package + ".")):
                continue
            module = sys.modules[module_name]
            for name, value in sorted(vars(module).items()):
                if getattr(value, "__module__", None) != module_name:
                    continue
                if inspect.isclass(value) and _wrappable_class(value):
                    for member in sorted(vars(value)):
                        if _wrappable_member(value, member):
                            self._wrap_member(
                                value, member, layer, "call",
                                hooks.get(f"{name}.{member}"),
                            )
                elif (
                    inspect.isfunction(value)
                    and not name.startswith("_")
                    and not inspect.isgeneratorfunction(value)
                ):
                    self._patch_function(
                        value, self._wrap(value, layer, "call")
                    )

    def _proxy(self, layer: str) -> type:
        proxy = self._proxies.get(layer)
        if proxy is None:
            proxy = self._proxies[layer] = _timed_generator(self, layer)
        return proxy

    def _wrap_kernel(self) -> None:
        """Time process resumes and timer callbacks by their layer."""
        from repro.sim.kernel import Event, Kernel

        spawn = Kernel.__dict__["spawn"]
        call_at = Kernel.__dict__["call_at"]
        call_later = Kernel.__dict__["call_later"]
        profiler = self

        @functools.wraps(spawn)
        def timed_spawn(kernel: Any, generator: Any, *args: Any,
                        **kwargs: Any) -> Any:
            frame = getattr(generator, "gi_frame", None)
            if frame is not None:
                layer = layer_of_module(frame.f_globals.get("__name__", ""))
                if layer is not None:
                    generator = profiler._proxy(layer)(generator)
            return spawn(kernel, generator, *args, **kwargs)

        def timed_action(action: Any) -> Any:
            if action.__class__ is Event:
                return action
            owner = getattr(action, "__self__", None)
            module = (
                type(owner).__module__ if owner is not None
                else getattr(action, "__module__", None)
            )
            layer = layer_of_module(module or "")
            if layer is None:
                return action
            return functools.partial(profiler.call, layer, action)

        @functools.wraps(call_at)
        def timed_call_at(kernel: Any, time_us: int, action: Any) -> Any:
            return call_at(kernel, time_us, timed_action(action))

        @functools.wraps(call_later)
        def timed_call_later(kernel: Any, delay_us: int,
                             action: Any) -> Any:
            return call_later(kernel, delay_us, timed_action(action))

        self._patch(Kernel, "spawn", timed_spawn)
        self._patch(Kernel, "call_at", timed_call_at)
        self._patch(Kernel, "call_later", timed_call_later)

    def _hooks(self) -> Dict[str, Callable[..., None]]:
        """Counters read from the arguments or results of wrapped calls."""
        from repro.core.events import EventKind

        count = self.count
        trip = EventKind.SAFEGUARD_TRIGGERED
        invalid = EventKind.VALIDATION_FAILED

        def event(args, kwargs, result, elapsed) -> None:
            kind = args[1] if len(args) > 1 else kwargs.get("kind")
            count("core.events")
            if kind is trip:
                count("core.safeguard_trips")
            elif kind is invalid:
                count("core.validation_failures")

        def cache_get(args, kwargs, result, elapsed) -> None:
            default = args[2] if len(args) > 2 else kwargs.get("default")
            if result is not default:
                count("cache.hits")

        def append(args, kwargs, result, elapsed) -> None:
            count("journal.appends")

        def begin(args, kwargs, result, elapsed) -> None:
            count("obs.spans")

        def submit(args, kwargs, result, elapsed) -> None:
            attempt = args[3] if len(args) > 3 else kwargs.get("attempt", 0)
            count("resilience.units")
            if attempt:
                count("resilience.retries")

        def dispatch(args, kwargs, result, elapsed) -> None:
            units = args[1] if len(args) > 1 else kwargs.get("units", ())
            workers = min(int(kwargs.get("workers", 1)), max(len(units), 1))
            count("resilience.quarantined", len(result.holes))
            count("resilience.capacity_s", workers * elapsed)

        return {
            "EventLog.record": event,
            "ResultCache.get": cache_get,
            "RecordLog.append": append,
            "Tracer.begin": begin,
            "SupervisedPool.submit": submit,
            "supervised_map": dispatch,
        }


def _empty_export() -> Dict[str, Any]:
    return {
        "busy_s": 0.0,
        "self_s": dict.fromkeys(LAYERS, 0.0),
        "wait_s": dict.fromkeys(LAYERS, 0.0),
        "calls": dict.fromkeys(LAYERS, 0),
        "counts": dict.fromkeys(COUNTERS, 0),
    }


def _merge(into: Dict[str, Any], data: Dict[str, Any]) -> None:
    into["busy_s"] += data["busy_s"]
    for table in ("self_s", "wait_s", "calls", "counts"):
        for key, value in data[table].items():
            into[table][key] = into[table].get(key, 0) + value


def _flush_files(directory: str) -> List[str]:
    try:
        names = os.listdir(directory)
    except FileNotFoundError:
        return []
    return sorted(
        n for n in names if n.startswith(_FLUSH_PREFIX) and n.endswith(".json")
    )


def import_layers() -> None:
    """Import every module of the wrapped packages, so discovery sees
    all their classes and every module that re-binds their functions."""
    for package in DISCOVERED_PACKAGES + ("repro.experiments", "repro.sweep",
                                          "repro.fleet", "repro.serve"):
        module = importlib.import_module(package)
        for info in pkgutil.walk_packages(module.__path__, package + "."):
            importlib.import_module(info.name)
    importlib.import_module("repro.cli")


def _function_bindings() -> Dict[int, List[Tuple[Any, str]]]:
    """``id(function) -> [(module, name)]`` over every loaded module."""
    bindings: Dict[int, List[Tuple[Any, str]]] = {}
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if not namespace:
            continue
        for name, value in list(namespace.items()):
            if inspect.isfunction(value):
                bindings.setdefault(id(value), []).append((module, name))
    return bindings


def _wrappable_class(cls: type) -> bool:
    import enum

    return not issubclass(cls, (BaseException, enum.Enum, tuple))


def _wrappable_member(cls: type, name: str) -> bool:
    if name != "__init__" and name.startswith("_"):
        return False
    raw = cls.__dict__[name]
    bound = isinstance(raw, (staticmethod, classmethod))
    func = raw.__func__ if bound else raw
    if not inspect.isfunction(func):
        return False  # properties, constants, nested classes
    if getattr(func, "__isabstractmethod__", False):
        return False
    return not inspect.isgeneratorfunction(func)


def layer_table(
    data: Dict[str, Any], main_wall_s: float
) -> Tuple[List[Tuple[str, float, float, int, float]], float, float]:
    """Rows ``(layer, self_s, share, calls, wait_s)`` plus ``other``.

    The accounted total is the main thread's wall plus the busy time of
    every other thread and process; ``other`` is the part of the main
    wall outside any wrapped call.  Returns ``(rows, total, other)``.
    """
    other_busy = data["busy_s"] - data["main_busy_s"]
    total = main_wall_s + other_busy
    other = main_wall_s - data["main_busy_s"]
    rows = []
    for layer in LAYERS:
        self_s = data["self_s"][layer]
        rows.append((
            layer, self_s, self_s / total if total else 0.0,
            int(data["calls"][layer]), data["wait_s"][layer],
        ))
    rows.append(("other", other, other / total if total else 0.0, 0, 0.0))
    return rows, total, other

"""Outside-in span tracer: where does the host time of one op go, per layer?

The tracer edits no source file.  While installed it rebinds every *boundary*
(see :mod:`boundaries`) in every loaded ``repro.*`` namespace — and, for
methods, on the defining class — to a wrapper that logs an enter and an exit
event around the call:

* a plain callable gets one span per call;
* a generator function, an SPMD program (anything with ``.co``) or a function
  declared ``"gen"`` gets one span per *resume*, through a forwarding
  generator that is itself a generator function (so ``SpmdProgram`` and the
  coroutine engine accept it unchanged);
* a function declared ``"outermost"`` (recursive ``payload_words``) is
  spanned at its outermost call only: while it runs, the name in its own
  module is pointed back at the original, so the recursion pays nothing.

The hot path is two ``list.append`` pairs per span into a per-thread event
log ``[code, t, code, t, ...]``; parents, durations and self times are
reconstructed afterwards with numpy (:func:`decode`).  A layer's self time is
its spans' duration minus the part covered by child spans, so the self times
of all layers partition the root spans exactly.

One known perturbation: wrapping ``Communicator.send`` adds a reference to the
payload, so the engine's zero-copy elision never fires under tracing.  The
simulated summary is unaffected (words are charged either way); the benchmark
reads ``zero_copy_ratio`` from an untraced op.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

_EXIT = -1
_MARK = "__e2e_span_original__"


@dataclass(frozen=True)
class Boundary:
    """One traced name: ``layer.qualname`` and the object it wraps."""

    name: str
    layer: str
    kind: str  # "call" | "gen" | "spmd" | "outermost"
    original: object
    owner: Optional[type] = None  # the defining class, for a method


def _layer_of(obj: object, fallback: str) -> str:
    module = getattr(obj, "__module__", "") or ""
    parts = module.split(".")
    return parts[1] if len(parts) > 1 and parts[0] == "repro" else fallback


def _auto_kind(obj: object) -> Optional[str]:
    """How to wrap a package-level public object (``None``: leave it alone)."""
    if inspect.isclass(obj):
        return None
    if inspect.isgeneratorfunction(obj):
        return "gen"
    if inspect.isfunction(obj):
        return "call"
    if callable(getattr(obj, "co", None)) and inspect.isgeneratorfunction(
        getattr(obj, "__wrapped__", None)
    ):
        return "spmd"
    return None


class Tracer:
    """Installs span wrappers on the boundaries and harvests their events.

    Parameters
    ----------
    layers:
        Package names under ``repro``; every function / SPMD program in each
        package's ``__all__`` is a boundary.
    extra:
        ``(spec, kind)`` pairs naming further boundaries: ``"module:func"`` or
        ``"module:Class.method"``; ``kind`` is ``None`` (detect) or one of
        ``"call"``, ``"gen"``, ``"outermost"``.
    optional:
        Specs in ``extra`` that may be missing without it being an error
        (private names the benchmark can live without).
    """

    def __init__(
        self,
        layers: Sequence[str],
        extra: Iterable[Tuple[str, Optional[str]]] = (),
        optional: Iterable[str] = (),
    ) -> None:
        self.layers = tuple(layers)
        self._extra = tuple(extra)
        self._optional = frozenset(optional)
        self.boundaries: List[Boundary] = []
        self.unresolved: List[str] = []
        self.never_bound: List[str] = []
        self._local = threading.local()
        self._logs: List[list] = []
        self._logs_lock = threading.Lock()
        # (namespace object, attribute, original) for every binding replaced.
        self._patched: List[Tuple[object, str, object]] = []
        self._installed = False

    # ---------------------------------------------------------------- logs
    def _new_log(self) -> list:
        log: list = []
        self._local.log = log
        with self._logs_lock:
            self._logs.append(log)
        return log

    def harvest(self) -> "Spans":
        """Decode and clear every thread's event log (threads must be idle)."""
        with self._logs_lock:
            events = [log[:] for log in self._logs]
            for log in self._logs:
                del log[:]
        return decode(events, self.boundaries)

    # ------------------------------------------------------------ wrappers
    def _wrap_call(self, fn: Callable, sid: int) -> Callable:
        local, new_log, now = self._local, self._new_log, perf_counter
        code = sid << 1 | 1

        @functools.wraps(fn)
        def span_call(*args, **kwargs):
            try:
                log = local.log
            except AttributeError:
                log = new_log()
            log.append(code)
            log.append(now())
            try:
                return fn(*args, **kwargs)
            finally:
                log.append(_EXIT)
                log.append(now())

        return span_call

    def _wrap_outermost(self, fn: Callable, sid: int) -> Callable:
        local, new_log, now = self._local, self._new_log, perf_counter
        home, name = fn.__globals__, fn.__name__
        code = sid << 1 | 1

        @functools.wraps(fn)
        def span_outermost(*args, **kwargs):
            try:
                log = local.log
            except AttributeError:
                log = new_log()
            log.append(code)
            log.append(now())
            home[name] = fn  # the recursion resolves this name: skip the wrapper
            try:
                return fn(*args, **kwargs)
            finally:
                home[name] = span_outermost
                log.append(_EXIT)
                log.append(now())

        return span_outermost

    def _wrap_gen(self, fn: Callable, sid: int) -> Callable:
        """Forwarding generator: one span per resume of ``fn``'s generator."""
        local, new_log, now = self._local, self._new_log, perf_counter
        first, later = sid << 1 | 1, sid << 1

        @functools.wraps(fn)
        def span_gen(*args, **kwargs):
            gen = fn(*args, **kwargs)
            try:
                log = local.log
            except AttributeError:
                log = new_log()
            code = first
            step, arg = gen.send, None
            while True:
                log.append(code)
                log.append(now())
                try:
                    request = step(arg)
                except StopIteration as stop:
                    return stop.value
                finally:
                    log.append(_EXIT)
                    log.append(now())
                code = later
                try:
                    arg = yield request
                    step = gen.send
                except GeneratorExit:
                    gen.close()
                    raise
                except BaseException as exc:  # forwarded into the program
                    step, arg = gen.throw, exc

        return span_gen

    def _make_wrapper(self, boundary: Boundary, sid: int) -> object:
        obj = boundary.original
        if boundary.kind == "call":
            wrapper = self._wrap_call(obj, sid)
        elif boundary.kind == "outermost":
            wrapper = self._wrap_outermost(obj, sid)
        elif boundary.kind == "gen":
            wrapper = self._wrap_gen(obj, sid)
        else:  # "spmd": rebuild the dual-interface object around the proxy
            wrapper = type(obj)(self._wrap_gen(obj.__wrapped__, sid))
        setattr(wrapper, _MARK, obj)
        return wrapper

    # ----------------------------------------------------------- resolving
    def _resolve(self) -> List[Boundary]:
        found: List[Boundary] = []
        index: Dict[int, int] = {}  # id(original) -> position in found
        for package_layer in self.layers:
            package = importlib.import_module(f"repro.{package_layer}")
            for public in getattr(package, "__all__", ()):
                obj = getattr(package, public, None)
                kind = _auto_kind(obj)
                if kind is None or id(obj) in index:
                    continue
                layer = _layer_of(obj, package_layer)
                index[id(obj)] = len(found)
                found.append(Boundary(f"{layer}.{public}", layer, kind, obj))
        for spec, kind in self._extra:
            module_name, _, path = spec.partition(":")
            try:
                target = importlib.import_module(module_name)
                *holders, attr = path.split(".")
                for holder in holders:
                    target = getattr(target, holder)
                obj = vars(target)[attr]
            except (ImportError, AttributeError, KeyError):
                if spec not in self._optional:
                    self.unresolved.append(spec)
                continue
            kind = kind or _auto_kind(obj) or "call"
            if id(obj) in index:  # an __all__ name given an explicit kind
                known = found[index[id(obj)]]
                found[index[id(obj)]] = Boundary(known.name, known.layer, kind, obj)
                continue
            layer = module_name.split(".")[1]
            owner = target if inspect.isclass(target) else None
            found.append(Boundary(f"{layer}.{path}", layer, kind, obj, owner))
        return found

    # ------------------------------------------------------------- install
    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer already installed")
        self.unresolved = []
        self.boundaries = self._resolve()
        by_original: Dict[int, Tuple[int, object]] = {}
        bound: set = set()
        for sid, boundary in enumerate(self.boundaries):
            wrapper = self._make_wrapper(boundary, sid)
            if boundary.owner is not None:
                attr = boundary.original.__name__
                setattr(boundary.owner, attr, wrapper)
                self._patched.append((boundary.owner, attr, boundary.original))
                bound.add(sid)
            else:
                by_original[id(boundary.original)] = (sid, wrapper)
        for module in _repro_modules():
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                hit = by_original.get(id(value))
                if hit is not None:
                    namespace[attr] = hit[1]
                    self._patched.append((module, attr, value))
                    bound.add(hit[0])
        self.never_bound = [
            b.name for sid, b in enumerate(self.boundaries) if sid not in bound
        ]
        self._installed = True

    def uninstall(self) -> List[str]:
        """Restore every binding; returns the names still wrapped (should be none)."""
        for namespace, attr, original in reversed(self._patched):
            setattr(namespace, attr, original)
        self._patched = []
        # Modules imported while tracing was on bound wrappers by import.
        for module in _repro_modules():
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                original = getattr(value, _MARK, None)
                if original is not None:
                    namespace[attr] = original
        self._installed = False
        return leftover_wrappers()


def _repro_modules() -> List[object]:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def leftover_wrappers() -> List[str]:
    """Every ``repro.*`` binding (module or class level) still a span wrapper."""
    left = []
    for module in _repro_modules():
        for attr, value in list(vars(module).items()):
            if getattr(value, _MARK, None) is not None:
                left.append(f"{module.__name__}.{attr}")
            if inspect.isclass(value) and value.__module__ == module.__name__:
                for name, member in list(vars(value).items()):
                    if getattr(member, _MARK, None) is not None:
                        left.append(f"{module.__name__}.{attr}.{name}")
    return left


# ---------------------------------------------------------------------------
# Decoding and aggregation.

class Spans:
    """The spans of one traced region, as parallel numpy columns.

    ``sid`` indexes ``boundaries``; ``first`` is false for the second and
    later resumes of a generator; ``parent`` is a span index (``-1``: root);
    ``thread`` numbers the event logs.
    """

    def __init__(self, boundaries, sid, first, t0, t1, parent, depth, thread):
        self.boundaries: List[Boundary] = list(boundaries)
        self.sid, self.first = sid, first
        self.t0, self.t1 = t0, t1
        self.parent, self.depth, self.thread = parent, depth, thread
        self.dur = t1 - t0
        n = len(self.boundaries)
        has_parent = parent >= 0
        child = np.bincount(
            parent[has_parent], weights=self.dur[has_parent], minlength=len(sid)
        )
        self.self_time = self.dur - child
        self._self_by_sid = np.bincount(sid, weights=self.self_time, minlength=n)
        self._calls_by_sid = np.bincount(sid[first], minlength=n)
        self._spans_by_sid = np.bincount(sid, minlength=n)
        self._index: Dict[str, List[int]] = {}
        for i, b in enumerate(self.boundaries):
            self._index.setdefault(b.name, []).append(i)

    def __len__(self) -> int:
        return len(self.sid)

    def _sids(self, names: Iterable[str]) -> List[int]:
        return [i for name in names for i in self._index.get(name, ())]

    @property
    def root_s(self) -> float:
        """Total duration of the root spans (what the self times partition)."""
        return float(self.dur[self.parent < 0].sum())

    def self_s(self, *names: str) -> float:
        return float(sum(self._self_by_sid[i] for i in self._sids(names)))

    def calls(self, *names: str) -> int:
        """Invocations (a generator counts once, however often it resumes)."""
        return int(sum(self._calls_by_sid[i] for i in self._sids(names)))

    def resumes(self, *names: str) -> int:
        return int(sum(self._spans_by_sid[i] for i in self._sids(names)))

    def incl_s(self, *names: str) -> float:
        """Inclusive seconds of the named spans, nested repeats counted once."""
        return float(self.dur[self._topmost(names)].sum())

    def durations(self, *names: str) -> np.ndarray:
        """Durations of the outermost spans with these names, in start order."""
        return self.dur[self._topmost(names)]

    def _topmost(self, names: Iterable[str]) -> np.ndarray:
        member = np.isin(self.sid, self._sids(names))
        covered = member.copy()  # span is, or lies under, a member
        for d in range(2, int(self.depth.max(initial=0)) + 1):
            at = np.nonzero(self.depth == d)[0]
            covered[at] |= covered[self.parent[at]]
        under = np.zeros(len(member), dtype=bool)
        has_parent = self.parent >= 0
        under[has_parent] = covered[self.parent[has_parent]]
        return member & ~under

    def resumes_under(self, name: str) -> int:
        """Generator resumes whose direct parent is a ``name`` span."""
        generators = [
            i for i, b in enumerate(self.boundaries) if b.kind in ("gen", "spmd")
        ]
        at = np.nonzero((self.parent >= 0) & np.isin(self.sid, generators))[0]
        return int(np.isin(self.sid[self.parent[at]], self._sids([name])).sum())

    def layer_self_s(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for i, b in enumerate(self.boundaries):
            out[b.layer] = out.get(b.layer, 0.0) + float(self._self_by_sid[i])
        return out

    def layer_calls(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for i, b in enumerate(self.boundaries):
            out[b.layer] = out.get(b.layer, 0) + int(self._calls_by_sid[i])
        return out

    def rows(self) -> List[dict]:
        """One dict per span (name, layer, start, end, parent) for dumping."""
        return [
            {
                "name": self.boundaries[s].name,
                "layer": self.boundaries[s].layer,
                "start": float(a),
                "end": float(b),
                "parent": int(p),
                "thread": int(t),
            }
            for s, a, b, p, t in zip(self.sid, self.t0, self.t1, self.parent, self.thread)
        ]


def decode(event_logs: Sequence[list], boundaries: Sequence[Boundary]) -> Spans:
    """Rebuild spans (with parents) from per-thread ``[code, t, ...]`` logs.

    Spans nest properly within a thread, so at nesting depth ``d`` enters and
    exits alternate: the k-th enter at depth ``d`` closes at the k-th exit at
    depth ``d``, and its parent is the latest enter at depth ``d - 1``.
    """
    cols: Dict[str, list] = {k: [] for k in ("sid", "first", "t0", "t1", "parent", "depth", "thread")}
    offset = 0
    for thread, log in enumerate(event_logs):
        if not log:
            continue
        codes = np.asarray(log[0::2], dtype=np.int64)
        times = np.asarray(log[1::2], dtype=np.float64)
        enter = codes >= 0
        level = np.cumsum(np.where(enter, 1, -1))
        if level[-1] != 0 or level.min() < 0:
            raise RuntimeError("unbalanced span log: a traced region is still open")
        span_of_event = np.cumsum(enter) - 1  # span index of each enter event
        n = int(enter.sum())
        t0 = times[enter]
        t1 = np.empty(n)
        parent = np.full(n, -1, dtype=np.int64)
        depth = level[enter]
        exit_level = level[~enter] + 1
        exit_pos = np.nonzero(~enter)[0]
        enter_pos = np.nonzero(enter)[0]
        previous = None
        for d in range(1, int(depth.max()) + 1):
            mine = enter_pos[depth == d]
            closes = exit_pos[exit_level == d]
            t1[span_of_event[mine]] = times[closes]
            if previous is not None:
                owner = previous[np.searchsorted(previous, mine) - 1]
                parent[span_of_event[mine]] = span_of_event[owner] + offset
            previous = mine
        cols["sid"].append(codes[enter] >> 1)
        cols["first"].append((codes[enter] & 1).astype(bool))
        cols["t0"].append(t0)
        cols["t1"].append(t1)
        cols["parent"].append(parent)
        cols["depth"].append(depth)
        cols["thread"].append(np.full(n, thread, dtype=np.int64))
        offset += n

    def cat(key: str, dtype) -> np.ndarray:
        return np.concatenate(cols[key]).astype(dtype) if cols[key] else np.empty(0, dtype=dtype)

    return Spans(
        boundaries,
        cat("sid", np.int64),
        cat("first", bool),
        cat("t0", np.float64),
        cat("t1", np.float64),
        cat("parent", np.int64),
        cat("depth", np.int64),
        cat("thread", np.int64),
    )

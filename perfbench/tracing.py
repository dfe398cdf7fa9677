"""Spans around calls into the package's public functions.

``Tracer.install`` replaces each wrapped function where the package binds it:
methods on their class, module-level functions in every ``dualquat`` module
that imported them (``mixed_sum`` in ``dualquaternion`` and ``selfcheck``,
``finite`` in ``dual`` and ``quaternion``, ...), so no call escapes the
count.  ``restore`` puts the originals back.

A span is ``(name, parent, start_ns, end_ns)``, kept in flat arrays while the
run lasts and written out by ``write``.  A span's self time is its duration
minus the time its child spans cover.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from array import array
from contextlib import contextmanager

# (span name, module, owner class or None, attribute names)
WRAPPED = (
    ("common.finite", "_common", None, ("finite",)),
    ("dual.DualNumber", "dual", "DualNumber", ("__init__",)),
    ("dual.mul", "dual", "DualNumber", ("__mul__", "__rmul__")),
    ("dual.sqrt", "dual", "DualNumber", ("sqrt",)),
    ("dual.order", "dual", "DualNumber", ("__lt__", "__le__", "__gt__", "__ge__", "compare")),
    ("quaternion.Quaternion", "quaternion", "Quaternion", ("__init__",)),
    ("quaternion.mul", "quaternion", "Quaternion", ("__mul__",)),
    ("quaternion.mixed_sum", "quaternion", None, ("mixed_sum",)),
    ("quaternion.norm", "quaternion", "Quaternion", ("norm",)),
    ("dualquaternion.magnitude", "dualquaternion", "DualQuaternion", ("magnitude",)),
    ("dualquaternion.magnitude_via_sqrt", "dualquaternion", "DualQuaternion", ("magnitude_via_sqrt",)),
    ("dualquaternion.mul", "dualquaternion", "DualQuaternion", ("__mul__",)),
    ("dualquaternion.inverse", "dualquaternion", "DualQuaternion", ("inverse",)),
    ("dualquaternion.unit_check", "dualquaternion", "DualQuaternion", ("unit_check",)),
    ("vectors.norm1", "vectors", "DQVector", ("norm1",)),
    ("vectors.norm2", "vectors", "DQVector", ("norm2",)),
    ("vectors.norm_inf", "vectors", "DQVector", ("norm_inf",)),
    ("vectors.norm_inf_index", "vectors", "DQVector", ("norm_inf_index",)),
    ("vectors.norm2_closed_form", "vectors", "DQVector", ("norm2_closed_form",)),
    ("vectors.inner", "vectors", "DQVector", ("inner",)),
    ("vectors.unit_check", "vectors", "DQVector", ("unit_check",)),
    ("vectors.basis_check", "vectors", None, ("basis_check",)),
    ("documents.parse_document", "documents", None, ("parse_document",)),
    ("documents.render_document", "documents", None, ("render_document",)),
    ("cli.main", "cli", None, ("main",)),
)

SPAN_NAMES = tuple(name for name, *_ in WRAPPED)
SUITE_PREFIX = "selfcheck.suite."


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.errors: dict[str, int] = {}
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []
        # Distinct vectors handed to the vectors layer, kept alive so that
        # their ids stay unique: id -> (vector, entry count).
        self.vectors_seen: dict[int, tuple[object, int]] = {}

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, func, error_type=None, on_enter=None):
        nid = self._name_id(name)
        stack = self._stack
        names, parents, starts, ends = self.span_name, self.span_parent, self.span_start, self.span_end
        errors = self.errors
        clock = time.perf_counter_ns
        catch = error_type or ()

        def wrapper(*args, **kwargs):
            if on_enter is not None:
                on_enter(args)
            sid = len(names)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0)
            ends.append(0)
            stack.append(sid)
            start = clock()
            try:
                return func(*args, **kwargs)
            except catch:
                errors[name] = errors.get(name, 0) + 1
                raise
            finally:
                end = clock()
                stack.pop()
                starts[sid] = start
                ends[sid] = end

        wrapper.__wrapped__ = func
        wrapper.__name__ = getattr(func, "__name__", name)
        return wrapper

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        sid = len(self.span_name)
        self.span_name.append(self._name_id(name))
        self.span_parent.append(self._stack[-1])
        self.span_start.append(time.perf_counter_ns())
        self.span_end.append(0)
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            self.span_end[sid] = time.perf_counter_ns()

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every function in ``WRAPPED`` and every selfcheck suite."""
        from dualquat.errors import DualQuatError

        modules = _package_modules()
        for name, module_name, owner_name, attrs in WRAPPED:
            module = modules[f"dualquat.{module_name}"]
            on_enter = self._count_entries if module_name == "vectors" else None
            if owner_name is not None:
                owner = getattr(module, owner_name)
                done = {}
                for attr in attrs:
                    func = owner.__dict__[attr]
                    if id(func) not in done:
                        done[id(func)] = self.wrap(name, func, DualQuatError, on_enter)
                    self._set(owner, attr, done[id(func)])
                continue
            func = getattr(module, attrs[0])
            wrapper = self.wrap(name, func, DualQuatError, on_enter)
            # Rebind the function in every module that imported it by name.
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is func:
                        self._set(mod, attr, wrapper)
        self.install_suites()

    def install_suites(self) -> None:
        """Wrap the selfcheck suites, so each one reports its own time.

        Relies on the registry ``selfcheck._SUITES`` of ``(name, function)``
        pairs, which ``run_all`` reads when it is called.
        """
        selfcheck = sys.modules["dualquat.selfcheck"]
        suites = selfcheck.__dict__["_SUITES"]
        wrapped = tuple((name, self.wrap(SUITE_PREFIX + name, func)) for name, func in suites)
        self._set(selfcheck, "_SUITES", wrapped)

    def restore(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def _count_entries(self, args) -> None:
        first = args[0] if args else None
        candidates = first if isinstance(first, (list, tuple)) else args[:2]
        for vector in candidates:
            if hasattr(vector, "entries") and id(vector) not in self.vectors_seen:
                self.vectors_seen[id(vector)] = (vector, len(vector.entries))

    # -- analysis --------------------------------------------------------------

    def summary(self, root: str | None = None) -> dict[str, dict]:
        """Calls, total seconds and self seconds per span name.

        With ``root``, only spans below a span of that name count.
        """
        count = len(self.span_name)
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        child_ns = [0] * count
        for sid in range(count):
            if parents[sid] >= 0:
                child_ns[parents[sid]] += ends[sid] - starts[sid]
        inside = self._below(lambda name: name == root) if root else None
        out: dict[str, dict] = {}
        for sid in range(count):
            if inside is not None and not inside[sid]:
                continue
            row = out.setdefault(self.names[names[sid]], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            duration = ends[sid] - starts[sid]
            row["calls"] += 1
            row["total_s"] += duration / 1e9
            row["self_s"] += (duration - child_ns[sid]) / 1e9
        return out

    def _below(self, match) -> list[bool]:
        """Whether each span has an ancestor whose name ``match`` accepts."""
        marked = [match(name) for name in self.names]
        flags = [False] * len(self.span_name)
        for sid in range(len(self.span_name)):
            parent = self.span_parent[sid]
            if parent >= 0:
                flags[sid] = flags[parent] or marked[self.span_name[parent]]
        return flags

    def children_per_parent(self, child: str, parent: str) -> float:
        """Spans named ``child`` whose direct parent is named ``parent``, per ``parent`` span."""
        cid, pid = self._ids.get(child, -2), self._ids.get(parent, -2)
        parents = sum(1 for n in self.span_name if n == pid)
        hits = sum(
            1 for sid, n in enumerate(self.span_name)
            if n == cid and self.span_parent[sid] >= 0 and self.span_name[self.span_parent[sid]] == pid
        )
        return hits / parents if parents else 0.0

    def calls_below_prefix(self, child: str, prefix: str) -> int:
        """Spans named ``child`` that have an ancestor whose name starts with ``prefix``."""
        cid = self._ids.get(child, -2)
        below = self._below(lambda name: name.startswith(prefix))
        return sum(1 for sid, n in enumerate(self.span_name) if n == cid and below[sid])

    def write(self, path: str, extra: dict) -> None:
        """Write every span and ``extra`` as gzipped JSON."""
        payload = {
            "names": self.names,
            "columns": ["name", "parent", "start_ns", "end_ns"],
            "name": self.span_name.tolist(),
            "parent": self.span_parent.tolist(),
            "start_ns": self.span_start.tolist(),
            "end_ns": self.span_end.tolist(),
            **extra,
        }
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            json.dump(payload, handle)


def _package_modules() -> dict:
    return {name: mod for name, mod in sys.modules.items()
            if mod is not None and (name == "dualquat" or name.startswith("dualquat."))}

"""Per-class timing wrappers that split every solve into four layers.

- ``algo``: the solver's own code.  The benchmark opens one root span per
  solve, so algo self time is solve wall time minus everything below.
- ``core``: the public methods of ``SubmodularFunction`` and the
  ``ValueOracleFunction`` overrides (id checks, counters, ``Subset``
  bookkeeping, VO index arrays).
- ``functions``: the per-class statistic hooks.
- ``oracle``: ``_evaluate`` when a ``core`` method calls it.  A hook that
  computes its answer through ``_evaluate`` (the default ``_singleton``)
  keeps that time as its own, so PM runs show zero oracle calls.

Wrappers are installed on the classes, not on instances, so clones made
inside solvers (``clone_detached``/``_spawn``), VO's ``_inner``, a penalised
``base`` and mixture children are all covered.  Spans (name, start, end,
parent, solve) are kept in flat arrays while tracing and summarised or
written out afterwards.  Outside an open solve the wrappers only forward.
"""

from __future__ import annotations

import array
import functools
import time

import numpy as np

from submemo.core import SubmodularFunction, ValueOracleFunction

LAYERS = ("algo", "core", "functions", "oracle")
CORE_METHODS = (
    "evaluate",
    "gain_add",
    "gain_remove",
    "gain_singleton",
    "update",
    "downdate",
    "set_memo",
    "memo_value",
    "clone_detached",
)
HOOKS = {
    "_gain_add": "gain_add",
    "_gain_remove": "gain_remove",
    "_singleton": "singleton",
    "_update": "update",
    "_downdate": "downdate",
    "_rebuild": "rebuild",
    "_value_from_statistic": "value_from_statistic",
}
ORACLE_HOOK = "_evaluate"
_NO_PARENT = -1


def _all_classes():
    seen, todo = [], [SubmodularFunction]
    while todo:
        cls = todo.pop()
        if cls not in seen:
            seen.append(cls)
            todo.extend(cls.__subclasses__())
    return seen


class Tracer:
    """Span recorder; ``install`` patches the classes, ``uninstall`` restores them."""

    def __init__(self):
        self.names: list[tuple[str, str, str]] = []  # (layer, class, op) per name id
        self.layer_of: list[int] = []
        self.name = array.array("q")
        self.start = array.array("q")
        self.end = array.array("q")
        self.parent = array.array("q")
        self.solve = array.array("q")
        self.oracle_elems = 0
        self.oracle_bytes = 0.0
        self.row_bytes: dict[int, float] = {}
        self._stack = [_NO_PARENT]
        self._solve_id = -1
        self._algo_ids: dict[str, int] = {}
        self._patched: list[tuple[type, str, object]] = []

    # -- recording ---------------------------------------------------------

    def clear(self) -> None:
        for col in (self.name, self.start, self.end, self.parent, self.solve):
            del col[:]
        self.oracle_elems = 0
        self.oracle_bytes = 0.0

    def _name_id(self, layer: str, cls: str, op: str) -> int:
        self.names.append((layer, cls, op))
        self.layer_of.append(LAYERS.index(layer))
        return len(self.names) - 1

    def _open(self, nid: int) -> int:
        sid = len(self.end)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.solve.append(self._solve_id)
        self.end.append(0)
        self._stack.append(sid)
        self.start.append(time.perf_counter_ns())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter_ns()
        self._stack.pop()

    def solve_span(self, solve_id: int, label: str, fn):
        """Run ``fn()`` as solve ``solve_id`` under a root algo span."""
        nid = self._algo_ids.get(label)
        if nid is None:
            nid = self._algo_ids[label] = self._name_id("algo", "", label)
        self._solve_id = solve_id
        sid = self._open(nid)
        try:
            return fn()
        finally:
            self._close(sid)
            self._solve_id = -1

    def _wrap(self, fn, nid: int):
        # _open/_close inlined: this runs around every gain and update
        tracer, stack, end, clock = self, self._stack, self.end, time.perf_counter_ns
        name, parent, solve, start = self.name.append, self.parent.append, self.solve.append, self.start.append

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if tracer._solve_id < 0:
                return fn(*args, **kwargs)
            sid = len(end)
            name(nid)
            parent(stack[-1])
            solve(tracer._solve_id)
            end.append(0)
            stack.append(sid)
            start(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()

        return timed

    def _wrap_oracle(self, fn, nid: int):
        tracer = self
        core = LAYERS.index("core")

        @functools.wraps(fn)
        def timed(obj, idx):
            top = tracer._stack[-1]
            if tracer._solve_id < 0 or top == _NO_PARENT or (
                tracer.layer_of[tracer.name[top]] != core
            ):
                return fn(obj, idx)
            tracer.oracle_elems += idx.size
            tracer.oracle_bytes += idx.size * tracer._row_bytes(obj)
            sid = tracer._open(nid)
            try:
                return fn(obj, idx)
            finally:
                tracer._close(sid)

        return timed

    def _row_bytes(self, obj) -> float:
        while isinstance(obj, ValueOracleFunction):
            obj = obj._inner
        return self.row_bytes.get(id(getattr(obj, "data", None)), 0.0)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for cls in _all_classes():
            own = cls.__dict__
            for meth in CORE_METHODS:
                if meth in own:
                    self._patch(cls, meth, self._wrap(own[meth], self._name_id("core", cls.__name__, meth)))
            for hook, op in HOOKS.items():
                if hook in own:
                    self._patch(cls, hook, self._wrap(own[hook], self._name_id("functions", cls.__name__, op)))
            if ORACLE_HOOK in own:
                nid = self._name_id("oracle", cls.__name__, "evaluate")
                self._patch(cls, ORACLE_HOOK, self._wrap_oracle(own[ORACLE_HOOK], nid))

    def _patch(self, cls, attr, wrapper) -> None:
        self._patched.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            cls, attr, original = self._patched.pop()
            setattr(cls, attr, original)

    # -- summaries ---------------------------------------------------------

    def arrays(self) -> dict:
        """Spans as numpy columns plus the name table (for writing out)."""
        return {
            "name": np.array(self.name, dtype=np.int64),
            "start_ns": np.array(self.start, dtype=np.int64),
            "end_ns": np.array(self.end, dtype=np.int64),
            "parent": np.array(self.parent, dtype=np.int64),
            "solve": np.array(self.solve, dtype=np.int64),
            "name_table": np.asarray(["/".join(t) for t in self.names]),
        }

    def summary(self) -> dict:
        """Self times per layer and op, boundary-crossing counts, per-solve sums.

        A span's self time is its duration minus the durations of its direct
        children; a call is counted where it crosses into its layer.
        """
        cols = self.arrays()
        name, parent, solve = cols["name"], cols["parent"], cols["solve"]
        dur = cols["end_ns"] - cols["start_ns"]
        n = dur.size
        has_parent = parent >= 0
        covered = np.zeros(n, dtype=np.int64)
        np.add.at(covered, parent[has_parent], dur[has_parent])
        self_ns = dur - covered
        layer_of = np.asarray(self.layer_of, dtype=np.int64)
        layer = layer_of[name]
        parent_layer = np.where(has_parent, layer[np.maximum(parent, 0)], -1)
        crossing = layer != parent_layer
        per_name_self = np.bincount(name, weights=self_ns, minlength=len(self.names))
        per_name_calls = np.bincount(name[crossing], minlength=len(self.names))
        out = {
            "layer_self_ns": {
                LAYERS[i]: int(self_ns[layer == i].sum()) for i in range(len(LAYERS))
            },
            "op_self_ns": {},
            "op_calls": {},
            "oracle_elems": self.oracle_elems,
            "oracle_bytes": self.oracle_bytes,
        }
        for nid, (lay, _cls, op) in enumerate(self.names):
            if lay == "algo":
                continue
            key = f"{lay}.{op}"
            out["op_self_ns"][key] = out["op_self_ns"].get(key, 0) + int(per_name_self[nid])
            out["op_calls"][key] = out["op_calls"].get(key, 0) + int(per_name_calls[nid])
        roots = np.flatnonzero(~has_parent)
        solve_self = np.bincount(solve, weights=self_ns, minlength=int(solve.max(initial=-1)) + 1)
        out["solve_wall_ns"] = {int(solve[r]): int(dur[r]) for r in roots}
        out["solve_self_sum_ns"] = {int(solve[r]): int(solve_self[solve[r]]) for r in roots}
        return out

"""Span tracer for the traced benchmark run.

``Tracer.install`` wraps every public function of the vesprod modules
(``families``, ``substitution``, ``estimation``, ``oracles``, ``cli``) and
rebinds the wrapper in every ``vesprod`` namespace that holds the
function, so nested public calls become child spans.  A span is the
function's name, start, end, parent span and operation id; spans are kept
in flat arrays until ``summary`` folds them into additive per-layer
totals.  Calls that bypass the public names are invisible to the tracer:
counts are only comparable between versions that route calls through the
same public names.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = ("families", "substitution", "estimation", "oracles", "cli")

#: functions whose inclusive time per call is reported on its own
TIMED = ("validity_range", "classify_regime", "verify_family", "ode_integrate_theorem",
         "load_dataset", "fit_loglinear", "diagnose_fit", "main")


def public_functions(module) -> list[str]:
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    return [n for n in names
            if inspect.isfunction(getattr(module, n, None))
            and getattr(module, n).__module__ == module.__name__]


def _note_constraints(counters, args, result) -> None:
    if not result:
        counters["valid_checks"] += 1


def _note_verify(counters, args, result) -> None:
    counters["verify_points"] += result.points_checked


def _note_load(counters, args, result) -> None:
    counters["rows"] += len(result.rows)
    counters["bytes_in"] += len(args[0].encode())


_NOTES = {"violated_constraints": _note_constraints,
          "verify_family": _note_verify,
          "load_dataset": _note_load}


class Tracer:
    def __init__(self) -> None:
        self.names: list[tuple[int, str]] = []   # (layer index, function name)
        self.name_id = array("H")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self.counters: Counter = Counter()
        self.op_id = -1
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.start)

    def install(self) -> None:
        from vesprod.errors import VesprodError
        modules = {layer: importlib.import_module(f"vesprod.{layer}") for layer in LAYERS}
        namespaces = [m for name, m in list(sys.modules.items())
                      if name == "vesprod" or name.startswith("vesprod.")]
        for layer_idx, layer in enumerate(LAYERS):
            for name in public_functions(modules[layer]):
                fn = getattr(modules[layer], name)
                self.names.append((layer_idx, name))
                wrapper = self._wrap(len(self.names) - 1, fn, VesprodError, _NOTES.get(name))
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is fn:
                            self._restore.append((ns, attr, fn))
                            setattr(ns, attr, wrapper)

    def uninstall(self) -> None:
        for ns, attr, fn in reversed(self._restore):
            setattr(ns, attr, fn)
        self._restore.clear()

    def _wrap(self, nid, fn, error_type, note):
        name_id, parent, op, start, end, raised = (
            self.name_id, self.parent, self.op, self.start, self.end, self.raised)
        stack, counters, clock, tracer = self._stack, self.counters, time.perf_counter, self

        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            op.append(tracer.op_id)
            raised.append(0)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except error_type:
                raised[i] = 1
                raise
            finally:
                end[i] = clock()
                stack.pop()
            if note is not None:
                note(counters, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def summary(self) -> dict:
        """Additive totals: summaries of several processes can be summed."""
        n = len(self.start)
        ids = np.frombuffer(self.name_id, dtype=np.uint16, count=n).astype(np.intp)
        parent = np.frombuffer(self.parent, dtype=np.int32, count=n).astype(np.intp)
        dur = (np.frombuffer(self.end, dtype=np.float64, count=n)
               - np.frombuffer(self.start, dtype=np.float64, count=n))
        raised = np.frombuffer(self.raised, dtype=np.int8, count=n).astype(bool)
        ops = np.frombuffer(self.op, dtype=np.int32, count=n)

        has_parent = parent >= 0
        covered = np.zeros(n)
        np.add.at(covered, parent[has_parent], dur[has_parent])
        self_time = dur - covered

        name_layer = np.array([layer for layer, _ in self.names] or [0], dtype=np.intp)
        layer = name_layer[ids]
        parent_layer = np.where(has_parent, layer[np.where(has_parent, parent, 0)], -1)
        escaped = raised & (parent_layer != layer)   # errors leaving their layer

        # spans below a verify_family span (parents precede children)
        verify_ids = [i for i, (_, name) in enumerate(self.names) if name == "verify_family"]
        below = np.zeros(n, dtype=bool)
        if verify_ids:
            is_verify = ids == verify_ids[0]
            safe_parent = np.where(has_parent, parent, 0)
            while True:
                nxt = has_parent & (is_verify[safe_parent] | below[safe_parent])
                if np.array_equal(nxt, below):
                    break
                below = nxt
        kernel = (layer == LAYERS.index("families")) | (layer == LAYERS.index("substitution"))

        nl = len(LAYERS)
        by_name = {name: ids == i for i, (_, name) in enumerate(self.names) if name in TIMED}
        counters = dict(self.counters)
        counters["constraint_checks"] = int(sum(
            np.count_nonzero(ids == i) for i, (_, name) in enumerate(self.names)
            if name == "violated_constraints"))
        counters["verify_kernel_calls"] = int(np.count_nonzero(below & kernel))
        return {
            "ops": int(len(np.unique(ops[ops >= 0]))),
            "spans": n,
            "layer_calls": dict(zip(LAYERS, np.bincount(layer, minlength=nl).tolist())),
            "layer_self_s": dict(zip(LAYERS, np.bincount(layer, weights=self_time,
                                                         minlength=nl).tolist())),
            "layer_raised": dict(zip(LAYERS, np.bincount(layer, weights=escaped,
                                                         minlength=nl).astype(int).tolist())),
            "fn_calls": {name: int(np.count_nonzero(m)) for name, m in by_name.items()},
            "fn_incl_s": {name: float(dur[m].sum()) for name, m in by_name.items()},
            "counters": counters,
        }


def merge(total: dict | None, part: dict) -> dict:
    """Sum two summaries key by key."""
    if total is None:
        return {k: (dict(v) if isinstance(v, dict) else v) for k, v in part.items()}
    for key, value in part.items():
        if isinstance(value, dict):
            bucket = total.setdefault(key, {})
            for k, v in value.items():
                bucket[k] = bucket.get(k, 0) + v
        else:
            total[key] = total.get(key, 0) + value
    return total

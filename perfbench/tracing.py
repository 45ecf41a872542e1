"""Spans around the public functions of every edgesat module.

The tracer lives in the benchmark, not in the library: `install` replaces
each public function, in every module namespace that binds it, by a wrapper
that records one span per call.  A function imported with `from .x import y`
is bound in several modules (`nu` in matching, saturation and assoc), and a
call through any of those names must be seen, so one wrapper per function is
installed under every binding.  `uninstall` puts the originals back.

A span is (name, start, end, parent span, op id).  Spans are kept in compact
arrays while the run lasts and summarised, or written out, when it ends.
Generator functions are not wrapped, since a span would end before the
generator is consumed; methods of the value classes (`WeightedGraph.minus`
and so on) are charged to their caller's self time.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
import types
from array import array

import numpy as np

LAYERS = ("graphs", "matching", "saturation", "assoc", "ideals", "census", "cli")
OP_SPAN = "bench.op"


def _power_combos(args, kwargs, result) -> int:
    j = args[0]
    t = args[1] if len(args) > 1 else kwargs["t"]
    if t <= 1 or j.is_zero:
        return 0
    return math.comb(j.gens.shape[0] + t - 1, t)


def _oracle_divisors(args, kwargs, result) -> int:
    return math.prod(int(r) + 1 for r in args[0].gens.max(axis=0))


# Per-span sizes computed from a call's arguments or result.
SIZES = {
    "ideals.power": _power_combos,
    "ideals.ass_primes_oracle": _oracle_divisors,
    "matching.maximum_matching": lambda args, kwargs, result: args[0].total_weight,
    "saturation.is_t_saturating": lambda args, kwargs, result: int(bool(result)),
}


def _namespaces() -> list[types.ModuleType]:
    return [
        m for name, m in sorted(sys.modules.items())
        if m is not None and (name == "edgesat" or name.startswith("edgesat."))
    ]


def _traceable(value) -> bool:
    return (
        isinstance(value, types.FunctionType)
        and value.__module__.startswith("edgesat.")
        and not value.__name__.startswith("_")
        and not inspect.isgeneratorfunction(value)
    )


def span_name(fn: types.FunctionType) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    """Records spans for calls into edgesat; one instance per traced run."""

    def __init__(self) -> None:
        self.names: list[str] = [OP_SPAN]
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.size = array("q")
        self._stack = [-1]
        self._op = [-1]
        self._installed: list[tuple[types.ModuleType, str, object]] = []

    # -- recording ---------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        """Open the root span of one op; spans until `end_op` carry its id."""
        self._op[0] = op_id
        self._stack.append(len(self.name))
        self.name.append(0)
        self.parent.append(-1)
        self.op.append(op_id)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.size.append(0)

    def end_op(self) -> None:
        idx = self._stack.pop()
        self.end[idx] = time.perf_counter()
        self._op[0] = -1

    def _wrap(self, fn: types.FunctionType) -> types.FunctionType:
        name = span_name(fn)
        name_id = len(self.names)
        self.names.append(name)
        size_of = SIZES.get(name)
        names, parents, ops, starts, ends, sizes = (
            self.name, self.parent, self.op, self.start, self.end, self.size
        )
        stack, current_op, clock = self._stack, self._op, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            ops.append(current_op[0])
            ends.append(0.0)
            sizes.append(0)
            stack.append(idx)
            t0 = clock()
            starts.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if size_of is not None:
                sizes[idx] = size_of(args, kwargs, result)
            return result

        return traced

    # -- installing ----------------------------------------------------------

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer already installed")
        wrappers: dict[int, types.FunctionType] = {}
        for module in _namespaces():
            for attr, value in list(vars(module).items()):
                if not _traceable(value):
                    continue
                if id(value) not in wrappers:
                    wrappers[id(value)] = self._wrap(value)
                self._installed.append((module, attr, value))
                setattr(module, attr, wrappers[id(value)])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._installed):
            setattr(module, attr, value)
        self._installed.clear()

    # -- output ----------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "size": np.frombuffer(self.size, dtype=np.int64).copy(),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time its direct child spans cover.

    Calls are single-threaded and nested, so children never overlap and the
    covered time is the sum of their durations.
    """
    dur = end - start
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    return dur - covered


def _per_name(names: list[str], name: np.ndarray, values: np.ndarray) -> dict[str, float]:
    sums = np.bincount(name, weights=values, minlength=len(names))
    return dict(zip(names, sums.tolist()))


def layer_metrics(names: list[str], spans: dict[str, np.ndarray]) -> dict[str, float]:
    """Per-layer figures over the spans inside ops, each divided by the op count.

    Counts are calls per op and times seconds per op; ratios and maxima are
    over the whole run.  A `nu` miss is a `nu` call with a
    `maximum_matching` child.
    """
    name, parent, op = spans["name"], spans["parent"], spans["op"]
    self_s = self_times(parent, spans["start"], spans["end"])
    dur = spans["end"] - spans["start"]
    inside = op >= 0
    ops = int(np.count_nonzero(inside & (name == 0)))
    if ops == 0:
        raise ValueError("no op spans recorded")
    n_in = name[inside]
    calls = _per_name(names, n_in, np.ones(len(n_in)))
    selfs = _per_name(names, n_in, self_s[inside])
    totals = _per_name(names, n_in, dur[inside])
    sizes = _per_name(names, n_in, spans["size"][inside].astype(np.float64))
    ident = {s: i for i, s in enumerate(names)}

    def per_op(table: dict[str, float], key: str) -> float:
        return table.get(key, 0.0) / ops

    out: dict[str, float] = {"trace.ops": float(ops), "trace.spans": len(n_in) / ops}
    for key in names[1:]:
        out[f"{key}.calls"] = per_op(calls, key)
        out[f"{key}.self_s"] = per_op(selfs, key)
        out[f"{key}.total_s"] = per_op(totals, key)
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = sum(
            v for k, v in selfs.items() if k.split(".", 1)[0] == layer
        ) / ops
    out["layer.bench.self_s"] = per_op(selfs, OP_SPAN)

    nu_id, mm_id = ident.get("matching.nu"), ident.get("matching.maximum_matching")
    nu_calls = calls.get("matching.nu", 0.0)
    if nu_id is not None and mm_id is not None and nu_calls:
        missed = np.zeros(len(name), dtype=bool)
        mm_parents = parent[(name == mm_id) & (parent >= 0)]
        missed[mm_parents] = True
        out["matching.nu.miss_ratio"] = int(np.count_nonzero(missed & inside & (name == nu_id))) / nu_calls
    else:
        out["matching.nu.miss_ratio"] = 0.0
    clones = spans["size"][inside & (name == mm_id)] if mm_id is not None else np.zeros(0)
    out["matching.blowup_clones.sum"] = float(clones.sum()) / ops
    out["matching.blowup_clones.max"] = float(clones.max()) if len(clones) else 0.0
    out["ideals.power.combos"] = per_op(sizes, "ideals.power")
    out["ideals.ass_primes_oracle.divisors"] = per_op(sizes, "ideals.ass_primes_oracle")
    sat_calls = calls.get("saturation.is_t_saturating", 0.0)
    out["saturation.is_t_saturating.accept_ratio"] = (
        sizes.get("saturation.is_t_saturating", 0.0) / sat_calls if sat_calls else 0.0
    )
    return out

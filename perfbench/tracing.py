"""Span tracing of the library's layers, recorded from the benchmark's side.

``Tracer.install`` replaces each listed public function of the library with a
wrapper, in its defining module and under every name another library module
imported it as (``imaging.cfmt_fast``, ``cli.write_clms``, ...), so nested
calls get spans of their own.  The library itself is not modified.

A span is ``(name, start, end, parent, op)``: ``parent`` is the index of the
enclosing span (-1 at the top) and ``op`` is the op id (``SETUP`` for the
set-up).  Spans are recorded only while ``Tracer.op`` is set, kept in memory,
and written out at the end of the run.
"""

from __future__ import annotations

import functools
import gzip
import os
import time
from collections import Counter, defaultdict
from importlib import import_module

SETUP = -1
MODULES = ("algebra", "roots", "split", "signal", "cfmt", "imaging", "cli")

# (module, function) -> span name.  Several functions may share a span name.
FUNCTIONS = {
    ("algebra", "gp"): "algebra.gp",
    **{("roots", f): "roots" for f in (
        "random_roots", "sample_root", "validate_root", "default_pair", "make_pair",
        "export_manifold")},
    ("split", "split_array"): "split.split_array",
    ("signal", "random_signal"): "signal.random_signal",
    ("signal", "read_clms"): "signal.io",
    ("signal", "write_clms"): "signal.io",
    ("cfmt", "cfmt_forward"): "cfmt.forward",
    ("cfmt", "cfmt_inverse"): "cfmt.inverse",
    ("cfmt", "cfmt_fast"): "cfmt.fast",
    ("cfmt", "cfmt_direct"): "cfmt.direct",
    **{("cfmt", f): "cfmt.checks" for f in (
        "check_linearity", "check_derivative_theorems", "check_power_scaling",
        "plancherel_check", "parseval_check", "symmetry_decompose")},
    ("cfmt", "read_clmf"): "cfmt.io",
    ("cfmt", "write_clmf"): "cfmt.io",
    ("imaging", "read_image"): "imaging.read_image",
    ("imaging", "to_log_polar"): "imaging.to_log_polar",
    ("imaging", "descriptor"): "imaging.descriptor",
    ("imaging", "register"): "imaging.register",
    **{("cli", f"cmd_{c}"): f"cli.{c}" for c in (
        "transform", "invert", "descriptor", "register", "verify")},
}
# (module, class, method) -> span name
METHODS = {("imaging", "Descriptor", "l2_distance"): "imaging.l2_distance"}

FILE_SPANS = {"signal.io", "cfmt.io", "imaging.read_image"}  # first argument is a path
TRANSFORM_SPANS = {"cfmt.forward", "cfmt.inverse", "cfmt.fast", "cfmt.direct"}


def _array(value):
    """The coefficient array of a signal or spectrum."""
    return value.samples if hasattr(value, "samples") else value.coeffs


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.shapes: dict[int, tuple[int, int]] = {}  # transform span -> grid shape
        self.bytes = Counter()  # span name -> file bytes read or written
        self.bytes_computed = 0  # transform input + output array bytes
        self.matched = 0  # register calls that reported a match
        self.op: int | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)  # reserve the index, so children point here
            tracer._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                # a tuple of atoms, which the garbage collector stops tracking
                tracer.spans[index] = (name, start, end, parent, tracer.op)
            tracer._count(name, index, args, result)
            return result

        return wrapper

    def _count(self, name, index, args, result) -> None:
        if self.op == SETUP:
            return
        if name in FILE_SPANS:
            self.bytes[name] += os.path.getsize(args[0])
        elif name in TRANSFORM_SPANS:
            source = _array(args[0])
            self.bytes_computed += source.nbytes + _array(result).nbytes
            self.shapes[index] = source.shape[:2]
        elif name == "imaging.register":
            self.matched += result.matched

    def install(self) -> None:
        modules = {m: import_module(f"clifford_mellin.{m}") for m in MODULES}
        wrappers = {}
        for (m, attr), name in FUNCTIONS.items():
            fn = getattr(modules[m], attr)
            wrappers[id(fn)] = (fn, self._wrap(name, fn))
        for module in [import_module("clifford_mellin"), *modules.values()]:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)][1])
        for (m, cls_name, attr), name in METHODS.items():
            cls = getattr(modules[m], cls_name)
            fn = vars(cls)[attr]
            self._saved.append((cls, attr, fn))
            setattr(cls, attr, self._wrap(name, fn))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(self.spans)]

    def write(self, path: str) -> None:
        with gzip.open(path, "wt") as fh:
            fh.write("name,start,end,parent,op\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{name},{start!r},{end!r},{parent},{op}\n")


# name -> (unit, better); the traced run reports exactly these, in this order.
PER_LAYER = {
    "cfmt.forward.self_s": ("s/op", "lower"),
    "cfmt.inverse.self_s": ("s/op", "lower"),
    "cfmt.forward.floor_ratio": ("ratio", "lower"),
    "cfmt.inverse.floor_ratio": ("ratio", "lower"),
    "cfmt.fast.self_s": ("s/op", "lower"),
    "cfmt.fast.calls": ("calls/op", "lower"),
    "cfmt.fast.floor_ratio": ("ratio", "lower"),
    "split.split_array.self_s": ("s/op", "lower"),
    "cfmt.direct.self_s": ("s/op", "lower"),
    "cfmt.direct.calls": ("calls/op", "lower"),
    "cfmt.checks.self_s": ("s/op", "lower"),
    "algebra.gp.self_s": ("s/op", "lower"),
    "algebra.gp.calls": ("calls/op", "lower"),
    "roots.self_s": ("s/op", "lower"),
    "imaging.read_image.self_s": ("s/op", "lower"),
    "imaging.read_image.bytes": ("B/op", "lower"),
    "imaging.to_log_polar.self_s": ("s/op", "lower"),
    "imaging.descriptor.self_s": ("s/op", "lower"),
    "imaging.l2_distance.self_s": ("s/op", "lower"),
    "imaging.register.self_s": ("s/op", "lower"),
    "imaging.register.matched_ratio": ("ratio", "higher"),
    "imaging.match.top1_ratio": ("ratio", "higher"),
    "signal.io.self_s": ("s/op", "lower"),
    "signal.io.bytes": ("B/op", "lower"),
    "cfmt.io.self_s": ("s/op", "lower"),
    "cfmt.io.bytes": ("B/op", "lower"),
    "cli.bytes_written": ("B/op", "lower"),
    "cli.transform.self_s": ("s/op", "lower"),
    "cli.invert.self_s": ("s/op", "lower"),
    "cli.descriptor.self_s": ("s/op", "lower"),
    "cli.register.self_s": ("s/op", "lower"),
    "cli.verify.self_s": ("s/op", "lower"),
    "cli.verify.rows": ("rows/op", "higher"),
    "cli.verify.failures": ("count/op", "lower"),
    "signal.random_signal.self_s": ("s/setup", "lower"),
    "cfmt.bytes_computed": ("B/op", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}


def layer_metrics(tracer: Tracer, ops: int, floor, outcomes: dict[str, float],
                  overhead: float) -> dict[str, float]:
    """Per-layer values from ``ops`` traced ops plus one traced set-up.

    Times, calls and bytes are per op, except ``signal.random_signal.self_s``,
    which is per set-up.  ``floor(shape)`` is the time of two complex fft2
    calls on that grid; a floor ratio is a call's full duration over it.
    ``outcomes`` holds the workload's own per-op counts.
    """
    self_s, setup_s, calls, ratio_sum = (defaultdict(float), defaultdict(float), Counter(),
                                         defaultdict(float))
    for index, (span, own) in enumerate(zip(tracer.spans, tracer.self_times())):
        name, start, end, _, op = span
        if op == SETUP:
            setup_s[name] += own
            continue
        self_s[name] += own
        calls[name] += 1
        if index in tracer.shapes:
            ratio_sum[name] += (end - start) / floor(tracer.shapes[index])

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    values = {}
    for metric in PER_LAYER:
        layer, _, kind = metric.rpartition(".")
        if kind == "self_s":
            values[metric] = self_s[layer] / ops
        elif kind == "calls":
            values[metric] = calls[layer] / ops
        elif kind == "floor_ratio":
            values[metric] = ratio(ratio_sum[layer], calls[layer])
        elif kind == "bytes":
            values[metric] = tracer.bytes[layer] / ops
    values.update({
        "imaging.register.matched_ratio": ratio(tracer.matched, calls["imaging.register"]),
        "imaging.match.top1_ratio": outcomes.get("top1", 0.0),
        "cli.bytes_written": outcomes.get("bytes_written", 0.0),
        "cli.verify.rows": outcomes.get("verify_rows", 0.0),
        "cli.verify.failures": outcomes.get("verify_failures", 0.0),
        "signal.random_signal.self_s": setup_s["signal.random_signal"],
        "cfmt.bytes_computed": tracer.bytes_computed / ops,
        "trace.overhead_frac": overhead,
    })
    return {metric: values[metric] for metric in PER_LAYER}

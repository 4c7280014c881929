"""Span tracer installed from outside the program.

``Tracer.install()`` rebinds each layer's public entry points to wrappers
that record a span (name, start, end, parent) and the layer's work counts;
``uninstall()`` puts the originals back.  Spans are kept in memory in
compact arrays and written out once, at the end of a run.

A module that imported a function by name holds its own reference, so every
module attribute of the ``tractorlab`` package that is the original function
is rebound, not only the defining module's.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import Counter, defaultdict

import numpy as np
from tractorlab.tensors import FD

# Every per-layer metric the traced run reports, with its unit.
PER_LAYER = [
    ("jets.value", "count/op"), ("jets.eval.o1", "count/op"),
    ("jets.eval.o2", "count/op"), ("jets.eval.o3", "count/op"),
    ("jets.self_s", "s/op"),
    ("tensors.fd_points", "count/op"), ("tensors.self_s", "s/op"),
    ("riemann.pack.o2", "count/op"), ("riemann.pack.o3", "count/op"),
    ("riemann.pack.distinct_ratio", "ratio"), ("riemann.self_s", "s/op"),
    ("submanifold.pack", "count/op"),
    ("submanifold.pack.distinct_ratio", "ratio"),
    ("submanifold.self_s", "s/op"),
    ("subtractor.contexts", "count/op"), ("subtractor.self_s", "s/op"),
    ("tractor.calls", "count/op"), ("tractor.self_s", "s/op"),
    ("circles.rhs", "count/op"), ("circles.self_s", "s/op"),
    ("firstint.ky_decompose", "count/op"), ("firstint.self_s", "s/op"),
    ("cli.config_s", "s/op"), ("cli.output_s", "s/op"),
    ("cli.self_s", "s/op"),
    ("trace.overhead_ratio", "ratio"),
]

# Modules whose public functions are all entry points of their layer.
WHOLE_MODULES = ("riemann", "submanifold", "subtractor", "tractor",
                 "circles", "firstint")
# Private functions other layers call directly.
EXTRA_FUNCS = {"firstint": ("_split_components",)}
CLI_FUNCS = ("main", "load_config", "dump_json", "dump_csv")


_MISSING = object()


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _point_key(x):
    return np.asarray(x, dtype=float).tobytes()


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ix = {}
        self.name_layer = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = []
        self._fd_depth = 0
        self.self_time = defaultdict(float)
        self.total_time = Counter()
        self.counts = Counter()
        self._distinct = {"riemann": set(), "submanifold": set()}
        self._keepalive = []
        self._undo = []
        self._installed = False

    # -- spans ---------------------------------------------------------
    def _name(self, name, layer):
        ix = self._name_ix.get(name)
        if ix is None:
            ix = self._name_ix[name] = len(self.names)
            self.names.append(name)
            self.name_layer.append(layer)
        return ix

    def call(self, name, layer, fn, args, kwargs):
        ix = len(self.span_start)
        self.span_name.append(self._name(name, layer))
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        frame = [ix, 0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        self.span_start.append(t0)
        self.span_end.append(t0)
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.span_end[ix] = t1
            dur = t1 - t0
            self.self_time[layer] += dur - frame[1]
            self.total_time[name] += dur
            if self._stack:
                self._stack[-1][1] += dur

    def begin_op(self):
        """Distinct-key sets are per operation: a cache kept across calls
        of one operation could only hit keys repeated inside it."""
        for keys in self._distinct.values():
            keys.clear()
        self._keepalive.clear()

    def _distinct_hit(self, layer, key, *keep):
        # keys hold id()s, so the objects stay alive until the operation
        # ends and no id is reused within it
        s = self._distinct[layer]
        if key not in s:
            s.add(key)
            self.counts[f"{layer}.distinct"] += 1
        self._keepalive.extend(keep)

    # -- wrappers --------------------------------------------------------
    def _wrap(self, fn, name, layer, before=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            return tracer.call(name, layer, fn, args, kwargs)
        wrapper.__traced__ = True
        return wrapper

    def _count(self, key):
        def before(args, kwargs):
            self.counts[key] += 1
        return before

    def _pack_hook(self, args, kwargs):
        geo = args[0]
        order = _arg(args, kwargs, 2, "order")
        if order is None:
            order = min(3, geo.backend.max_order)
        order = max(order, 2)
        self.counts[f"riemann.pack.o{order}"] += 1
        self._distinct_hit("riemann", (id(geo), _point_key(
            _arg(args, kwargs, 1, "x")), order), geo)

    def _subpack_hook(self, args, kwargs):
        geo, emb = args[0], _arg(args, kwargs, 1, "emb")
        self.counts["submanifold.pack"] += 1
        self._distinct_hit("submanifold", (id(geo), id(emb), _point_key(
            _arg(args, kwargs, 2, "q"))), geo, emb)

    def _field_value(self, fn):
        tracer = self

        @functools.wraps(fn)
        def value(field, *args, **kwargs):
            if field.backend.mode == FD:
                if tracer._fd_depth:
                    tracer.counts["tensors.fd_points"] += 1
                return tracer.call("ArrayField.value", "tensors", fn,
                                   (field,) + args, kwargs)
            tracer.counts["jets.value"] += 1
            return tracer.call("ArrayField.value", "jets", fn,
                               (field,) + args, kwargs)
        value.__traced__ = True
        return value

    def _field_jets(self, fn, name, layer="jets", count=True):
        tracer = self

        @functools.wraps(fn)
        def jets(field, *args, **kwargs):
            if field.backend.mode == FD:
                tracer._fd_depth += 1
                try:
                    return tracer.call(name, "tensors", fn, (field,) + args,
                                       kwargs)
                finally:
                    tracer._fd_depth -= 1
            if count:
                order = _arg(args, kwargs, 1, "order")
                tracer.counts[f"jets.eval.o{order}"] += 1
            return tracer.call(name, layer, fn, (field,) + args, kwargs)
        jets.__traced__ = True
        return jets

    # -- install / uninstall -----------------------------------------------
    def install(self):
        if self._installed:
            return
        import tractorlab.cli  # noqa: F401  (loads every layer)
        from tractorlab import geolib, submanifold, subtractor, tensors

        replace = {}
        hooks = {"curvature_pack": self._pack_hook,
                 "submanifold_pack": self._subpack_hook,
                 "conformal_circle_rhs": self._count("circles.rhs"),
                 "ky_decompose": self._count("firstint.ky_decompose")}
        for layer in WHOLE_MODULES:
            mod = sys.modules[f"tractorlab.{layer}"]
            names = [n for n, f in vars(mod).items()
                     if inspect.isfunction(f) and f.__module__ == mod.__name__
                     and not n.startswith("_")]
            names += list(EXTRA_FUNCS.get(layer, ()))
            for n in names:
                f = getattr(mod, n)
                before = hooks.get(n)
                if layer == "tractor":
                    before = self._count("tractor.calls")
                replace[id(f)] = (f, self._wrap(f, f"{layer}.{n}", layer,
                                                before))
        cli = sys.modules["tractorlab.cli"]
        for n in CLI_FUNCS:
            f = getattr(cli, n)
            replace[id(f)] = (f, self._wrap(f, f"cli.{n}", "cli"))

        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "tractorlab"
                                   or name.startswith("tractorlab.")):
                continue
            for attr, val in list(vars(mod).items()):
                hit = replace.get(id(val))
                if hit is not None and hit[0] is val:
                    self._setattr(mod, attr, hit[1])

        AF = tensors.ArrayField
        self._setattr(AF, "value", self._field_value(AF.value))
        self._setattr(AF, "jets", self._field_jets(AF.jets, "ArrayField.jets"))
        self._setattr(geolib.JetField, "jets", self._field_jets(
            geolib.JetField.jets, "JetField.jets"))
        PMF = submanifold.PullbackMetricField
        self._setattr(PMF, "jets", self._field_jets(
            PMF.jets, "PullbackMetricField.jets", "submanifold", count=False))
        for meth in ("value", "jet1"):
            f = getattr(submanifold.SigmaField, meth)
            self._setattr(submanifold.SigmaField, meth,
                          self._wrap(f, f"SigmaField.{meth}", "submanifold"))
        STC = subtractor.SubTractorContext
        for meth, f in list(vars(STC).items()):
            if inspect.isfunction(f) and (meth == "__init__"
                                          or not meth.startswith("_")):
                before = (self._count("subtractor.contexts")
                          if meth == "__init__" else None)
                self._setattr(STC, meth, self._wrap(
                    f, f"SubTractorContext.{meth}", "subtractor", before))

        # ArrayField subclasses defined inside catalog functions are
        # created per call; wrap their jets override as they appear.
        tracer = self

        def init_subclass(cls, **kwargs):
            f = cls.__dict__.get("jets")
            if f is not None and not getattr(f, "__traced__", False):
                cls.jets = tracer._field_jets(f, f"{cls.__name__}.jets")
        self._setattr(AF, "__init_subclass__", classmethod(init_subclass))
        self._installed = True

    def _setattr(self, obj, attr, new):
        self._undo.append((obj, attr, vars(obj).get(attr, _MISSING)))
        setattr(obj, attr, new)

    def uninstall(self):
        for obj, attr, old in reversed(self._undo):
            if old is _MISSING:
                delattr(obj, attr)
            else:
                setattr(obj, attr, old)
        self._undo.clear()
        self._installed = False

    # -- results -------------------------------------------------------------
    def per_layer(self, ops, traced_s, untraced_s):
        """Per-operation layer metrics over ``ops`` traced operations.

        ``traced_s`` and ``untraced_s`` are mean times per operation with
        and without tracing, over the same case mix.
        """
        c = self.counts
        out = {}
        for name, unit in PER_LAYER:
            layer, _, what = name.partition(".")
            if what == "self_s":
                v = self.self_time.get(layer, 0.0) / ops
            elif name == "cli.config_s":
                v = self.total_time["cli.load_config"] / ops
            elif name == "cli.output_s":
                v = (self.total_time["cli.dump_json"]
                     + self.total_time["cli.dump_csv"]) / ops
            elif what == "pack.distinct_ratio":
                calls = (c["riemann.pack.o2"] + c["riemann.pack.o3"]
                         if layer == "riemann" else c["submanifold.pack"])
                v = c[f"{layer}.distinct"] / calls if calls else 0.0
            elif name == "trace.overhead_ratio":
                v = traced_s / untraced_s
            else:
                v = c[name] / ops
            out[name] = {"value": v, "unit": unit}
        return out

    def dump(self, path):
        """Write the spans: name table, layers, and one row per span."""
        np.savez_compressed(
            path, names=np.array(self.names), layers=np.array(self.name_layer),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64))

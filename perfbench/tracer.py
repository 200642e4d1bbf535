"""Spans around the public functions of each layer, installed from outside the library.

The tracer replaces each target function, in every ``affinesl2`` module
namespace that holds it and on its class, with a wrapper that records a span
(name, start, end, parent).  Spans are kept in memory in flat arrays and
written out once, after the pass.  A span's self time is its duration minus
the time its child spans cover.  ``restore`` puts every original back.

Some targets only count calls (``Cyclotomic`` construction), and some read a
property of the result after the span has closed (dtype of a product, word
length, stored coefficients); that work lands in the caller's self time and
in the tracing overhead, not in the target's own span.
"""

import gzip
import importlib
import json
import sys
from array import array
from collections import defaultdict
from functools import cached_property
from time import perf_counter

from workloads import STRATA, stratum


def _is_object(x):
    arr = getattr(x, "arr", None)
    return arr is not None and arr.dtype == object


def _module(lib, name):
    try:
        return importlib.import_module(f"{lib.__name__}.{name}")
    except ImportError:
        return None


class Tracer:
    def __init__(self):
        self.names = []
        self.name_ids = {}
        self.kind = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.stack = [-1]
        self.counts = defaultdict(int)
        self.active = False
        self.missing = []
        self._undo = []

    def _id(self, name):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def _span_wrapper(self, fn, name, after=None, classify=None):
        fixed = None if classify else self._id(name)
        kind, start, end, parent, stack = self.kind, self.start, self.end, self.parent, self.stack

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            nid = self._id(f"{name}.{classify(*args)}") if classify else fixed
            idx = len(start)
            kind.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if after is not None:
                after(result, *args)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, fn, key):
        counts = self.counts

        def wrapper(*args, **kwargs):
            if self.active:
                counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch_function(self, lib, module, attr, make):
        orig = getattr(_module(lib, module), attr, None)
        if orig is None:
            self.missing.append(f"{module}.{attr}")
            return
        new = make(orig)
        for mod in [lib] + [m for k, m in sys.modules.items() if k.startswith(lib.__name__ + ".")]:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    self._undo.append((mod, key, value))
                    setattr(mod, key, new)

    def _patch_method(self, lib, module, cls_name, attrs, make):
        cls = getattr(_module(lib, module), cls_name, None)
        raw = cls and cls.__dict__.get(attrs[0])
        if raw is None:
            self.missing.append(f"{module}.{cls_name}.{attrs[0]}")
            return
        is_static = isinstance(raw, staticmethod)
        fn = raw.__func__ if is_static else raw
        new = make(fn)
        new = staticmethod(new) if is_static else new
        for attr in attrs:
            if cls.__dict__.get(attr) is raw:
                self._undo.append((cls, attr, raw))
                setattr(cls, attr, new)

    def install(self, lib):
        """Wrap the public functions of every layer of the package ``lib``."""
        c = self.counts
        span = self._span_wrapper

        def after_mul(result, a, b):
            c["wzwrep.RepMatrix.mul.object"] += _is_object(a) or _is_object(b) or _is_object(result)

        def after_decompose(word, *args):
            c["modgroup.decompose.tokens"] += len(word)

        def after_kernel(report, n, *args, **kwargs):
            # the image order is the group order over the kernel size
            c["galois_kernel.enumerate_kernel.elements"] += report.image_order * len(report.kernel)
            c["galois_kernel.enumerate_kernel.kernel_size"] += len(report.kernel)

        def after_character(s, *args):
            c["qseries.stored_coeffs"] += len(s.coeffs)
            c["qseries.nonzero_coeffs"] += sum(1 for x in s.coeffs if x != 0)

        def classify(r, n):
            return stratum(r.c, r.d, n)

        methods = [
            ("cyclotomic", "Cyclotomic", ("__mul__", "__rmul__"), "cyclotomic.Cyclotomic.mul", None),
            ("cyclotomic", "Cyclotomic", ("__add__", "__radd__"), "cyclotomic.Cyclotomic.add", None),
            ("cyclotomic", "Cyclotomic", ("promoted",), "cyclotomic.Cyclotomic.promoted", None),
            ("wzwrep", "RepMatrix", ("__mul__",), "wzwrep.RepMatrix.mul", after_mul),
            ("wzwrep", "RepMatrix", ("scale_rows",), "wzwrep.RepMatrix.scale", None),
            ("wzwrep", "RepMatrix", ("scale_cols",), "wzwrep.RepMatrix.scale", None),
            ("wzwrep", "RepMatrix", ("galois_map",), "wzwrep.RepMatrix.galois_map", None),
            ("wzwrep", "RepMatrix", ("from_entries",), "wzwrep.RepMatrix.from_entries", None),
            ("qseries", "QSeries", ("__mul__", "__rmul__"), "qseries.QSeries.mul", None),
            ("qseries", "QSeries", ("__init__",), "qseries.QSeries.construct", None),
        ]
        for module, cls, attrs, name, after in methods:
            self._patch_method(lib, module, cls, attrs, lambda f, name=name, after=after: span(f, name, after))
        self._patch_method(
            lib, "cyclotomic", "Cyclotomic", ("__init__",),
            lambda f: self._count_wrapper(f, "cyclotomic.Cyclotomic.construct.calls"),
        )

        functions = [
            ("wzwrep", "rho_closed", "wzwrep.rho_closed", None, classify),
            ("wzwrep", "evaluate_word", "wzwrep.evaluate_word", None, None),
            ("wzwrep", "rho_float", "wzwrep.rho_float", None, None),
            ("modgroup", "lift", "modgroup.lift", None, None),
            ("modgroup", "decompose", "modgroup.decompose", after_decompose, None),
            ("galois_kernel", "enumerate_kernel", "galois_kernel.enumerate_kernel", after_kernel, None),
            ("galois_kernel", "in_kernel", "galois_kernel.in_kernel", None, None),
            ("galois_kernel", "sigma_covariance_check", "galois_kernel.sigma_covariance_check", None, None),
            ("galois_kernel", "bantay_sigma_S_identity", "galois_kernel.bantay_sigma_S_identity", None, None),
            ("qseries", "character", "qseries.character", after_character, None),
            ("qseries", "eta_inverse_cubed", "qseries.eta_inverse_cubed", None, None),
            ("qseries", "numeric_eval", "qseries.numeric_eval", None, None),
            ("cli", "run", "cli.run", None, None),
        ]
        for module, attr, name, after, cls in functions:
            self._patch_function(lib, module, attr, lambda f, name=name, after=after, cls=cls: span(f, name, after, cls))

    def restore(self):
        """Put back every original function and check that none is left wrapped."""
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        for owner, key, value in self._undo:
            assert vars(owner)[key] is value, f"{owner.__name__}.{key} was not restored"
        self._undo.clear()

    @cached_property
    def times(self):
        """Per span name: calls, total seconds, self seconds; and span counts by (parent, child) name.

        Read once the pass is over: the spans must not change afterwards.
        """
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        parent = self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
        calls = defaultdict(int)
        total = defaultdict(float)
        own = defaultdict(float)
        under = defaultdict(int)
        kind = self.kind
        for i in range(n):
            name = self.names[kind[i]]
            calls[name] += 1
            total[name] += dur[i]
            own[name] += dur[i] - child[i]
            p = parent[i]
            if p >= 0:
                under[(self.names[kind[p]], name.rsplit(".", 1)[0] if name.startswith("wzwrep.rho_closed.") else name)] += 1
        return calls, total, own, under

    def module_self_s(self):
        """Self time summed per library module, over every span name."""
        _, _, own, _ = self.times
        out = defaultdict(float)
        for name, value in own.items():
            out[name.split(".", 1)[0]] += value
        return dict(out)

    def metrics(self):
        """The per-layer metrics of this pass, by name."""
        calls, total, own, under = self.times
        c = self.counts
        out = {}

        def timed(name, fields=("calls", "self_s")):
            for f in fields:
                if f == "calls":
                    out[f"{name}.calls"] = (calls[name], "count")
                elif f == "self_s":
                    out[f"{name}.self_s"] = (own[name], "s")
                else:
                    out[f"{name}.total_s"] = (total[name], "s")

        for op in ("mul", "add", "promoted"):
            timed(f"cyclotomic.Cyclotomic.{op}")
        out["cyclotomic.Cyclotomic.construct.calls"] = (c["cyclotomic.Cyclotomic.construct.calls"], "count")
        for op in ("mul", "scale", "galois_map", "from_entries"):
            timed(f"wzwrep.RepMatrix.{op}")
        muls = calls["wzwrep.RepMatrix.mul"]
        out["wzwrep.RepMatrix.mul.object_frac"] = (c["wzwrep.RepMatrix.mul.object"] / muls if muls else 0.0, "ratio")
        for s in STRATA:
            timed(f"wzwrep.rho_closed.{s}", ("calls", "total_s"))
        for name in ("wzwrep.evaluate_word", "wzwrep.rho_float", "modgroup.lift", "modgroup.decompose"):
            timed(name)
        words = calls["modgroup.decompose"]
        out["modgroup.decompose.word_len"] = (c["modgroup.decompose.tokens"] / words if words else 0.0, "tokens")
        ek = "galois_kernel.enumerate_kernel"
        timed(ek, ("self_s",))
        candidates = under[(ek, "wzwrep.rho_closed")]
        kernel_size = c[f"{ek}.kernel_size"]
        out[f"{ek}.elements"] = (c[f"{ek}.elements"], "count")
        out[f"{ek}.candidates"] = (candidates, "count")
        out[f"{ek}.kernel_size"] = (kernel_size, "count")
        out["galois_kernel.filter_yield"] = (kernel_size / candidates if candidates else 0.0, "ratio")
        for name in ("in_kernel", "sigma_covariance_check", "bantay_sigma_S_identity"):
            timed(f"galois_kernel.{name}")
        for name in ("character", "eta_inverse_cubed", "numeric_eval"):
            timed(f"qseries.{name}")
        for op in ("mul", "construct"):
            timed(f"qseries.QSeries.{op}")
        stored = c["qseries.stored_coeffs"]
        out["qseries.stored_coeffs"] = (stored, "count")
        out["qseries.nonzero_frac"] = (c["qseries.nonzero_coeffs"] / stored if stored else 0.0, "ratio")
        timed("cli.run")
        return out

    def write(self, path, header):
        """Write the header and every span, one JSON line each, gzip-compressed."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps(header) + "\n")
            names = self.names
            for i in range(len(self.start)):
                fh.write(f'[{i},"{names[self.kind[i]]}",{self.start[i]:.9f},{self.end[i]:.9f},{self.parent[i]}]\n')

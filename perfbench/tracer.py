"""Span tracer installed from outside the program.

`Tracer.install` replaces every public function of the melforge layer
modules with a timing wrapper, in every loaded melforge module that holds a
reference to it (so ``from .autodiff import adam_step`` aliases are covered
too).  Each call through such a name records a span (name, start, end,
parent) in memory.  Calls that bypass module attributes are not seen: the
Tensor operator sugar and gradient accumulation inside the autodiff engine
go through a private registry, and private helpers (``_train_loop``,
``_panel_numpy``, ...) are never wrapped; their time stays in the self time
of the nearest enclosing span.

The benchmark opens one root span per timed operation (``bench.<kind>``)
and per set-up; `Tracer.summary` folds the spans under each root into
per-name call counts, total and self times, where a span's self time is its
duration minus the durations of its direct children (spans nest strictly
because the program is single-threaded).
"""

from __future__ import annotations

import contextlib
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

# layer -> modules whose public functions are wrapped; span names are
# "<module without the melforge prefix>.<qualname>", so the layer is the
# first dotted component
LAYER_MODULES = {
    "autodiff": (
        "melforge.autodiff",
        "melforge.autodiff.tensor",
        "melforge.autodiff.ops",
        "melforge.autodiff.nn",
        "melforge.autodiff.adam",
    ),
    "kernels": ("melforge.kernels",),
    "model": ("melforge.model",),
    "losses": ("melforge.losses",),
    "train": ("melforge.train",),
    "dsp": ("melforge.dsp",),
    "eval": ("melforge.eval",),
    "corpus": ("melforge.corpus",),
    "cli": ("melforge.cli",),
}
LAYERS = tuple(LAYER_MODULES)

# public names left unwrapped: context-manager factories (a wrapper would
# time only their construction) and the tensor-wrapping glue every
# primitive calls several times, which would only add overhead
SKIP = {
    "melforge.autodiff.tensor": {
        "set_grad_enabled", "no_grad", "using_dtype",
        "as_tensor", "coerce_pair", "make_op_output",
    },
}
# public methods worth a span of their own
METHODS = (
    ("melforge.eval", "DiagonalGmm", "component_log_likelihood"),
    ("melforge.eval", "DiagonalGmm", "log_likelihood"),
    ("melforge.train", "BatchIterator", "next"),
)


def _short(module_name: str) -> str:
    return module_name[len("melforge."):] if module_name.startswith("melforge.") else module_name


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_idx: dict[str, int] = {}
        self.spans: list = []  # (name_idx, start, end, parent_idx); None while open
        self._stack: list[int] = []
        self.on = False  # wrappers pass straight through while off
        self._wrappers: dict = {}  # original function -> wrapper
        self._patched: list = []  # (owner, attr, original)
        # (span index, value) pairs attached to spans by argument hooks
        self.counters: dict[str, list[tuple[int, float]]] = defaultdict(list)
        self._hooks = {
            "kernels.conv_valid": self._conv_valid_flops,
            "kernels.conv_weight_grad": self._conv_weight_grad_flops,
        }

    # -- recording ---------------------------------------------------------

    def _intern(self, name: str) -> int:
        idx = self._name_idx.get(name)
        if idx is None:
            idx = self._name_idx[name] = len(self.names)
            self.names.append(name)
        return idx

    def _wrap(self, name: str, fn):
        nid = self._intern(name)
        spans, stack = self.spans, self._stack
        hook = self._hooks.get(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            if hook is not None:
                hook(idx, args, kwargs)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (nid, start, end, parent)

        return wrapper

    @contextlib.contextmanager
    def root(self, name: str):
        """A benchmark-level span around the block (recorded while on)."""
        if not self.on:
            yield
            return
        nid = self._intern(name)
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (nid, start, end, parent)

    # -- argument hooks: conv work as 2*B*Co*Ci*K*To flops -------------------

    def _conv_valid_flops(self, idx, args, kwargs):
        x, w = args[0], args[1]
        dilation = args[2] if len(args) > 2 else kwargs["dilation"]
        b, ci, tp = x.shape
        co, _, k = w.shape
        to = tp - (k - 1) * dilation
        self.counters["conv_flop"].append((idx, 2.0 * b * co * ci * k * to))

    def _conv_weight_grad_flops(self, idx, args, kwargs):
        x, gy = args[0], args[1]
        ksize = args[3] if len(args) > 3 else kwargs["ksize"]
        b, ci, _ = x.shape
        _, co, to = gy.shape
        self.counters["conv_flop"].append((idx, 2.0 * b * co * ci * ksize * to))

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every public function of the layer modules (idempotent)."""
        if self._patched:
            return
        if not self._wrappers:
            for modules in LAYER_MODULES.values():
                for mod_name in modules:
                    mod = sys.modules[mod_name]
                    skip = SKIP.get(mod_name, set())
                    for attr, obj in vars(mod).items():
                        if (
                            attr.startswith("_")
                            or attr in skip
                            or not inspect.isfunction(obj)
                            or obj.__module__ != mod_name
                            or inspect.isgeneratorfunction(obj)
                        ):
                            continue
                        self._wrappers[obj] = self._wrap(f"{_short(mod_name)}.{attr}", obj)
        wrappers = self._wrappers
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("melforge") or mod is None:
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
                    self._patched.append((mod, attr, obj))
        for mod_name, cls_name, meth in METHODS:
            cls = getattr(sys.modules[mod_name], cls_name)
            orig = cls.__dict__[meth]
            setattr(cls, meth, self._wrap(f"{_short(mod_name)}.{cls_name}.{meth}", orig))
            self._patched.append((cls, meth, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched = []

    # -- analysis ----------------------------------------------------------

    def arrays(self):
        done = [s for s in self.spans if s is not None]
        if len(done) != len(self.spans):
            raise RuntimeError("summary requested while spans are still open")
        a = np.array(done, dtype=np.float64).reshape(-1, 4)
        return (
            a[:, 0].astype(np.int64),
            a[:, 1],
            a[:, 2],
            a[:, 3].astype(np.int64),
        )

    def summary(self) -> list[dict]:
        """One entry per root span: its name, duration, and per-name calls,
        total and self milliseconds of the spans beneath it, per-layer self
        milliseconds, and counter sums."""
        if not self.spans:
            return []
        nid, start, end, parent = self.arrays()
        n = nid.size
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_t = dur - child
        root = np.empty(n, dtype=np.int64)
        for i, p in enumerate(parent.tolist()):
            root[i] = i if p < 0 else root[p]
        counters = {}
        for cname, events in self.counters.items():
            if events:
                idx = np.array([e[0] for e in events])
                val = np.array([e[1] for e in events])
                counters[cname] = np.bincount(root[idx], weights=val, minlength=n)
        out = []
        roots = np.flatnonzero(~has_parent)
        order = np.argsort(root, kind="stable")
        bounds = np.searchsorted(root[order], np.append(roots, n))
        for j, r in enumerate(roots):
            members = order[bounds[j] : bounds[j + 1]]
            members = members[members != r]
            per_name: dict[str, list[float]] = {}
            layer_self = dict.fromkeys(LAYERS, 0.0)
            for m_nid, d, s in zip(nid[members].tolist(), dur[members].tolist(), self_t[members].tolist()):
                name = self.names[m_nid]
                rec = per_name.setdefault(name, [0, 0.0, 0.0])
                rec[0] += 1
                rec[1] += 1e3 * d
                rec[2] += 1e3 * s
                layer = name.split(".", 1)[0]
                if layer in layer_self:
                    layer_self[layer] += 1e3 * s
            out.append(
                {
                    "root": self.names[nid[r]],
                    "ms": 1e3 * dur[r],
                    "root_self_ms": 1e3 * self_t[r],
                    "calls": {k: v[0] for k, v in per_name.items()},
                    "total_ms": {k: v[1] for k, v in per_name.items()},
                    "self_ms": {k: v[2] for k, v in per_name.items()},
                    "layer_self_ms": layer_self,
                    "counters": {k: float(v[r]) for k, v in counters.items()},
                    "spans": int(members.size),
                }
            )
        return out

    def write(self, path) -> None:
        """Save every span as arrays: names, name index, start, end, parent."""
        nid, start, end, parent = self.arrays()
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name_idx=nid.astype(np.int32),
            start=start,
            end=end,
            parent=parent.astype(np.int64),
        )


"""Span tracing of alphamod's layers, installed from the benchmark's side.

``Tracer.install`` replaces every public function and every public method
of the nine layer modules with a wrapper that records one span per call:
name, layer, start, end, parent span, the op it belongs to, and a few
counts.  A function that another alphamod module imported by name is
replaced at every binding site.  Two private functions are wrapped as
well because the frame counters need them: ``frames._S_block`` (block
frame-operator applies of the frame-bound estimate) and the binding of
``_atom_rows`` inside ``frames`` (one dense atom row built for the row
cache).  Generator functions are left alone: their span would close
before the work is done.  ``uninstall`` restores the originals, so an
untraced pass runs the program unmodified.

Spans live in memory and are reduced to per-layer metrics after the
run.  Self time comes from one sweep over all span boundaries: at every
instant the elapsed time goes to the innermost open spans (spans with
no open child), shared equally when threads overlap.  The self times of
one op therefore add up to its root span, the ``cli.main`` call.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import os
import sys
import threading
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("windows", "quadrature", "symbol", "covering", "grids", "frames",
          "transform", "diagnostics", "cli")

ROW_CACHE_BYTES = 512 * 1024 ** 2   # AlphaFrame's default row budget


# ---------------------------------------------------------------------------
# counters: fn -> runner(args, kwargs) -> (result, counts or None)


def _after(count):
    """Runner whose counts are read from the arguments and the result."""
    def make(fn):
        def run(args, kwargs):
            result = fn(*args, **kwargs)
            return result, count(args, kwargs, result)
        return run
    return make


def _quad_runner(fn):
    def run(args, kwargs):
        f, *rest = args
        points = [0]

        def counted(x):
            points[0] += np.size(x)
            return f(x)
        result = fn(counted, *rest, **kwargs)
        # every panel evaluation is one 15-point Kronrod rule
        return result, {"panels": points[0] / 15}
    return run


def _size(path):
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _file_bytes(i):
    """Bytes of the file named by positional argument i, plus its JSON
    sidecar."""
    def count(args, kwargs, result):
        path = str(args[i])
        return {"bytes": _size(path) + _size(path + ".json")}
    return count


def _matvec_cost(fr, vectors, passes):
    """Computed cost of passes over the frame's dense atom rows: 8 flops
    per complex multiply-add and vector, 16 bytes per atom entry read."""
    K, n = fr.n_atoms, fr.signal_grid.n
    return {"flops": 8 * K * n * vectors * passes, "bytes": 16 * K * n * passes}


COUNTERS = {
    "windows.Window.fourier": _after(lambda a, k, r: {"points": np.size(a[1])}),
    "windows.Window.time": _after(lambda a, k, r: {"points": np.size(a[1])}),
    "quadrature.adaptive_quad": _quad_runner,
    "symbol.SymbolTable.__call__": _after(
        lambda a, k, r: {"points": np.size(a[1])}),
    "covering.build_covering": _after(lambda a, k, r: {"boxes": r.n_boxes}),
    "grids.save_signal_csv": _after(_file_bytes(1)),
    "grids.save_signal_raw": _after(_file_bytes(1)),
    "grids.load_signal_csv": _after(_file_bytes(0)),
    "grids.load_signal_raw": _after(_file_bytes(0)),
    "frames.Coefficients.save": _after(_file_bytes(1)),
    "frames.Coefficients.save_csv": _after(_file_bytes(1)),
    "frames.load_coefficients": _after(_file_bytes(0)),
    "frames.analysis": _after(lambda a, k, r: _matvec_cost(a[1], 1, 1)),
    "frames.synthesis": _after(lambda a, k, r: _matvec_cost(a[1], 1, 1)),
    # S = synthesis(analysis(.)) on a block of q vectors: two passes
    "frames._S_block": _after(lambda a, k, r: {
        **_matvec_cost(a[1], a[0].shape[1], 2), "applies": a[0].shape[1]}),
    "frames._atom_rows": _after(lambda a, k, r: {"bytes": r.nbytes}),
    "frames.reconstruct": _after(lambda a, k, r: {"iters": r.iters}),
    "transform.voice_transform": _after(
        lambda a, k, r: {"rows": r.values.shape[0]}),
    "diagnostics.estimate_rho": _after(
        lambda a, k, r: {"doublings": len(r.truncation["history"]) - 1}),
}

# private functions wrapped for counters: (binding module, name)
PRIVATE = (("frames", "_S_block"), ("frames", "_atom_rows"))


class Tracer:
    """Records spans while installed; ``op`` tags spans with the op label."""

    def __init__(self):
        self.spans = []   # (id, parent, op, layer, name, t0, t1, counts)
        self.op = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack = None
        self._undo = []

    # -- recording ----------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            if threading.current_thread() is self._main:
                self._main_stack = stack
        return stack

    def _wrap(self, fn, layer, name):
        runner = COUNTERS.get(name, _after(lambda a, k, r: None))(fn)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                # a worker thread's first span hangs under the span the
                # main thread is waiting in
                main = tracer._main_stack
                parent = main[-1] if main and stack is not main else None
            sid = next(tracer._ids)
            stack.append(sid)
            counts = None
            t0 = perf_counter()
            try:
                result, counts = runner(args, kwargs)
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer.spans.append((sid, parent, tracer.op, layer, name,
                                     t0, t1, counts))
        return wrapper

    # -- installation -------------------------------------------------------

    def install(self):
        import alphamod  # noqa: F401  (loads every layer module)
        modules = {name: sys.modules[f"alphamod.{name}"] for name in LAYERS}
        targets = {}     # id(original) -> wrapper
        for layer, mod in modules.items():
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")
                        and not inspect.isgeneratorfunction(obj)):
                    targets[id(obj)] = self._wrap(obj, layer,
                                                  f"{layer}.{name}")
                elif (inspect.isclass(obj) and obj.__module__ == mod.__name__
                      and not issubclass(obj, BaseException)):
                    self._install_methods(obj, layer)
        for layer, name in PRIVATE:
            mod = modules[layer]
            fn = getattr(mod, name)
            self._set(mod, name, self._wrap(fn, layer, f"{layer}.{name}"))
        bindings = [m for key, m in sys.modules.items()
                    if key == "alphamod" or key.startswith("alphamod.")]
        for mod in bindings:
            for name, obj in list(vars(mod).items()):
                wrapper = targets.get(id(obj))
                if wrapper is not None and inspect.isfunction(obj):
                    self._set(mod, name, wrapper)

    def _install_methods(self, cls, layer):
        for attr, val in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__call__":
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(val, staticmethod):
                fn = val.__func__
                self._set(cls, attr, staticmethod(self._wrap(fn, layer, name)))
            elif (inspect.isfunction(val)
                  and not inspect.isgeneratorfunction(val)):
                self._set(cls, attr, self._wrap(val, layer, name))

    def _set(self, owner, name, value):
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def uninstall(self):
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    def take(self):
        """Spans recorded so far; clears the buffer."""
        spans, self.spans = self.spans, []
        return spans


# ---------------------------------------------------------------------------
# reduction


def self_times(spans) -> dict:
    """Span id -> self time, by a sweep over all span boundaries that
    gives each instant to the innermost open spans, split equally."""
    parent = {s[0]: s[1] for s in spans}
    events = sorted([(s[5], 1, s[0]) for s in spans]
                    + [(s[6], 0, s[0]) for s in spans])
    open_children = defaultdict(int)
    active, leaves = set(), set()
    out = defaultdict(float)
    last = None
    for t, is_start, sid in events:
        if leaves:
            share = (t - last) / len(leaves)
            for leaf in leaves:
                out[leaf] += share
        last = t
        p = parent[sid]
        if is_start:
            active.add(sid)
            leaves.add(sid)
            if p in active:
                open_children[p] += 1
                leaves.discard(p)
        else:
            active.discard(sid)
            leaves.discard(sid)
            if p in active:
                open_children[p] -= 1
                if open_children[p] == 0:
                    leaves.add(p)
    return out


def _inclusive(spans, names, parent, name_of):
    """Summed duration of spans named in ``names`` that have no ancestor
    in ``names`` (so recursion is not counted twice)."""
    total = 0.0
    for s in spans:
        if s[4] not in names:
            continue
        p = parent.get(s[0])
        while p is not None and name_of.get(p) not in names:
            p = parent.get(p)
        if p is None:
            total += s[6] - s[5]
    return total


def layer_metrics(spans) -> dict:
    """Per-layer work, time and self time of one pass's spans."""
    parent = {s[0]: s[1] for s in spans}
    name_of = {s[0]: s[4] for s in spans}
    own = self_times(spans)
    calls = defaultdict(int)
    counts = defaultdict(float)
    for s in spans:
        calls[s[4]] += 1
        for key, val in (s[7] or {}).items():
            counts[f"{s[4]}:{key}"] += val

    def incl(*names):
        return _inclusive(spans, set(names), parent, name_of)

    def total(name, key):
        return counts[f"{name}:{key}"]

    io_grids = ("grids.save_signal_csv", "grids.save_signal_raw",
                "grids.load_signal_csv", "grids.load_signal_raw")
    io_frames = ("frames.Coefficients.save", "frames.Coefficients.save_csv",
                 "frames.load_coefficients")
    requests = calls["frames.AlphaFrame.row_matrix"]
    builds = calls["frames._atom_rows"]
    built_bytes = total("frames._atom_rows", "bytes")
    frame_ops = ("frames.analysis", "frames.synthesis", "frames._S_block")
    m = {
        "windows.fourier_points": total("windows.Window.fourier", "points"),
        "windows.time_points": total("windows.Window.time", "points"),
        "windows.eval_s": incl("windows.Window.fourier", "windows.Window.time"),
        "quadrature.calls": calls["quadrature.adaptive_quad"],
        "quadrature.panels": total("quadrature.adaptive_quad", "panels"),
        "quadrature.s": incl("quadrature.adaptive_quad"),
        "symbol.scan_s": incl("symbol.admissibility_scan"),
        "symbol.m_calls": calls["symbol.symbol_m"],
        "symbol.table_points": total("symbol.SymbolTable.__call__", "points"),
        "covering.build_s": incl("covering.build_covering"),
        "covering.boxes": total("covering.build_covering", "boxes"),
        "covering.diag_s": incl("covering.covering_diagnostics"),
        "covering.q_neighborhood_calls": calls["covering.q_neighborhood"],
        "grids.io_s": incl(*io_grids),
        "grids.io_bytes": sum(total(n, "bytes") for n in io_grids),
        "frames.row_requests": requests,
        "frames.row_builds": builds,
        "frames.row_hit_ratio": 1.0 - builds / requests if requests else 0.0,
        "frames.row_s": incl("frames.AlphaFrame.row_matrix"),
        "frames.atom_bytes_built": built_bytes,
        "frames.atom_bytes_per_budget": built_bytes / ROW_CACHE_BYTES,
        "frames.matvec_flops": sum(total(n, "flops") for n in frame_ops),
        "frames.matvec_bytes": sum(total(n, "bytes") for n in frame_ops),
        "frames.analysis_calls": calls["frames.analysis"],
        "frames.synthesis_calls": calls["frames.synthesis"],
        "frames.S_applies": calls["frames.frame_operator_apply"]
        + total("frames._S_block", "applies"),
        "frames.cg_iters": total("frames.reconstruct", "iters"),
        "frames.reconstruct_s": incl("frames.reconstruct"),
        "frames.bounds_s": incl("frames.estimate_frame_bounds"),
        "frames.io_s": incl(*io_frames),
        "frames.io_bytes": sum(total(n, "bytes") for n in io_frames),
        "transform.voice_calls": calls["transform.voice_transform"],
        "transform.voice_rows": total("transform.voice_transform", "rows"),
        "transform.voice_s": incl("transform.voice_transform"),
        "diagnostics.rho_s": incl("diagnostics.estimate_rho"),
        "diagnostics.rho_doublings": total("diagnostics.estimate_rho",
                                           "doublings"),
        "diagnostics.gamma_s": incl("diagnostics.estimate_gamma"),
        "diagnostics.report_s": incl("diagnostics.diagnostics_report"),
    }
    by_layer = defaultdict(float)
    for s in spans:
        by_layer[s[3]] += own[s[0]]
    for layer in LAYERS:
        m[f"{layer}.self_s"] = by_layer[layer]
    m["trace.spans"] = len(spans)
    m["trace.self_sum_s"] = sum(own.values())
    return m

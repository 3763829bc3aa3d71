"""Layer tracer for the floodgate benchmark.

The tracer wraps the public functions that form floodgate's layer
boundaries, from outside the library: nothing under ``src/`` knows it
exists. Each wrapped call records a span (name, start, end, parent span,
op id) in memory; the spans are written out when the run ends, and a
layer's self time is its span's duration minus the durations of its
direct child spans.

A function imported by name into another module (``from .regression
import fit_lasso``) is a second binding of the same object, so the
tracer patches every binding it finds in the loaded ``floodgate``
modules, not only the defining one. Methods are patched on the class
that callers look them up on.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

clock = time.monotonic   # CLOCK_MONOTONIC: comparable across processes


def _copies_counter(args, kwargs, result) -> dict:
    copies = result.copies
    return {"copies": float(copies.shape[0] * copies.shape[1]),
            "bytes": float(copies.nbytes)}


def _path_arg(args, kwargs):
    return kwargs.get("path", args[1] if len(args) > 1 else None)


def _file_bytes_counter(args, kwargs, result) -> dict:
    return {"bytes": float(os.path.getsize(_path_arg(args, kwargs)))}


@dataclass(frozen=True)
class Layer:
    """One traced boundary: the metric name, the module that defines it,
    the attribute path inside that module, and an optional counter that
    turns (args, kwargs, result) into named counts."""

    name: str
    module: str
    attr: str
    counter: Callable | None = None


LAYERS = (
    Layer("core.Dataset.from_csv", "floodgate.core", "Dataset.from_csv",
          _file_bytes_counter),
    Layer("core.Dataset.to_csv", "floodgate.core", "Dataset.to_csv",
          _file_bytes_counter),
    Layer("core.split", "floodgate.core", "split"),
    Layer("core.ratio_lcb", "floodgate.core", "ratio_lcb"),
    Layer("covariates.Ar1Model.sample_null_copies", "floodgate.covariates",
          "Ar1Model.sample_null_copies", _copies_counter),
    Layer("covariates.CopulaModel.sample_null_copies", "floodgate.covariates",
          "CopulaModel.sample_null_copies"),
    # Both joint samplers report under one name; the copula's calls the
    # latent AR(1) one, and self time keeps the two apart.
    Layer("covariates.sample_joint", "floodgate.covariates",
          "Ar1Model.sample_joint"),
    Layer("covariates.sample_joint", "floodgate.covariates",
          "CopulaModel.sample_joint"),
    Layer("regression.fit_lasso", "floodgate.regression", "fit_lasso"),
    Layer("regression.fit_logistic", "floodgate.regression", "fit_logistic"),
    Layer("mmse.mu_null_values", "floodgate.mmse", "mu_null_values"),
    Layer("mmse.floodgate_lcb", "floodgate.mmse", "floodgate_lcb"),
    Layer("macm.macm_lcb", "floodgate.macm", "macm_lcb"),
    # simulate's oracle callback is not wrapped, so its time counts here.
    Layer("macm.macm_gap_oracle", "floodgate.macm", "macm_gap_oracle"),
    Layer("cosufficient.cosufficient_lcb", "floodgate.cosufficient",
          "cosufficient_lcb"),
    Layer("simulate.run_experiment", "floodgate.simulate", "run_experiment"),
    Layer("simulate.oracle_values", "floodgate.simulate", "oracle_values"),
    Layer("simulate.generate_replicate", "floodgate.simulate",
          "generate_replicate"),
    Layer("cli.main", "floodgate.cli", "main"),
)

LAYER_NAMES = tuple(dict.fromkeys(layer.name for layer in LAYERS))
INFERENCE_LAYERS = ("mmse.floodgate_lcb", "macm.macm_lcb",
                    "cosufficient.cosufficient_lcb")
# The span the benchmark itself opens around each operation (or, for a
# traced CLI process, around the whole process); its self time is the
# part of the operation spent outside every traced layer.
ROOT = "bench.op"


class Tracer:
    """Records nested spans and per-op counters for the patched layers."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []      # (id, name, start, end, parent, op)
        self.counters: dict = defaultdict(float)   # (op, metric) -> total
        self.op = None
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def begin(self, name: str, start: float | None = None) -> int:
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([span_id, name,
                           clock() if start is None else start, None,
                           parent, self.op])
        self._stack.append(span_id)
        return span_id

    def end(self, span_id: int) -> None:
        if self._stack.pop() != span_id:
            raise RuntimeError("spans closed out of order")
        self.spans[span_id][3] = clock()

    def count(self, metric: str, value: float) -> None:
        self.counters[(self.op, metric)] += value

    def _wrap(self, fn, layer: Layer):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self.begin(layer.name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span_id)
            self.count(f"{layer.name}.calls", 1.0)
            if layer.counter is not None:
                for key, value in layer.counter(args, kwargs, result).items():
                    self.count(f"{layer.name}.{key}", value)
            return result
        return traced

    def install(self, layers=LAYERS) -> None:
        """Patch every layer; raises if a layer no longer exists, so a
        rename in the library cannot silently drop it."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "floodgate"
                                         or name.startswith("floodgate."))]
        for layer in layers:
            owner = sys.modules[layer.module]
            *cls_path, attr = layer.attr.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            if cls_path:
                self._patch_method(owner, attr, layer)
            else:
                self._patch_function(modules, getattr(owner, attr), layer)

    def _patch_function(self, modules, fn, layer: Layer) -> None:
        wrapped = self._wrap(fn, layer)
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is fn:
                    self._undo.append((module, name, value, True))
                    setattr(module, name, wrapped)

    def _patch_method(self, cls, attr: str, layer: Layer) -> None:
        raw = inspect.getattr_static(cls, attr)
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(self._wrap(raw.__func__, layer))
        else:
            wrapped = self._wrap(raw, layer)
        self._undo.append((cls, attr, raw, attr in vars(cls)))
        setattr(cls, attr, wrapped)

    def uninstall(self) -> None:
        for owner, name, value, owned in reversed(self._undo):
            if owned:
                setattr(owner, name, value)
            else:
                delattr(owner, name)
        self._undo.clear()

    def dump(self) -> dict:
        """JSON-ready spans and counters."""
        return {"spans": self.spans,
                "counters": [[op, metric, value] for (op, metric), value
                             in self.counters.items()]}


def self_times(spans) -> dict:
    """Self time per span id: duration minus direct children's durations."""
    out = {}
    for span_id, _, start, end, _, _ in spans:
        out[span_id] = end - start
    for _, _, start, end, parent, _ in spans:
        if parent is not None:
            out[parent] -= end - start
    return out


def aggregate(dumps, ops) -> dict:
    """Per-op means of self time, calls and counters for every layer,
    over the spans and counters whose op id is in ``ops``."""
    ops = set(ops)
    totals: dict = defaultdict(float)
    for dump in dumps:
        selfs = self_times(dump["spans"])
        for span_id, name, _, _, _, op in dump["spans"]:
            if op in ops:
                totals[f"{name}.self_s"] += selfs[span_id]
        for op, metric, value in dump["counters"]:
            if op in ops:
                totals[metric] += value
    return {k: v / len(ops) for k, v in totals.items()} if ops else {}


def negative_self_times(dumps, tolerance: float = 1e-6) -> list[str]:
    """Names of spans whose children outlast them (broken nesting)."""
    bad = []
    for dump in dumps:
        selfs = self_times(dump["spans"])
        bad += [span[1] for span in dump["spans"]
                if selfs[span[0]] < -tolerance]
    return bad

"""Timing wrappers swapped in for equiflow's layer functions.

``Tracer.install`` replaces each listed function, in every ``equiflow``
module namespace that binds it, with a wrapper that records a span (layer,
start, end, parent span).  Every span stays in memory (about 36 bytes each)
and is written out at the end, with the per-layer totals.  A layer's self
time is its span time minus the time of the spans it caused.  Time the
benchmark itself spends inside a span (its speed probe, called from
``on_episode``) is reported through ``pause`` and left out of every span it
falls in.
"""
from __future__ import annotations

import gzip
import sys
import time
from array import array
from functools import cached_property, wraps

# (layer name, module, attribute) for functions, and (layer name, module,
# "Class.method") for methods.  Several entries may share one layer name.
LAYERS = (
    ("env.predict_transition", "equiflow.env", "predict_transition"),
    ("env.available_actions", "equiflow.env", "available_actions"),
    ("env.step", "equiflow.env", "Episode.step"),
    ("admissible.score_actions", "equiflow.admissible", "score_actions"),
    ("admissible.admissible_from", "equiflow.admissible", "admissible_from"),
    ("qlearn.levelise", "equiflow.qlearn", "levelise"),
    ("qlearn.argmax_q", "equiflow.qlearn", "_argmax_q"),
    ("qlearn.double_q_update", "equiflow.qlearn", "double_q_update"),
    ("qlearn.save_model", "equiflow.qlearn", "save_model"),
    ("qlearn.load_model", "equiflow.qlearn", "load_model"),
    ("qlearn.train_loop", "equiflow.qlearn", "_train"),
    ("evaluate.run_episode", "equiflow.evaluate", "run_episode"),
    ("evaluate.choose", "equiflow.evaluate", "LocalPolicy.choose"),
    ("evaluate.choose", "equiflow.evaluate", "ModelPolicy.choose"),
    ("evaluate.write_csv", "equiflow.evaluate", "write_series_csv"),
    ("evaluate.write_csv", "equiflow.evaluate", "write_summary_csv"),
    ("evaluate.write_csv", "equiflow.evaluate", "write_compare_series_csv"),
    ("config.load_config", "equiflow.config", "load_config"),
)
# The equity scorer is a per-config closure cached on EnvConfig.equity_of.
EQUITY_LAYER = "equity.score"
# Layers whose results are sized, for the mean list length per call.
SIZED = ("admissible.score_actions", "admissible.admissible_from")

LAYER_NAMES = tuple(dict.fromkeys([name for name, _, _ in LAYERS] + [EQUITY_LAYER]))


class Tracer:
    def __init__(self) -> None:
        self.names = list(LAYER_NAMES)
        n = len(self.names)
        self.calls = [0] * n
        self.total = [0.0] * n
        self.self_time = [0.0] * n
        self.sizes = [0] * n
        self.spans_seen = 0
        # Spans, one entry per array: id, parent id (-1 at top), layer, start, end.
        self.span_id = array("q")
        self.span_parent = array("q")
        self.span_layer = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.paused = 0.0  # benchmark time spent inside spans, left out of them
        self._stack: list[list] = []
        self._undo: list[tuple] = []
        self.missing: list[str] = []

    def wrap(self, layer: str, fn):
        idx = self.names.index(layer)
        sized = layer in SIZED
        stack = self._stack
        clock = time.perf_counter

        @wraps(fn)
        def traced(*args, **kwargs):
            span = self.spans_seen
            self.spans_seen = span + 1
            frame = [span, 0.0]  # span id, time of child spans
            stack.append(frame)
            paused = self.paused
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start - (self.paused - paused)
                self.calls[idx] += 1
                self.total[idx] += duration
                self.self_time[idx] += duration - frame[1]
                parent = -1
                if stack:
                    stack[-1][1] += duration
                    parent = stack[-1][0]
                self.span_id.append(span)
                self.span_parent.append(parent)
                self.span_layer.append(idx)
                self.span_start.append(start)
                self.span_end.append(end)
            if sized:
                self.sizes[idx] += len(result)
            return result

        return traced

    def pause(self, seconds: float) -> None:
        """Leave ``seconds`` of benchmark work out of every open span."""
        self.paused += seconds

    def _bind(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Swap the wrappers in; a layer function that no longer exists is noted."""
        modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "equiflow" or name.startswith("equiflow."))
        ]
        for layer, module_name, attr in LAYERS:
            module = sys.modules.get(module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name, None)
                if cls is None or method not in cls.__dict__:
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                self._bind(cls, method, self.wrap(layer, cls.__dict__[method]))
                continue
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self.wrap(layer, original)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        self._bind(m, name, wrapper)

        env_config = sys.modules["equiflow.env"].EnvConfig
        prop = env_config.__dict__.get("equity_of")
        if not isinstance(prop, cached_property):
            self.missing.append("equiflow.env.EnvConfig.equity_of")
            return

        def equity_of(config, _make=prop.func):
            return self.wrap(EQUITY_LAYER, _make(config))

        traced_prop = cached_property(equity_of)
        traced_prop.__set_name__(env_config, "equity_of")
        self._bind(env_config, "equity_of", traced_prop)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def counts(self) -> dict[str, int]:
        return dict(zip(self.names, self.calls))

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """``<layer>.calls``, ``.self_s`` and ``.us_per_call`` for every layer.

        ``us_per_call`` is the inclusive span time per call.
        """
        out: dict[str, tuple[float, str]] = {}
        for i, name in enumerate(self.names):
            calls = self.calls[i]
            out[f"{name}.calls"] = (calls, "count")
            out[f"{name}.self_s"] = (self.self_time[i], "s")
            out[f"{name}.us_per_call"] = (1e6 * self.total[i] / calls if calls else 0.0, "us")
        return out

    def mean_size(self, layer: str) -> float:
        i = self.names.index(layer)
        return self.sizes[i] / self.calls[i] if self.calls[i] else 0.0

    def write_spans(self, path) -> None:
        """Write every span as gzipped CSV, times in microseconds from the earliest."""
        origin = min(self.span_start, default=0.0)
        names = self.names
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span,parent,layer,start_us,end_us\n")
            fh.writelines(
                f"{span},{parent},{names[layer]},"
                f"{1e6 * (start - origin):.3f},{1e6 * (end - origin):.3f}\n"
                for span, parent, layer, start, end in zip(
                    self.span_id, self.span_parent, self.span_layer,
                    self.span_start, self.span_end)
            )

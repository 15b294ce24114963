"""Spans around calls into epops' public functions, recorded from outside.

Installing a Tracer rebinds each traced function in every loaded epops
module that holds it, so calls from one module into another are timed as
well.  A span's self time is its duration minus the time its traced child
spans cover.  The closed-form audits of the applications are reported as
the app call minus the engine calls it makes (``tradeoff_curve`` and
``run_protocol``), whatever else is traced inside it.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

_BUILDER = "spectra.builders_s"
_LOADER = "spectra.from_json_s"
_ENGINE = ("coarse.tradeoff_curve_s", "recursive.run_protocol_s")


def _optimal_layer(args, kwargs):
    mode = args[3] if len(args) > 3 else kwargs.get("mode", "exhaustive")
    return "optimal.exhaustive_s" if mode == "exhaustive" else "optimal.ratio_family_s"


#: (module, function, layer).  App layers report audit time, the rest self time.
TARGETS = (
    ("epops.spectra", "binomial_profile", _BUILDER),
    ("epops.spectra", "poisson_profile", _BUILDER),
    ("epops.spectra", "uniform_profile", _BUILDER),
    ("epops.spectra", "sine_profile", _BUILDER),
    ("epops.spectra", "build_profile", _BUILDER),
    ("epops.spectra", "ratio_table", "spectra.ratio_table_s"),
    ("epops.recursive", "run_protocol", "recursive.run_protocol_s"),
    ("epops.coarse", "tradeoff_curve", "coarse.tradeoff_curve_s"),
    ("epops.optimal", "optimal_tradeoff_point", _optimal_layer),
    ("epops.oracle", "grid_search_tradeoff", "oracle.grid_search_s"),
    ("epops.oracle", "simulate_protocol", "oracle.simulate_protocol_s"),
    ("epops.oracle", "luders_identity_holds", "oracle.luders_s"),
    ("epops.oracle", "run_verification", "oracle.other_s"),
    ("epops.mixedstate", "purification_report", "mixedstate.purification_report_s"),
    ("epops.apps.amplification", "amplification_tradeoff", "apps.amplification.audit_s"),
    ("epops.apps.correction", "correction_tradeoff", "apps.correction.audit_s"),
    ("epops.apps.estimation", "estimation_tradeoff", "apps.estimation.gain_s"),
)

#: Every time and count a Tracer can report, zero when a workload never reaches it.
LAYER_METRICS = (
    "spectra.builders_s",
    "spectra.from_json_s",
    "spectra.ratio_table_s",
    "spectra.sectors",
    "recursive.run_protocol_s",
    "recursive.rounds",
    "coarse.tradeoff_curve_s",
    "apps.amplification.audit_s",
    "apps.correction.audit_s",
    "apps.estimation.gain_s",
    "optimal.exhaustive_s",
    "optimal.ratio_family_s",
    "optimal.exhaustive_masks",
    "oracle.grid_search_s",
    "oracle.grid_points",
    "oracle.simulate_protocol_s",
    "oracle.luders_s",
    "oracle.other_s",
    "mixedstate.purification_report_s",
)


def _common_sectors(p, q) -> int:
    return len(set(p.support) & set(q.support))


class _Frame:
    __slots__ = ("layer", "start", "children", "engine")

    def __init__(self, layer: str) -> None:
        self.layer = layer
        self.children = 0.0
        self.engine = 0.0
        self.start = time.perf_counter()


class Tracer:
    """Per-layer totals of the calls made while installed.

    ``totals`` maps each name of :data:`LAYER_METRICS` to seconds or a
    count.
    """

    def __init__(self) -> None:
        self._stack: list[_Frame] = []
        self._saved: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.totals = defaultdict(float)

    def snapshot(self) -> dict:
        return {"totals": dict(self.totals)}

    def merge(self, snap: dict) -> None:
        for key, value in snap["totals"].items():
            self.totals[key] += value

    def install(self) -> None:
        # epops.cli imports every module, so no later import can bind an
        # unwrapped function that uninstall would miss.
        importlib.import_module("epops.cli")
        modules = [m for name, m in sys.modules.items()
                   if name == "epops" or name.startswith("epops.")]
        for module_name, attr, layer in TARGETS:
            original = getattr(importlib.import_module(module_name), attr)
            wrapper = self._wrap(original, layer)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, key, original))
                        setattr(module, key, wrapper)
        profile_cls = importlib.import_module("epops.spectra").EnergyProfile
        loader = profile_cls.__dict__["from_json"]
        self._saved.append((profile_cls, "from_json", loader))
        profile_cls.from_json = classmethod(self._wrap(loader.__func__, _LOADER))

    def uninstall(self) -> None:
        while self._saved:
            owner, key, original = self._saved.pop()
            setattr(owner, key, original)

    def _wrap(self, fn, layer):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = layer(args, kwargs) if callable(layer) else layer
            frame = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(frame)
            tracer._count(frame, args, result)
            return result

        return wrapper

    def _open(self, layer: str) -> _Frame:
        frame = _Frame(layer)
        self._stack.append(frame)
        return frame

    def _close(self, frame: _Frame) -> None:
        duration = time.perf_counter() - frame.start
        self._stack.pop()
        if frame.layer.startswith("apps."):
            self.totals[frame.layer] += duration - frame.engine
        else:
            self.totals[frame.layer] += duration - frame.children
        if self._stack:
            parent = self._stack[-1]
            parent.children += duration
            parent.engine += duration if frame.layer in _ENGINE else frame.engine

    def _count(self, frame, args, result) -> None:
        layer = frame.layer
        parent = self._stack[-1].layer if self._stack else None
        if layer in (_BUILDER, _LOADER) and parent not in (_BUILDER, _LOADER):
            self.totals["spectra.sectors"] += len(result)
        elif layer == "recursive.run_protocol_s":
            self.totals["recursive.rounds"] += len(result.rounds)
        elif layer == "optimal.exhaustive_s":
            self.totals["optimal.exhaustive_masks"] += 2 ** _common_sectors(args[0], args[1])
        elif layer == "oracle.grid_search_s":
            steps = int(round(1.0 / args[3]))
            self.totals["oracle.grid_points"] += (steps + 1) ** len(args[0].support)

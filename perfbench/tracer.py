"""Outside-in layer tracer for the CAMO pipeline benchmark.

Every layer is measured from outside the program: :func:`install` swaps
public methods and functions of ``repro`` for wrappers defined here,
and nothing under ``src/`` changes.  Module-level functions are wrapped
at their *import sites* (``repro.rl.env.rasterize``, not
``repro.geometry.raster.rasterize``), because the calling modules bind
those names with ``from ... import`` and a patch of the defining module
would record nothing.

A :class:`Recorder` runs in one of two modes:

* counting (``spans=False``, the untraced run): each wrapped call adds
  to exact counters and reads no clock;
* tracing (``spans=True``): each call also records a span -- name,
  start, end, parent span and request id -- kept in memory and written
  out when the run ends.

Counters are identical in both modes, so the benchmark can check that
tracing did not change the work done.  A span's self time is its
duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

# (module, attribute, span name, size) -- ``size`` names the counter
# ``<span>.<key>`` that grows by a call-dependent amount, next to the
# plain ``<span>.calls`` counter.
_BATCH = ("masks", lambda args, result: len(args[1]))
_ONE_STEP = ("steps", lambda args, result: 1)
_P_STEPS = ("steps", lambda args, result: len(args[1]))
_ITEMS = ("items", lambda args, result: len(result))

TARGETS: tuple[tuple[str, str, str, tuple | None], ...] = (
    ("repro.nn.tensor", "Tensor.backward", "nn.backward", None),
    ("repro.nn.optim", "Adam.step", "nn.optim_step", None),
    ("repro.nn.optim", "SGD.step", "nn.optim_step", None),
    ("repro.nn.optim", "Optimizer.clip_grad_norm", "nn.clip_grad_norm", None),
    ("repro.core.policy", "CamoPolicy.forward", "core.policy_forward", None),
    ("repro.core.policy", "CamoPolicy.forward_population",
     "core.policy_forward", None),
    ("repro.core.agent", "CAMO.train", "core.train", None),
    ("repro.core.agent", "CAMO.optimize", "core.optimize", None),
    ("repro.core.agent", "collect_teacher_actions_population",
     "rl.teacher_rollout", None),
    ("repro.squish.features", "NodeFeatureEncoder.encode_all",
     "squish.encode", None),
    ("repro.squish.features", "NodeFeatureEncoder.encode_all_population",
     "squish.encode", None),
    ("repro.rl.env", "OPCEnvironment.reset", "rl.env", None),
    ("repro.rl.env", "OPCEnvironment.reset_population", "rl.env", None),
    ("repro.rl.env", "OPCEnvironment.step", "rl.env", _ONE_STEP),
    ("repro.rl.env", "OPCEnvironment.step_batch", "rl.env", _P_STEPS),
    ("repro.rl.env", "OPCEnvironment.score_moves", "rl.env", None),
    ("repro.litho.simulator", "LithographySimulator.simulate_batch",
     "litho.simulate", _BATCH),
    ("repro.litho.simulator", "LithographySimulator.simulate_epe_batch",
     "litho.epe_sim", _BATCH),
    ("repro.litho.simulator", "build_kernel_set", "litho.kernel_build", None),
    ("repro.litho.kernels", "OpticalKernelSet.band_spectra",
     "litho.kernel_build", None),
    ("repro.rl.env", "measure_epe", "metrology.epe", None),
    ("repro.rl.env", "measure_epe_batch", "metrology.epe", None),
    ("repro.rl.env", "segment_epe", "metrology.epe", None),
    ("repro.rl.env", "segment_epe_batch", "metrology.epe", None),
    ("repro.rl.env", "measure_epe_grouped_sparse", "metrology.epe", None),
    ("repro.rl.env", "measure_stencil_plan", "metrology.epe", None),
    ("repro.rl.env", "pvband_area", "metrology.epe", None),
    ("repro.rl.env", "pvband_area_batch", "metrology.epe", None),
    ("repro.service.scheduler", "measure_epe_grouped", "metrology.epe", None),
    ("repro.service.scheduler", "measure_epe_grouped_sparse",
     "metrology.epe", None),
    ("repro.service.scheduler", "measure_stencil_plan", "metrology.epe", None),
    ("repro.rl.env", "rasterize", "geometry.rasterize", None),
    ("repro.service.scheduler", "rasterize", "geometry.rasterize", None),
    ("repro.litho.simulator", "rasterize", "geometry.rasterize", None),
    ("repro.service.service", "MaskOptService.run_all",
     "service.dispatch", None),
    ("repro.service.service", "MaskOptService.map_suite",
     "service.dispatch", None),
    ("repro.service.scheduler", "ShapeBinScheduler.flush",
     "service.verify", _ITEMS),
    ("repro.baselines.mbopc", "MBOPC.optimize", "baselines.mbopc", None),
)

_REQUEST_SPANS = {"core.optimize", "baselines.mbopc"}
"""Spans that run one clip: the clip name becomes their request id."""


class Recorder:
    """Counters per phase, plus spans when ``spans`` is set."""

    def __init__(self, spans: bool) -> None:
        self.spans = spans
        self.phase = "setup"
        self.request = "setup"
        self.counts: dict[str, dict[str, int]] = {}
        self._stack: list[int] = []
        self._open_names: dict[str, int] = {}
        # Parallel span columns (cheaper than one object per span).
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.requests: list[str] = []
        self.phases: list[str] = []
        self.child_s: list[float] = []
        self.outer: list[bool] = []

    def add(self, key: str, amount: int = 1) -> None:
        counts = self.counts.setdefault(self.phase, {})
        counts[key] = counts.get(key, 0) + amount

    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.requests.append(self.request)
        self.phases.append(self.phase)
        self.child_s.append(0.0)
        self.ends.append(0.0)
        depth = self._open_names.get(name, 0)
        self.outer.append(depth == 0)
        self._open_names[name] = depth + 1
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        end = time.perf_counter()
        self.ends[index] = end
        self._stack.pop()
        name = self.names[index]
        self._open_names[name] -= 1
        parent = self.parents[index]
        if parent >= 0:
            self.child_s[parent] += end - self.starts[index]

    def layer_times(self, phase: str) -> dict[str, dict[str, float]]:
        """Per span name: ``busy`` (outermost spans' duration, so nested
        calls of one name are not counted twice) and ``self`` time."""
        out: dict[str, dict[str, float]] = {}
        for i, name in enumerate(self.names):
            if self.phases[i] != phase:
                continue
            duration = self.ends[i] - self.starts[i]
            entry = out.setdefault(name, {"busy": 0.0, "self": 0.0})
            if self.outer[i]:
                entry["busy"] += duration
            entry["self"] += duration - self.child_s[i]
        return out

    def dump(self, path: str) -> None:
        """Write the spans as JSON columns (times relative to the first)."""
        origin = self.starts[0] if self.starts else 0.0
        with open(path, "w") as handle:
            json.dump({
                "columns": ["name", "start_s", "end_s", "parent", "request",
                            "phase"],
                "spans": [
                    [self.names[i], round(self.starts[i] - origin, 7),
                     round(self.ends[i] - origin, 7), self.parents[i],
                     self.requests[i], self.phases[i]]
                    for i in range(len(self.names))
                ],
            }, handle, separators=(",", ":"))


def _wrap(recorder: Recorder, fn, name: str, size):
    calls_key = f"{name}.calls"
    size_key = f"{name}.{size[0]}" if size else None
    size_fn = size[1] if size else None
    sets_request = name in _REQUEST_SPANS

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        recorder.add(calls_key)
        if not recorder.spans:
            result = fn(*args, **kwargs)
        else:
            previous = recorder.request
            if sets_request:
                recorder.request = args[1].name
            index = recorder.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder.close(index)
                recorder.request = previous
        if size_key:
            recorder.add(size_key, size_fn(args, result))
        return result

    return wrapper


def install(recorder: Recorder) -> None:
    """Wrap every target in :data:`TARGETS` (once per process)."""
    for module_name, attribute, name, size in TARGETS:
        module = importlib.import_module(module_name)
        owner_name, _, fn_name = attribute.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        if owner_name:
            # Wrap where the method is defined, never an inherited copy.
            fn = owner.__dict__[fn_name]
        else:
            fn = getattr(owner, fn_name)
        setattr(owner, fn_name, _wrap(recorder, fn, name, size))

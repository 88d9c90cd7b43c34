"""Span tracing of the package's public functions, from outside the package.

While a Tracer is active, every public function defined in one of the
package's modules is replaced, at each module attribute that names it, by a
wrapper that records a span (name, layer, parent span, start, end). Callers
inside the package look these names up at call time, so calls between
modules are traced without any change to the package. Leaving the context
restores the original functions.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("graphs", "shapes", "motion", "spectral", "sim", "scenarios", "cli")


def _boost_log2(args, result, counts):
    counts["spectral.boost_log2_sum"] += math.log2(result.boost)


def _steps(kind):
    def hook(args, result, counts):
        cfg = args["cfg"]
        counts[f"sim.{kind}_steps"] += int(round(cfg.t_end / cfg.dt))
    return hook


def _csv_bytes(args, result, counts):
    counts["cli.csv_bytes"] += os.path.getsize(args["path"])


# Counts taken at the boundary from a call's arguments or result.
HOOKS = {
    "spectral.design_pipeline": _boost_log2,
    "sim.integrate": _steps("rk4"),
    "sim.exact_trajectory": _steps("exact"),
    "cli.write_trajectory_csv": _csv_bytes,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, layer, parent index, start, end]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _wrap(self, fn, layer: str):
        name = f"{layer}.{fn.__name__}"
        hook = HOOKS.get(name)
        sig = inspect.signature(fn) if hook else None
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, layer, stack[-1] if stack else -1, time.perf_counter(), 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                stack.pop()
            if hook:
                hook(sig.bind(*args, **kwargs).arguments, result, counts)
            return result
        return traced

    def __enter__(self):
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"lapmaneuver.{layer}")
            for attr, val in vars(mod).items():
                if inspect.isfunction(val) and not attr.startswith("_") \
                        and val.__module__ == mod.__name__:
                    wrappers[val] = self._wrap(val, layer)
        for mod in [m for k, m in sys.modules.items()
                    if k == "lapmaneuver" or k.startswith("lapmaneuver.")]:
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrappers:
                    self._patches.append((mod, attr, val))
                    setattr(mod, attr, wrappers[val])
        return self

    def __exit__(self, *exc):
        for mod, attr, val in self._patches:
            setattr(mod, attr, val)
        self._patches.clear()
        return False

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def summary(self) -> dict:
        """Per-layer metrics of the spans recorded since the last reset."""
        total: dict = defaultdict(float)
        own: dict = defaultdict(float)
        calls: Counter = Counter()
        layer_self: dict = {layer: 0.0 for layer in LAYERS}
        child = [0.0] * len(self.spans)
        for name, layer, parent, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        for (name, layer, parent, t0, t1), inner in zip(self.spans, child):
            total[name] += t1 - t0
            own[name] += t1 - t0 - inner
            calls[name] += 1
            layer_self[layer] += t1 - t0 - inner
        c = self.counts
        rk4, exact = c["sim.rk4_steps"], c["sim.exact_steps"]
        out = {
            "sim.integrate_s": total["sim.integrate"],
            "sim.rk4_us_per_step": 1e6 * total["sim.integrate"] / rk4 if rk4 else 0.0,
            "sim.exact_trajectory_s": total["sim.exact_trajectory"],
            "sim.exact_us_per_step": 1e6 * total["sim.exact_trajectory"] / exact if exact else 0.0,
            "sim.steps": rk4 + exact,
            "cli.write_trajectory_csv_s": total["cli.write_trajectory_csv"],
            "cli.csv_mb": c["cli.csv_bytes"] / 1e6,
            "cli.write_report_s": total["cli.write_report"],
            "cli.build_report_s": total["cli.build_report"],
            "scenarios.load_scenario_s": total["scenarios.load_scenario"],
            "spectral.design_pipeline_s": total["spectral.design_pipeline"],
            "spectral.design_pipeline_self_s": own["spectral.design_pipeline"],
            "shapes.synthesize_weights_s": total["shapes.synthesize_weights"],
            "shapes.stabilize_gains_s": total["shapes.stabilize_gains"],
            "shapes.gain_eig_calls": calls["shapes.nonkernel_eigenvalues"],
            "spectral.stability_bound_s": total["spectral.stability_bound"],
            "spectral.stability_bound_calls": calls["spectral.stability_bound"],
            "spectral.boost_log2_sum": c["spectral.boost_log2_sum"],
            "motion.compile_motion_s": total["motion.compile_motion"],
            "motion.modified_laplacian_s": total["motion.modified_laplacian"],
            "spectral.verify_s": total["spectral.verify_motion_spectrum"]
            + total["spectral.verify_translation_jordan"],
        }
        out.update({f"self_s.{layer}": t for layer, t in layer_self.items()})
        return out

"""Span recorder that wraps contestlab's public functions from the outside.

`Tracer.install()` replaces each listed function with a wrapper wherever a
contestlab module holds it (the defining module and every module that
imported it by name), and `uninstall()` puts the originals back, so
untraced rounds run the unmodified program. Each call records a span: name,
start, end, parent span and request. Spans stay in memory in flat arrays and
are written out once, when the run ends. Self time is a span's duration
minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# (module, attribute) -> span name. Methods are given as "Class.method".
TARGETS = {
    ("contestlab.cli", "main"): "cli.main",
    ("contestlab.cli", "load_config"): "cli.load_config",
    ("contestlab.cli", "emit_report"): "cli.emit_report",
    ("contestlab.design", "optimize_budget"): "design.optimize_budget",
    ("contestlab.competition", "competition_effect_numeric"): "competition.competition_effect_numeric",
    ("contestlab.effort", "expected_effort"): "effort.expected_effort",
    ("contestlab.effort", "alpha_coefficients"): "effort.alpha_coefficients",
    ("contestlab.equilibrium", "solve"): "equilibrium.solve",
    ("contestlab.equilibrium", "exante_cdf"): "equilibrium.exante_cdf",
    ("contestlab.kernels", "binom_tail"): "kernels.binom_tail",
    ("contestlab.kernels", "prize_expectation"): "kernels.prize_expectation",
    ("contestlab.kernels", "prize_expectation_inverse"): "kernels.prize_expectation_inverse",
    ("contestlab.costs", "CostFunction.inverse"): "costs.inverse",
    ("contestlab.costs", "validate_environment"): "costs.validate_environment",
    ("contestlab.verify", "monte_carlo_effort"): "verify.monte_carlo_effort",
    ("contestlab.verify", "best_response_gap"): "verify.best_response_gap",
    ("contestlab.continuum", "continuum_strategy"): "continuum.continuum_strategy",
    ("contestlab.continuum", "convergence_report"): "continuum.convergence_report",
}

NAMES = tuple(TARGETS.values())


class Tracer:
    def __init__(self):
        self.names = array("i")
        self.parents = array("i")
        self.requests = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.request = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name_id: int, fn):
        names, parents, requests = self.names, self.parents, self.requests
        starts, ends, stack = self.starts, self.ends, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            requests.append(self.request)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                starts[idx] = start
                ends[idx] = end

        return traced

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key == "contestlab" or key.startswith("contestlab.")]
        for name_id, ((module_name, attr), _) in enumerate(TARGETS.items()):
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                self._patch(cls, method, original, self._wrap(name_id, original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name_id, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapper)

    def _patch(self, holder, key, original, wrapper) -> None:
        setattr(holder, key, wrapper)
        self._patches.append((holder, key, original))

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._patches):
            setattr(holder, key, original)
        self._patches.clear()

    def mark(self) -> int:
        return len(self.names)

    def summary(self, first: int, last: int) -> dict[str, dict[str, float]]:
        """Calls and self seconds per span name over spans [first, last)."""
        # copies, so the arrays stay free to grow after this call
        names = np.array(self.names[first:last], dtype=np.int32)
        parents = np.array(self.parents[first:last], dtype=np.int32)
        dur = np.array(self.ends[first:last]) - np.array(self.starts[first:last])
        child = np.zeros_like(dur)
        has_parent = parents >= first
        np.add.at(child, parents[has_parent] - first, dur[has_parent])
        self_s = dur - child
        out = {}
        for name_id, name in enumerate(NAMES):
            mask = names == name_id
            out[name] = {"calls": int(mask.sum()), "self_s": float(self_s[mask].sum())}
        return out

    def dump(self, path: str) -> None:
        np.savez_compressed(
            path,
            names=np.array(NAMES),
            name=np.array(self.names, dtype=np.int32),
            parent=np.array(self.parents, dtype=np.int32),
            request=np.array(self.requests, dtype=np.int32),
            start=np.array(self.starts),
            end=np.array(self.ends),
        )

"""In-memory span tracing of frustra's public functions, from outside the
package.

``Tracer.install`` replaces each traced function by a wrapper in every
frustra module that binds it (``scaling`` and ``meanfield`` import functions
by name, so patching the defining module alone would miss their calls) and
``uninstall`` puts the originals back.  Layer boundaries get spans (name,
start, end, parent span, pass id); the model's energy functions, which run
tens of thousands of times per pass, are counted without spans, so their time
falls into the self time of the caller.  Self time is span time minus the
time of direct child spans.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter

import frustra
from frustra import cli, fluctuations, meanfield, model, scaling
from frustra.errors import FrustraError

MODULES = {"model": model, "meanfield": meanfield, "fluctuations": fluctuations,
           "scaling": scaling, "cli": cli}

SPANNED = (
    "meanfield.solve_ground_state",
    "meanfield.enumerate_degenerate_ground_states",
    "fluctuations.build_quadratic_hamiltonian",
    "fluctuations.williamson_diagonalize",
    "fluctuations.covariance",
    "fluctuations.fsp_site_moments",
    "fluctuations.fsp_sector_spectra",
    "scaling.run_sweep",
    "scaling.extract_exponents",
    "scaling.lowest_decade_fit",
    "scaling.energy_derivative_diagnostics",
    "cli.main",
)
COUNTED = (
    "model.energy_gradient",
    "model.energy_hessian",
    "model.rescaled_energy",
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int] | None] = []
        self.counts: Counter[str] = Counter()
        self.pass_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for qualname in SPANNED + COUNTED:
            module_name, attr = qualname.split(".")
            original = getattr(MODULES[module_name], attr)
            wrapper = (self._spanned if qualname in SPANNED else self._counted)(
                qualname, original)
            for module in (frustra, *MODULES.values()):
                if getattr(module, attr, None) is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _counted(self, qualname, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[qualname] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _spanned(self, qualname, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        errors = qualname.split(".")[0] + ".errors"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)  # reserve the slot so children can name it
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except FrustraError as exc:
                # count each error once, where it first leaves a traced layer
                if not getattr(exc, "_traced", False):
                    exc._traced = True
                    counts[errors] += 1
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (qualname, start, end, parent, self.pass_id)
            if qualname == "scaling.run_sweep":
                counts["scaling.missing_rows"] += len(result.missing)
            return result
        return wrapper

    # -- analysis -----------------------------------------------------------

    def self_times(self) -> Counter[str]:
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: Counter[str] = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] += (end - start) - child[i]
        return totals

    def layer_metrics(self, passes: int) -> dict[str, tuple[float, str]]:
        """Per-pass layer metrics as {name: (value, unit)}, with the bases of
        the two ratios."""
        calls = Counter(span[0] for span in self.spans)
        calls.update({name: self.counts[name] for name in COUNTED})
        self_s = self.self_times()
        sweep_points = sum(1 for name, _, _, parent, _ in self.spans
                           if name == "meanfield.solve_ground_state" and parent >= 0
                           and self.spans[parent][0] == "scaling.run_sweep")
        solves = calls["meanfield.solve_ground_state"]
        metrics: dict[str, tuple[float, str]] = {}
        for name in COUNTED + SPANNED:
            metrics[name + ".calls"] = (calls[name] / passes, "count")
        for name in SPANNED:
            metrics[name + ".self_s"] = (self_s[name] / passes, "s")
        metrics["meanfield.gradient_calls_per_solve"] = (
            calls["model.energy_gradient"] / solves if solves else 0.0, "1")
        metrics["meanfield.gradient_calls_per_solve.base"] = (solves / passes, "count")
        metrics["fluctuations.forms_per_point"] = (
            calls["fluctuations.build_quadratic_hamiltonian"] / sweep_points
            if sweep_points else 0.0, "1")
        metrics["fluctuations.forms_per_point.base"] = (sweep_points / passes, "count")
        for name in ("scaling.missing_rows", "meanfield.errors",
                     "fluctuations.errors", "scaling.errors"):
            metrics[name] = (self.counts[name] / passes, "count")
        return metrics

    def dump(self, path: str, header: dict) -> None:
        """Write every span once, at the end of the run."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({**header, "span_fields": ["name", "start", "end", "parent", "pass"],
                       "spans": self.spans}, handle)

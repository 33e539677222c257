"""Spans around the public functions of each ivstrata layer.

`Tracer.install` replaces each listed function, in its defining module and
in every ivstrata module that imported it by name, with a wrapper that
records a span: name, op index, parent span, start and end; `uninstall`
puts the originals back. Spans stay in memory and are written out once, by
`summary`, when the run ends.

A function's self time is its spans' durations minus the time covered by
their child spans; time in private helpers goes to the nearest listed
caller. `errors` counts documented IVStrataErrors leaving the function.
"""

from __future__ import annotations

import functools
import json
import sys
import time

LAYERS = {
    "cli": ("main", "load_scenario"),
    "strata": ("population_from_dict", "marginal_shares", "marginalize", "group_prob", "group_effect"),
    "estimands": ("solve_moment_system", "decompose", "bias_sweep"),
    "identification": ("first_stage_from_shares", "defier_bounds", "feasible_set_scan", "shares_from_first_stage"),
    "clustering": ("choose_clustering", "cluster_estimand_formula", "cluster_estimand_constant_effects",
                   "check_cluster_exclusion", "cluster_wald_oracle"),
    "montecarlo": ("generate", "estimate_2sls", "estimate_cluster_wald", "replicate", "replication_seed"),
}

FUNCTIONS = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = [f"{fn}.{kind}" for fn in FUNCTIONS for kind in ("self_s", "calls", "errors")]
    names += [f"{layer}.self_s" for layer in LAYERS]
    names += ["bench.self_s", "setup.import_numpy_s", "setup.import_ivstrata_s",
              "montecarlo.rows_drawn"]
    return names


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, op, parent, start, end]
        self.stack: list[int] = []
        self.errors = dict.fromkeys(FUNCTIONS, 0)
        self.rows_drawn = 0
        self.op = -1
        self.patched: list[tuple] = []  # (module, function name, original)

    def wrap(self, name: str, fn, error_type):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, self.op, stack[-1] if stack else -1, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except error_type:
                self.errors[name] += 1
                raise
            finally:
                span[4] = time.perf_counter()
                stack.pop()
            if name == "montecarlo.generate":
                self.rows_drawn += result.n
            return result

        return traced

    def install(self) -> None:
        from ivstrata.exceptions import IVStrataError

        modules = [m for key, m in list(sys.modules.items()) if key == "ivstrata" or key.startswith("ivstrata.")]
        for layer, fns in LAYERS.items():
            home = sys.modules[f"ivstrata.{layer}"]
            for fn in fns:
                original = getattr(home, fn)
                wrapped = self.wrap(f"{layer}.{fn}", original, IVStrataError)
                for module in modules:
                    if getattr(module, fn, None) is original:
                        setattr(module, fn, wrapped)
                        self.patched.append((module, fn, original))

    def uninstall(self) -> None:
        for module, fn, original in self.patched:
            setattr(module, fn, original)
        self.patched.clear()

    def summary(self, wall_s: float, spans_path: str) -> dict:
        """Per-function and per-layer metrics; writes the spans as JSON lines."""
        self_s = dict.fromkeys(FUNCTIONS, 0.0)
        calls = dict.fromkeys(FUNCTIONS, 0)
        child_s = [0.0] * len(self.spans)
        root_s = 0.0
        for name, _op, parent, start, end in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
            else:
                root_s += end - start
        for idx, (name, _op, _parent, start, end) in enumerate(self.spans):
            self_s[name] += (end - start) - child_s[idx]
            calls[name] += 1
        metrics = {}
        for fn in FUNCTIONS:
            metrics[f"{fn}.self_s"] = self_s[fn]
            metrics[f"{fn}.calls"] = calls[fn]
            metrics[f"{fn}.errors"] = self.errors[fn]
        for layer, fns in LAYERS.items():
            metrics[f"{layer}.self_s"] = sum(self_s[f"{layer}.{fn}"] for fn in fns)
        metrics["bench.self_s"] = wall_s - root_s
        metrics["montecarlo.rows_drawn"] = self.rows_drawn
        with open(spans_path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
        return metrics

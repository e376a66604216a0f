"""Spans around the public functions of each kppspeed layer.

`Tracer.install` replaces each traced function by a wrapper in every
namespace that looks it up: a module that imported the function by name
(`simulate` imports `tridiag_solve`, `eigen` imports `ActionFamily`, `speed`
imports `principal_eigenvalue`) holds its own reference, so every loaded
`kppspeed` module is searched for the original object.  Methods are patched
on their class.  Spans (name, start, end, parent, info) stay in memory and
are written out when the run ends.  A layer's self time is the duration of
its spans minus the part covered by their child spans.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time

# (span name, module, attribute, result -> info); a dotted attribute names a
# method on a class of that module
TARGETS = [
    ("fields.eval", "fields", "PeriodicField.eval_entry", None),
    ("fields.eval", "fields", "PeriodicField.__call__", None),
    ("operators.family_build", "operators", "ActionFamily.__init__", None),
    ("operators.assemble", "operators", "assemble_action", None),
    ("operators.period_map", "operators", "ActionFamily.step_period", None),
    ("kernels.cn_period", "kernels", "cn_period", lambda out: out.shape[0] - 1),
    ("kernels.tridiag_solve", "kernels", "tridiag_solve", None),
    ("eigen.principal", "eigen", "principal_eigenvalue", None),
    ("eigen.steady", "eigen", "principal_eigen_steady",
     lambda res: (res.iterations, res.width)),
    ("eigen.floquet", "eigen", "principal_eigen_floquet",
     lambda res: (res.iterations, res.width)),
    ("speed.spreading_speed", "speed", "spreading_speed", None),
    ("simulate.solve_cauchy", "simulate", "solve_cauchy",
     lambda run: int(round(run.times[-1] / run.diagnostics["dt"]))),
    ("simulate.front_speed", "simulate", "front_speed", None),
]

# (name, unit) of every per-layer metric, in report order
METRICS = [
    ("fields.eval_calls", "count"), ("fields.eval_s", "s"),
    ("operators.family_builds", "count"), ("operators.family_build_s", "s"),
    ("operators.assemble_calls", "count"), ("operators.assemble_s", "s"),
    ("operators.period_maps", "count"), ("operators.period_map_self_s", "s"),
    ("kernels.cn_periods", "count"), ("kernels.cn_level_us", "us"),
    ("kernels.tridiag_solves", "count"), ("kernels.tridiag_solve_us", "us"),
    ("eigen.steady_solves", "count"), ("eigen.floquet_solves", "count"),
    ("eigen.power_iters", "count"), ("eigen.self_s", "s"),
    ("eigen.cert_width_max", "1"),
    ("speed.searches", "count"), ("speed.solves_per_speed", "count"),
    ("speed.self_s", "s"),
    ("simulate.steps", "count"), ("simulate.step_us", "us"), ("simulate.self_s", "s"),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, info]
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, name, fn, info):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if info is not None:
                span[4] = info(out)
            return out

        return traced

    def install(self, package: str = "kppspeed") -> None:
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == package or k.startswith(package + "."))]
        for name, mod_name, attr, info in TARGETS:
            mod = sys.modules[f"{package}.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(name, original, info))
                self._undo.append((cls, meth, original))
                continue
            original = getattr(mod, attr)
            wrapped = self._wrap(name, original, info)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapped)
                        self._undo.append((m, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "info"],
                       "spans": self.spans}, fh)


def _round_metrics(spans: list[list], lo: int, hi: int) -> dict:
    """Per-layer metrics of the spans with indices lo..hi-1 (one round)."""
    child_time = [0.0] * (hi - lo)
    for i in range(lo, hi):
        p = spans[i][3]
        if p >= lo:
            child_time[p - lo] += spans[i][2] - spans[i][1]
    count: dict[str, int] = {}
    total: dict[str, float] = {}
    layer_self: dict[str, float] = {}
    infos: dict[str, list] = {}
    for i in range(lo, hi):
        name, start, end, _, info = spans[i]
        dur = end - start
        count[name] = count.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + dur
        layer = name.split(".")[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + dur - child_time[i - lo]
        if name == "operators.period_map":
            layer_self["period_map"] = layer_self.get("period_map", 0.0) + dur - child_time[i - lo]
        if info is not None:
            infos.setdefault(name, []).append(info)

    def ratio(a, b, scale=1.0):
        return scale * a / b if b else 0.0

    solves = [x for key in ("eigen.steady", "eigen.floquet") for x in infos.get(key, [])]
    levels = sum(infos.get("kernels.cn_period", []))
    steps = sum(infos.get("simulate.solve_cauchy", []))
    searches = count.get("speed.spreading_speed", 0)
    return {
        "fields.eval_calls": count.get("fields.eval", 0),
        "fields.eval_s": layer_self.get("fields", 0.0),
        "operators.family_builds": count.get("operators.family_build", 0),
        "operators.family_build_s": total.get("operators.family_build", 0.0),
        "operators.assemble_calls": count.get("operators.assemble", 0),
        "operators.assemble_s": total.get("operators.assemble", 0.0),
        "operators.period_maps": count.get("operators.period_map", 0),
        "operators.period_map_self_s": layer_self.get("period_map", 0.0),
        "kernels.cn_periods": count.get("kernels.cn_period", 0),
        "kernels.cn_level_us": ratio(total.get("kernels.cn_period", 0.0), levels, 1e6),
        "kernels.tridiag_solves": count.get("kernels.tridiag_solve", 0),
        "kernels.tridiag_solve_us": ratio(total.get("kernels.tridiag_solve", 0.0),
                                          count.get("kernels.tridiag_solve", 0), 1e6),
        "eigen.steady_solves": count.get("eigen.steady", 0),
        "eigen.floquet_solves": count.get("eigen.floquet", 0),
        "eigen.power_iters": sum(it for it, _ in solves),
        "eigen.self_s": layer_self.get("eigen", 0.0),
        "eigen.cert_width_max": max((w for _, w in solves), default=0.0),
        "speed.searches": searches,
        "speed.solves_per_speed": ratio(len(solves), searches),
        "speed.self_s": layer_self.get("speed", 0.0),
        "simulate.steps": steps,
        "simulate.step_us": ratio(total.get("simulate.solve_cauchy", 0.0), steps, 1e6),
        "simulate.self_s": layer_self.get("simulate", 0.0),
    }


def layer_metrics(spans: list[list], round_starts: list[int]) -> dict:
    """Median over rounds of each per-round metric; the certificate width is
    the largest seen in any round."""
    bounds = list(zip(round_starts, round_starts[1:] + [len(spans)]))
    per_round = [_round_metrics(spans, lo, hi) for lo, hi in bounds]
    out = {}
    for name, unit in METRICS:
        values = [r[name] for r in per_round]
        value = max(values) if name == "eigen.cert_width_max" else statistics.median(values)
        out[name] = {"value": value, "unit": unit}
    return out

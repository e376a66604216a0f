"""Runs one workload against kppspeed in a process of its own.

Reads the workload spec (expressions and grid sizes only) as JSON on stdin
and prints one JSON object as its last line of output.  `run.py` starts it
with BLAS threads pinned to 1:

    python3 perfbench/worker.py setup <spawned_at>
        build the inputs, report when they were ready, exit;
    python3 perfbench/worker.py run <spawned_at> <seconds> <trace 0|1>
        also repeat whole rounds of the operations for <seconds> seconds.

`spawned_at` is the launcher's time.monotonic() just before it started this
process, so set-up time includes interpreter start and imports.  The program
is imported from the src/ directory next to this one and from nowhere else.
"""

from __future__ import annotations

import json
import math
import pathlib
import resource
import sys
import time
import traceback

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _import_program():
    src = ROOT / "src"
    if not (src / "kppspeed" / "__init__.py").is_file():
        sys.exit(f"worker: no kppspeed sources under {src}")
    sys.path.insert(0, str(src))
    import kppspeed  # noqa: F401  (loads every layer module)
    return sys.modules


def _speed_summary(r) -> dict:
    return {"c_star": r.c_star, "k": r.eigen.k, "width": r.eigen.width,
            "records": [[x["k"], x["lower"], x["upper"]] for x in r.records]}


def _eigen_summary(r) -> dict:
    return {"k": r.k, "lower": r.lower, "upper": r.upper, "width": r.width,
            "iterations": r.iterations}


def build_ops(spec: dict, mods) -> list:
    """(name, callable, summary) per operation; callables look the program's
    functions up through their modules at call time, so that the tracer's
    wrappers are the ones called."""
    fields, speed, eigen = mods["kppspeed.fields"], mods["kppspeed.speed"], mods["kppspeed.eigen"]
    operators, simulate = mods["kppspeed.operators"], mods["kppspeed.simulate"]
    CoefficientSet = fields.CoefficientSet
    grid_spec = spec["grid"]
    ops = []
    kind = spec["workload"]
    for op in spec["ops"]:
        if kind == "eigen-floquet-2d":
            geo = fields.CellGeometry(1.0, (1.0,))
            a, q1, mu = (fields.PeriodicField.scalar(op["shear"][k], geo) for k in ("a", "q1", "mu"))
            cs = speed.shear_full_coefficients(a, q1, mu)
            grid = operators.build_grid(cs.geometry, grid_spec["n"], grid_spec["nt"])
            lam = list(op["lam"])
            fn = (lambda cs=cs, lam=lam, grid=grid:
                  eigen.principal_eigenvalue(cs, lam, grid))
            ops.append((op["name"], fn, _eigen_summary))
            continue
        c = op["coeffs"]
        cs = CoefficientSet.from_expressions(A=c["A"], q=c["q"], mu=c["mu"])
        grid = operators.build_grid(cs.geometry, grid_spec["n"], grid_spec.get("nt"))
        if kind == "speed-floquet-1d":
            if op["average"]:
                cs = cs.with_mu(fields.temporal_average(cs.mu))
            kw = spec["speed"]
            fn = (lambda cs=cs, grid=grid, kw=kw:
                  speed.spreading_speed(cs, [1.0], grid, **kw))
            ops.append((op["name"], fn, _speed_summary))
        elif kind == "speed-steady-1d":
            cs = cs.with_scaled(kappa=op["kappa"], drift_B=op["drift_B"])
            fn = lambda cs=cs, grid=grid: speed.spreading_speed(cs, [1.0], grid)
            ops.append((op["name"], fn, _speed_summary))
        else:
            span, t_end = tuple(op["span"]), spec["t_end"]

            def front(cs=cs, grid=grid, span=span, t_end=t_end):
                run = simulate.solve_cauchy(cs, simulate.smooth_bump(0.0, 1.0, 1.0),
                                            cells=0, t_end=t_end, grid=grid, span=span)
                return run, simulate.front_speed(run, 1)

            def summary(out):
                run, est = out
                return {"speed": est.speed, "residual": est.residual,
                        "u_min": float(run.snapshots.min()),
                        "u_max": float(run.snapshots.max())}

            ops.append((op["name"], front, summary))
    return ops


def shear_reduction_check(spec: dict, mods) -> list:
    """k of the 1D shear-reduced problem at each probe, on the same y grid
    and time levels as the full 2D solve."""
    fields, speed, operators = mods["kppspeed.fields"], mods["kppspeed.speed"], mods["kppspeed.operators"]
    geo = fields.CellGeometry(1.0, (1.0,))
    n_y, nt = spec["grid"]["n"][1], spec["grid"]["nt"]
    grid_y = operators.build_grid(geo, n_y, nt)
    out = []
    for op in spec["ops"]:
        a, q1, mu = (fields.PeriodicField.scalar(op["shear"][k], geo) for k in ("a", "q1", "mu"))
        l1, l2 = op["lam"]
        norm = math.hypot(l1, l2)
        e = [l1 / norm, l2 / norm] if norm else [1.0, 0.0]
        out.append(speed.shear_reduced_eigenvalue(a, q1, mu, e, norm, grid_y).k)
    return out


def main(argv: list[str]) -> None:
    mode, spawned_at = argv[0], float(argv[1])
    spec = json.loads(sys.stdin.read())
    mods = _import_program()
    ops = build_ops(spec, mods)
    setup_end = time.monotonic()
    result = {"setup_s": setup_end - spawned_at}
    if mode == "setup":
        print(json.dumps(result))
        return
    seconds, traced = float(argv[2]), argv[3] == "1"
    tracer = None
    if traced:
        from layers import Tracer
        tracer = Tracer()
        tracer.install()
    rounds, round_starts = [], []
    t_first = time.perf_counter()
    while True:
        if tracer:
            round_starts.append(len(tracer.spans))
        times, outputs = [], []
        for _, fn, summary in ops:
            t0 = time.perf_counter()
            try:
                out = fn()
            except Exception as exc:  # a failed operation is counted, the run goes on
                traceback.print_exc()
                out = exc
            times.append(time.perf_counter() - t0)
            outputs.append({"error": f"{type(out).__name__}: {out}"}
                           if isinstance(out, Exception) else summary(out))
            # the result is dropped before the next operation, as a caller
            # that consumes it would: results kept across operations pin heap
            # blocks and make the peak memory grow with the number of rounds
            del out
        rounds.append({"wall_s": sum(times), "op_s": times, "outputs": outputs})
        if time.perf_counter() - t_first >= seconds:
            break
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.uninstall()
        from layers import layer_metrics
        result["layers"] = layer_metrics(tracer.spans, round_starts)
        out_dir = pathlib.Path(__file__).resolve().parent / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"trace-{spec['workload']}.json")
    if spec["workload"] == "eigen-floquet-2d":
        result["k_reduced"] = shear_reduction_check(spec, mods)
    result["names"] = [name for name, _, _ in ops]
    result["rounds"] = rounds
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])

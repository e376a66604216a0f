"""The benchmark's worker builds and runs one operation of every workload.

`perfbench/worker.py` calls the package's public functions with the
keywords it needs; a signature change that breaks it would otherwise show
only as a failed benchmark run.
"""

import pathlib
import sys

import pytest

import kppspeed  # noqa: F401  (the worker reads the layer modules from sys.modules)

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def perfbench_modules():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import worker
        import workloads
        yield worker, workloads
    finally:
        sys.path.remove(str(PERFBENCH))


@pytest.mark.parametrize("workload", ["speed-floquet-1d", "speed-steady-1d",
                                      "eigen-floquet-2d", "cauchy-1d"])
def test_worker_runs_the_first_operation(perfbench_modules, workload):
    worker, workloads = perfbench_modules
    spec = workloads.strip_private(workloads.build(workload, 1))
    ops = worker.build_ops(spec, sys.modules)
    _, fn, summary = ops[0]
    assert summary(fn())
    if workload == "eigen-floquet-2d":
        assert len(worker.shear_reduction_check(spec, sys.modules)) == len(ops)

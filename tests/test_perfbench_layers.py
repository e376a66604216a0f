"""The benchmark's tracer finds every function it wraps in the package.

`perfbench/layers.py` wraps program functions by name; a renamed or deleted
one makes `Tracer.install` raise, which this test reports without running
the benchmark.
"""

import importlib.util
import pathlib
import sys

import kppspeed

LAYERS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _lookup(module, dotted):
    obj = module
    for part in dotted.split("."):
        obj = getattr(obj, part)
    return obj


def test_tracer_installs_and_uninstalls_on_the_package():
    layers = _load_layers()
    targets = [(sys.modules[f"{kppspeed.__name__}.{mod}"], attr)
               for _, mod, attr, _ in layers.TARGETS]
    originals = [_lookup(m, attr) for m, attr in targets]
    tracer = layers.Tracer()
    try:
        tracer.install()
        wrapped = [_lookup(m, attr) for m, attr in targets]
    finally:
        tracer.uninstall()
    assert all(w.__wrapped__ is o for w, o in zip(wrapped, originals))
    assert [_lookup(m, attr) for m, attr in targets] == originals

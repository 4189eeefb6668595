"""The traced benchmark still finds every program function it wraps.

`perfbench/tracer.py` names, per layer, module attributes and class
methods of the program; `perfbench/run.py --trace 1` wraps them and fails
with a KeyError or AttributeError on a name the program no longer has.
This test loads the tracer by file path (it imports only the standard
library) and resolves every name the way `Tracer.install` does.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _module_names():
    """run.MODULES (module key -> module name), read without importing
    run.py, which needs the benchmark directory on the import path."""
    tree = ast.parse((PERFBENCH / "run.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "MODULES" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/run.py defines no MODULES")


def test_every_traced_layer_resolves_in_the_program():
    layers = _load_tracer().LAYERS
    modules = _module_names()
    assert len(layers) > 20
    for layer, (key, attrs) in layers.items():
        module = importlib.import_module(modules[key])
        for attr in attrs:
            if "." in attr:
                cls_name, meth = attr.split(".")
                # Tracer.install reads the class's own __dict__
                assert meth in vars(getattr(module, cls_name)), (layer, attr)
            else:
                assert callable(getattr(module, attr, None)), (layer, attr)


"""Guards for the tooling that drives the package from outside `src/`."""

import importlib
import importlib.util
import os

TRACER_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_a_package_callable():
    # the traced benchmark wraps these by name; a rename must fail here too
    tracer = _load_tracer()
    missing = []
    for module_name, functions in tracer.TRACED.items():
        module = importlib.import_module(f"{tracer.PACKAGE}.{module_name}")
        missing += [f"{module_name}.{fn}" for fn in functions
                    if not callable(getattr(module, fn, None))]
    assert tracer.TRACED and not missing, missing

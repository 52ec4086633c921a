"""The benchmark under perfbench/ wraps and imports package names by lookup;
a rename in src/ would break it without failing any other test. The list
of wrapped names is read from the tracer itself, so it stays current when
the benchmark drops or adds spans."""

import importlib.util
import os

from flowtpp import accel, sampler

PERFBENCH = os.path.join(os.path.dirname(__file__), "..", "perfbench")


def load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", os.path.join(PERFBENCH, "tracer.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_is_defined_on_its_owner():
    targets = load_tracer().Tracer()._targets()
    assert targets
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, *_ in targets if attr not in vars(owner)]
    assert not missing, f"perfbench/tracer.py wraps undefined names: {missing}"


def test_imported_names_exist():
    assert accel.NUMBA_ENABLED is False
    assert accel.python_impl(len) is len
    assert set(sampler.INVARIANT_COUNTS) >= {"checks", "violations"}

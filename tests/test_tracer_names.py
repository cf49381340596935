"""Every name the benchmark's tracer wraps still exists in uqsim.

perfbench/spans.py wraps functions by (module, attribute) and methods
through their class __dict__; a name that a refactor drops would make every
traced benchmark run fail, so it fails here instead.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def traced_names():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(mod, attr) for mod, attr, *_ in spans.TRACED]


@pytest.mark.parametrize("mod_name, attr", traced_names())
def test_traced_name_resolves(mod_name, attr):
    module = importlib.import_module(f"uqsim.{mod_name}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert meth in vars(getattr(module, cls_name)), f"{attr} is not defined on its class"
    else:
        assert callable(getattr(module, attr, None)), f"uqsim.{mod_name}.{attr} is missing"

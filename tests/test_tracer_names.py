"""Every name the benchmark's tracer wraps still exists in uqsim.

perfbench/spans.py wraps functions by (module, attribute) and methods
through their class __dict__; a name that a refactor drops would make every
traced benchmark run fail, so it fails here instead. Its `install` reads
each module from sys.modules right after `import uqsim.cli`, so every
module it names must be registered by then, loaded or not.
"""
import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"


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


def test_traced_modules_are_in_sys_modules_after_importing_the_cli():
    code = ("import json, sys; sys.path.insert(0, sys.argv[1]); import uqsim.cli; "
            "print(json.dumps(sorted(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code, str(ROOT / "src")],
                         capture_output=True, text=True, check=True, timeout=60)
    missing = {f"uqsim.{mod}" for mod, _ in traced_names()} - set(json.loads(out.stdout))
    assert not missing

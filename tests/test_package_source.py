"""The package reads no environment variable: every setting is a config
key, a flag or a module constant, so the same command and input files give
the same run in any shell."""
import re
from pathlib import Path

import uqsim


def test_the_package_reads_no_environment_variable():
    hits = [f"{path.name}:{lineno}: {line.strip()}"
            for path in sorted(Path(uqsim.__file__).parent.rglob("*.py"))
            for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
            if re.search(r"os\.environ|getenv", line)]
    assert hits == []
